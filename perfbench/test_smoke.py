"""Smoke test of the benchmark: every workload at a tiny size, both modes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(set(all_names)) == len(all_names)
    assert all(NAME.match(n) for n in all_names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "closed_forms", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seeded_simulation_matches_direct_library_call(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import random

    import workloads as wl
    from metastable import Ball, SimulationConfig, default_dt, double_well_1d, simulate_first_hitting
    from worker import Runner

    job = wl.mc_round(random.Random(3), "tiny")[0]
    runner = Runner(tmp_path)
    _, outcome, _ = runner.run(job)
    assert outcome.ok, outcome.reason
    doc = json.loads((tmp_path / "out" / "simulate.json").read_text())
    model, spec = double_well_1d(), job.spec
    direct = simulate_first_hitting(model, SimulationConfig(
        eps=spec["eps"], dt=default_dt(model, spec["eps"], [(-1.0,), (1.0,)]), max_time=spec["max_time"],
        replicas=spec["replicas"], seed=spec["seed"], start=(-1.0,), target=Ball((1.0,), 0.2)))
    assert doc["estimate"]["mean"] == direct.mean
    assert doc["estimate"]["hits"] == direct.hit_count
