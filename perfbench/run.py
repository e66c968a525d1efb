"""Benchmark of the ``metastable`` package: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload mc_validate --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``mc_validate`` (Monte Carlo through
``simulate --saddle-seed``), ``grid_checks`` (capacity sandwiches and the 2-D
communication-height grid search) and ``closed_forms`` (millisecond CLI jobs).

The workload runs in a fresh process with BLAS/OpenMP pools pinned to one
thread; one client runs its jobs back to back (closed loop), cycling through a
fixed pool of rounds drawn from the seed, and every job's output is checked
against an independent reference.  ``wall_s`` is the time of one round and
``job_p50_s``/``job_p90_s`` are latency percentiles, each job counted with its
fastest repetition.  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` each round is run once plain and once
with spans around every call into the package, and the per-layer metrics are
printed.  Human-readable lines come first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` of the checkout; without it the command
exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_validate", "grid_checks", "closed_forms")
SETUP_RUNS = 5  # set-up is measured in this many fresh processes; setup_s is their median
TIMEOUT_S = 170


# one client in one process: BLAS/OpenMP pools get one thread, which keeps
# run-to-run spread lower than a pool as wide as the CPUs on a shared machine
THREAD_PIN = 1


def child_env():
    env = dict(os.environ)
    pin = str(THREAD_PIN)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = pin
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(seed, versions):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30)
        commit = git.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "blas_threads": THREAD_PIN,
        "commit": commit,
        "seed": seed,
    }


WORK = ROOT / ".perfbench_work"


def run_worker(args, extra, tag):
    workdir = WORK / str(os.getpid()) / tag
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size,
           "--workdir", str(workdir)] + extra
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"worker {tag} timed out after {TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"worker {tag} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small jobs for the smoke test")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "metastable" / "__init__.py").is_file():
        sys.exit(f"no program to benchmark: {ROOT / 'src' / 'metastable'} is missing")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def setup_runs(tags):
        return [run_worker(args, ["--setup-only"], tag)["setup_s"] for tag in tags] if not args.trace else []

    # set-up time drifts with the machine within seconds: half of the extra
    # set-ups run before the measurement and half after it
    extra = [f"setup{i}" for i in range(SETUP_RUNS - 1)]
    try:
        setups = setup_runs(extra[: len(extra) // 2])
        doc = run_worker(args, [], "main")
        setups += setup_runs(extra[len(extra) // 2:])
    finally:
        shutil.rmtree(WORK / str(os.getpid()), ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    setups.append(doc["setup_s"])
    print("environment " + json.dumps(environment(args.seed, doc["versions"]), sort_keys=True))

    if args.trace:
        values = doc["per_layer"]
        samples = {name: "traced rounds" for name in values}
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": doc["wall_s"],
                  "job_p50_s": doc["job_p50_s"], "job_p90_s": doc["job_p90_s"],
                  "peak_rss_mb": doc["peak_rss_mb"]}
        jobs = f"n={doc['jobs']} jobs, each at its fastest of {doc['rounds'] // doc['pool_rounds']}+ repetitions"
        samples = {"setup_s": f"n={len(setups)} processes",
                   "wall_s": f"one round of {doc['pool_rounds']} distinct rounds, {doc['rounds']} rounds run",
                   "job_p50_s": jobs, "job_p90_s": jobs, "peak_rss_mb": "n=1 process"}
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']} ({samples[m['name']]})")

    if doc["once_s"]:
        print(f"once-per-run jobs (outside wall_s and the percentiles): {doc['once_s']:.4g} s")
    attempted, failed, known = doc["attempted"], doc["failed"], doc["known_defects"]
    print(f"jobs attempted {attempted}, failed {failed} (unexpected), known defects {known}; "
          f"failed_frac = {(failed + known) / attempted:.4g} (n={attempted} jobs)")
    for reason, count in sorted(doc["known_reasons"].items()):
        print(f"known defect x{count}: {reason}")
    for line in doc["failures"]:
        print(f"FAILED {line}")
    problems = doc.get("span_problems", [])
    for line in problems[:20]:
        print(f"SPAN CHECK {line}")
    if args.workload == "mc_validate" and not args.trace:
        c = doc["counts"]
        print(f"replica_steps_per_s = {c['replica_steps'] / c['simulate_s']:.6g} 1/s "
              f"(n={c['simulate_jobs']} jobs, {c['replica_steps']} replica-steps)")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
