"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root::

    python3 perfbench/spread.py --workload grid_checks --seeds 1-10

For each end-to-end metric it prints the median over the runs and the
interquartile range (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed} ({time.perf_counter() - t0:.0f} s): correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{args.workload} {m['name']}: median {median:.6g} {m['unit']}, "
              f"IQR/median {(q3 - q1) / median:.4f} (bound {m['bound']})")


if __name__ == "__main__":
    main()
