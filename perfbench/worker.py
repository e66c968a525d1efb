"""One benchmark process: set up, run rounds of one workload, check every job.

Started by ``run.py`` in a fresh interpreter with BLAS/OpenMP threads pinned.
It prints one JSON object as its last line of standard output.

``--setup-only`` stops after set-up and reports only its duration; ``run.py``
starts several such processes so that ``setup_s`` is a median.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from spans import Tracer, crossover_sweep, kernel_sweep, layer_metrics  # noqa: E402


class Runner:
    """Runs jobs in this process, times each one, and checks its output."""

    def __init__(self, workdir: Path):
        import numpy  # imports are part of set-up
        import scipy
        from metastable import cli, crossover, landscape, potentials, rates

        self.versions = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        self.np, self.cli, self.landscape, self.potentials = numpy, cli, landscape, potentials
        self.crossover, self.rates = crossover, rates
        self.out = workdir / "out"
        self.out.mkdir(parents=True, exist_ok=True)

    # -- references (evaluated outside the timed region, tracing paused) -----

    def mc_reference(self, model, eps):
        if model == "dw":
            return math.pi * math.sqrt(2.0) * math.exp(0.25 / eps)
        r = self.rates
        minimum = r.MinimumSpec(value=-0.5, eigenvalues=(2.0, 3.0))
        saddle = r.SaddleSpec(value=0.0, regime=r.FlatStable(p=2, coefficient=0.125),
                              unstable_eigenvalue=1.0, stable_eigenvalues=())
        return r.ek_flat_stable(minimum, saddle, eps).expected_time

    def other_route(self, name, alpha, route):
        return self.crossover.evaluate(name, alpha, route=route).value

    # -- one job -------------------------------------------------------------

    def run(self, job: wl.Job, tracer: Tracer | None = None):
        """Return (latency seconds, Outcome, bytes written)."""
        for f in self.out.iterdir():
            f.unlink()
        result = None
        t0 = time.perf_counter()
        try:
            if job.argv is not None:
                rc = self.cli.main(job.argv + ["--out", str(self.out)])
            else:
                result = self._comm_height(job)
                rc = 0
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # a job that raises is a failed job, not a crashed benchmark
            latency = time.perf_counter() - t0
            return latency, wl.Outcome(False, f"raised {type(exc).__name__}: {exc}"), 0
        latency = time.perf_counter() - t0
        written = sum(f.stat().st_size for f in self.out.iterdir())
        if tracer is not None:
            tracer.enabled = False
        try:
            if rc != 0:
                outcome = wl.Outcome(False, f"exit code {rc}")
            else:
                outcome = self._check(job, result)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            outcome = wl.Outcome(False, f"unreadable output: {type(exc).__name__}: {exc}")
        finally:
            if tracer is not None:
                tracer.enabled = True
        return latency, outcome, written

    def _comm_height(self, job):
        model = self.potentials.load_potential("rotated2", {"gamma": job.spec["gamma"]})
        n = job.spec["n"]
        grid = {"bounds": job.spec["bounds"], "shape": (n, n)}
        return self.landscape.communication_height_2d(model, (-wl.SQ2, 0.0), (wl.SQ2, 0.0), grid)

    def _check(self, job, result):
        if job.kind == "simulate":
            return wl.check_simulate(job, self.out, self.mc_reference)
        if job.kind == "verify":
            return wl.check_verify(job, self.out)
        if job.kind == "comm_height":
            model = self.potentials.rotated_two_particle(job.spec["gamma"])
            seed = self.np.array(job.spec["saddle_seed"])
            saddle = self.landscape.find_stationary_points(model, [seed])[0]
            return wl.check_comm(job, result, saddle.value)
        if job.kind == "classify":
            return wl.check_classify(job, self.out)
        if job.kind == "rate":
            return wl.check_rate(job, self.out)
        if job.kind == "sweep":
            return wl.check_sweep(job, self.out)
        return wl.check_tabulate(job, self.out, self.other_route)


# ---------------------------------------------------------------------------
# span-count consistency: what the spans counted inside must equal what the
# benchmark counts from the job's input and output


def span_problems(job, outcome, d):
    calls, nested, nested_rows, entries = d["calls"], d["nested"], d["nested_rows"], d["entries"]
    c = outcome.counts
    want = []
    if job.argv is not None:
        want.append(("cli.main calls", calls["cli.main"], 1))
    if job.kind == "simulate" and c:
        sim = "sampling.simulate_first_hitting"
        steps = nested[(sim, "potentials.gradient_many")]
        replica_steps = nested_rows[(sim, "potentials.gradient_many")]
        want += [("sampling.simulate calls", calls[sim], 1), ("rates entries", entries["rates"], 1)]
        if c["aborted"]:  # the outside counts are upper bounds
            want += [("sampling.steps <= outside count", steps <= c["steps"], True),
                     ("sampling.replica_steps <= outside count", replica_steps <= c["replica_steps"], True)]
        else:
            want += [("sampling.steps", steps, c["steps"]), ("sampling.replica_steps", replica_steps, c["replica_steps"])]
    elif job.kind == "verify" and c:
        rows = len(job.spec["eps"])
        bounds = ("capacity.dirichlet_upper_bound", "capacity.fiber_lower_bound")
        want += [("dirichlet_upper calls", calls[bounds[0]], rows),
                 ("fiber_lower calls", calls[bounds[1]], rows),
                 ("rates entries", entries["rates"], rows),
                 ("dirichlet_upper value_many rows", nested_rows[(bounds[0], "potentials.value_many")],
                  c["grid_nodes"] + c["check_nodes"])]
        if job.spec.get("soft"):
            want += [("landscape normal form from capacity",
                      nested[("capacity.default_box", "landscape.codim1_coefficients")], rows),
                     ("crossover entries", entries["crossover"] >= rows, True)]
    elif job.kind == "comm_height":
        gate = "landscape.communication_height_2d"
        want += [("communication_height_2d calls", calls[gate], 1),
                 ("grid rows", nested_rows[(gate, "potentials.value_many")], job.spec["n"] ** 2)]
    elif job.kind == "classify" and c:
        want += [("find_stationary_points calls", calls["landscape.find_stationary_points"], 1),
                 ("classify calls", calls["landscape.classify"], c["rows"])]
    elif job.kind == "rate":
        want += [("rates entries", entries["rates"], len(job.spec["eps"]))]
    elif job.kind == "sweep" and c:
        want += [("rates entries", entries["rates"], len(job.spec["eps"])),
                 ("sweep rows", sum(v for k, v in d["rows"].items() if k.startswith("rates.sweep_")), c["rows"])]
    elif job.kind == "tabulate":
        want += [("crossover entries", entries["crossover"], len(wl.CROSSOVER_NAMES) * len(job.spec["alphas"]))]
    return [f"{job.kind}: {what} = {got}, expected {exp}" for what, got, exp in want if got != exp]


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Outcomes and outside counts over a set of jobs."""

    def __init__(self):
        self.latencies = {}  # (round, job) -> latency of each repetition
        self.attempted = self.failed = self.known = 0
        self.failures, self.known_reasons = [], Counter()
        self.counts = Counter()

    def add(self, job, latency, outcome, written, key=None):
        if key is not None:
            self.latencies.setdefault(key, []).append(latency)
        self.attempted += 1
        self.counts["bytes_written"] += written
        for k, v in outcome.counts.items():
            self.counts[k] += v
        if job.kind == "simulate":
            self.counts["simulate_jobs"] += 1
            self.counts["simulate_s"] += latency
        if job.kind == "verify":
            self.counts["verify_rows"] += len(job.spec["eps"])
        if outcome.ok:
            return
        if outcome.defect:
            self.known += 1
            self.known_reasons[outcome.defect] += 1
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{' '.join(job.argv or [job.kind])}: {outcome.reason}")

    def best(self):
        """Each round job's fastest repetition."""
        return [min(v) for v in self.latencies.values()]

    def round_s(self, pool_size):
        """Time of one round of the pool, from each job's fastest repetition."""
        return sum(self.best()) / pool_size


# Distinct rounds per run.  The run cycles through them, so every job repeats
# and counts with its fastest repetition: on a shared machine, bursts of
# interference slow stretches of a run by tens of percent, and a job's fastest
# repetition is far steadier than a median of round times.  Forty short
# closed_forms rounds keep the work per round from depending on the seed; two
# grid_checks rounds give the latency percentiles 30 jobs.
POOL_ROUNDS = {"mc_validate": 1, "grid_checks": 2, "closed_forms": 40}


def round_pool(workload, seed, size, pool):
    rng = random.Random(seed)
    make = wl.ROUNDS[workload]
    count = POOL_ROUNDS[workload] if size == "full" else 1
    return [make(rng, size, pool) for _ in range(count)]


def run_jobs(runner, jobs, tally, tracer=None, problems=None, round_index=None):
    for k, job in enumerate(jobs):
        before = tracer.snapshot() if tracer else None
        latency, outcome, written = runner.run(job, tracer)
        tally.add(job, latency, outcome, written, None if round_index is None else (round_index, k))
        if tracer:
            problems += span_problems(job, outcome, Tracer.delta(before, tracer.snapshot()))


def measure(runner, once, pool, seconds, traced=False):
    """Closed loop: the pool's rounds back to back, cycling through the pool,
    until the next round would overrun (the first cycle always completes);
    then the once-per-run jobs.  Traced, each batch is run plain, then again
    with spans.  Returns the tallies, the tracer, span problems, the number of
    rounds run and the once-per-run time."""
    plain, tr_tally = Tally(), Tally()
    tracer, problems = Tracer() if traced else None, []

    def batch(jobs, round_index=None):
        t0 = time.perf_counter()
        run_jobs(runner, jobs, plain, round_index=round_index)
        plain_s = time.perf_counter() - t0
        if traced:
            tracer.install()
            try:
                run_jobs(runner, jobs, tr_tally, tracer, problems, round_index)
            finally:
                tracer.remove()
        return plain_s

    t_start, done = time.perf_counter(), 0
    while True:
        batch(pool[done % len(pool)], done % len(pool))
        done += 1
        elapsed = time.perf_counter() - t_start
        if done >= len(pool) and elapsed + elapsed / done > seconds:
            break
    once_s = batch(once) if once else 0.0
    return plain, tr_tally, tracer, problems, done, once_s


def setup(args, workdir):
    """Imports, model construction and one warm-up job per job kind."""
    warnings.simplefilter("ignore")
    runner = Runner(workdir)
    pool = None
    if args.workload == "closed_forms":
        pool = wl.PotentialPool(random.Random(f"pool-{args.seed}"), workdir / "models", 16)
    warm = wl.ROUNDS[args.workload](random.Random(f"warmup-{args.seed}"), "warmup", pool)
    with contextlib.redirect_stderr(io.StringIO()):  # warm-up jobs are too short to pass their checks
        for job in warm:
            runner.run(job)
    return runner, pool


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(wl.ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workdir = Path(args.workdir)
    try:
        runner, pool = setup(args, workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        once = wl.once_jobs(args.workload, random.Random(f"once-{args.seed}"), args.size)
        rounds = round_pool(args.workload, args.seed, args.size, pool)
        plain, traced, tracer, problems, done, once_s = measure(
            runner, once, rounds, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    doc = {
        "setup_s": setup_s,
        "versions": runner.versions,
        "pool_rounds": len(rounds),
        "rounds": done,
        "wall_s": plain.round_s(len(rounds)),
        "jobs": len(plain.latencies),
        "once_s": once_s,
        "job_p50_s": quantile(plain.best(), 50),
        "job_p90_s": quantile(plain.best(), 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "known_defects": plain.known + traced.known,
        "known_reasons": dict(plain.known_reasons + traced.known_reasons),
        "failures": plain.failures + traced.failures,
        "counts": dict(plain.counts),
    }
    if args.trace:
        layers = layer_metrics(tracer, traced.counts)
        layers.update(kernel_sweep(args.seed))
        layers.update(crossover_sweep())
        layers["sampling.replica_steps_per_s"] = (
            plain.counts["replica_steps"] / plain.counts["simulate_s"] if plain.counts["simulate_s"] else 0.0)
        layers["trace.overhead_s"] = traced.round_s(len(rounds)) - doc["wall_s"]
        doc["per_layer"] = layers
        doc["span_problems"] = problems
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
