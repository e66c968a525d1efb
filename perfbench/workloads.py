"""Job lists for the three benchmark workloads, and the reference check of each job.

A workload is a sequence of *rounds*; a round is a fixed list of job kinds
whose parameters are drawn from ``random.Random(seed)``.  Every round of
a workload has the same composition, so the work per round barely depends on
the seed.  The program under test only ever sees the generated inputs: CLI
argument lists, generated potential files, or library call arguments.

Each job carries what its reference check needs.  The references are computed
here, independently of the code path the job exercises (analytic stationary
points and Eyring-Kramers times, hand-built regime specs, the other crossover
route, Newton saddle values).

A check decides row by row, from the output itself, whether a failure is the
symptom of a defect recorded in ROADMAP.md (``Outcome.defect``).  A job whose
every failing row shows such a symptom counts as a known defect; any other
failure is unexpected and makes the run incorrect.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

SQ2 = math.sqrt(2.0)
# natural logs of the largest and the smallest positive float64
LOG_MAX, LOG_MIN = math.log(sys.float_info.max), math.log(5e-324)
EXP_MAX = 709.0  # the package's overflow guard returns inf above this exp() argument
ROADMAP_3 = "ROADMAP item 3: classical regime chosen for a soft eigenvalue inside the crossover window"
ROADMAP_4 = "ROADMAP item 4: the expected time lies outside the float64 range; the artifact holds Infinity or 0"
SWEEP_FIELDS = [
    "control_parameter", "eps", "barrier", "prefactor", "expected_time", "regime_tag", "error_order",
]
CROSSOVER_NAMES = ("chi", "psi_minus", "psi_plus", "theta_minus", "theta_plus")


@dataclass
class Job:
    kind: str
    argv: list | None  # CLI arguments without --out; None for a direct library call
    spec: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    counts: dict = field(default_factory=dict)  # quantities counted from outside the program
    defect: str | None = None  # set when every failing row shows the symptom of this known defect


def verdict(problems, known, counts) -> Outcome:
    """Outcome of a job from its unexpected problems and its ``(defect, reason)``
    known-defect rows; a job with both counts as an unexpected failure."""
    if problems:
        return Outcome(False, "; ".join(problems[:3]), counts)
    if known:
        return Outcome(False, "; ".join(reason for _, reason in known[:3]), counts, known[0][0])
    return Outcome(True, "", counts)


# ---------------------------------------------------------------------------
# analytic stationary points: (location, value, eigenvalues)


def dw_points():
    return {"minima": [((-1.0,), -0.25, (2.0,)), ((1.0,), -0.25, (2.0,))],
            "saddles": [((0.0,), 0.0, (-1.0,))]}


def rotated2_points(g):
    minima = [((-SQ2, 0.0), -0.5, (2.0, 2.0 + 2.0 * g)), ((SQ2, 0.0), -0.5, (2.0, 2.0 + 2.0 * g))]
    if g > 0.5:
        return {"minima": minima, "saddles": [((0.0, 0.0), 0.0, (-1.0, 2.0 * g - 1.0))], "other": []}
    s = 1.0 - 2.0 * g  # split saddles at y2 = +-sqrt(2 s) for 1/3 < gamma < 1/2
    y2 = math.sqrt(2.0 * s)
    saddles = [((0.0, y2), -0.5 * s * s, (2.0 - 6.0 * g, 2.0 * s)),
               ((0.0, -y2), -0.5 * s * s, (2.0 - 6.0 * g, 2.0 * s))]
    return {"minima": minima, "saddles": saddles, "other": [((0.0, 0.0), 0.0)]}


def chain3_points(g):
    lam = 1.5 * g - 1.0  # doubly degenerate Fourier eigenvalue at the origin
    minima = [((s, s, s), -0.75, (2.0, 2.0 + 1.5 * g, 2.0 + 1.5 * g)) for s in (-1.0, 1.0)]
    if lam > 0:
        return {"minima": minima, "saddles": [((0.0, 0.0, 0.0), 0.0, (-1.0, lam, lam))], "other": []}
    return {"minima": minima, "saddles": [], "other": [((0.0, 0.0, 0.0), 0.0)]}


def ek_log_time(minimum, saddle, eps):
    """Natural log of the classical Eyring-Kramers expected time from analytic spectra."""
    (_, vm, lam_m), (_, vs, lam_s) = minimum, saddle
    prefactor = 2.0 * math.pi / -min(lam_s) * math.sqrt(abs(math.prod(lam_s)) / math.prod(lam_m))
    return math.log(prefactor) + (vs - vm) / eps


def outside_float_range(exp_arg, log_value):
    """True when ``exp(exp_arg)`` overflows or underflows, or the value with
    natural log ``log_value`` is not a finite, non-zero float64 (ROADMAP item 4)."""
    return not (LOG_MIN < exp_arg < EXP_MAX and LOG_MIN < log_value < LOG_MAX)


def ek_outside_float_range(minimum, saddle, eps):
    return outside_float_range((saddle[1] - minimum[1]) / eps, ek_log_time(minimum, saddle, eps))


def soft_window(eps):
    return math.sqrt(eps * abs(math.log(eps)))


def soft_inside_window(eigenvalues, eps):
    """A saddle eigenvalue that the package's 1e-6 zero test misses but that lies
    inside the crossover window, where the classical formula breaks down (ROADMAP item 3)."""
    return any(1e-6 < abs(v) < soft_window(eps) for v in eigenvalues)


# ---------------------------------------------------------------------------
# generated polynomial potentials


def _poly_mul(p, q):
    out = {}
    for ea, ca in p.items():
        for eb, cb in q.items():
            e = tuple(a + b for a, b in zip(ea, eb))
            out[e] = out.get(e, 0.0) + ca * cb
    return out


def _linear(row):
    d = len(row)
    return {tuple(int(i == j) for j in range(d)): float(c) for i, c in enumerate(row) if c != 0.0}


def _rotation(rng, d):
    """Random orthogonal matrix (Gram-Schmidt on Gaussian columns)."""
    cols = []
    while len(cols) < d:
        v = [rng.gauss(0.0, 1.0) for _ in range(d)]
        for c in cols:
            dot = sum(a * b for a, b in zip(v, c))
            v = [a - dot * b for a, b in zip(v, c)]
        norm = math.sqrt(sum(a * a for a in v))
        if norm > 1e-3:
            cols.append([a / norm for a in v])
    return [[cols[j][i] for j in range(d)] for i in range(d)]  # rows: x_i = sum_j R_ij y_j


def generated_potential(rng, d):
    """``V = a y1^4/4 - b y1^2/2 + sum_k k_k y_k^2/2`` in rotated coordinates ``y = R^T x``.

    The polynomial is expanded into monomials of ``x`` and handed to the program
    as a JSON term list; the benchmark keeps the analytic stationary points.
    """
    a, b = rng.uniform(0.5, 2.0), rng.uniform(0.5, 1.5)
    ks = [rng.uniform(0.5, 2.0) for _ in range(d - 1)]
    R = _rotation(rng, d)
    ys = [_linear([R[i][j] for i in range(d)]) for j in range(d)]  # y_j = sum_i R_ij x_i
    y1sq = _poly_mul(ys[0], ys[0])
    terms = {}
    for poly, c in [(_poly_mul(y1sq, y1sq), a / 4.0), (y1sq, -b / 2.0)] + [
        (_poly_mul(y, y), k / 2.0) for y, k in zip(ys[1:], ks)
    ]:
        for e, v in poly.items():
            terms[e] = terms.get(e, 0.0) + c * v
    doc = {"dimension": d,
           "terms": [{"exponents": list(e), "coeff": c} for e, c in sorted(terms.items()) if c != 0.0]}
    r1 = math.sqrt(b / a)
    to_x = lambda y: tuple(sum(R[i][j] * y[j] for j in range(d)) for i in range(d))
    minima = [(to_x([s * r1] + [0.0] * (d - 1)), -b * b / (4.0 * a), tuple([2.0 * b] + ks)) for s in (-1, 1)]
    saddles = [(to_x([0.0] * d), 0.0, tuple([-b] + ks))]
    return doc, {"minima": minima, "saddles": saddles, "other": []}


# ---------------------------------------------------------------------------
# argument helpers


def _vec(p):
    return ",".join(repr(float(v)) for v in p)


def _jitter(p, rng, scale=1e-3):
    return [v + rng.uniform(-scale, scale) for v in p]


def _logu(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _eps_list(rng, k, lo=1e-4, hi=0.5):
    return [_logu(rng, lo, hi) for _ in range(k)]


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


def _gamma_both_sides(rng, lo, crit, hi, gap):
    if rng.random() < 0.5:
        return rng.uniform(lo, crit - gap)
    return rng.uniform(crit + gap, hi)


# ---------------------------------------------------------------------------
# mc_validate


MC_SIZES = {
    # replicas, max-time, eps; horizons censor a few percent, so every job
    # runs the full horizon and its step count does not depend on the seed
    "full": {"dw": (1000, 35.0, 0.3), "rot2": (200, 25.0, 0.3)},
    "tiny": {"dw": (16, 60.0, 0.3), "rot2": (8, 60.0, 0.35)},
    "warmup": {"dw": (4, 0.5, 0.3), "rot2": (4, 0.5, 0.35)},
}


def _simulate_job(rng, which, size):
    replicas, horizon, eps = MC_SIZES[size][which]
    seed = rng.getrandbits(63)
    if which == "dw":
        argv = ["simulate", "--potential", "double_well", "--eps", repr(eps), "--start=-1",
                "--target", "1", "--radius", "0.2", "--saddle-seed", "0"]
    else:
        argv = ["simulate", "--potential", "rotated2", "--params", "gamma=0.5", "--eps", repr(eps),
                f"--start=-{SQ2!r},0", "--target", f"{SQ2!r},0", "--saddle-seed", "0.01,0.01"]
    argv += ["--max-time", repr(horizon), "--replicas", str(replicas), "--seed", str(seed), "--times-csv"]
    return Job("simulate", argv, {"model": which, "eps": eps, "replicas": replicas, "seed": seed,
                                  "max_time": horizon})


def mc_round(rng, size, pool=None):
    # two step-heavy jobs per replica-heavy one, so that the latency median
    # falls among the rotated2 jobs and the 90th percentile among the double wells
    return [_simulate_job(rng, "dw", size), _simulate_job(rng, "rot2", size), _simulate_job(rng, "rot2", size)]


# ---------------------------------------------------------------------------
# grid_checks


def _verify_job(rng, potential, gamma, eps):
    if potential == "double_well":
        argv, pts, dim = ["verify", "--potential", "double_well"], dw_points(), 1
    elif potential == "rotated2":
        argv, pts, dim = ["verify", "--potential", "rotated2", "--params", f"gamma={gamma!r}"], rotated2_points(gamma), 2
    else:
        argv, pts, dim = ["verify", "--potential", "chain", "--params", f"N=3,gamma={gamma!r}"], chain3_points(gamma), 3
    saddle = pts["saddles"][0]
    argv += [f"--saddle-seed={_vec(_jitter(saddle[0], rng, 1e-2))}", "--eps", repr(eps)]
    soft = any(abs(v) < 1e-9 for v in saddle[2])
    return Job("verify", argv, {"dim": dim, "eps": [eps], "grid0": 65, "soft": soft,
                                "saddle_eigenvalues": saddle[2]})


def _comm_job(rng, n, gamma):
    pts = rotated2_points(gamma)
    return Job("comm_height", None, {"gamma": gamma, "n": n, "bounds": ((-2.5, 2.5), (-2.5, 2.5)),
                                    "saddle_seed": _jitter(pts["saddles"][0][0], rng, 1e-3)})


def grid_round(rng, size, pool=None):
    if size == "tiny":
        return [
            _verify_job(rng, "rotated2", 0.5, _logu(rng, 0.01, 0.05)),
            _verify_job(rng, "rotated2", rng.uniform(0.51, 0.75), _logu(rng, 0.01, 0.05)),
            _verify_job(rng, "double_well", None, _logu(rng, 0.01, 0.05)),
            _comm_job(rng, 65, rng.uniform(0.4, 0.75)),
            _comm_job(rng, 65, rng.uniform(0.4, 0.75)),
        ]
    if size == "warmup":
        return [_verify_job(rng, "rotated2", 0.6, 0.05), _comm_job(rng, 33, 0.6)]
    # 15 jobs, so that a run holds several rounds: the latency median falls
    # among the 10 rotated2 sandwiches and the 90th percentile on the
    # 3-chain sandwich, the lower of the two jobs of 2-3 s.  gamma in
    # (0.5, 0.51) is left to once_jobs: there the box refines up to 1025^2
    # and a sandwich takes 0.2-4 s, which would make round times depend on the seed
    jobs = [_verify_job(rng, "rotated2", 0.5, _logu(rng, 0.01, 0.05))]
    jobs += [_verify_job(rng, "rotated2", rng.uniform(0.51, 0.75), _logu(rng, 0.01, 0.05)) for _ in range(9)]
    jobs += [_comm_job(rng, 257, rng.uniform(0.4, 0.75)) for _ in range(2)]
    jobs += [
        _verify_job(rng, "double_well", None, _logu(rng, 0.01, 0.05)),
        # below eps 0.045 the lower bound takes about 1.5x longer, which
        # would make the round time depend on the seed
        _verify_job(rng, "chain", 1.0, _logu(rng, 0.045, 0.08)),
        _comm_job(rng, 1025, rng.uniform(0.4, 0.75)),
    ]
    return jobs


def once_jobs(workload, rng, size):
    """Jobs run once per measurement, after the rounds.

    Both are saddles just past a pitchfork, where a soft eigenvalue lies inside
    the crossover window (ROADMAP item 3).  The 3-chain just above gamma* = 2/3
    refines to the 257^3 cap (about 16 s and 2.4 GB) and sets the memory peak
    of grid_checks.  rotated2 within 0.002 of gamma = 1/2 refines to 1025^2
    (2-4 s).  As part of every round they would leave too few rounds in a run,
    or rounds of seed-dependent length, for a steady median.
    """
    if workload == "grid_checks" and size == "full":
        return [_verify_job(rng, "chain", 0.68, 0.05),
                _verify_job(rng, "rotated2", 0.5 + _logu(rng, 2e-4, 2e-3), _logu(rng, 0.01, 0.05))]
    return []


# ---------------------------------------------------------------------------
# closed_forms


class PotentialPool:
    """Seed-generated JSON potentials, written once during set-up."""

    def __init__(self, rng, directory: Path, count: int):
        directory.mkdir(parents=True, exist_ok=True)
        self.entries = []
        for i in range(count):
            doc, pts = generated_potential(rng, 2 + i % 2)
            path = directory / f"poly_{i}.json"
            path.write_text(json.dumps(doc))
            self.entries.append((str(path), pts))

    def pick(self, rng):
        return self.entries[rng.randrange(len(self.entries))]


def _model_args(rng, pool, kind, which):
    """Arguments naming a built-in or generated model, and its analytic stationary points."""
    if which == "double_well":
        return ["--potential", "double_well"], dw_points()
    if which == "rotated2":
        g = _gamma_both_sides(rng, 0.36, 0.5, 0.75, 0.02)
        return ["--potential", "rotated2", "--params", f"gamma={g!r}"], rotated2_points(g)
    if which == "chain":
        # rates need the origin saddle, which exists only above gamma* = 2/3
        g = rng.uniform(0.7, 1.2) if kind == "rate" else _gamma_both_sides(rng, 0.4, 2.0 / 3.0, 1.2, 0.02)
        return ["--potential", "chain", "--params", f"N=3,gamma={g!r}"], chain3_points(g)
    path, pts = pool.pick(rng)
    return ["--potential", path], pts


def _classify_job(rng, pool, which):
    model, pts = _model_args(rng, pool, "classify", which)
    expected = [(p[0], "NotSaddle") for p in pts["minima"]]
    expected += [(p[0], "Saddle") for p in pts["saddles"]]
    expected += [(p[0], "NotSaddle") for p in pts["other"]]
    seeds = ";".join(_vec(_jitter(loc, rng)) for loc, _ in expected)
    return Job("classify", ["classify"] + model + [f"--seeds={seeds}"], {"expected": expected})


def _rate_job(rng, pool, which):
    model, pts = _model_args(rng, pool, "rate", which)
    minimum, saddle = pts["minima"][0], pts["saddles"][0]
    eps = _eps_list(rng, 2)
    argv = ["rate"] + model + [f"--minimum-seed={_vec(_jitter(minimum[0], rng))}",
                               f"--saddle-seed={_vec(_jitter(saddle[0], rng))}", "--eps", _csv(eps)]
    return Job("rate", argv, {"eps": eps, "minimum": minimum, "saddle": saddle})


def _sweep_job(rng, scenario):
    eps = _eps_list(rng, 2)
    count = rng.randint(21, 61)
    if scenario == "doublezero":
        # lambda2 below -sqrt(eps |log eps|) is outside the documented domain
        lo, hi = -0.9 * min(soft_window(e) for e in eps), rng.uniform(0.2, 1.0)
    elif scenario == "sombrero":
        lo, hi = rng.uniform(0.02, 0.1), rng.uniform(0.5, 2.0)
    else:
        lo, hi = -rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
    argv = ["sweep", "--scenario", scenario, f"--grid={lo!r}:{hi!r}:{count}", "--eps", _csv(eps)]
    return Job("sweep", argv, {"eps": eps, "count": count})


def _tabulate_job(rng):
    route = rng.choice(("auto", "closed_form", "quadrature"))
    alphas = sorted(rng.uniform(0.05, 6.0) for _ in range(rng.randint(8, 16)))
    return Job("tabulate", ["tabulate-special", "--alphas", _csv(alphas), "--route", route],
               {"alphas": alphas, "route": route})


def closed_round(rng, size, pool):
    jobs = [_classify_job(rng, pool, m) for m in ("rotated2", "chain", "json")]
    jobs += [_rate_job(rng, pool, m) for m in ("double_well", "rotated2", "chain", "json")]
    jobs += [_sweep_job(rng, s) for s in ("transverse", "longitudinal", "doublezero", "sombrero")]
    jobs.append(_tabulate_job(rng))
    return jobs


# ---------------------------------------------------------------------------
# reference checks


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_simulate(job, out: Path, refs) -> Outcome:
    doc = strict_json(out / "simulate.json")
    est, spec = doc["estimate"], job.spec
    dt = doc["dt"]
    max_steps = max(1, int(round(spec["max_time"] / dt)))
    steps = []
    with open(out / "times.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            # an aborted replica stops early at a step times.csv does not
            # record, so with aborts the step counts are upper bounds
            steps.append(int(round(float(row["tau"]) / dt)) if row["status"] == "hit" else max_steps)
    counts = {"steps": max(steps), "replica_steps": sum(steps), "replicas": len(steps),
              "hits": est["hits"], "censored": est["censored"], "aborted": est["aborted"],
              "validated": int(doc.get("validation", {}).get("verdict") == "pass")}
    if len(steps) != spec["replicas"] or est["hits"] + est["censored"] + est["aborted"] != spec["replicas"]:
        return Outcome(False, "replica count mismatch", counts)
    reference = refs(spec["model"], spec["eps"])
    ratio = est["mean"] / reference
    tol = doc["validation"]["tolerance"]
    if not abs(ratio - 1.0) <= tol:
        return Outcome(False, f"MC mean / closed form = {ratio:.3f} outside tolerance {tol:.3f}", counts)
    return Outcome(True, "", counts)


def _ladder(n0, n_final):
    """Grid sizes of one refinement ladder: n0, 2 n0 - 1, ... up to n_final."""
    n = max(5, n0) | 1
    sizes = [n]
    while n < n_final:
        n = 2 * n - 1
        sizes.append(n)
    return sizes


def check_verify(job, out: Path) -> Outcome:
    doc = strict_json(out / "verify.json")
    dim = job.spec["dim"]
    counts = {"grid_nodes": 0, "levels": 0, "sandwich_ok": 0}
    problems, known = [], []
    for row in doc["results"]:
        eps, lower, upper, closed = row["eps"], row["lower"], row["upper"], row["closed_form"]
        # the reported grid is the Dirichlet upper bound's; the fiber lower
        # bound refines on its own ladder, which verify does not report
        sizes = _ladder(job.spec["grid0"], row["grid"][0])
        counts["grid_nodes"] += sum(n**dim for n in sizes)
        counts["levels"] += len(sizes)
        counts["check_nodes"] = counts.get("check_nodes", 0) + min(sizes[-1], 65) ** dim
        tol = 3.0 * eps**0.25 * abs(math.log(eps)) ** 1.25  # criterion-4 band
        ordered = all(_finite(v) and v > 0 for v in (lower, upper, closed)) and lower <= upper * (1 + 1e-12)
        if dim == 1:
            exact = row.get("exact_1d")
            ordered = ordered and _finite(exact) and lower * (1 - 1e-6) <= exact <= upper * (1 + 1e-6)
        if ordered and lower <= closed * (1 + tol) and closed <= upper * (1 + tol):
            counts["sandwich_ok"] += 1
            continue
        what = f"eps={eps:.4g}: closed {closed!r} vs sandwich [{lower!r}, {upper!r}]"
        # item 3 shows as a sound sandwich that excludes the classical closed form
        if ordered and soft_inside_window(job.spec["saddle_eigenvalues"], eps):
            known.append((ROADMAP_3, what))
        else:
            problems.append(what)
    if len(doc["results"]) != len(job.spec["eps"]):
        problems.append("row count mismatch")
    return verdict(problems, known, counts)


def check_comm(job, result, newton_value) -> Outcome:
    n = job.spec["n"]
    counts = {"cells": n * n}
    gap = abs(result.communication_height - newton_value)
    if not gap <= result.grid_tolerance:
        return Outcome(False, f"height {result.communication_height:.6g} vs Newton saddle {newton_value:.6g}", counts)
    return Outcome(True, "", counts)


def check_classify(job, out: Path) -> Outcome:
    rows = strict_json(out / "classify.json")
    counts = {"rows": len(rows)}
    for loc, expected in job.spec["expected"]:
        near = [r for r in rows if max(abs(a - b) for a, b in zip(r["location"], loc)) < 1e-6]
        if len(near) != 1 or near[0]["verdict"] != expected:
            got = [r["verdict"] for r in near]
            return Outcome(False, f"point {loc}: expected {expected}, got {got}", counts)
    return Outcome(True, "", counts)


def _rate_row(row, eps, minimum, saddle):
    """``(defect, reason)`` for one row of rate.json; ``(None, "")`` when it passes."""
    t, regime = row["expected_time"], row["regime_tag"]
    what = f"eps={eps:.4g}: {regime} expected_time {t!r}"
    if not (_finite(t) and t > 0):
        return (ROADMAP_4 if ek_outside_float_range(minimum, saddle, eps) else None), what
    if ek_outside_float_range(minimum, saddle, eps):
        return None, what + " where the analytic time is outside the float64 range"
    if not all(_finite(v) for v in row.values() if isinstance(v, float)):
        return None, what + f" with a non-finite field in {row}"
    classical = math.exp(ek_log_time(minimum, saddle, eps))
    if soft_inside_window(saddle[2], eps):
        # a uniform regime is due here; its value has no independent reference
        # in this benchmark, so only the regime and a finite time are checked
        if regime != "classical":
            return None, ""
        return (ROADMAP_3 if _close(t, classical, 1e-6) else None), what + f" vs classical {classical!r}"
    if regime != "classical" or not _close(t, classical, 1e-6):
        return None, what + f" vs classical {classical!r}"
    return None, ""


def check_rate(job, out: Path) -> Outcome:
    spec = job.spec
    # rate.json may hold Infinity (item 4): parse leniently, then require
    # strict JSON everywhere except in the rows that show item 4
    doc = json.loads((out / "rate.json").read_text())
    problems, known, clean_rows = [], [], []
    for row, eps in zip(doc["results"], spec["eps"]):
        defect, reason = _rate_row(row, eps, spec["minimum"], spec["saddle"])
        if defect:
            known.append((defect, reason))
        elif reason:
            problems.append(reason)
        if defect != ROADMAP_4:
            clean_rows.append(row)
    try:
        json.dumps(dict(doc, results=clean_rows), allow_nan=False)
    except ValueError:
        problems.append("non-JSON number outside the rows of ROADMAP item 4")
    if len(doc["results"]) != len(spec["eps"]):
        problems.append("row count mismatch")
    return verdict(problems, known, {})


def check_sweep(job, out: Path) -> Outcome:
    with open(out / "sweep.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    want = len(job.spec["eps"]) * job.spec["count"]
    counts = {"rows": len(rows)}
    if header != SWEEP_FIELDS or len(rows) != want:
        return Outcome(False, f"header or row count ({len(rows)} != {want})", counts)
    problems, known = [], []
    for row in rows:
        values = [float(v) for v in row[:5]]
        if all(math.isfinite(v) for v in values) and values[4] > 0:
            continue
        eps, barrier, prefactor = values[1:4]
        beyond = (all(math.isfinite(v) for v in values[:4]) and prefactor > 0
                  and outside_float_range(barrier / eps, math.log(prefactor) + barrier / eps))
        what = f"non-finite or non-positive row {row[:5]}"
        if beyond:
            known.append((ROADMAP_4, what))
        else:
            problems.append(what)
    return verdict(problems, known, counts)


def check_tabulate(job, out: Path, other_route) -> Outcome:
    with open(out / "special.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    counts = {}
    if len(rows) != len(CROSSOVER_NAMES) * len(job.spec["alphas"]):
        return Outcome(False, "row count mismatch", counts)
    for row in rows:
        alpha, value = float(row["alpha"]), float(row["value"])
        route = "quadrature" if row["route"] == "closed_form" else "closed_form"
        ref = other_route(row["function"], alpha, route)
        if not (math.isfinite(value) and _close(value, ref, 1e-8)):  # criterion-2 tolerance
            return Outcome(False, f"{row['function']}({alpha}) {row['route']} {value!r} vs {route} {ref!r}", counts)
    return Outcome(True, "", counts)


ROUNDS = {"mc_validate": mc_round, "grid_checks": grid_round, "closed_forms": closed_round}
