"""Euler--Maruyama first-hitting-time estimation for overdamped diffusions.

Simulates ``dx = -grad V(x) dt + sqrt(2 eps) dW`` replica-parallel and
estimates the expected first-hitting time of a target set, for empirical
validation of the closed-form predictions in :mod:`metastable.rates`.

Every replica owns a counter-based random stream keyed by ``(seed, replica)``,
so results are bit-identical for a fixed seed, replica count, ``dt`` and BLAS
thread count.  The first ``n`` replicas of a larger run draw the noise of a
smaller run, but their paths may differ from it in the last bits, and so may
a hit step when a position lies that close to the target's boundary: the
polynomial kernel's ``gradient_many`` rounds a row differently by the size of
its batch, which is the number of replicas still running.

Noise is drawn per chunk of ``_CHUNK_STEPS`` steps into a
``(live replicas, steps, d)`` block: each replica's stream fills its own
contiguous row, the block is scaled by the kick once, and step ``j`` reads
``noise[:, j]``.  Each step evaluates the gradient on the live replicas only.
Positions, replica ids and the noise of the chunk's remaining steps are
compacted on the steps where a replica hits or is aborted, and on no other
step; boolean selection keeps the replicas in order.

The target, a union of balls ``{|x - c_k| <= r_k}``, is tested ball by ball;
the squared distance ``|x - c_0|^2`` to the first centre also serves the
blow-up guard.  The exact blow-up test ``|x|^2 > R^2`` runs only on steps
where a replica hit or lies farther than ``(R - |c_0|)/2`` from that centre.
Skipping it elsewhere is safe because ``|x| > R`` implies
``|x - c_0| > R - |c_0|``, whatever the other balls are; a NaN row fails
both tests and runs on, as it would under the exact test.  Aggregation uses
numpy's pairwise summation, so reduction order is fixed.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .landscape import _finite_or_null
from .potentials import PotentialModel
from .rates import RateResult, _check_positive

__all__ = [
    "MAX_CENSORED_FRACTION",
    "Ball",
    "SimulationConfig",
    "HittingTimeEstimate",
    "ValidationReport",
    "default_dt",
    "default_radius",
    "simulate_first_hitting",
    "validate",
    "estimate_json",
    "validation_json",
    "write_times_csv",
]

_CHUNK_STEPS = 256

#: Largest censored fraction a run may have and still be compared with a
#: closed form: past it the mean over hits is biased low.
MAX_CENSORED_FRACTION = 0.10


@dataclass(frozen=True)
class Ball:
    """Target ball ``{x : |x - center| <= radius}``."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float).ravel())
        if not np.all(np.isfinite(self.center)):
            raise ValueError("center must be finite")
        _check_positive(self.radius, "radius")


def default_radius(eps: float) -> float:
    """Default target radius ``3 sqrt(eps)`` (a small neighbourhood of the well)."""
    return 3.0 * math.sqrt(_check_positive(eps, "eps"))


def default_dt(model: PotentialModel, eps: float, points: Sequence) -> float:
    """Time step ``min(1e-3, eps / (20 max |lambda|))`` over the given points.

    The curvature scan covers the Hessian spectra at ``points`` (typically the
    start and the target centers), so the step resolves both the local
    relaxation times and the noise scale.
    """
    eps = _check_positive(eps, "eps")
    points = [np.asarray(p, dtype=float) for p in points]
    for p in points:
        if p.size != model.dim:
            raise ValueError(
                f"point {p.tolist()} has dimension {p.size}, the potential has dimension {model.dim}"
            )
    lam = max(float(np.max(np.abs(np.linalg.eigvalsh(model.hessian(p))))) for p in points)
    return min(1e-3, eps / (20.0 * lam))


@dataclass(frozen=True)
class SimulationConfig:
    """Replica-parallel first-hitting-time run description.

    Parameters
    ----------
    eps : float
        Noise intensity of ``dx = -grad V dt + sqrt(2 eps) dW``.
    dt : float
        Euler--Maruyama step; times are integer multiples ``k * dt``.
    max_time : float
        Horizon; replicas still running at the horizon are censored.
    replicas : int
        Number of independent trajectories.
    seed : int
        64-bit stream seed; replica ``r`` uses the counter-based key
        ``(seed << 64) + r``.
    start : array-like
        Common initial point.
    target : Ball or sequence of Ball
        Hitting set (union of balls).
    confinement_radius : float
        Blow-up guard: a replica whose position leaves this ball is aborted
        with a diagnostic (signals ``dt`` too large or a non-confining model).
        Positive, with a finite square.
    keep_times : bool
        Retain per-replica times and statuses on the estimate.
    """

    eps: float
    dt: float
    max_time: float
    replicas: int
    seed: int
    start: np.ndarray
    target: Ball | tuple[Ball, ...]
    confinement_radius: float = 1e3
    keep_times: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float).ravel())
        tgt = self.target
        if isinstance(tgt, Ball):
            tgt = (tgt,)
        object.__setattr__(self, "target", tuple(tgt))
        for name in ("eps", "dt", "max_time"):
            _check_positive(getattr(self, name), name)
        if not self.dt <= self.max_time:
            raise ValueError("need dt <= max_time")
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 bits")
        # the blow-up test compares |x|^2 with the radius squared
        radius = float(self.confinement_radius)
        if not (radius > 0.0 and math.isfinite(radius * radius)):
            raise ValueError("confinement_radius must be positive with a finite square")
        if not self.target:
            raise ValueError("at least one target ball is required")
        for ball in self.target:
            if ball.center.size != self.start.size:
                raise ValueError("target center dimension does not match start")


@dataclass(frozen=True)
class HittingTimeEstimate:
    """First-hitting-time statistics over the replicas that hit.

    ``mean`` and ``stderr = sample sd / sqrt(hits)`` are computed over hits
    only; the censoring fraction is exposed through ``censored_count``.
    ``times``/``statuses`` are retained when the run asked for them.
    """

    mean: float
    stderr: float
    hit_count: int
    censored_count: int
    ci95: tuple[float, float]
    eps: float
    aborted_count: int = 0
    times: tuple[float, ...] | None = None
    statuses: tuple[str, ...] | None = None

    @property
    def censored_fraction(self) -> float:
        total = self.hit_count + self.censored_count + self.aborted_count
        return self.censored_count / total if total else 0.0


@dataclass(frozen=True)
class ValidationReport:
    """Comparison of a Monte Carlo estimate against a closed-form prediction."""

    ratio: float
    z_score: float
    verdict: str
    tolerance: float


def _dist2(pts: np.ndarray, center: np.ndarray) -> np.ndarray:
    diff = pts - center
    if diff.shape[1] > 2:
        return np.einsum("ij,ij->i", diff, diff)
    # in one and two dimensions the squared columns added in order give the
    # einsum's bits without its fixed cost (in three it adds in another order)
    diff *= diff
    return diff[:, 0] + diff[:, 1] if diff.shape[1] == 2 else diff[:, 0]


def _in_target(pts: np.ndarray, targets: tuple[Ball, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Membership in the union of balls, and the squared distance to the first centre."""
    first, *rest = targets
    dist2 = _dist2(pts, first.center)
    hit = dist2 <= first.radius**2
    for ball in rest:
        hit |= _dist2(pts, ball.center) <= ball.radius**2
    return hit, dist2


def simulate_first_hitting(
    model: PotentialModel, config: SimulationConfig
) -> HittingTimeEstimate:
    """Estimate the expected first-hitting time of the target set.

    Each replica follows ``x <- x - grad V(x) dt + sqrt(2 eps dt) xi`` with
    standard-normal ``xi`` from its own counter-based stream, until it enters
    the target, exceeds the confinement radius (aborted, with a warning), or
    reaches the horizon (censored).  A start already inside the target returns
    immediately with all times zero.
    """
    d = model.dim
    start = config.start
    if start.size != d:
        raise ValueError("start dimension does not match the model")
    n = config.replicas

    start_hit, _ = _in_target(start[None, :], config.target)
    if bool(start_hit[0]):
        kept = tuple(0.0 for _ in range(n)) if config.keep_times else None
        statuses = tuple("hit" for _ in range(n)) if config.keep_times else None
        return HittingTimeEstimate(
            mean=0.0,
            stderr=0.0,
            hit_count=n,
            censored_count=0,
            ci95=(0.0, 0.0),
            eps=config.eps,
            times=kept,
            statuses=statuses,
        )

    n_steps = max(1, int(round(config.max_time / config.dt)))
    dt = config.dt
    kick = math.sqrt(2.0 * config.eps * dt)
    conf2 = config.confinement_radius**2
    gradient_many = model.gradient_many
    target = config.target
    # |x| > R implies |x - c_0| > R - |c_0|: on a step where every replica is
    # within half that margin of the first centre and none hit, none blew up
    margin = 0.5 * max(config.confinement_radius - float(np.linalg.norm(target[0].center)), 0.0)
    safe2 = margin * margin
    rngs = [
        np.random.Generator(np.random.Philox(key=(int(config.seed) << 64) + r))
        for r in range(n)
    ]

    hit_step = np.zeros(n, dtype=np.int64)
    status = np.zeros(n, dtype=np.uint8)  # 0 running, 1 hit, 2 censored, 3 aborted
    active = np.arange(n)
    pos = np.tile(start, (n, 1))
    done_steps = 0

    while done_steps < n_steps and active.size:
        span = min(_CHUNK_STEPS, n_steps - done_steps)
        noise = np.empty((active.size, span, d))
        for row, replica in enumerate(active):
            rngs[replica].standard_normal(out=noise[row])
        noise *= kick
        offset = 0  # chunk steps whose noise columns a compaction dropped
        for j in range(span):
            pos -= gradient_many(pos) * dt
            pos += noise[:, j - offset]
            hit, dist2 = _in_target(pos, target)
            if not np.count_nonzero(hit | (dist2 > safe2)):
                continue
            blown = np.einsum("ij,ij->i", pos, pos) > conf2
            stop = hit | blown
            if not np.count_nonzero(stop):
                continue
            hit_step[active[hit]] = done_steps + j + 1
            status[active[hit]] = 1
            status[active[blown & ~hit]] = 3
            live = ~stop
            pos, active = pos[live], active[live]
            noise, offset = noise[live, j + 1 - offset :], j + 1
            if not active.size:
                break
        done_steps += span

    status[status == 0] = 2
    aborted = int(np.sum(status == 3))
    if aborted:
        warnings.warn(
            f"{aborted} replica(s) exceeded the confinement radius "
            f"{config.confinement_radius}; dt may be too large or the model "
            "non-confining",
            stacklevel=2,
        )

    hit_times = hit_step[status == 1] * config.dt
    hits = int(hit_times.size)
    censored = int(np.sum(status == 2))
    if hits == 0:
        warnings.warn("no replica hit the target within the horizon", stacklevel=2)
        mean = math.nan
        stderr = math.nan
    else:
        mean = float(np.mean(hit_times))
        stderr = (
            float(np.std(hit_times, ddof=1) / math.sqrt(hits)) if hits > 1 else math.nan
        )

    kept = None
    statuses = None
    if config.keep_times:
        label = {1: "hit", 2: "censored", 3: "aborted"}
        all_times = np.where(status == 1, hit_step * config.dt, math.nan)
        kept = tuple(float(t) for t in all_times)
        statuses = tuple(label[int(s)] for s in status)

    return HittingTimeEstimate(
        mean=mean,
        stderr=stderr,
        hit_count=hits,
        censored_count=censored,
        ci95=(mean - 1.96 * stderr, mean + 1.96 * stderr),
        eps=config.eps,
        aborted_count=aborted,
        times=kept,
        statuses=statuses,
    )


_POWER_FORM = re.compile(
    r"eps\^\((\d+)/(\d+)\) \|log eps\|(?:\^\((\d+)/(\d+)\))?"
)


def _error_magnitude(order: str, eps: float) -> float:
    """Numeric value of a relative-error order string with unit constant.

    Crossover-regime orders contain ``max(<soft parameter>, sqrt(eps |log
    eps|))``; the soft parameter is not known here, so the floor of the max is
    substituted, which yields the largest (most permissive) admissible order
    ``eps^(1/4) |log eps|^(5/4)``.
    """
    log_term = abs(math.log(eps))
    if order.startswith("(eps |log eps|^3 / max("):
        return math.sqrt(eps * log_term**3 / math.sqrt(eps * log_term))
    m = _POWER_FORM.fullmatch(order)
    if m:
        a, b, c, d = m.groups()
        log_power = float(c) / float(d) if c else 1.0
        return eps ** (float(a) / float(b)) * log_term**log_power
    raise ValueError(f"cannot evaluate error order {order!r}")


def validate(
    estimate: HittingTimeEstimate,
    prediction: RateResult,
    *,
    tol: float | None = None,
) -> ValidationReport:
    """Compare a Monte Carlo estimate with a closed-form expected time.

    The default tolerance is the prediction's error order evaluated with unit
    constant plus ``2 stderr / mean``; the verdict is ``"pass"`` when
    ``|ratio - 1|`` stays within it.  Estimates with more than 10% censoring
    are refused -- their mean over hits is biased low.
    """
    if not math.isclose(estimate.eps, prediction.eps, rel_tol=1e-12):
        raise ValueError("estimate and prediction use different eps")
    if estimate.censored_fraction > MAX_CENSORED_FRACTION:
        raise ValueError(
            f"censored fraction {estimate.censored_fraction:.1%} exceeds "
            f"{MAX_CENSORED_FRACTION:.0%}; "
            "extend the horizon instead of comparing a biased mean"
        )
    ratio = estimate.mean / prediction.expected_time
    z_score = (
        (estimate.mean - prediction.expected_time) / estimate.stderr
        if estimate.stderr
        else math.inf * math.copysign(1.0, estimate.mean - prediction.expected_time)
        if estimate.mean != prediction.expected_time
        else 0.0
    )
    if tol is None:
        tol = _error_magnitude(prediction.error_order, prediction.eps)
        if estimate.hit_count > 1 and estimate.mean:
            tol += 2.0 * estimate.stderr / estimate.mean
    verdict = "pass" if abs(ratio - 1.0) <= tol else "fail"
    return ValidationReport(ratio=ratio, z_score=z_score, verdict=verdict, tolerance=tol)


def estimate_json(estimate: HittingTimeEstimate) -> dict:
    """JSON-ready summary {mean, stderr, hits, censored, ci95}; non-finite values
    (a run with fewer than two hits) are null."""
    return _finite_or_null({
        "mean": estimate.mean,
        "stderr": estimate.stderr,
        "hits": estimate.hit_count,
        "censored": estimate.censored_count,
        "aborted": estimate.aborted_count,
        "ci95": estimate.ci95,
        "eps": estimate.eps,
    })


def validation_json(report: ValidationReport) -> dict:
    """JSON-ready {ratio, z_score, verdict, tolerance}; non-finite values are null."""
    return _finite_or_null({
        "ratio": report.ratio,
        "z_score": report.z_score,
        "verdict": report.verdict,
        "tolerance": report.tolerance,
    })


def write_times_csv(estimate: HittingTimeEstimate, path) -> None:
    """Stream raw per-replica outcomes as ``replica,tau,status`` rows."""
    if estimate.times is None or estimate.statuses is None:
        raise ValueError("per-replica times were not retained; run with keep_times=True")
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replica", "tau", "status"])
        for idx, (tau, tag) in enumerate(zip(estimate.times, estimate.statuses)):
            writer.writerow([idx, "" if math.isnan(tau) else repr(tau), tag])
