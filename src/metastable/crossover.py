"""Universal crossover functions for transition-rate prefactors.

Five dimensionless functions interpolate the rate prefactor between the
quadratic-saddle regime and the degenerate regimes:

* ``psi_plus`` / ``psi_minus`` — single soft direction before/after a
  pitchfork-type splitting,
* ``theta_plus`` / ``theta_minus`` — doubly-degenerate (double-zero) gate,
* ``chi`` — rotationally symmetric ring of gates.

Each function has two genuinely independent evaluation routes: a closed
form in terms of Bessel/erf-type special functions, and direct adaptive
quadrature of the defining integral.  The public functions are the closed
forms, valid for every ``alpha >= 0``.  Their special functions are computed
here from :mod:`math` alone: the scaled Bessel functions by power series,
the reflection formula and the trapezoidal rule below the argument z = 20
and by their Hankel expansions from there on, erfcx from ``math.erfc`` and
an asymptotic tail, and the normal cdf from ``math.erfc``.  So the closed
forms import no scipy.  The quadrature routes import scipy.integrate on
first use (a quarter of a second or more of start-up, which the closed
forms do not pay).  The route is chosen in one place, :func:`evaluate`
(``route="auto"`` is the closed form), and the quadrature route is the
independent check on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

__all__ = [
    "CrossoverEval",
    "psi_plus",
    "psi_minus",
    "theta_plus",
    "theta_minus",
    "chi",
    "evaluate",
    "CROSSOVER_FUNCTIONS",
]

# exp(-T) is 1e-18: integrands are truncated where they fall this far below peak
_LOG_TRUNC = -math.log(1e-18)
_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-12, limit=60)


@dataclass(frozen=True)
class CrossoverEval:
    """One crossover-function evaluation with the route that produced it."""

    alpha: float
    value: float
    route: str  # "closed_form" or "quadrature"


# ---------------------------------------------------------------------------
# scaled modified Bessel functions, erfcx and the normal cdf, from `math` alone

# From this argument on, the Hankel sums below reach double precision within
# 27 terms (6 at z = 1e3); below it the power series of I_nu do, within 36
# terms, and K_{1/4} comes from them or from the trapezoidal rule.
_HANKEL_MIN = 20.0

# Gamma(1/4) and Gamma(3/4), correctly rounded (math.gamma(0.25) is an ulp high);
# Gamma(5/4) is Gamma(1/4)/4 exactly
_GAMMA_1_4 = 3.625609908221908
_GAMMA_3_4 = 1.2254167024651776

# 1/(k (k + nu)), the ratio of successive power-series terms over (z/2)^2
_SERIES_K = range(1, 61)
_RATIO_ZERO = tuple(1.0 / (k * k) for k in _SERIES_K)
_RATIO_QUARTER = tuple((1.0 / (k * (k - 0.25)), 1.0 / (k * (k + 0.25))) for k in _SERIES_K)

# e^z K_{1/4}(z) = int_0^inf exp(-2 z sinh^2(t/2)) cosh(t/4) dt (DLMF 10.32.9)
# by the trapezoidal rule from _K_TRAPEZOID_MIN to _HANKEL_MIN.  The integrand
# is analytic in a strip and falls off double-exponentially, so the error
# falls like exp(-const/step): at step 0.15 it is below 1e-16 (at 0.2 it is
# 4e-13 near z = 20).  A node is (2 sinh^2(t/2), weight); the 30 nodes end
# where the integrand is e^-41 of its peak at z = _K_TRAPEZOID_MIN
_K_TRAPEZOID_MIN = 1.0
_K_STEP = 0.15
_K_CUT = 41.0
_K_T = [k * _K_STEP for k in range(1 + int(math.acosh(1.0 + _K_CUT / _K_TRAPEZOID_MIN) / _K_STEP))]
_K_NODES = tuple(
    (2.0 * math.sinh(0.5 * t) ** 2, _K_STEP * math.cosh(0.25 * t) * (0.5 if t == 0.0 else 1.0))
    for t in _K_T
)


def _hankel_sum(z: float, nu: float) -> float:
    # sum_k a_k(nu) / z^k of DLMF 10.40.1-2 (z < 0 gives the alternating
    # sum), with a_k(nu) = prod_{j<=k} (4 nu^2 - (2j - 1)^2) / (k! 8^k)
    four_nu2 = 4.0 * nu * nu
    total = term = 1.0
    for k in range(1, 40):
        term *= (four_nu2 - (2 * k - 1) ** 2) / (8.0 * k * z)
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return total


def _i_quarter_pair(z: float) -> tuple[float, float]:
    # (I_{-1/4}(z), I_{1/4}(z)) for 0 < z < _HANKEL_MIN by their power series
    # sum_k (z/2)^{2k + nu} / (k! Gamma(k + 1 + nu)) (DLMF 10.25.2); every term
    # is positive.  The I_{-1/4} terms fall more slowly, so when they stop
    # mattering the I_{1/4} terms have stopped too
    q = 0.25 * z * z
    tm = tp = sm = sp = 1.0
    for rm, rp in _RATIO_QUARTER:
        tm *= q * rm
        tp *= q * rp
        sm += tm
        sp += tp
        if tm < 1e-17 * sm:
            break
    h = math.sqrt(math.sqrt(0.5 * z))
    return sm / (h * _GAMMA_3_4), 4.0 * sp * h / _GAMMA_1_4


def _scaled_k_quarter(z: float) -> float:
    # e^z K_{1/4}(z) for z > 0
    if z < _K_TRAPEZOID_MIN:
        # K_{1/4} = (pi/sqrt 2)(I_{-1/4} - I_{1/4}) (DLMF 10.27.4); the
        # difference costs at most a factor e^{2z} of relative accuracy
        i_minus, i_plus = _i_quarter_pair(z)
        return math.pi / math.sqrt(2.0) * (i_minus - i_plus) * math.exp(z)
    if z < _HANKEL_MIN:
        cut = _K_CUT / z
        total = 0.0
        for c, weight in _K_NODES:
            if c > cut:
                break
            total += weight * math.exp(-z * c)
        return total
    return math.sqrt(math.pi / (2.0 * z)) * _hankel_sum(z, 0.25)


def _scaled_i_quarter_pair(z: float) -> float:
    # e^{-z} (I_{-1/4} + I_{1/4})(z) for z > 0; I_{-1/4} - I_{1/4} is
    # (sqrt(2)/pi) K_{1/4}, e^{-2z} relative to the pair, so from _HANKEL_MIN
    # on the pair is twice the Hankel form of I_{1/4}
    if z < _HANKEL_MIN:
        i_minus, i_plus = _i_quarter_pair(z)
        return (i_minus + i_plus) * math.exp(-z)
    return 2.0 / math.sqrt(2.0 * math.pi * z) * _hankel_sum(-z, 0.25)


def _scaled_i_zero(z: float) -> float:
    # e^{-z} I_0(z) for z >= 0, by the power series as in _i_quarter_pair
    if z < _HANKEL_MIN:
        q = 0.25 * z * z
        term = total = 1.0
        for ratio in _RATIO_ZERO:
            term *= q * ratio
            total += term
            if term < 1e-17 * total:
                break
        return total * math.exp(-z)
    return _hankel_sum(-z, 0.0) / math.sqrt(2.0 * math.pi) / math.sqrt(z)


# erfc(x) is normal up to x = 26.5; from _ERFCX_ASYMPTOTIC on, the asymptotic
# series reaches double precision within 8 terms
_ERFCX_ASYMPTOTIC = 26.0


def _erfcx(x: float) -> float:
    # e^{x^2} erfc(x) for x >= 0
    if x < _ERFCX_ASYMPTOTIC:
        # x^2 = sq + err exactly (Dekker's product), so e^{x^2} keeps its
        # digits: rounding x^2 alone would cost x^2 ulp, 7e-14 at x = 26
        c = 134217729.0 * x  # 2^27 + 1 splits x into two 26-bit halves
        hi = c - (c - x)
        lo = x - hi
        sq = x * x
        err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo
        return math.erfc(x) * math.exp(sq) * (1.0 + err)
    # (1/(x sqrt pi)) sum_k (-1)^k (2k - 1)!! / (2x^2)^k (DLMF 7.12.1)
    t = 0.5 / x / x
    total = 1.0
    for k in range(8, 0, -1):
        total = 1.0 - (2 * k - 1) * t * total
    return total / (x * math.sqrt(math.pi))


def _normal_cdf(x: float) -> float:
    # Phi(x); x * sqrt(1/2) is how scipy's ndtr scales its argument too
    return 0.5 * math.erfc(-x * math.sqrt(0.5))


# ---------------------------------------------------------------------------
# quadrature routes (defining integrals, independent of the closed forms)


def _quad(f, a: float, b: float, points=None) -> float:
    from scipy.integrate import quad

    return quad(f, a, b, points=points, **_QUAD_OPTS)[0]


def _quartic_cut(alpha: float) -> float:
    # y beyond which exp(-(y^4 + alpha y^2)/2) < 1e-18 of its peak at 0
    T = 2.0 * _LOG_TRUNC
    y2 = 0.5 * (-alpha + math.sqrt(alpha * alpha + 4.0 * T))
    return 1.2 * math.sqrt(y2) + 0.5


def _psi_plus_quadrature(alpha: float) -> float:
    ymax = _quartic_cut(alpha)
    val = _quad(lambda y: math.exp(-0.5 * (y**4 + alpha * y * y)), 0.0, ymax)
    return math.sqrt((1.0 + alpha) / (2.0 * math.pi)) * 2.0 * val


def _ring_cut(c: float) -> tuple[float, list[float] | None]:
    # upper limit and breakpoints for exp(-(y^2 - c)^2/2), which peaks at
    # sqrt(c) with width about 1/(2 sqrt(c)).  Without breakpoints 12/sqrt(c) to
    # either side, quad misses one side of a narrow peak from alpha ~ 1e4 on.
    # Only points inside (0, ymax) are kept: below c = 12 that is the peak alone
    ymax = 1.1 * math.sqrt(c + math.sqrt(2.0 * _LOG_TRUNC) + 1.0) + 0.5
    r = math.sqrt(c)
    w = 12.0 / max(1.0, r)
    return ymax, [p for p in (r - w, r, r + w) if 0.0 < p < ymax] or None


def _psi_minus_quadrature(alpha: float) -> float:
    c = alpha / 4.0
    ymax, pts = _ring_cut(c)
    val = _quad(lambda y: math.exp(-0.5 * (y * y - c) ** 2), 0.0, ymax, points=pts)
    return math.sqrt((1.0 + alpha) / (2.0 * math.pi)) * 2.0 * val


def _theta_plus_quadrature(alpha: float) -> float:
    ymax = _quartic_cut(alpha)
    val = _quad(lambda y: y * math.exp(-0.5 * (y**4 + alpha * y * y)), 0.0, ymax)
    return (1.0 + alpha) * val


def _theta_minus_quadrature(alpha: float) -> float:
    c = alpha / 2.0
    ymax, pts = _ring_cut(c)
    return _quad(lambda y: y * math.exp(-0.5 * (y * y - c) ** 2), 0.0, ymax, points=pts)


def _chi_quadrature(alpha: float) -> float:
    # (sqrt(1 + alpha)/pi) int_0^{2 pi} exp(-alpha (1 - cos p)) dp, taken as
    # twice the half period [0, pi] with 1 - cos p = 2 sin^2(p/2): both other
    # forms lose the peak at p = 2 pi to rounding (1 - cos p cancels; p itself
    # is rounded), 1e-6 of the value at alpha = 1e12 and 1e20.  The peak at 0
    # has width about 1/sqrt(alpha); a breakpoint 12 widths in keeps quad on
    # it (alpha > 14).  The factor sqrt(1 + alpha) goes inside so that the
    # integral stays near 1, far above epsabs
    s = math.sqrt(1.0 + alpha)
    w = 12.0 / math.sqrt(alpha) if alpha > 0 else math.inf
    val = _quad(
        lambda p: s * math.exp(-alpha * (2.0 * math.sin(0.5 * p) ** 2)),
        0.0, math.pi, [w] if w < math.pi else None,
    )
    return 2.0 / math.pi * val


# ---------------------------------------------------------------------------
# closed-form routes: the public functions


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if alpha < 0:
        raise ValueError(
            f"crossover functions take alpha >= 0, got {alpha}; "
            "map negative eigenvalues through the appropriate case split first"
        )
    return alpha


def _psi_zero() -> float:
    return _GAMMA_1_4 / (2.0**1.25 * math.sqrt(math.pi))


def psi_plus(alpha: float) -> float:
    """Crossover function for a soft transverse direction (un-split side)."""
    alpha = _check_alpha(alpha)
    z = alpha * alpha / 16.0
    if z < 1e-100:  # limit value; the O(alpha) correction is below 1e-50
        return _psi_zero()
    scale = alpha * (1.0 + alpha) / (8.0 * math.pi)
    if scale == math.inf:  # alpha^2 overflows: the Hankel form with it cancelled
        return math.sqrt(1.0 + 1.0 / alpha) * _hankel_sum(z, 0.25)
    return math.sqrt(scale) * _scaled_k_quarter(z)


def psi_minus(alpha: float) -> float:
    """Crossover function on the split side of a pitchfork (two parallel gates)."""
    alpha = _check_alpha(alpha)
    z = alpha * alpha / 64.0
    if z < 1e-100:
        return _psi_zero()
    scale = math.pi * alpha * (1.0 + alpha) / 32.0
    if scale == math.inf:  # pi alpha^2 overflows: as in psi_plus
        return 2.0 * math.sqrt(1.0 + 1.0 / alpha) * _hankel_sum(-z, 0.25)
    return math.sqrt(scale) * _scaled_i_quarter_pair(z)


def theta_plus(alpha: float) -> float:
    """Crossover function for a double-zero gate, non-degenerate side."""
    alpha = _check_alpha(alpha)
    # sqrt(pi/2)(1+a) e^{a^2/8} Phi(-a/2) written with erfcx to avoid overflow
    return (
        math.sqrt(math.pi / 2.0)
        * (1.0 + alpha)
        * 0.5
        * _erfcx(alpha / (2.0 * math.sqrt(2.0)))
    )


def theta_minus(alpha: float) -> float:
    """Crossover function for a double-zero gate, split side."""
    alpha = _check_alpha(alpha)
    return math.sqrt(math.pi / 2.0) * _normal_cdf(alpha / 2.0)


def chi(alpha: float) -> float:
    """Crossover function for a rotationally symmetric ring of gates."""
    alpha = _check_alpha(alpha)
    return 2.0 * math.sqrt(1.0 + alpha) * _scaled_i_zero(alpha)


# ---------------------------------------------------------------------------
# the route table


def _by_route(closed, quadrature, alpha: float, route: str) -> float:
    if route == "closed_form":
        return closed(alpha)
    if route == "quadrature":
        return quadrature(_check_alpha(alpha))
    raise ValueError(f"unknown route {route!r}")


# name -> fn(alpha, route) over the function's (closed form, quadrature) pair
CROSSOVER_FUNCTIONS = {
    "psi_plus": partial(_by_route, psi_plus, _psi_plus_quadrature),
    "psi_minus": partial(_by_route, psi_minus, _psi_minus_quadrature),
    "theta_plus": partial(_by_route, theta_plus, _theta_plus_quadrature),
    "theta_minus": partial(_by_route, theta_minus, _theta_minus_quadrature),
    "chi": partial(_by_route, chi, _chi_quadrature),
}


def evaluate(name: str, alpha: float, route: str = "auto") -> CrossoverEval:
    """Evaluate a named crossover function by ``route``; ``"auto"`` is the closed form."""
    try:
        fn = CROSSOVER_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown crossover function {name!r}; choose from {sorted(CROSSOVER_FUNCTIONS)}"
        ) from None
    alpha = float(alpha)
    route = "closed_form" if route == "auto" else route
    return CrossoverEval(alpha=alpha, value=fn(alpha, route), route=route)
