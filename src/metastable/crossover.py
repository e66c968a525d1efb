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
an asymptotic tail, and the normal cdf from ``math.erfc``.  The quadrature
routes integrate with :func:`_integrate`, the adaptive Gauss-Kronrod scheme
of QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, 1983),
which :mod:`metastable.capacity` and :mod:`metastable.rates` use for their
one-dimensional integrals too.  So neither route imports scipy.  The route
is chosen in one place, :func:`evaluate` (``route="auto"`` is the closed
form), and the quadrature route is the independent check on it.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from functools import partial
from operator import mul

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


# (4 nu^2 - (2k - 1)^2, 8k) for k = 1..39: the ratio a_k(nu) / a_{k-1}(nu) of
# the Hankel coefficients below is the first over the second times z; both
# are exact floats, tabulated so that the loop forms no Python int
def _hankel_table(nu: float) -> tuple[tuple[float, float], ...]:
    return tuple((4.0 * nu * nu - (2 * k - 1) ** 2, 8.0 * k) for k in range(1, 40))


_HANKEL_QUARTER = _hankel_table(0.25)
_HANKEL_ZERO = _hankel_table(0.0)


def _hankel_sum(z: float, table: tuple[tuple[float, float], ...]) -> float:
    # sum_k a_k(nu) / z^k of DLMF 10.40.1-2 (z < 0 gives the alternating
    # sum), with a_k(nu) = prod_{j<=k} (4 nu^2 - (2j - 1)^2) / (k! 8^k) and
    # nu's factors from _hankel_table
    total = term = 1.0
    for numerator, eight_k in table:
        term *= numerator / (eight_k * z)
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
    return math.sqrt(math.pi / (2.0 * z)) * _hankel_sum(z, _HANKEL_QUARTER)


def _scaled_i_quarter_pair(z: float) -> float:
    # e^{-z} (I_{-1/4} + I_{1/4})(z) for z > 0; I_{-1/4} - I_{1/4} is
    # (sqrt(2)/pi) K_{1/4}, e^{-2z} relative to the pair, so from _HANKEL_MIN
    # on the pair is twice the Hankel form of I_{1/4}
    if z < _HANKEL_MIN:
        i_minus, i_plus = _i_quarter_pair(z)
        return (i_minus + i_plus) * math.exp(-z)
    return 2.0 / math.sqrt(2.0 * math.pi * z) * _hankel_sum(-z, _HANKEL_QUARTER)


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
    return _hankel_sum(-z, _HANKEL_ZERO) / math.sqrt(2.0 * math.pi) / math.sqrt(z)


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
# adaptive Gauss-Kronrod quadrature


# QUADPACK's 21-point Gauss-Kronrod rule (QK21) on [-1, 1]: the 10-point
# Gauss-Legendre nodes, which keep their Kronrod weights too, and the 11
# nodes Kronrod added between them, 0 among them.  Positive abscissae, in
# descending order
_GAUSS_X = (
    0.973906528517171720077964012084452, 0.865063366688984510732096688423493,
    0.679409568299024406234327365114874, 0.433395394129247190799265943165784,
    0.148874338981631210884826001129720,
)
_GAUSS_W = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_GAUSS_KW = (
    0.032558162307964727478818972459390, 0.075039674810919952767043140916190,
    0.109387158802297641899210590325805, 0.134709217311473325928054001771707,
    0.147739104901338491374841515972068,
)
_KRONROD_X = (
    0.995657163025808080735527280689003, 0.930157491355708226001207180059508,
    0.780817726586416897063717578345042, 0.562757134668604683339000099272694,
    0.294392862701460198131126603103866,
)
_KRONROD_W = (
    0.011694638867371874278064396062192, 0.054755896574351996031381300244580,
    0.093125454583697605535065465083366, 0.123491976262065851077208292355925,
    0.142775938577060080797094273138717,
)
_KRONROD_W0 = 0.149445554002916905664936468389821

# the 21 signed nodes, the Gauss ones first, with the Gauss weights of the
# first ten and the Kronrod weights of all
_GK_X = (*(v for x in _GAUSS_X for v in (x, -x)), *(v for x in _KRONROD_X for v in (x, -x)), 0.0)
_G_W = tuple(w for w in _GAUSS_W for _ in (0, 1))
_K_W = (*(w for w in _GAUSS_KW for _ in (0, 1)), *(w for w in _KRONROD_W for _ in (0, 1)), _KRONROD_W0)

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def _gk21(f, a: float, b: float) -> tuple[float, float]:
    # (Kronrod value, error estimate) on [a, b], as QUADPACK's QK21: |K - G|
    # scaled by the integrand's spread about its mean, and no less than
    # 50 eps of the integral of |f|, the rounding in the sums
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fv = [f(c + h * x) for x in _GK_X]
    kronrod = sum(map(mul, _K_W, fv))
    mean = 0.5 * kronrod
    spread = h * sum(map(mul, _K_W, [abs(v - mean) for v in fv]))
    err = h * abs(kronrod - sum(map(mul, _G_W, fv)))
    if spread and err:
        err = spread * min(1.0, 200.0 * err / spread) ** 1.5
    # on a panel where f >= 0, the integral of |f| is the Kronrod sum itself
    size = h * (kronrod if min(fv) >= 0.0 else sum(map(mul, _K_W, map(abs, fv))))
    if size > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * size, err)
    return h * kronrod, err


def _integrate(f, a: float, b: float, *, epsabs: float, epsrel: float, points=None, limit: int):
    """``(value, abs_error)`` of the integral of the scalar ``f`` over ``a < b``.

    The adaptive scheme of QUADPACK's QAG with the 21-point Gauss-Kronrod
    rule.  The panels that ``points`` inside ``(a, b)`` cut are kept in a heap
    by error estimate, and the worst is halved until the summed error is at
    most ``max(epsabs, epsrel |value|)`` or ``limit`` panels exist.  A panel
    too narrow to halve in floating point is kept as it is, with its error:
    the returned error is the sum over every panel, so it never hides one.
    """
    edges = [a, *sorted(p for p in points or () if a < p < b), b]
    heap = []
    for lo, hi in zip(edges, edges[1:]):
        value, err = _gk21(f, lo, hi)
        heap.append((-err, lo, hi, value))
    heapq.heapify(heap)
    narrow = []
    total = math.fsum(p[3] for p in heap)
    errsum = math.fsum(-p[0] for p in heap)
    while heap and errsum > max(epsabs, epsrel * abs(total)) and len(heap) + len(narrow) < limit:
        neg_err, lo, hi, value = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if max(abs(lo), abs(hi)) <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _TINY):
            narrow.append((neg_err, lo, hi, value))
            continue
        v1, e1 = _gk21(f, lo, mid)
        v2, e2 = _gk21(f, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        total += v1 + v2 - value
        errsum += e1 + e2 + neg_err
    heap += narrow
    return math.fsum(p[3] for p in heap), math.fsum(-p[0] for p in heap)


# ---------------------------------------------------------------------------
# quadrature routes (defining integrals, independent of the closed forms).
# The factor in front of each integral goes inside it, so that the integral
# stays near 1, far above epsabs, at every alpha


def _quartic_cut(alpha: float) -> float:
    # y beyond which exp(-(y^4 + alpha y^2)/2) < 1e-18 of its peak at 0; the
    # root of y2^2 + alpha y2 = T in the form that neither cancels nor
    # overflows with alpha^2
    T = 2.0 * _LOG_TRUNC
    y2 = 2.0 * T / (alpha + math.hypot(alpha, 2.0 * math.sqrt(T)))
    return 1.2 * math.sqrt(y2) + 0.5


def _peak_cut(alpha: float) -> list[float] | None:
    # a peak at 0 of width about 1/sqrt(alpha): a breakpoint 12 widths in keeps
    # the quadrature on it, where its first nodes would miss it (from alpha
    # ~ 1e8 on for psi_plus and theta_plus, ~ 1e4 for chi)
    return [12.0 / math.sqrt(alpha)] if alpha > 0 else None


def _psi_plus_quadrature(alpha: float) -> float:
    s = 2.0 * math.sqrt((1.0 + alpha) / (2.0 * math.pi))
    return _integrate(
        lambda y: s * math.exp(-0.5 * y * y * (y * y + alpha)),
        0.0, _quartic_cut(alpha), points=_peak_cut(alpha), **_QUAD_OPTS,
    )[0]


def _theta_plus_quadrature(alpha: float) -> float:
    s = 1.0 + alpha
    return _integrate(
        lambda y: s * y * math.exp(-0.5 * y * y * (y * y + alpha)),
        0.0, _quartic_cut(alpha), points=_peak_cut(alpha), **_QUAD_OPTS,
    )[0]


def _ring_cut(c: float) -> tuple[float, float, list[float]]:
    # the ring integrands in exp(-(y^2 - c)^2/2) over y in [0, ymax] are taken
    # in u = y - sqrt(c), where y^2 - c = u (2 sqrt(c) + u) does not cancel
    # (it did from alpha ~ 4.5e9 on).  Returns sqrt(c), the upper limit in u
    # and the breakpoints: the peak at u = 0 has width about 1/(2 sqrt(c)),
    # and without breakpoints 12/sqrt(c) to either side the quadrature misses
    # one side of it from alpha ~ 1e4 on
    r = math.sqrt(c)
    ymax = 1.1 * math.sqrt(c + math.sqrt(2.0 * _LOG_TRUNC) + 1.0) + 0.5
    w = 12.0 / max(1.0, r)
    return r, ymax - r, [-w, 0.0, w]


def _psi_minus_quadrature(alpha: float) -> float:
    s = 2.0 * math.sqrt((1.0 + alpha) / (2.0 * math.pi))
    r, umax, pts = _ring_cut(alpha / 4.0)

    def f(u: float) -> float:
        q = u * (2.0 * r + u)
        return s * math.exp(-0.5 * q * q)

    return _integrate(f, -r, umax, points=pts, **_QUAD_OPTS)[0]


def _theta_minus_quadrature(alpha: float) -> float:
    r, umax, pts = _ring_cut(alpha / 2.0)

    def f(u: float) -> float:
        q = u * (2.0 * r + u)
        return (r + u) * math.exp(-0.5 * q * q)

    return _integrate(f, -r, umax, points=pts, **_QUAD_OPTS)[0]


def _chi_quadrature(alpha: float) -> float:
    # (sqrt(1 + alpha)/pi) int_0^{2 pi} exp(-alpha (1 - cos p)) dp, taken as
    # twice the half period [0, pi] with 1 - cos p = 2 sin^2(p/2): both other
    # forms lose the peak at p = 2 pi to rounding (1 - cos p cancels; p itself
    # is rounded), 1e-6 of the value at alpha = 1e12 and 1e20
    s = math.sqrt(1.0 + alpha)
    val = _integrate(
        lambda p: s * math.exp(-alpha * (2.0 * math.sin(0.5 * p) ** 2)),
        0.0, math.pi, points=_peak_cut(alpha), **_QUAD_OPTS,
    )[0]
    return 2.0 / math.pi * val


# ---------------------------------------------------------------------------
# closed-form routes: the public functions


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha >= 0:  # NaN too
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
        return math.sqrt(1.0 + 1.0 / alpha) * _hankel_sum(z, _HANKEL_QUARTER)
    return math.sqrt(scale) * _scaled_k_quarter(z)


def psi_minus(alpha: float) -> float:
    """Crossover function on the split side of a pitchfork (two parallel gates)."""
    alpha = _check_alpha(alpha)
    z = alpha * alpha / 64.0
    if z < 1e-100:
        return _psi_zero()
    scale = math.pi * alpha * (1.0 + alpha) / 32.0
    if scale == math.inf:  # pi alpha^2 overflows: as in psi_plus
        return 2.0 * math.sqrt(1.0 + 1.0 / alpha) * _hankel_sum(-z, _HANKEL_QUARTER)
    return math.sqrt(scale) * _scaled_i_quarter_pair(z)


def theta_plus(alpha: float) -> float:
    """Crossover function for a double-zero gate, non-degenerate side."""
    alpha = _check_alpha(alpha)
    if alpha == math.inf:  # the limit; the form below is inf * 0 there
        return 1.0
    # sqrt(pi/2)(1+a) e^{a^2/8} Phi(-a/2) written with erfcx to avoid overflow
    value = (
        math.sqrt(math.pi / 2.0)
        * (1.0 + alpha)
        * 0.5
        * _erfcx(alpha / (2.0 * math.sqrt(2.0)))
    )
    if value == math.inf:  # sqrt(pi/2)(1 + a) overflows: take erfcx's factor first
        return math.sqrt(math.pi / 2.0) * 0.5 * ((1.0 + alpha) * _erfcx(alpha / (2.0 * math.sqrt(2.0))))
    return value


def theta_minus(alpha: float) -> float:
    """Crossover function for a double-zero gate, split side."""
    alpha = _check_alpha(alpha)
    return math.sqrt(math.pi / 2.0) * _normal_cdf(alpha / 2.0)


def chi(alpha: float) -> float:
    """Crossover function for a rotationally symmetric ring of gates."""
    alpha = _check_alpha(alpha)
    if alpha == math.inf:  # the limit; the form below is inf * 0 there
        return math.sqrt(2.0 / math.pi)
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
    if not math.isfinite(alpha):
        raise ValueError(f"crossover functions are tabulated at finite alpha, got {alpha}")
    route = "closed_form" if route == "auto" else route
    return CrossoverEval(alpha=alpha, value=fn(alpha, route), route=route)
