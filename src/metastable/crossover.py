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
forms, valid for every ``alpha >= 0``; the scaled Bessel functions switch to
their Hankel expansions from the argument z = 20 on.  scipy.special and
scipy.integrate are imported on first use: each costs a quarter of a second
or more of start-up, which commands that evaluate no crossover function
should not pay.  The route is chosen in one place, :func:`evaluate`
(``route="auto"`` is the closed form), and the quadrature route is the
independent check on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

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
# scaled modified Bessel functions

# From this argument on, the Hankel sums below reach double precision within
# 27 terms (6 at z = 1e3); below it scipy's scaled Bessel functions do.
_HANKEL_MIN = 20.0


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


@cache
def _special():
    # a statement `from scipy.special import f` in each function would cost
    # 0.3 us per call, a third of a closed form; the cached module, 40 ns
    from scipy import special

    return special


def _scaled_k_quarter(z: float) -> float:
    # e^z K_{1/4}(z) for z > 0
    if z < _HANKEL_MIN:
        return float(_special().kve(0.25, z))
    return math.sqrt(math.pi / (2.0 * z)) * _hankel_sum(z, 0.25)


def _scaled_i_quarter_pair(z: float) -> float:
    # e^{-z} (I_{-1/4} + I_{1/4})(z) for z > 0; I_{-1/4} - I_{1/4} is
    # (sqrt(2)/pi) K_{1/4}, e^{-2z} relative to the pair, so from _HANKEL_MIN
    # on the pair is twice the Hankel form of I_{1/4}
    if z < _HANKEL_MIN:
        ive = _special().ive
        return float(ive(-0.25, z) + ive(0.25, z))
    return 2.0 / math.sqrt(2.0 * math.pi * z) * _hankel_sum(-z, 0.25)


def _scaled_i_zero(z: float) -> float:
    # e^{-z} I_0(z) for z >= 0; scipy's ive(0, z) is NaN from z ~ 5e9 on
    if z < _HANKEL_MIN:
        return float(_special().ive(0.0, z))
    return _hankel_sum(-z, 0.0) / math.sqrt(2.0 * math.pi) / math.sqrt(z)


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
    # the integrand peaks at both ends with width about 1/sqrt(alpha); as for
    # the rings, breakpoints 12 widths in keep quad on both peaks (alpha > 14)
    w = 12.0 / math.sqrt(alpha) if alpha > 0 else math.inf
    pts = [w, math.pi, 2.0 * math.pi - w] if w < math.pi else [math.pi]
    val = _quad(lambda p: math.exp(-alpha * (1.0 - math.cos(p))), 0.0, 2.0 * math.pi, pts)
    return math.sqrt(1.0 + alpha) / math.pi * val


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
    return float(_special().gamma(0.25)) / (2.0**1.25 * math.sqrt(math.pi))


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
        * float(_special().erfcx(alpha / (2.0 * math.sqrt(2.0))))
    )


def theta_minus(alpha: float) -> float:
    """Crossover function for a double-zero gate, split side."""
    alpha = _check_alpha(alpha)
    return math.sqrt(math.pi / 2.0) * float(_special().ndtr(alpha / 2.0))


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
