"""Universal crossover functions for transition-rate prefactors.

Five dimensionless functions interpolate the rate prefactor between the
quadratic-saddle regime and the degenerate regimes:

* ``psi_plus`` / ``psi_minus`` — single soft direction before/after a
  pitchfork-type splitting,
* ``theta_plus`` / ``theta_minus`` — doubly-degenerate (double-zero) gate,
* ``chi`` — rotationally symmetric ring of gates.

Each function carries two genuinely independent evaluation routes: a closed
form in terms of Bessel/erf-type special functions, and direct adaptive
quadrature of the defining integral.  The closed form serves every
``alpha >= 0`` and is what ``route="auto"`` takes; the Bessel functions of
order 1/4 switch to their Hankel expansions from the argument z = 20 on.  The
quadrature route is the independent check on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate, special

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
# scaled Bessel functions of order 1/4

# From this argument on, the Hankel sums below reach double precision within
# 26 terms (6 at z = 1e3); below it scipy's scaled Bessel functions do.
_HANKEL_MIN = 20.0


def _hankel_sum(z: float) -> float:
    # sum_k a_k(1/4) / z^k of DLMF 10.40.1-2 (z < 0 gives the alternating
    # sum), with a_k(nu) = prod_{j<=k} (4 nu^2 - (2j - 1)^2) / (k! 8^k)
    total = term = 1.0
    for k in range(1, 40):
        term *= (0.25 - (2 * k - 1) ** 2) / (8.0 * k * z)
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return total


def _scaled_k_quarter(z: float) -> float:
    # e^z K_{1/4}(z) for z > 0
    if z < _HANKEL_MIN:
        return float(special.kve(0.25, z))
    return math.sqrt(math.pi / (2.0 * z)) * _hankel_sum(z)


def _scaled_i_quarter_pair(z: float) -> float:
    # e^{-z} (I_{-1/4} + I_{1/4})(z) for z > 0; I_{-1/4} - I_{1/4} is
    # (sqrt(2)/pi) K_{1/4}, e^{-2z} relative to the pair, so from _HANKEL_MIN
    # on the pair is twice the Hankel form of I_{1/4}
    if z < _HANKEL_MIN:
        return float(special.ive(-0.25, z) + special.ive(0.25, z))
    return 2.0 / math.sqrt(2.0 * math.pi * z) * _hankel_sum(-z)


# ---------------------------------------------------------------------------
# quadrature routes (defining integrals, independent of the closed forms)


def _quartic_cut(alpha: float) -> float:
    # y beyond which exp(-(y^4 + alpha y^2)/2) < 1e-18 of its peak at 0
    T = 2.0 * _LOG_TRUNC
    y2 = 0.5 * (-alpha + math.sqrt(alpha * alpha + 4.0 * T))
    return 1.2 * math.sqrt(y2) + 0.5


def _psi_plus_quadrature(alpha: float) -> float:
    ymax = _quartic_cut(alpha)
    val, _ = integrate.quad(
        lambda y: math.exp(-0.5 * (y**4 + alpha * y * y)), 0.0, ymax, **_QUAD_OPTS
    )
    return math.sqrt((1.0 + alpha) / (2.0 * math.pi)) * 2.0 * val


def _psi_minus_quadrature(alpha: float) -> float:
    c = alpha / 4.0
    ymax = 1.1 * math.sqrt(c + math.sqrt(2.0 * _LOG_TRUNC) + 1.0) + 0.5
    pts = [math.sqrt(c)] if c > 0 else None
    val, _ = integrate.quad(
        lambda y: math.exp(-0.5 * (y * y - c) ** 2), 0.0, ymax, points=pts, **_QUAD_OPTS
    )
    return math.sqrt((1.0 + alpha) / (2.0 * math.pi)) * 2.0 * val


def _theta_plus_quadrature(alpha: float) -> float:
    ymax = _quartic_cut(alpha)
    val, _ = integrate.quad(
        lambda y: y * math.exp(-0.5 * (y**4 + alpha * y * y)), 0.0, ymax, **_QUAD_OPTS
    )
    return (1.0 + alpha) * val


def _theta_minus_quadrature(alpha: float) -> float:
    c = alpha / 2.0
    ymax = 1.1 * math.sqrt(c + math.sqrt(2.0 * _LOG_TRUNC) + 1.0) + 0.5
    pts = [math.sqrt(c)] if c > 0 else None
    val, _ = integrate.quad(
        lambda y: y * math.exp(-0.5 * (y * y - c) ** 2), 0.0, ymax, points=pts, **_QUAD_OPTS
    )
    return val


def _chi_quadrature(alpha: float) -> float:
    val, _ = integrate.quad(
        lambda p: math.exp(-alpha * (1.0 - math.cos(p))),
        0.0,
        2.0 * math.pi,
        points=[math.pi],
        **_QUAD_OPTS,
    )
    return math.sqrt(1.0 + alpha) / math.pi * val


# ---------------------------------------------------------------------------
# closed-form routes


def _psi_zero() -> float:
    return float(special.gamma(0.25)) / (2.0**1.25 * math.sqrt(math.pi))


def _psi_plus_closed(alpha: float) -> float:
    z = alpha * alpha / 16.0
    if z < 1e-100:  # limit value; the O(alpha) correction is below 1e-50
        return _psi_zero()
    return math.sqrt(alpha * (1.0 + alpha) / (8.0 * math.pi)) * _scaled_k_quarter(z)


def _psi_minus_closed(alpha: float) -> float:
    z = alpha * alpha / 64.0
    if z < 1e-100:
        return _psi_zero()
    return math.sqrt(math.pi * alpha * (1.0 + alpha) / 32.0) * _scaled_i_quarter_pair(z)


def _theta_plus_closed(alpha: float) -> float:
    # sqrt(pi/2)(1+a) e^{a^2/8} Phi(-a/2) written with erfcx to avoid overflow
    return (
        math.sqrt(math.pi / 2.0)
        * (1.0 + alpha)
        * 0.5
        * float(special.erfcx(alpha / (2.0 * math.sqrt(2.0))))
    )


def _theta_minus_closed(alpha: float) -> float:
    return math.sqrt(math.pi / 2.0) * float(special.ndtr(alpha / 2.0))


def _chi_closed(alpha: float) -> float:
    return 2.0 * math.sqrt(1.0 + alpha) * float(special.ive(0.0, alpha))


# ---------------------------------------------------------------------------
# public crossover functions


def _resolve_route(route: str) -> str:
    """The route ``route="auto"`` stands for; other routes pass through."""
    return "closed_form" if route == "auto" else route


def _dispatch(alpha, route, closed, quadrature) -> float:
    alpha = float(alpha)
    if alpha < 0:
        raise ValueError(
            f"crossover functions take alpha >= 0, got {alpha}; "
            "map negative eigenvalues through the appropriate case split first"
        )
    route = _resolve_route(route)
    if route == "closed_form":
        return closed(alpha)
    if route == "quadrature":
        return quadrature(alpha)
    raise ValueError(f"unknown route {route!r}")


def psi_plus(alpha: float, route: str = "auto") -> float:
    """Crossover function for a soft transverse direction (un-split side)."""
    return _dispatch(alpha, route, _psi_plus_closed, _psi_plus_quadrature)


def psi_minus(alpha: float, route: str = "auto") -> float:
    """Crossover function on the split side of a pitchfork (two parallel gates)."""
    return _dispatch(alpha, route, _psi_minus_closed, _psi_minus_quadrature)


def theta_plus(alpha: float, route: str = "auto") -> float:
    """Crossover function for a double-zero gate, non-degenerate side."""
    return _dispatch(alpha, route, _theta_plus_closed, _theta_plus_quadrature)


def theta_minus(alpha: float, route: str = "auto") -> float:
    """Crossover function for a double-zero gate, split side."""
    return _dispatch(alpha, route, _theta_minus_closed, _theta_minus_quadrature)


def chi(alpha: float, route: str = "auto") -> float:
    """Crossover function for a rotationally symmetric ring of gates."""
    return _dispatch(alpha, route, _chi_closed, _chi_quadrature)


CROSSOVER_FUNCTIONS = {
    "psi_plus": psi_plus,
    "psi_minus": psi_minus,
    "theta_plus": theta_plus,
    "theta_minus": theta_minus,
    "chi": chi,
}


def evaluate(name: str, alpha: float, route: str = "auto") -> CrossoverEval:
    """Evaluate a named crossover function, recording the route actually used."""
    try:
        fn = CROSSOVER_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown crossover function {name!r}; choose from {sorted(CROSSOVER_FUNCTIONS)}"
        ) from None
    alpha = float(alpha)
    return CrossoverEval(alpha=alpha, value=fn(alpha, route), route=_resolve_route(route))
