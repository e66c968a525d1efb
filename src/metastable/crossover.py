"""Universal crossover functions for transition-rate prefactors.

Five dimensionless functions interpolate the rate prefactor between the
quadratic-saddle regime and the degenerate regimes:

* ``psi_plus`` / ``psi_minus`` — single soft direction before/after a
  pitchfork-type splitting,
* ``theta_plus`` / ``theta_minus`` — doubly-degenerate (double-zero) gate,
* ``chi`` — rotationally symmetric ring of gates.

Each function carries two genuinely independent evaluation routes: a closed
form in terms of Bessel/erf-type special functions, and direct adaptive
quadrature of the defining integral.  ``route="auto"`` switches from the
quadrature to the closed form at ``alpha = 0.5``, where the Bessel arguments
stop degenerating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

__all__ = [
    "CrossoverEval",
    "gamma_fn",
    "normal_cdf",
    "bessel_i",
    "bessel_k_quarter",
    "psi_plus",
    "psi_minus",
    "theta_plus",
    "theta_minus",
    "chi",
    "evaluate",
    "CROSSOVER_FUNCTIONS",
]

_ROUTE_SWITCH = 0.5
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
# basic special functions


def gamma_fn(x: float) -> float:
    """Euler Gamma for strictly positive argument."""
    if x <= 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return float(special.gamma(x))


def normal_cdf(x: float):
    """Standard normal distribution function Phi."""
    return special.ndtr(x)


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function I_nu for nu in {0, 1/4, -1/4} and x >= 0."""
    if not any(math.isclose(nu, v, abs_tol=1e-15) for v in (0.0, 0.25, -0.25)):
        raise ValueError(f"bessel_i supports nu in {{0, 1/4, -1/4}}, got {nu}")
    if x < 0:
        raise ValueError(f"bessel_i requires x >= 0, got {x}")
    return float(special.iv(nu, x))


def _k_quarter_integral(x: float, scaled: bool) -> float:
    # K_{1/4}(x) = int_0^inf exp(-x cosh t) cosh(t/4) dt; `scaled` multiplies e^x.
    tmax = math.acosh(1.0 + (_LOG_TRUNC + 5.0) / x) + 1.0

    def f(t):
        arg = -x * (math.cosh(t) - 1.0) if scaled else -x * math.cosh(t)
        return math.exp(arg) * math.cosh(t / 4.0)

    val, _ = integrate.quad(f, 0.0, tmax, **_QUAD_OPTS)
    return val


# Above this argument the I_{±1/4} connection formula loses ~2x/ln(10) digits
# to cancellation; switch to the integral representation there.
_K_CONNECTION_MAX = 5.0


def bessel_k_quarter(x: float) -> float:
    """Modified Bessel function K_{1/4}(x) for x > 0.

    Uses the connection formula ``K_nu = pi/(2 sin(nu pi)) (I_{-nu} - I_nu)``
    for small arguments and the integral representation for large ones.
    """
    if x <= 0:
        raise ValueError(f"bessel_k_quarter requires x > 0, got {x}")
    if x <= _K_CONNECTION_MAX:
        return float(
            math.pi
            / (2.0 * math.sin(math.pi / 4.0))
            * (special.iv(-0.25, x) - special.iv(0.25, x))
        )
    return _k_quarter_integral(x, scaled=False)


def _scaled_k_quarter(x: float) -> float:
    # e^x K_{1/4}(x), overflow-safe for all x > 0
    if x <= _K_CONNECTION_MAX:
        return math.exp(x) * bessel_k_quarter(x)
    return _k_quarter_integral(x, scaled=True)


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
    return gamma_fn(0.25) / (2.0**1.25 * math.sqrt(math.pi))


def _psi_plus_closed(alpha: float) -> float:
    z = alpha * alpha / 16.0
    if z < 1e-100:  # limit value; the O(alpha) correction is below 1e-50
        return _psi_zero()
    return math.sqrt(alpha * (1.0 + alpha) / (8.0 * math.pi)) * _scaled_k_quarter(z)


def _psi_minus_closed(alpha: float) -> float:
    z = alpha * alpha / 64.0
    if z < 1e-100:
        return _psi_zero()
    scaled_sum = float(special.ive(-0.25, z) + special.ive(0.25, z))
    return math.sqrt(math.pi * alpha * (1.0 + alpha) / 32.0) * scaled_sum


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


def _resolve_route(alpha: float, route: str) -> str:
    """The route ``route="auto"`` stands for at ``alpha``; other routes pass through."""
    if route == "auto":
        return "quadrature" if alpha < _ROUTE_SWITCH else "closed_form"
    return route


def _dispatch(alpha, route, closed, quadrature) -> float:
    alpha = float(alpha)
    if alpha < 0:
        raise ValueError(
            f"crossover functions take alpha >= 0, got {alpha}; "
            "map negative eigenvalues through the appropriate case split first"
        )
    route = _resolve_route(alpha, route)
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
    return CrossoverEval(alpha=alpha, value=fn(alpha, route), route=_resolve_route(alpha, route))
