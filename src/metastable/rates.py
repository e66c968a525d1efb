"""Closed-form expected transition times and capacities for gradient diffusions.

Every operation evaluates a sharp Kramers-type law for the expected first
hitting time of a target well and the associated capacity, for one family of
gate geometries:

- :func:`ek_classical` -- nondegenerate (quadratic) saddle,
- :func:`ek_flat_unstable` / :func:`ek_flat_stable` -- one direction with a
  flat ``2p``-th order normal form (unstable resp. stable),
- :func:`ek_codim2` -- two flat transverse directions with angular quartic
  profile ``k(phi)``,
- :func:`pitchfork_transverse_time` / :func:`pitchfork_longitudinal_time` --
  crossover laws through a symmetric pitchfork bifurcation,
- :func:`doublezero_time` -- crossover law for a double-zero bifurcation,
- :func:`sombrero_time` -- ring of ``2M`` gates past a double-zero bifurcation.

Each regime states its time prefactor once.  The capacity prefactor follows
from it by the potential-theoretic duality of Bovier, Eckhoff, Gayrard and
Klein, ``prefactor * capacity_prefactor = (2*pi*eps)**(d/2) / sqrt(det_min)``
with ``det_min`` the Hessian determinant at the starting minimum, and
:func:`_result` derives it there for every regime.  All results come back as
:class:`RateResult`, whose ``expected_time`` equals
``prefactor * exp(barrier / eps)`` exactly (in float arithmetic) and whose
``capacity`` equals ``capacity_prefactor * exp(-saddle_value / eps)``.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, Sequence, Union

from .crossover import _integrate, chi, psi_minus, psi_plus, theta_minus, theta_plus

__all__ = [
    "MinimumSpec",
    "SaddleSpec",
    "RateResult",
    "Quadratic",
    "FlatUnstable",
    "FlatStable",
    "Codim2",
    "PitchforkTransverse",
    "PitchforkLongitudinal",
    "DoubleZero",
    "Sombrero",
    "SplitSaddles",
    "ek_classical",
    "ek_flat_unstable",
    "ek_flat_stable",
    "ek_codim2",
    "pitchfork_saddles",
    "longitudinal_saddles",
    "pitchfork_transverse_time",
    "pitchfork_longitudinal_time",
    "doublezero_time",
    "sombrero_time",
    "closed_rate",
    "UNIT_MINIMUM",
    "combine_gates",
    "soft_window",
    "sweep_transverse",
    "sweep_longitudinal",
    "sweep_doublezero",
    "sweep_sombrero",
    "SWEEP_FIELDS",
]

TWO_PI = 2.0 * math.pi
_EXP_MAX = 709.0  # exp() overflows float64 just above this argument

AngularProfile = Union[float, Callable[[float], float]]


def _safe_exp(x: float) -> float:
    if x > _EXP_MAX:
        return math.inf
    return math.exp(x)


def _check_positive(value: float, name: str) -> float:
    """``value`` as a float, or ``ValueError`` naming ``name`` unless it is a
    finite positive real: the package's one check of such a parameter."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be a finite positive real number, got {value!r}")
    return value


def _prod(values: Sequence[float]) -> float:
    return math.prod(values) if values else 1.0


# ---------------------------------------------------------------------------
# saddle regimes


@dataclass(frozen=True)
class Quadratic:
    """Nondegenerate saddle: one negative and ``d - 1`` positive eigenvalues."""


@dataclass(frozen=True)
class FlatUnstable:
    """Unstable direction with normal form ``-c * y1**(2p)``, ``c > 0``, ``p >= 2``."""

    p: int
    coefficient: float

    def __post_init__(self) -> None:
        _check_flat_order(self.p)
        _check_positive(self.coefficient, "coefficient")


@dataclass(frozen=True)
class FlatStable:
    """One stable direction with normal form ``+c * y2**(2p)`` next to a quadratic unstable one."""

    p: int
    coefficient: float

    def __post_init__(self) -> None:
        _check_flat_order(self.p)
        _check_positive(self.coefficient, "coefficient")


@dataclass(frozen=True)
class Codim2:
    """Two flat stable directions with angular profile ``k(phi) * r**(2p)``.

    ``angular`` is either a strictly positive constant or a callable
    ``phi -> k(phi)`` on ``[0, 2*pi)``; constants take a closed-form shortcut
    in the angular integral.
    """

    angular: AngularProfile
    p: int = 2

    def __post_init__(self) -> None:
        _check_flat_order(self.p)
        if not callable(self.angular):
            _check_positive(self.angular, "angular")


@dataclass(frozen=True)
class PitchforkTransverse:
    """Transverse pitchfork: soft stable direction ``lambda2 * y2**2 / 2 + quartic * y2**4``.

    For ``lambda2 < 0`` the bifurcation has happened and the gate consists of
    the two split saddles; callers must then supply ``mu2 > 0``, the soft
    eigenvalue at the split saddles (leading order ``-2 * lambda2``, see
    :func:`pitchfork_saddles`), and the ``SaddleSpec`` carries the split-saddle
    altitude and spectrum.
    """

    lambda2: float
    quartic: float
    mu2: float | None = None

    def __post_init__(self) -> None:
        _check_positive(self.quartic, "quartic")
        if self.mu2 is not None:
            _check_positive(self.mu2, "mu2")


@dataclass(frozen=True)
class PitchforkLongitudinal:
    """Longitudinal pitchfork: soft unstable direction ``lambda1 * y1**2 / 2 - quartic * y1**4``.

    For ``lambda1 > 0`` the gate has split into two saddles crossed in series;
    callers must then supply ``mu1 < 0``, the unstable eigenvalue at the split
    saddles (leading order ``-2 * lambda1``, see :func:`longitudinal_saddles`).
    """

    lambda1: float
    quartic: float
    mu1: float | None = None

    def __post_init__(self) -> None:
        _check_positive(self.quartic, "quartic")


@dataclass(frozen=True)
class DoubleZero:
    """Two soft transverse directions ``lambda2 * r**2 / 2 + k(phi) * r**4``.

    Valid for ``lambda2 >= -sqrt(eps * |log eps|)``; more negative values are
    rejected by :func:`doublezero_time` (the ring regime of
    :func:`sombrero_time` takes over there).
    """

    lambda2: float
    angular: AngularProfile

    def __post_init__(self) -> None:
        if not callable(self.angular):
            _check_positive(self.angular, "angular")


@dataclass(frozen=True)
class Sombrero:
    """Ring of ``2M`` alternating saddles and minima past a double-zero bifurcation.

    ``mu2`` is the (small, positive) angular eigenvalue and ``mu3`` the radial
    eigenvalue at the ring saddles; ``quartic`` is the radial normal-form
    coefficient ``C4``.
    """

    gate_pairs: int
    mu2: float
    mu3: float
    quartic: float

    def __post_init__(self) -> None:
        if not isinstance(self.gate_pairs, int) or self.gate_pairs < 2:
            raise ValueError("gate_pairs must be an integer >= 2")
        _check_positive(self.mu3, "mu3")  # first: a sombrero sweep derives mu2 from it
        _check_positive(self.mu2, "mu2")
        _check_positive(self.quartic, "quartic")


Regime = Union[
    Quadratic,
    FlatUnstable,
    FlatStable,
    Codim2,
    PitchforkTransverse,
    PitchforkLongitudinal,
    DoubleZero,
    Sombrero,
]


def _check_flat_order(p: object) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or p < 2:
        raise ValueError(f"flat order p must be an integer >= 2, got {p!r}")


# ---------------------------------------------------------------------------
# endpoint specifications


@dataclass(frozen=True)
class MinimumSpec:
    """Quadratic local minimum the diffusion starts from.

    Parameters
    ----------
    value : float
        Potential value ``V(x)`` at the minimum.
    hessian_det : float, optional
        Determinant of the Hessian at the minimum.  May be omitted when
        ``eigenvalues`` is given.
    eigenvalues : sequence of float, optional
        Hessian eigenvalues at the minimum, all strictly positive.  When both
        fields are given their product must agree with ``hessian_det``.
    """

    value: float
    hessian_det: float | None = None
    eigenvalues: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.eigenvalues is not None:
            object.__setattr__(self, "eigenvalues", tuple(float(v) for v in self.eigenvalues))
            if not self.eigenvalues:
                raise ValueError("minimum eigenvalues must not be empty")
            for v in self.eigenvalues:
                _check_positive(v, "eigenvalues")
        if self.hessian_det is None:
            if self.eigenvalues is None:
                raise ValueError("provide hessian_det or eigenvalues for the minimum")
            object.__setattr__(self, "hessian_det", _prod(self.eigenvalues))
        _check_positive(self.hessian_det, "hessian_det")
        if self.eigenvalues is not None:
            prod = _prod(self.eigenvalues)
            if abs(prod - self.hessian_det) > 1e-6 * max(abs(prod), abs(self.hessian_det)):
                raise ValueError(
                    f"hessian_det {self.hessian_det!r} disagrees with eigenvalue "
                    f"product {prod!r}"
                )

    @property
    def det(self) -> float:
        return float(self.hessian_det)


# placeholder minimum (value 0, unit Hessian determinant): the sweeps' minimum,
# and the minimum paired with a gate when only its capacity matters
UNIT_MINIMUM = MinimumSpec(value=0.0, hessian_det=1.0)


@dataclass(frozen=True)
class SaddleSpec:
    """Gate description: altitude, regime, and the quadratic part of the spectrum.

    Parameters
    ----------
    value : float
        Potential value at the gate (``V(z)``, or ``V(z+-)`` for split gates).
    regime : Regime
        One of the regime dataclasses in this module.
    stable_eigenvalues : sequence of float
        The strictly positive eigenvalues entering the spectral product, i.e.
        the directions not absorbed by the regime (``lambda_2..lambda_d`` for a
        quadratic saddle, ``lambda_3..`` when one direction is soft, ``lambda_4..``
        when two are).
    unstable_eigenvalue : float, optional
        ``|lambda_1|`` (or ``|mu_1|``), for regimes whose unstable direction is
        quadratic.  Must be omitted for ``FlatUnstable`` and
        ``PitchforkLongitudinal``, whose unstable direction is the degenerate one.
    """

    value: float
    regime: Regime
    stable_eigenvalues: tuple[float, ...] = ()
    unstable_eigenvalue: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stable_eigenvalues", tuple(map(float, self.stable_eigenvalues)))
        # a zero or negative eigenvalue belongs to a degenerate regime
        for v in self.stable_eigenvalues:
            _check_positive(v, "stable_eigenvalues")
        entry = _REGIMES.get(type(self.regime))
        if entry is None:
            raise ValueError(f"unknown regime type {type(self.regime).__name__}")
        if entry[1]:
            if self.unstable_eigenvalue is None:
                raise ValueError(
                    "unstable_eigenvalue, the magnitude |lambda_1|, is required "
                    f"for regime {type(self.regime).__name__}"
                )
            _check_positive(self.unstable_eigenvalue, "unstable_eigenvalue")
        elif self.unstable_eigenvalue is not None:
            raise ValueError(
                f"regime {type(self.regime).__name__} has a degenerate unstable "
                "direction; leave unstable_eigenvalue unset"
            )

    @property
    def dimension(self) -> int:
        return _REGIMES[type(self.regime)][0] + len(self.stable_eigenvalues)

    @property
    def stable_product(self) -> float:
        return _prod(self.stable_eigenvalues)


@dataclass(frozen=True)
class RateResult:
    """Expected-time/capacity pair produced by one of the rate operations.

    ``expected_time == prefactor * exp(barrier / eps)`` and
    ``capacity == capacity_prefactor * exp(-saddle_value / eps)`` hold exactly
    in float arithmetic (overflowing exponentials saturate to ``inf``).  The
    capacity prefactor is derived from ``prefactor`` by the duality
    ``prefactor * capacity_prefactor = (2*pi*eps)**(dimension/2) / sqrt(det_min)``.
    """

    regime_tag: str
    eps: float
    barrier: float
    saddle_value: float
    prefactor: float
    expected_time: float
    capacity_prefactor: float
    capacity: float
    dimension: int
    error_order: str
    notes: tuple[str, ...] = ()


def _result(
    tag: str,
    eps: float,
    minimum: MinimumSpec,
    saddle: SaddleSpec,
    prefactor: float,
    error_order: str,
    notes: Sequence[str] = (),
) -> RateResult:
    if not (math.isfinite(prefactor) and prefactor > 0.0):
        raise ValueError(f"computed a non-positive prefactor {prefactor!r}")
    # the duality, with the power taken after the quotient: (2 pi eps)**(d/2)
    # alone leaves the normal float range in 3-D below eps ~ 1e-206
    d = saddle.dimension
    capacity_prefactor = (TWO_PI * eps / (minimum.det ** (1 / d) * prefactor ** (2 / d))) ** (d / 2)
    # a zero or subnormal capacity has lost its digits: an underflow
    if not sys.float_info.min <= capacity_prefactor < math.inf:
        raise OverflowError(f"the capacity prefactor {capacity_prefactor!r} is outside the normal float64 range")
    barrier = saddle.value - minimum.value
    return RateResult(
        regime_tag=tag,
        eps=eps,
        barrier=barrier,
        saddle_value=saddle.value,
        prefactor=prefactor,
        expected_time=prefactor * _safe_exp(barrier / eps),
        capacity_prefactor=capacity_prefactor,
        capacity=capacity_prefactor * _safe_exp(-saddle.value / eps),
        dimension=d,
        error_order=error_order,
        notes=tuple(notes),
    )


def _setup(
    minimum: MinimumSpec, saddle: SaddleSpec, eps: float, kind: type
) -> tuple[float, Regime, float | None, float]:
    """Checks every rate operation starts with.

    Returns ``(eps, regime, |lambda_1| or None, stable product)``.
    """
    eps = _check_positive(eps, "eps")
    if not isinstance(saddle.regime, kind):
        raise ValueError(
            f"{_REGIMES[kind][2].__name__} requires a SaddleSpec with regime "
            f"{kind.__name__}, got {type(saddle.regime).__name__}"
        )
    if minimum.eigenvalues is not None and len(minimum.eigenvalues) != saddle.dimension:
        raise ValueError(
            f"minimum lists {len(minimum.eigenvalues)} eigenvalues but the saddle "
            f"implies dimension {saddle.dimension}"
        )
    lam1 = saddle.unstable_eigenvalue
    return eps, saddle.regime, None if lam1 is None else float(lam1), saddle.stable_product


# the RateResult.error_order strings, and below them their one reader,
# _error_magnitude, which sampling.validate turns into a tolerance


def _flat_error(p: int) -> str:
    return f"eps^(1/{2 * p}) |log eps|^({2 * p + 1}/{2 * p})"


def _crossover_error(symbol: str) -> str:
    return f"(eps |log eps|^3 / max({symbol}, sqrt(eps |log eps|)))^(1/2)"


_CLASSICAL_ERROR = "eps^(1/2) |log eps|"


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


def soft_window(eps: float) -> float:
    """Width ``sqrt(eps * |log eps|)`` of the crossover window for soft eigenvalues."""
    eps = _check_positive(eps, "eps")
    return math.sqrt(eps * abs(math.log(eps)))


# ---------------------------------------------------------------------------
# angular integrals


def _angular_mean(angular: AngularProfile, func: Callable[[float], float]) -> float:
    """Average ``func(k(phi))`` over ``phi`` in ``[0, 2*pi)``.

    Constant profiles short-circuit to a single evaluation; callable profiles
    are integrated adaptively to relative accuracy 1e-11.
    """
    if not callable(angular):
        return func(float(angular))

    def integrand(phi: float) -> float:
        k = float(angular(phi))
        if k <= 0.0:
            raise ValueError(f"angular profile must be strictly positive, got k({phi})={k}")
        return func(k)

    value, _ = _integrate(integrand, 0.0, TWO_PI, epsabs=0.0, epsrel=1e-11, limit=200)
    return value / TWO_PI


def _angular_integral(angular: AngularProfile, exponent: float) -> float:
    """``integral_0^{2 pi} k(phi)**exponent dphi`` with a constant shortcut."""
    return TWO_PI * _angular_mean(angular, lambda k: k**exponent)


# ---------------------------------------------------------------------------
# rate operations


def ek_classical(minimum: MinimumSpec, saddle: SaddleSpec, eps: float) -> RateResult:
    """Kramers law for a nondegenerate saddle.

    Parameters
    ----------
    minimum : MinimumSpec
        Starting minimum (value and Hessian determinant).
    saddle : SaddleSpec
        Gate with ``Quadratic`` regime: ``unstable_eigenvalue`` is ``|lambda_1|``
        and ``stable_eigenvalues`` are ``lambda_2..lambda_d``.
    eps : float
        Noise intensity.

    Returns
    -------
    RateResult
        ``prefactor = (2*pi/|lambda_1|) * sqrt(|det Hess(z)| / det Hess(x))``
        and the matching capacity.
    """
    eps, _, lam1, prod = _setup(minimum, saddle, eps, Quadratic)
    prefactor = (TWO_PI / lam1) * math.sqrt(lam1 * prod / minimum.det)
    return _result("classical", eps, minimum, saddle, prefactor, _CLASSICAL_ERROR)


def ek_flat_unstable(minimum: MinimumSpec, saddle: SaddleSpec, eps: float) -> RateResult:
    """Kramers law when the unstable direction is ``2p``-flat.

    The gate normal form is ``-c * y1**(2p) + sum_j lambda_j y_j**2 / 2`` with
    ``c = regime.coefficient``.  The prefactor carries ``eps**(-(p-1)/(2p))``,
    so the subexponential order *grows* as ``eps`` shrinks.
    """
    eps, regime, _, prod = _setup(minimum, saddle, eps, FlatUnstable)
    p, c = regime.p, regime.coefficient
    gamma = math.gamma(1.0 / (2 * p))
    root = c ** (1.0 / (2 * p))
    prefactor = (
        gamma / (p * root) * math.sqrt(TWO_PI * prod / minimum.det) * eps ** (-(p - 1) / (2 * p))
    )
    return _result("flat-unstable", eps, minimum, saddle, prefactor, _flat_error(p))


def ek_flat_stable(minimum: MinimumSpec, saddle: SaddleSpec, eps: float) -> RateResult:
    """Kramers law when one stable direction is ``2p``-flat.

    The gate normal form is ``-|lambda_1| y1**2 / 2 + c * y2**(2p) + ...``; the
    prefactor carries ``eps**(+(p-1)/(2p))`` (the flat stable direction widens
    the gate, shortening the time as noise grows).
    """
    eps, regime, lam1, prod = _setup(minimum, saddle, eps, FlatStable)
    p, c = regime.p, regime.coefficient
    gamma = math.gamma(1.0 / (2 * p))
    root = c ** (1.0 / (2 * p))
    prefactor = (
        (p * root / gamma)
        * math.sqrt(TWO_PI**3 * prod / (lam1 * minimum.det))
        * eps ** ((p - 1) / (2 * p))
    )
    return _result("flat-stable", eps, minimum, saddle, prefactor, _flat_error(p))


def ek_codim2(minimum: MinimumSpec, saddle: SaddleSpec, eps: float) -> RateResult:
    """Kramers law for a gate with two ``2p``-flat transverse directions.

    The transverse normal form is ``k(phi) * r**(2p)`` in polar coordinates;
    the angular profile enters through ``I_p = integral k(phi)**(-1/p) dphi``,
    evaluated adaptively (closed form for constant ``k``).
    """
    eps, regime, lam1, prod = _setup(minimum, saddle, eps, Codim2)
    p = regime.p
    i_p = _angular_integral(regime.angular, -1.0 / p)
    gamma = math.gamma(1.0 / p)
    prefactor = (
        (2 * p / gamma)
        / i_p
        * math.sqrt(TWO_PI**4 * prod / (lam1 * minimum.det))
        * eps ** ((p - 1) / p)
    )
    return _result("codim2", eps, minimum, saddle, prefactor, _flat_error(p))


# ---------------------------------------------------------------------------
# pitchfork crossovers


@dataclass(frozen=True)
class SplitSaddles:
    """Leading-order data for the pair of saddles born at a pitchfork bifurcation.

    Attributes
    ----------
    offset : float
        Distance of ``z+-`` from the bifurcating point along the soft axis.
    soft_eigenvalue : float
        Eigenvalue of the soft direction at ``z+-``: ``mu2 = -2*lambda2 > 0``
        for the transverse family, ``mu1 = -2*lambda1 < 0`` for the
        longitudinal one.
    value_shift : float
        ``V(z+-) - V(z)``.

    All three fields are leading-order expressions; corrections of relative
    order ``sqrt(|lambda|)`` are dropped.
    """

    offset: float
    soft_eigenvalue: float
    value_shift: float


def pitchfork_saddles(lambda2: float, quartic: float) -> SplitSaddles:
    """Split saddles of a transverse pitchfork, to leading order.

    Parameters
    ----------
    lambda2 : float
        Soft eigenvalue of the bifurcating saddle; must be negative.
    quartic : float
        Normal-form coefficient ``C4 > 0``.

    Returns
    -------
    SplitSaddles
        Offsets ``+-sqrt(|lambda2| / (4*C4))``, soft eigenvalue
        ``mu2 = 2*|lambda2|``, altitude shift ``-lambda2**2 / (16*C4)``.
    """
    if not lambda2 < 0.0:
        raise ValueError("pitchfork_saddles requires lambda2 < 0 (post-bifurcation)")
    _check_positive(quartic, "quartic")
    return SplitSaddles(
        offset=math.sqrt(-lambda2 / (4.0 * quartic)),
        soft_eigenvalue=-2.0 * lambda2,
        value_shift=-(lambda2**2) / (16.0 * quartic),
    )


def longitudinal_saddles(lambda1: float, quartic: float) -> SplitSaddles:
    """Split saddles of a longitudinal pitchfork, to leading order.

    For ``lambda1 > 0`` the former saddle is a local minimum flanked by two
    saddles at ``+-sqrt(lambda1 / (4*C4))`` with unstable eigenvalue
    ``mu1 = -2*lambda1`` and altitude ``V(z) + lambda1**2 / (16*C4)``.
    """
    if not lambda1 > 0.0:
        raise ValueError("longitudinal_saddles requires lambda1 > 0 (post-bifurcation)")
    _check_positive(quartic, "quartic")
    return SplitSaddles(
        offset=math.sqrt(lambda1 / (4.0 * quartic)),
        soft_eigenvalue=-2.0 * lambda1,
        value_shift=lambda1**2 / (16.0 * quartic),
    )


def _window_edge(value: float, window: float) -> bool:
    """Whether ``value`` sits on the crossover window edge ``window``."""
    return abs(value - window) <= 1e-9 * window


def _classical_note(
    text: str,
    prefactor: float,
    minimum: MinimumSpec,
    comparison: SaddleSpec,
    eps: float,
    gates: int = 1,
    arrangement: str = "parallel",
) -> str:
    """``text`` followed by the relative gap between ``prefactor`` and ``gates``
    classical gates of spec ``comparison``, for a crossover law at a window edge."""
    classical = ek_classical(minimum, comparison, eps)
    classical = combine_gates(classical, gates, arrangement=arrangement)
    disc = abs(prefactor - classical.prefactor) / max(prefactor, classical.prefactor)
    return f"{text} prefactor discrepancy {disc:.3e}"


def pitchfork_transverse_time(minimum: MinimumSpec, saddle: SaddleSpec, eps: float) -> RateResult:
    """Crossover law through a transverse pitchfork bifurcation.

    For ``lambda2 >= 0`` the single gate is used with the ``psi_plus``
    correction; for ``lambda2 < 0`` the regime must carry ``mu2 > 0`` and the
    ``SaddleSpec`` must describe the split saddles (altitude ``V(z+-)``,
    spectrum ``mu_3..mu_d``), with the ``psi_minus`` correction accounting for
    the two parallel gates.
    """
    eps, regime, lam1, prod = _setup(minimum, saddle, eps, PitchforkTransverse)
    a = math.sqrt(2.0 * eps * regime.quartic)
    if regime.lambda2 >= 0.0:
        if regime.mu2 is not None:
            raise ValueError("mu2 applies only to the post-bifurcation branch (lambda2 < 0)")
        soft = regime.lambda2
        psi = psi_plus(soft / a)
        tag = "pitchfork-transverse"
        edge, gates = soft, 1
        edge_text = (
            "at the upper crossover boundary lambda2 = sqrt(eps |log eps|); classical-branch"
        )
    else:
        if regime.mu2 is None:
            raise ValueError(
                "lambda2 < 0 requires the split-saddle eigenvalue mu2 "
                "(see pitchfork_saddles for the leading-order value)"
            )
        soft = regime.mu2
        psi = psi_minus(soft / a)
        tag = "pitchfork-transverse-split"
        edge, gates = -regime.lambda2, 2
        edge_text = (
            "at the lower crossover boundary lambda2 = -sqrt(eps |log eps|); two-gate classical"
        )
    prefactor = TWO_PI * math.sqrt((soft + a) * prod / (lam1 * minimum.det)) / psi
    notes = ()
    if _window_edge(edge, soft_window(eps)):
        comparison = replace(
            saddle, regime=Quadratic(), stable_eigenvalues=(soft,) + saddle.stable_eigenvalues
        )
        notes = (_classical_note(edge_text, prefactor, minimum, comparison, eps, gates),)
    return _result(tag, eps, minimum, saddle, prefactor, _crossover_error("|lambda2|"), notes)


def pitchfork_longitudinal_time(
    minimum: MinimumSpec, saddle: SaddleSpec, eps: float
) -> RateResult:
    """Crossover law through a longitudinal pitchfork bifurcation.

    For ``lambda1 <= 0`` the single gate is used and ``psi_plus`` *multiplies*
    the time (the flat unstable direction slows the crossing); for
    ``lambda1 > 0`` the regime must carry ``mu1 < 0`` and the ``SaddleSpec``
    must describe the split saddles (altitude ``V(z+-) = V(z) + lambda1**2/(16 C4)``,
    spectrum ``mu_2..mu_d``), crossed in series.
    """
    eps, regime, _, prod = _setup(minimum, saddle, eps, PitchforkLongitudinal)
    a = math.sqrt(2.0 * eps * regime.quartic)
    if regime.lambda1 <= 0.0:
        if regime.mu1 is not None:
            raise ValueError("mu1 applies only to the post-bifurcation branch (lambda1 > 0)")
        soft = -regime.lambda1
        psi = psi_plus(soft / a)
        tag = "pitchfork-longitudinal"
        edge, gates = soft, 1
        edge_text = "at the crossover boundary |lambda1| = sqrt(eps |log eps|); classical-branch"
    else:
        if regime.mu1 is None:
            raise ValueError(
                "lambda1 > 0 requires the split-saddle eigenvalue mu1 "
                "(see longitudinal_saddles for the leading-order value)"
            )
        if not regime.mu1 < 0.0:
            raise ValueError("mu1 must be negative at the split saddles")
        soft = -regime.mu1
        psi = psi_minus(soft / a)
        tag = "pitchfork-longitudinal-split"
        edge, gates = regime.lambda1, 2
        edge_text = "at the crossover boundary lambda1 = sqrt(eps |log eps|); two-gate series"
    prefactor = TWO_PI * math.sqrt(prod / ((soft + a) * minimum.det)) * psi
    notes = ()
    if _window_edge(edge, soft_window(eps)):
        comparison = replace(saddle, regime=Quadratic(), unstable_eigenvalue=soft)
        notes = (_classical_note(edge_text, prefactor, minimum, comparison, eps, gates, "series"),)
    return _result(tag, eps, minimum, saddle, prefactor, _crossover_error("|lambda1|"), notes)


def doublezero_time(minimum: MinimumSpec, saddle: SaddleSpec, eps: float) -> RateResult:
    """Crossover law for a saddle with two vanishing transverse eigenvalues.

    The two soft directions share the eigenvalue ``lambda2`` and the angular
    quartic ``k(phi)``.  For ``lambda2 >= 0`` the correction averages
    ``theta_plus``; for ``-sqrt(eps |log eps|) <= lambda2 < 0`` it averages
    ``theta_minus`` with the ``exp(lambda2**2 / (16 eps k))`` altitude weight
    (the ``SaddleSpec`` keeps the altitude of the central point).  More
    negative ``lambda2`` is rejected: the ring of developed dips is the regime
    of :func:`sombrero_time`.
    """
    eps, regime, lam1, prod = _setup(minimum, saddle, eps, DoubleZero)
    lam2 = float(regime.lambda2)
    window = soft_window(eps)
    notes = ()
    if lam2 >= 0.0:
        denom = _angular_mean(
            regime.angular,
            lambda k: theta_plus(lam2 / math.sqrt(2.0 * eps * k))
            / (lam2 + math.sqrt(2.0 * eps * k)),
        )
        tag = "doublezero"
    else:
        if lam2 < -window * (1.0 + 1e-9):
            raise ValueError(
                f"lambda2 = {lam2} lies below -sqrt(eps |log eps|) = {-window}; "
                "the rim dips are developed there -- use sombrero_time with the "
                "mu-spectrum of the ring saddles"
            )
        denom = _angular_mean(
            regime.angular,
            lambda k: theta_minus(-lam2 / math.sqrt(2.0 * eps * k))
            / math.sqrt(2.0 * eps * k)
            * math.exp(lam2**2 / (16.0 * eps * k)),
        )
        tag = "doublezero-negative"
        if _window_edge(-lam2, window):
            notes = (
                "at the lower validity edge lambda2 = -sqrt(eps |log eps|); the "
                "sombrero regime adjoins (compare against sombrero_time)",
            )
    prefactor = TWO_PI * math.sqrt(prod / (lam1 * minimum.det)) / denom
    if lam2 >= 0.0 and _window_edge(lam2, window):
        comparison = replace(
            saddle,
            regime=Quadratic(),
            stable_eigenvalues=(lam2, lam2) + saddle.stable_eigenvalues,
        )
        edge_text = (
            "at the upper crossover boundary lambda2 = sqrt(eps |log eps|); classical-branch"
        )
        notes = (_classical_note(edge_text, prefactor, minimum, comparison, eps),)
    return _result(tag, eps, minimum, saddle, prefactor, _crossover_error("|lambda2|"), notes)


def sombrero_time(minimum: MinimumSpec, saddle: SaddleSpec, eps: float) -> RateResult:
    """Kramers law for a ring of ``2M`` gates past a double-zero bifurcation.

    The ``SaddleSpec`` describes one ring saddle ``z*``: altitude ``V(z*)``,
    ``unstable_eigenvalue = |mu_1|``, ``stable_eigenvalues = mu_4..mu_N``, and a
    ``Sombrero`` regime carrying ``(M, mu2, mu3, C4)``.  The corrections
    ``theta_minus(mu3 / sqrt(8 eps C4))`` and
    ``chi(mu2 mu3 / ((2M)**2 8 eps C4))`` interpolate between the flat-ring,
    rotation-invariant, and ``2M``-discrete-gates regimes.
    """
    eps, regime, lam1, prod = _setup(minimum, saddle, eps, Sombrero)
    two_m = 2 * regime.gate_pairs
    b = 8.0 * eps * regime.quartic
    theta = theta_minus(regime.mu3 / math.sqrt(b))
    chi_val = chi(regime.mu2 * regime.mu3 / (two_m**2 * b))
    core = regime.mu2 * regime.mu3 + two_m**2 * b
    prefactor = (
        (TWO_PI / two_m) * math.sqrt(core * prod / (lam1 * minimum.det)) / (theta * chi_val)
    )
    return _result("sombrero", eps, minimum, saddle, prefactor, _crossover_error("mu2"))


# regime class -> (Hessian directions the regime absorbs, whether |lambda_1|
# enters through SaddleSpec.unstable_eigenvalue, rate operation).  Rows are
# plain tuples: the perfbench span tracer rebinds functions inside tuple values
# of module dicts and rebuilds them as plain tuples.
_REGIMES = {
    Quadratic: (1, True, ek_classical),
    FlatUnstable: (1, False, ek_flat_unstable),
    FlatStable: (2, True, ek_flat_stable),
    Codim2: (3, True, ek_codim2),
    PitchforkTransverse: (2, True, pitchfork_transverse_time),
    PitchforkLongitudinal: (1, False, pitchfork_longitudinal_time),
    DoubleZero: (3, True, doublezero_time),
    Sombrero: (3, True, sombrero_time),
}


def closed_rate(minimum: MinimumSpec, saddle: SaddleSpec, eps: float) -> RateResult:
    """Evaluate the rate operation that belongs to ``saddle.regime``."""
    return _REGIMES[type(saddle.regime)][2](minimum, saddle, eps)


# ---------------------------------------------------------------------------
# helpers


def combine_gates(result: RateResult, count: int, *, arrangement: str = "parallel") -> RateResult:
    """Aggregate ``count`` identical gates in parallel or in series.

    Parallel gates divide the expected time and add the capacities; series
    gates do the opposite.  The duality product ``prefactor *
    capacity_prefactor`` is unchanged either way.
    """
    if not isinstance(count, int) or count < 1:
        raise ValueError("count must be a positive integer")
    if arrangement == "parallel":
        scale = 1.0 / count
    elif arrangement == "series":
        scale = float(count)
    else:
        raise ValueError("arrangement must be 'parallel' or 'series'")
    return replace(
        result,
        prefactor=result.prefactor * scale,
        expected_time=result.expected_time * scale,
        capacity_prefactor=result.capacity_prefactor / scale,
        capacity=result.capacity / scale,
        notes=result.notes + (f"{count} identical gates in {arrangement}",),
    )


# ---------------------------------------------------------------------------
# parameter sweeps

SWEEP_FIELDS = (
    "control_parameter",
    "eps",
    "barrier",
    "prefactor",
    "expected_time",
    "regime_tag",
    "error_order",
)
# the RateResult attributes that fill a sweep row after its control value
_SWEEP_VALUES = attrgetter(*SWEEP_FIELDS[1:])


def _sweep(
    eps: float, values: Sequence[float], saddle_at: Callable[[float], SaddleSpec]
) -> list[dict]:
    """Rows of :data:`SWEEP_FIELDS`, one per control value in input order.

    ``saddle_at(control)`` builds the gate for one control value at altitude 0
    above :data:`UNIT_MINIMUM`, shifted where a split saddle moves it.
    """
    rows = []
    for control in values:
        control = float(control)
        if not math.isfinite(control):
            raise ValueError(f"sweep control values must be finite, got {control}")
        result = closed_rate(UNIT_MINIMUM, saddle_at(control), eps)
        rows.append(dict(zip(SWEEP_FIELDS, (control, *_SWEEP_VALUES(result)))))
    return rows


def sweep_transverse(
    eps: float, lambda2_values: Sequence[float], *, quartic: float = 0.5
) -> list[dict]:
    """Transverse-pitchfork prefactor sweep over ``lambda2``.

    The saddle is in normal-form units (``|lambda_1| = 1``, unit minimum
    determinant, no other stable direction; the default ``C4 = 1/2`` makes
    the crossover scale exactly ``sqrt(eps)``).  For ``lambda2 < 0`` the
    split-saddle data from :func:`pitchfork_saddles` is used, including the
    lowered altitude.  Rows follow the input order and carry the fields in
    :data:`SWEEP_FIELDS`.
    """

    def saddle_at(lam2: float) -> SaddleSpec:
        if lam2 >= 0.0:
            return SaddleSpec(0.0, PitchforkTransverse(lam2, quartic), (), 1.0)
        split = pitchfork_saddles(lam2, quartic)
        regime = PitchforkTransverse(lam2, quartic, mu2=split.soft_eigenvalue)
        return SaddleSpec(split.value_shift, regime, (), 1.0)

    return _sweep(eps, lambda2_values, saddle_at)


def sweep_longitudinal(
    eps: float, lambda1_values: Sequence[float], *, quartic: float = 0.5
) -> list[dict]:
    """Longitudinal-pitchfork prefactor sweep over the soft eigenvalue ``lambda1``.

    One stable direction with eigenvalue 1.  For ``lambda1 > 0`` the split
    saddles of :func:`longitudinal_saddles` are used, including the raised
    altitude.
    """

    def saddle_at(lam1: float) -> SaddleSpec:
        if lam1 <= 0.0:
            return SaddleSpec(0.0, PitchforkLongitudinal(lam1, quartic), (1.0,))
        split = longitudinal_saddles(lam1, quartic)
        regime = PitchforkLongitudinal(lam1, quartic, mu1=split.soft_eigenvalue)
        return SaddleSpec(split.value_shift, regime, (1.0,))

    return _sweep(eps, lambda1_values, saddle_at)


def sweep_doublezero(
    eps: float, lambda2_values: Sequence[float], *, angular: AngularProfile = 0.5
) -> list[dict]:
    """Double-zero prefactor sweep over ``lambda2``, with ``|lambda_1| = 1``.

    Values below ``-sqrt(eps |log eps|)`` raise (use :func:`sweep_sombrero`
    for the ring regime).
    """

    def saddle_at(lam2: float) -> SaddleSpec:
        return SaddleSpec(0.0, DoubleZero(lam2, angular), (), 1.0)

    return _sweep(eps, lambda2_values, saddle_at)


def sweep_sombrero(
    eps: float, mu3_values: Sequence[float], *, gate_pairs: int = 3, quartic: float = 0.125
) -> list[dict]:
    """Sombrero prefactor sweep over the radial eigenvalue ``mu3``.

    Defaults model the three-particle ring: ``M = 3`` gates pairs, radial
    quartic ``C4 = 1/8``, ``|lambda_1| = 1``, and the angular eigenvalue
    ``mu2 = mu3**2 / 2`` implied by the sixth-order rim modulation of that
    lattice.  The ring altitude ``V(z*) = -mu3**2 / (64 * C4)`` drops with
    ``mu3`` exactly as the split-saddle altitude of the radial pitchfork.
    """

    def saddle_at(mu3: float) -> SaddleSpec:
        regime = Sombrero(gate_pairs, 0.5 * mu3 * mu3, mu3, quartic)
        return SaddleSpec(-(mu3**2) / (64.0 * quartic), regime, (), 1.0)

    return _sweep(eps, mu3_values, saddle_at)
