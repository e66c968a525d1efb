"""Stationary-point location, saddle classification, and 2-D gate search.

Classification follows a fixed decision tree on the ascending Hessian spectrum
of a stationary point:

* no zero eigenvalues: minimum / nondegenerate saddle / multiple unstable
  directions;
* one zero eigenvalue: codimension-1 normal form, case split on the sign of
  the distinguished nonzero eigenvalue and the coefficients C3, C4;
* two zero eigenvalues: codimension-2 quartic form, discriminant root
  analysis, and the angular function k(phi);
* three or more: tagged only, with a heuristic sign report.

Every soft block goes through one center-manifold reduction,
:func:`_soft_block`: the third and fourth derivative tensors are rotated into
the eigenbasis once, and the cubic coupling of the soft directions to the
quadratic ones is eliminated into an effective quartic tensor.  The codim-1
classification and :func:`codim1_coefficients`, the codim-2 classification
and :func:`codim2_form`, and the higher-codimension sign report all read
those two tensors.

Which eigenvalues count as zero is decided once, when the point is built
(``zero_tol`` of :meth:`StationaryPoint.at` and
:func:`find_stationary_points`).  The point also owns the split of the
remaining spectrum into quadratic unstable and quadratic stable directions;
:func:`classify`, :func:`saddle_spec` and ``capacity.default_box`` read that
split and make no zero test of their own.

For d = 2 an independent grid oracle computes communication heights and gate
cells (exact min-max on the 8-connected grid graph) by bisection over sorted
levels with connected-component labelling, narrowed after each connecting
probe to the endpoints' component.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .potentials import PotentialModel, _grid_values
from .rates import (
    Codim2, PitchforkLongitudinal, PitchforkTransverse, Quadratic, SaddleSpec, _check_positive,
)

__all__ = [
    "SaddleTag",
    "Verdict",
    "StationaryPoint",
    "SaddleClass",
    "NormalFormCodim1",
    "NormalFormCodim2",
    "GridSpec2D",
    "GateResult",
    "find_stationary_points",
    "classify",
    "codim1_coefficients",
    "codim2_form",
    "communication_height_2d",
    "classification_report",
    "saddle_spec",
]

logger = logging.getLogger(__name__)

DEFAULT_ZERO_TOL = 1e-6


class SaddleTag(str, Enum):
    LOCAL_MINIMUM = "LocalMinimum"
    NONDEGENERATE_SADDLE = "NondegenerateSaddle"
    MULTIPLE_NEGATIVE = "MultipleNegativeNotSaddle"
    CODIM1 = "Codim1"
    CODIM2 = "Codim2"
    HIGHER_CODIM = "HigherCodim"


class Verdict(str, Enum):
    SADDLE = "Saddle"
    NOT_SADDLE = "NotSaddle"
    UNDETERMINED = "Undetermined"


# ---------------------------------------------------------------------------
# stationary points


@dataclass
class StationaryPoint:
    """A critical point with its sorted Hessian spectrum.

    ``zero_indices`` lists the soft (numerically zero) eigenvalues; every
    other eigenvalue is a quadratic direction.
    """

    location: np.ndarray
    value: float
    gradient_norm: float
    eigenvalues: np.ndarray  # ascending
    eigenvectors: np.ndarray  # column i belongs to eigenvalues[i]
    zero_indices: tuple[int, ...]

    @classmethod
    def at(
        cls, model: PotentialModel, x, zero_tol: float = DEFAULT_ZERO_TOL
    ) -> "StationaryPoint":
        """Build the record for a (presumed) stationary point of `model`.

        Eigenvalues with ``|lambda| < zero_tol * max(1, spectral radius)``
        are flagged as soft.
        """
        x = np.asarray(x, dtype=float)
        H = model.hessian(x)
        lam, Q = np.linalg.eigh(H)
        return cls(
            location=x,
            value=float(model.value(x)),
            gradient_norm=float(np.linalg.norm(model.gradient(x))),
            eigenvalues=lam,
            eigenvectors=_orient_columns(Q),
            zero_indices=_flag_zeros(lam, zero_tol),
        )

    @property
    def n_quadratic_unstable(self) -> int:
        """Number of negative eigenvalues that are not soft."""
        return sum(1 for i, v in enumerate(self.eigenvalues) if v < 0 and i not in self.zero_indices)

    @property
    def quadratic_stable(self) -> tuple[float, ...]:
        """Positive eigenvalues that are not soft, ascending."""
        return tuple(
            float(v) for i, v in enumerate(self.eigenvalues) if v > 0 and i not in self.zero_indices
        )


def _flag_zeros(lam: np.ndarray, zero_tol: float) -> tuple[int, ...]:
    scale = max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    return tuple(int(i) for i in np.nonzero(np.abs(lam) < zero_tol * scale)[0])


def _orient_columns(Q: np.ndarray) -> np.ndarray:
    Q = Q.copy()
    for j in range(Q.shape[1]):
        col = Q[:, j]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            Q[:, j] = -col
    return Q


def find_stationary_points(
    model: PotentialModel, seeds, tol: float = 1e-9, zero_tol: float = DEFAULT_ZERO_TOL
) -> list[StationaryPoint]:
    """Newton-refine each seed to a zero of the gradient; merge duplicates.

    The iteration uses the model's exact Hessian and stops once a step is no
    longer than ``1e-3 * tol * (1 + |x|)``.  At a degenerate zero (a soft
    direction) Newton converges only linearly, so there the point is found
    only to a few times that step length, not to rounding.  A refined seed is
    kept only if ``|grad V| <= tol`` there; seeds that fail are logged and
    skipped, never fatal.  Points closer than ``10 * tol`` are merged.
    Results are sorted by potential value, then lexicographically by location.
    """
    _check_positive(tol, "tol")
    found: list[np.ndarray] = []
    for k, seed in enumerate(seeds):
        seed = np.asarray(seed, dtype=float)
        if not np.all(np.isfinite(seed)):
            raise ValueError(f"seed {k} is not finite: {seed}")
        if seed.size != model.dim:
            raise ValueError(
                f"seed {k} has dimension {seed.size}, the potential has dimension {model.dim}"
            )
        x = _newton_zero(model.gradient, model.hessian, seed, tol * 1e-3)
        gnorm = float(np.linalg.norm(model.gradient(x)))
        if not np.all(np.isfinite(x)) or not gnorm <= tol:
            logger.warning(
                "seed %d at %s did not converge to a stationary point (|grad V| = %.3g)",
                k,
                np.array2string(seed, precision=4),
                gnorm,
            )
            continue
        if not any(np.linalg.norm(x - y) <= 10 * tol for y in found):
            found.append(x)
    pts = [StationaryPoint.at(model, x, zero_tol) for x in found]
    pts.sort(key=lambda p: (p.value, tuple(np.round(p.location, 12))))
    return pts


# Newton steps per seed at most, and the smallest fraction of a step tried
# before the iteration gives up on a seed
_NEWTON_MAX_STEPS = 200
_NEWTON_MIN_DAMPING = 2.0**-20


def _newton_zero(gradient, hessian, x: np.ndarray, xtol: float) -> np.ndarray:
    """Damped Newton iteration from ``x`` toward a zero of ``gradient``.

    Each step solves ``hessian(x) s = -gradient(x)`` (by least squares where
    the Hessian is singular) and is halved while it makes ``|gradient|`` grow.
    The iteration ends with the first step no longer than ``xtol * (1 + |x|)``
    and returns its last iterate whether or not that is a zero.
    """
    g = gradient(x)
    gnorm = np.linalg.norm(g)
    for _ in range(_NEWTON_MAX_STEPS):
        H = hessian(x)
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, -g, rcond=None)[0]
        if np.linalg.norm(step) <= xtol * (1.0 + np.linalg.norm(x)):
            return x + step
        t = 1.0
        while True:
            x_new = x + t * step
            g_new = gradient(x_new)
            gnorm_new = np.linalg.norm(g_new)
            if gnorm_new <= gnorm:
                break
            t *= 0.5
            if t < _NEWTON_MIN_DAMPING:
                return x
        x, g, gnorm = x_new, g_new, gnorm_new
    return x


# ---------------------------------------------------------------------------
# normal forms


@dataclass
class NormalFormCodim1:
    """Effective expansion along a single soft direction.

    ``soft_index`` points into the eigen-ordering of the stationary point;
    ``lambda2`` is the distinguished nonzero eigenvalue whose sign drives the
    saddle criterion (None in dimension 1).  ``higher`` holds ``(order,
    coefficient)`` of the first nonvanishing coefficient beyond C4 when
    probing was requested and needed.
    """

    soft_index: int
    lambda2: float | None
    C3: float
    C4: float
    higher: tuple[int, float] | None = None


@dataclass
class NormalFormCodim2:
    """Quartic data on a two-dimensional null eigenspace.

    ``quartic`` maps the monomial labels V2222, V2223, V2233, V2333, V3333 to
    coefficients of the effective quartic form (cross-cubic coupling to the
    nonzero directions already eliminated).  ``delta_coeffs`` are the
    discriminant coefficients, highest degree first.
    """

    cubic: dict[str, float]
    quartic: dict[str, float]
    discriminant_degree: int
    delta_coeffs: np.ndarray
    real_root_count: int
    all_simple: bool
    positive_definite: bool
    K_minus: float
    K_plus: float

    def k_phi(self, phi):
        """Angular quartic form k(phi) = V4(cos phi, sin phi)."""
        return _binary_quartic([self.quartic[k] for k in _QUARTIC_LABELS], phi)


@dataclass
class SaddleClass:
    tag: SaddleTag
    verdict: Verdict
    detail: NormalFormCodim1 | NormalFormCodim2 | dict | None = None
    notes: list[str] = field(default_factory=list)


# -- the center-manifold reduction -------------------------------------------


def _soft_block(model: PotentialModel, point: StationaryPoint):
    """``(S3, S4, raw_scale, scale)`` on the point's soft eigen-directions s.

    ``S3 = T3[s,s,s]``; ``S4 = T4[s,s,s,s] - 3 sum_j sym(B_j (x) B_j) / lambda_j``
    over the quadratic directions j, with ``B_j = T3[s,s,j]``, is the quartic
    tensor of the reduced potential ``T4(w^4)/24 - sum_j T3(w,w,e_j)^2 / (8 lambda_j)``.
    The scales are ``max(1, |T3|, |T4|)`` in the model's coordinates and in
    the eigenbasis, for the coefficient zero tests.
    """
    T3, T4 = model.third_tensor(point.location), model.fourth_tensor(point.location)
    raw_scale = max(1.0, float(np.max(np.abs(T3))), float(np.max(np.abs(T4))))
    Q = point.eigenvectors
    T3 = np.einsum("abc,ai,bj,ck->ijk", T3, Q, Q, Q)
    T4 = np.einsum("abcd,ai,bj,ck,dl->ijkl", T4, Q, Q, Q, Q)
    scale = max(1.0, float(np.max(np.abs(T3))), float(np.max(np.abs(T4))))
    s = point.zero_indices
    S3 = T3[np.ix_(s, s, s)]
    S4 = T4[np.ix_(s, s, s, s)]
    for j, lam in enumerate(point.eigenvalues):
        B = T3[:, :, j][np.ix_(s, s)]
        if j in s or not np.any(B):
            continue
        BB = np.multiply.outer(B, B)
        S4 = S4 - (BB + BB.transpose(0, 2, 1, 3) + BB.transpose(0, 3, 2, 1)) / lam
    return S3, S4, raw_scale, scale


# -- codim 1 -----------------------------------------------------------------


def codim1_coefficients(model: PotentialModel, point: StationaryPoint) -> NormalFormCodim1:
    """Normal-form coefficients C3, C4 for a point with exactly one zero eigenvalue.

    C3 is the cubic Taylor coefficient along the soft direction; C4 is the
    quartic one of the reduced potential (see :func:`_soft_block`):
    ``C4 = V1111 - (1/2) sum_j V11j^2 / lambda_j``.
    """
    return _codim1_form(model, point)[0]


def _codim1_form(model: PotentialModel, point: StationaryPoint) -> tuple[NormalFormCodim1, float]:
    # the normal form and the tolerance its coefficients are tested against
    zeros = point.zero_indices
    if len(zeros) != 1:
        raise ValueError(
            f"codim1_coefficients needs exactly one zero eigenvalue, found {len(zeros)}"
        )
    S3, S4, raw_scale, _ = _soft_block(model, point)
    others = np.delete(point.eigenvalues, zeros[0])
    # the lowest quadratic eigenvalue: the unstable one when there is one
    lambda2 = float(others.min()) if others.size else None
    C3, C4 = float(S3[0, 0, 0] / 6.0), float(S4[0, 0, 0, 0] / 24.0)
    return NormalFormCodim1(zeros[0], lambda2, C3, C4), 1e-8 * raw_scale


# -- codim 2 -----------------------------------------------------------------

_QUARTIC_LABELS = ("V2222", "V2223", "V2233", "V2333", "V3333")


def _binary_quartic(qs, phi):
    """``sum_k qs[k] cos(phi)**(4-k) sin(phi)**k``, coefficients in ``_QUARTIC_LABELS`` order."""
    c, s = np.cos(phi), np.sin(phi)
    return qs[0] * c**4 + qs[1] * c**3 * s + qs[2] * c**2 * s**2 + qs[3] * c * s**3 + qs[4] * s**4


def _binary_form(S: np.ndarray) -> dict[str, float]:
    """Coefficients of ``S(y^p)/p!`` on a soft pair (y_a, y_b) by monomial label.

    ``V2..23..3`` with k threes is ``S[0..0 1..1] / ((p-k)! k!)``: the
    multinomial count over ``p!``, divided in one step to keep the bits.
    """
    p = S.ndim
    return {
        "V" + "2" * (p - k) + "3" * k: float(
            S[(0,) * (p - k) + (1,) * k] / (math.factorial(p - k) * math.factorial(k))
        )
        for k in range(p + 1)
    }


def _codim2_analysis(model: PotentialModel, point: StationaryPoint) -> NormalFormCodim2:
    S3, S4, _, scale = _soft_block(model, point)
    cub, quart = _binary_form(S3), _binary_form(S4)

    coeff_tol = 1e-9 * scale
    # near a codim-2 zero the gradient vanishes to rounding on a ball of radius
    # about sqrt(machine eps), so the point is known only to that radius, and
    # there the quartic tensor adds cubic coefficients of that relative size
    cubic_tol = math.sqrt(np.finfo(float).eps) * scale

    p, form = (3, cub) if max(map(abs, cub.values())) > cubic_tol else (4, quart)
    delta, count, simple, posdef = _discriminant_analysis(np.array(list(form.values())), coeff_tol)

    if p == 4 and max(map(abs, quart.values())) > coeff_tol:
        K_minus, K_plus = _angular_extrema(quart)
    else:
        K_minus = K_plus = float("nan")

    return NormalFormCodim2(
        cubic=cub,
        quartic=quart,
        discriminant_degree=p,
        delta_coeffs=delta,
        real_root_count=count,
        all_simple=simple,
        positive_definite=posdef,
        K_minus=K_minus,
        K_plus=K_plus,
    )


def _discriminant_analysis(coeffs: np.ndarray, coeff_tol: float):
    """Build Delta(t) from homogeneous-form coefficients (highest y_a power first)
    and analyze its real roots."""
    # Delta(t) = V_p(t, 1) when the leading coefficient is nonzero, else V_p(1, t)
    if abs(coeffs[0]) > coeff_tol:
        delta = coeffs.copy()
    else:
        delta = coeffs[::-1].copy()
    # strip (numerically) zero leading coefficients
    nz = np.nonzero(np.abs(delta) > coeff_tol)[0]
    if nz.size == 0:
        return delta, 0, True, False  # identically zero; caller flags Undetermined
    delta = delta[nz[0] :]
    if delta.size == 1:
        # constant, no roots; sign decides positivity
        return delta, 0, True, bool(delta[0] > 0)
    roots = np.roots(delta)
    scale = max(1.0, float(np.max(np.abs(roots))) if roots.size else 1.0)
    real = roots[np.abs(roots.imag) <= 1e-7 * scale].real
    count = int(real.size)
    simple = True
    if count >= 2:
        rs = np.sort(real)
        simple = bool(np.min(np.diff(rs)) > 1e-6 * scale)
    if count == 0:
        # no real roots: the form has constant sign; sample at t=0 (constant
        # coefficient nonzero, else 0 would be a real root)
        posdef = bool(delta[-1] > 0)
    else:
        posdef = False
    return delta, count, simple, posdef


def _quartic_derivative(qs) -> np.ndarray:
    """Coefficients ``(j+1) q_{j+1} - (5-j) q_{j-1}`` (``q_{-1} = q_5 = 0``) of
    ``d/dphi sum_k q_k cos(phi)**(4-k) sin(phi)**k``, again a binary quartic."""
    q = (0.0, *qs, 0.0)
    return np.array([(j + 1) * q[j + 2] - (5 - j) * q[j] for j in range(5)])


def _angular_extrema(quart: dict[str, float]) -> tuple[float, float]:
    """Least and greatest value of the angular profile ``k(phi)``.

    ``k'(phi)`` is again a binary quartic with coefficients ``d_j``, so every
    critical angle is ``pi/2`` or ``arctan`` of a root of ``sum_j d_j t^j``.
    Every candidate is an angle on the circle, so a complex root's real part
    needs no test for being real.  A coefficient below the rounding of the
    largest is set to 0, within ``np.roots``' own backward error: left in as the
    leading one, it overflows or swamps the companion matrix.  A small leading
    coefficient above that cut still moves the other roots by up to ~1e-7, so two
    Newton steps on ``k'(phi)`` polish every angle; their iterates join the
    candidates, and a step that goes astray only adds one more value of ``k``.
    """
    qs = [quart[k] for k in _QUARTIC_LABELS]
    d = _quartic_derivative(qs)
    dd = _quartic_derivative(d)
    lead = np.where(np.abs(d) <= np.finfo(float).eps * np.abs(d).max(), 0.0, d)
    phi = np.append(np.arctan(np.roots(lead[::-1]).real), 0.5 * np.pi)
    candidates = [phi]
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            phi = phi - _binary_quartic(d, phi) / _binary_quartic(dd, phi)
            candidates.append(phi[np.isfinite(phi)])
    k = _binary_quartic(qs, np.concatenate(candidates))
    return float(k.min()), float(k.max())


def codim2_form(model: PotentialModel, point: StationaryPoint) -> NormalFormCodim2:
    """Quartic normal form for a point with a two-dimensional null eigenspace.

    Rejects points whose cubic part on the null space does not vanish (the
    in-scope quartic analysis assumes it; ``classify`` still handles the cubic
    case via the discriminant).
    """
    zeros = point.zero_indices
    if len(zeros) != 2:
        raise ValueError(
            f"codim2_form needs exactly two zero eigenvalues, found {len(zeros)}"
        )
    return _quartic_only(_codim2_analysis(model, point))


def _quartic_only(nf: NormalFormCodim2) -> NormalFormCodim2:
    if nf.discriminant_degree == 3:
        mx = max(abs(v) for v in nf.cubic.values())
        raise ValueError(
            f"cubic terms on the null space do not vanish (max |V3| = {mx:.3e}); "
            "the quartic normal form does not apply"
        )
    return nf


# ---------------------------------------------------------------------------
# classification tree


def classify(
    model: PotentialModel, point: StationaryPoint, probe_higher: bool = False
) -> SaddleClass:
    """Classify a stationary point per the spectral decision tree.

    The soft directions are the point's ``zero_indices``, flagged when it was
    built.  With ``probe_higher`` the degenerate ``C3 = C4 = 0`` codim-1 case
    is resolved by fitting the effective soft-direction potential up to order
    8; otherwise it is Undetermined.
    """
    n_zero = len(point.zero_indices)
    n_neg = point.n_quadratic_unstable

    if n_neg >= 2:
        return SaddleClass(SaddleTag.MULTIPLE_NEGATIVE, Verdict.NOT_SADDLE)

    if n_zero == 0:
        if n_neg == 0:
            return SaddleClass(SaddleTag.LOCAL_MINIMUM, Verdict.NOT_SADDLE)
        return SaddleClass(SaddleTag.NONDEGENERATE_SADDLE, Verdict.SADDLE)

    if n_zero == 1:
        return _classify_codim1(model, point, probe_higher)

    if n_zero == 2:
        return _classify_codim2(model, point)

    return _classify_higher(model, point)


def _classify_codim1(model, point, probe_higher) -> SaddleClass:
    nf, tol = _codim1_form(model, point)
    unstable_present = point.n_quadratic_unstable == 1

    if abs(nf.C3) > tol:
        return SaddleClass(SaddleTag.CODIM1, Verdict.NOT_SADDLE, nf)
    if abs(nf.C4) > tol:
        return SaddleClass(SaddleTag.CODIM1, _even_order_verdict(nf.C4, unstable_present), nf)

    if not probe_higher:
        return SaddleClass(
            SaddleTag.CODIM1,
            Verdict.UNDETERMINED,
            nf,
            notes=["C3 and C4 vanish; enable probe_higher to fit higher orders"],
        )

    order, coeff = _probe_soft_direction(model, point, nf.soft_index)
    if order is None:
        return SaddleClass(
            SaddleTag.CODIM1,
            Verdict.UNDETERMINED,
            nf,
            notes=["no nonvanishing coefficient found up to order 8"],
        )
    nf.higher = (order, coeff)
    if order % 2 == 1:
        return SaddleClass(SaddleTag.CODIM1, Verdict.NOT_SADDLE, nf)
    return SaddleClass(SaddleTag.CODIM1, _even_order_verdict(coeff, unstable_present), nf)


def _even_order_verdict(coeff: float, unstable_present: bool) -> Verdict:
    """A soft direction whose first nonvanishing coefficient has even order
    makes a saddle iff that coefficient is positive beside a quadratic unstable
    direction, or negative without one."""
    saddle = coeff > 0 if unstable_present else coeff < 0
    return Verdict.SADDLE if saddle else Verdict.NOT_SADDLE


def _probe_soft_direction(model, point, i0, max_order: int = 8):
    """First nonvanishing Taylor coefficient of the effective soft-direction
    potential, found by stationarizing the transverse coordinates."""
    d = model.dim
    Q = point.eigenvectors
    v = Q[:, i0]
    P = np.delete(Q, i0, axis=1)  # transverse directions
    z = point.location
    h = 0.12
    ss = h * np.arange(-8, 9) / 8.0
    vals = np.empty(ss.size)
    y = np.zeros(d - 1)
    order = np.argsort(np.abs(ss), kind="stable")  # continue outward from 0
    for idx in order:
        s = ss[idx]
        if d == 1:
            vals[idx] = model.value(z + s * v)
            continue

        base = z + s * v
        y = _newton_zero(
            lambda yy: P.T @ model.gradient(base + P @ yy),
            lambda yy: P.T @ model.hessian(base + P @ yy) @ P,
            y,
            1e-13,
        )
        vals[idx] = model.value(base + P @ y)
        if abs(s) <= 1e-15:
            y = np.zeros(d - 1)
    vals = vals - float(model.value(z))
    coeffs = np.polynomial.polynomial.polyfit(ss, vals, max_order)
    scale = max(1.0, float(np.max(np.abs(coeffs))))
    for q in range(3, max_order + 1):
        if abs(coeffs[q]) > 1e-5 * scale:
            return q, float(coeffs[q])
    return None, None


def _classify_codim2(model, point) -> SaddleClass:
    nf = _codim2_analysis(model, point)
    notes = []
    if np.count_nonzero(np.abs(nf.delta_coeffs) > 0) == 0:
        return SaddleClass(
            SaddleTag.CODIM2,
            Verdict.UNDETERMINED,
            nf,
            notes=["lowest-order form on the null space vanishes identically"],
        )
    if nf.real_root_count > 0 and not nf.all_simple:
        return SaddleClass(
            SaddleTag.CODIM2,
            Verdict.UNDETERMINED,
            nf,
            notes=["discriminant has non-simple real roots"],
        )
    stiff_negative = point.n_quadratic_unstable == 1  # lambda_3 < 0 column (>= 2 handled earlier)
    if nf.discriminant_degree == 3:
        notes.append("cubic terms present on the null space; generic-case table applied")
    if nf.real_root_count > 0:
        verdict = Verdict.NOT_SADDLE if stiff_negative else Verdict.SADDLE
    elif nf.positive_definite:
        verdict = Verdict.SADDLE if stiff_negative else Verdict.NOT_SADDLE
        if not stiff_negative:
            notes.append("local minimum on the center manifold")
    else:
        verdict = Verdict.NOT_SADDLE
    return SaddleClass(SaddleTag.CODIM2, verdict, nf, notes=notes)


def _classify_higher(model, point) -> SaddleClass:
    # heuristic sign report of the lowest nonvanishing form of the reduced potential
    zeros = point.zero_indices
    rng = np.random.default_rng(0)
    u = rng.standard_normal((64, len(zeros)))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    S3, S4, _, _ = _soft_block(model, point)
    report = {"order": None, "sign_pattern": "zero"}
    for order, vals in (
        (3, np.einsum("abc,na,nb,nc->n", S3, u, u, u) / 6.0),
        (4, np.einsum("abcd,na,nb,nc,nd->n", S4, u, u, u, u) / 24.0),
    ):
        if np.max(np.abs(vals)) > 1e-10:
            if np.all(vals > 0):
                pat = "positive"
            elif np.all(vals < 0):
                pat = "negative"
            else:
                pat = "mixed"
            report = {"order": order, "sign_pattern": pat}
            break
    return SaddleClass(
        SaddleTag.HIGHER_CODIM,
        Verdict.UNDETERMINED,
        report,
        notes=[f"{len(zeros)} zero eigenvalues; no in-scope prefactor"],
    )


def classification_report(point: StationaryPoint, sc: SaddleClass) -> dict:
    """JSON-serializable summary of a classified stationary point.

    Non-finite values (such as ``K-``/``K+`` of a cubic codim-2 form) are ``None``.
    """
    doc = {
        "location": [float(v) for v in point.location],
        "value": point.value,
        "gradient_norm": point.gradient_norm,
        "eigenvalues": [float(v) for v in point.eigenvalues],
        "tag": sc.tag.value,
        "verdict": sc.verdict.value,
    }
    if isinstance(sc.detail, NormalFormCodim1):
        doc["coefficients"] = {
            "C3": sc.detail.C3,
            "C4": sc.detail.C4,
            "lambda2": sc.detail.lambda2,
        }
        if sc.detail.higher is not None:
            doc["coefficients"]["higher_order"] = list(sc.detail.higher)
    elif isinstance(sc.detail, NormalFormCodim2):
        roots = np.roots(sc.detail.delta_coeffs) if sc.detail.delta_coeffs.size > 1 else np.array([])
        doc["coefficients"] = {
            "quartic": sc.detail.quartic,
            "delta_roots": [[float(r.real), float(r.imag)] for r in roots],
            "Kminus": sc.detail.K_minus,
            "Kplus": sc.detail.K_plus,
        }
    if sc.notes:
        doc["notes"] = list(sc.notes)
    return _finite_or_null(doc)


def _finite_or_null(obj):
    """``obj`` with every non-finite float replaced by ``None`` and tuples made
    lists: the package's one encoding of non-finite values, since strict JSON
    has no NaN or Infinity."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return obj


def saddle_spec(model: PotentialModel, point: StationaryPoint) -> tuple[SaddleSpec, SaddleClass]:
    """Map a classified saddle onto the regime the closed-form rates expect.

    Returns the spec together with the classification it was read from.  A
    codim-1 gate is transverse when the point has a quadratic unstable
    direction and longitudinal (the soft direction is the unstable one) when
    it has none.  Raises ``ValueError`` when ``point`` is not a saddle or its
    gate has no closed form wired up, including a codim-2 gate whose cubic
    terms on the null space do not vanish or that has no quadratic unstable
    direction.
    """
    sc = classify(model, point)
    if sc.verdict is not Verdict.SADDLE:
        raise ValueError(
            f"seed classified as {sc.tag.value}/{sc.verdict.value}; "
            "closed-form rates need a saddle"
        )
    evs = point.eigenvalues
    unstable = -float(evs[0])
    if sc.tag is SaddleTag.NONDEGENERATE_SADDLE:
        regime = Quadratic()
    elif sc.tag is SaddleTag.CODIM1:
        soft = float(evs[sc.detail.soft_index])
        quartic = float(sc.detail.C4)
        if point.n_quadratic_unstable:
            regime = PitchforkTransverse(lambda2=soft, quartic=quartic)
        else:
            regime, unstable = PitchforkLongitudinal(lambda1=soft, quartic=-quartic), None
    elif sc.tag is SaddleTag.CODIM2:
        regime = Codim2(angular=_quartic_only(sc.detail).k_phi)
        if not point.n_quadratic_unstable:
            raise ValueError(
                "no closed-form rate is wired up for a codim-2 gate whose "
                "unstable directions are soft"
            )
    else:
        raise ValueError(f"no closed-form rate is wired up for tag {sc.tag.value}")
    return SaddleSpec(point.value, regime, point.quadratic_stable, unstable), sc


# ---------------------------------------------------------------------------
# 2-D grid oracle


@dataclass
class GridSpec2D:
    """Rectangular evaluation grid for the d=2 gate search."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int = 257
    ny: int = 257

    def __post_init__(self):
        for axis, lo, hi, n in (("x", self.xmin, self.xmax, self.nx), ("y", self.ymin, self.ymax, self.ny)):
            for name, bound in ((f"{axis}min", lo), (f"{axis}max", hi)):
                if not math.isfinite(bound):
                    raise ValueError(f"grid bound {name} must be finite, got {bound!r}")
            if lo > hi:
                raise ValueError(f"grid bound {axis}min = {lo!r} exceeds {axis}max = {hi!r}")
            if n < 1:
                raise ValueError(f"grid axis n{axis} needs at least 1 node, got {n!r}")

    @classmethod
    def covering(cls, pts, margin: float = 1.0, n: int = 257) -> "GridSpec2D":
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo = pts.min(axis=0) - margin
        hi = pts.max(axis=0) + margin
        return cls(lo[0], hi[0], lo[1], hi[1], n, n)

    @classmethod
    def coerce(cls, spec) -> "GridSpec2D":
        if isinstance(spec, GridSpec2D):
            return spec
        if isinstance(spec, dict):
            (x0, x1), (y0, y1) = spec["bounds"]
            nx, ny = spec.get("shape", (257, 257))
            return cls(x0, x1, y0, y1, int(nx), int(ny))
        raise TypeError(f"cannot interpret grid spec {spec!r}")


@dataclass
class GateResult:
    communication_height: float
    gate_cells: list[np.ndarray]
    path_witness: np.ndarray
    grid_tolerance: float
    warnings: list[str] = field(default_factory=list)


_NEIGHBORS_8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def communication_height_2d(model: PotentialModel, a, b, grid) -> GateResult:
    """Exact min-max (communication) height between a and b on a 2-D grid graph.

    The height is the lowest grid value ``h`` at which a and b share an
    8-connected component of ``{V <= h}``; it is found by bisection over the
    sorted values, labelling the sublevel set at each probe.  After a probe at
    ``t`` connects a and b, only their component of ``{V <= t}`` and its
    bounding box are kept, and later probes label the part of that component
    below their level.  This is exact: a path from a to b in ``{V <= t'}``
    with ``t' < t`` lies in ``{V <= t}`` and starts at a, so it never leaves
    the component.  At the end the component is that of ``{V <= h}``, and the
    steps below run inside it (or, for the gate cells, inside its box grown
    by one cell), since every cell they look at is connected to a through
    cells at most ``h`` or is adjacent to such a cell.  Row-major order inside
    a box is the grid's flat order, so the results are those of the same
    steps on the whole grid.

    Read as a sweep that activates cells in stable ascending order of V (ties
    in row-major order), the triggering cell is the first activation after
    which a and b are connected: it is found by bisection over the cells tied
    at ``h`` in row-major order, labelling ``{V < h}`` with the first k of
    them at each probe.  The grid tolerance is the largest one-cell variation of
    V around that cell.  Gate cells are the cells within the tolerance of
    ``h`` with a neighbour in each endpoint's strict-sublevel component, in
    row-major order.  The witness path is a breadth-first path from a to b
    inside ``{V <= h}`` that scans neighbours in ascending flat-index order.

    V may be infinite but not NaN: a NaN cell raises ``ValueError``.
    """
    if model.dim != 2:
        raise ValueError(f"communication_height_2d requires d = 2, got d = {model.dim}")
    g = GridSpec2D.coerce(grid)
    xs = np.linspace(g.xmin, g.xmax, g.nx)
    ys = np.linspace(g.ymin, g.ymax, g.ny)
    # a cell that overflows is searched as inf or reported as NaN below, so
    # numpy's warnings about it would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        V = _grid_values(model, (xs, ys))
    nan = np.count_nonzero(np.isnan(V))
    if nan:
        raise ValueError(f"the potential is NaN at {nan} of {V.size} grid cells")

    def snap(p):
        p = np.asarray(p, dtype=float)
        if not (g.xmin <= p[0] <= g.xmax and g.ymin <= p[1] <= g.ymax):
            raise ValueError(f"point {p} lies outside the grid box")
        return (int(np.argmin(np.abs(xs - p[0]))), int(np.argmin(np.abs(ys - p[1]))))

    ja, jb = snap(a), snap(b)

    if ja == jb:
        cell = np.array([xs[ja[0]], ys[ja[1]]])
        return GateResult(
            communication_height=float(V[ja]),
            gate_cells=[cell],
            path_witness=cell.reshape(1, 2),
            grid_tolerance=0.0,
        )

    height, trigger, (corner, inside) = _first_connecting_cell(V, ja, jb)

    # grid tolerance: one-cell variation of V around the triggering cell
    ti, tj = trigger
    local = [
        abs(V[ti + di, tj + dj] - V[ti, tj])
        for di, dj in _NEIGHBORS_8
        if 0 <= ti + di < g.nx and 0 <= tj + dj < g.ny
    ]
    tol = max(local) + 1e-12 * max(1.0, abs(height))

    # witness path: BFS inside the endpoints' component of {V <= height}
    la, lb = _shift(ja, corner, -1), _shift(jb, corner, -1)
    ii, jj = _bfs_path(inside, la, lb)
    witness = np.column_stack([xs[ii + corner[0]], ys[jj + corner[1]]])

    # gate cells: near-height cells adjacent to both strict-sublevel components,
    # which lie in the component, so the test runs on its box grown by one cell
    box = _box(corner, inside.shape)
    strict = V[box] < height - 1e-12 * max(1.0, abs(height))
    comp = _label8(strict & inside)
    ca, cb = comp[la], comp[lb]
    gate_cells = []
    if ca > 0 and cb > 0:
        lo = (max(corner[0] - 1, 0), max(corner[1] - 1, 0))
        hi = (min(box[0].stop + 1, g.nx), min(box[1].stop + 1, g.ny))
        grown = (slice(lo[0], hi[0]), slice(lo[1], hi[1]))
        gate = np.abs(V[grown] - height) <= tol
        padded = np.zeros(gate.shape, dtype=comp.dtype)
        padded[_box((corner[0] - lo[0], corner[1] - lo[1]), comp.shape)] = comp
        for c in (ca, cb):
            gate &= _touching(padded == c)
        gate_cells = [np.array([xs[i + lo[0]], ys[j + lo[1]]]) for i, j in zip(*np.nonzero(gate))]
    if not gate_cells:
        # degenerate fallback (e.g. endpoint at the gate level): use the trigger cell
        gate_cells = [np.array([xs[ti], ys[tj]])]

    warnings_ = []
    boundary = np.concatenate([V[0, :], V[-1, :], V[:, 0], V[:, -1]])
    if height >= float(boundary.min()):
        warnings_.append(
            "communication height reaches the box boundary level; "
            "the true gate may lie outside the grid"
        )
    return GateResult(
        communication_height=height,
        gate_cells=gate_cells,
        path_witness=witness,
        grid_tolerance=float(tol),
        warnings=warnings_,
    )


def _label8(mask: np.ndarray) -> np.ndarray:
    """The 8-connected components of ``mask``, numbered from 1 in raster order
    of their first cell, and 0 off the mask: the array of
    ``ndimage.label(mask, np.ones((3, 3)))[0]``.

    Each row's cells form runs, and a run meets a run of the next row when
    their columns overlap or touch at a corner.  Every root run is hooked
    under the smallest root it meets, and pointers are jumped until each run
    points at its root; this repeats until no meeting pair has two roots.  So
    a component's root is its first run in raster order, which gives the
    numbering.
    """
    nx, ny = mask.shape
    width = ny + 1
    padded = np.zeros((nx, ny + 2), dtype=bool)
    padded[:, 1:-1] = mask
    # run bounds keyed row * width + column: starts and exclusive stops
    # alternate, in raster order
    bounds = np.flatnonzero(padded[:, 1:] != padded[:, :-1])
    start, stop = bounds[::2], bounds[1::2]
    # the next row's runs that a run meets are one index range: those that
    # stop after its start column and start at or before its stop column
    first = np.searchsorted(stop, start + width, side="left")
    count = np.maximum(np.searchsorted(start, stop + width, side="right") - first, 0)
    u = np.repeat(np.arange(start.size), count)
    v = np.arange(u.size) + np.repeat(first - np.cumsum(count) + count, count)
    parent = np.arange(start.size)
    while u.size:
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            up = parent[parent]
            if (up == parent).all():
                break
            parent = up
        u, v = parent[u], parent[v]
        joins = u != v
        u, v = u[joins], v[joins]
    labels = np.zeros(bounds.size + 1, dtype=np.int32)
    labels[1::2] = np.cumsum(parent == np.arange(parent.size), dtype=np.int32)[parent]
    # the lengths of the gaps and runs between the bounds, in flat order
    flat = bounds - np.repeat(start // width, 2)
    return np.repeat(labels, np.diff(flat, prepend=0, append=mask.size)).reshape(nx, ny)


def _touching(mask: np.ndarray) -> np.ndarray:
    """The cells with an 8-neighbour in ``mask``."""
    nx, ny = mask.shape
    out = np.zeros_like(mask)
    for di, dj in _NEIGHBORS_8:
        src = (slice(max(0, -di), nx - max(0, di)), slice(max(0, -dj), ny - max(0, dj)))
        dst = (slice(max(0, di), nx + min(0, di)), slice(max(0, dj), ny + min(0, dj)))
        out[dst] |= mask[src]
    return out


def _box(corner, shape) -> tuple[slice, slice]:
    return (slice(corner[0], corner[0] + shape[0]), slice(corner[1], corner[1] + shape[1]))


def _shift(cell, corner, sign: int) -> tuple[int, int]:
    return (cell[0] + sign * corner[0], cell[1] + sign * corner[1])


def _first_connecting_cell(V: np.ndarray, ja, jb):
    """Height and cell of the first activation, in stable ascending order of
    V, after which ``ja`` and ``jb`` lie in one 8-connected component, and
    that component of ``{V <= height}`` as ``(corner, mask)``: the top-left
    cell of its bounding box and its cells within the box."""
    values = np.sort(V, axis=None)
    # the a-b component of the lowest connecting probe so far; {V <= max V}
    # is the whole grid
    corner, inside = (0, 0), np.ones(V.shape, dtype=bool)

    def component(active: np.ndarray):
        """The a-b component of ``active``, a mask of cells of ``inside`` on
        its box, as (corner, mask), or None."""
        lab = _label8(active)
        ka, kb = lab[_shift(ja, corner, -1)], lab[_shift(jb, corner, -1)]
        if ka == 0 or ka != kb:
            return None
        mask = lab == ka
        rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
        return (
            _shift((int(rows[0]), int(cols[0])), corner, 1),
            mask[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1],
        )

    # the endpoints themselves are active only from max(V[ja], V[jb]) on
    lo = int(np.searchsorted(values, max(V[ja], V[jb]), side="left"))
    hi = values.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        found = component((V[_box(corner, inside.shape)] <= values[mid]) & inside)
        if found is None:
            lo = mid + 1
        else:
            hi = mid
            corner, inside = found
    height = float(values[lo])
    Vc = V[_box(corner, inside.shape)]

    # cells tied at the height activate in flat order, which is their stable
    # order and, in the component's box, row-major order.  Activating more of
    # them only merges components, so the trigger is the first of them whose
    # activation connects the endpoints, found by bisection; with all of them
    # active the set is the component itself.
    tied = np.flatnonzero((Vc == height) & inside)
    lo, hi = 0, tied.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        active = (Vc < height) & inside
        active.flat[tied[: mid + 1]] = True
        if component(active) is None:
            lo = mid + 1
        else:
            hi = mid
    trigger = divmod(int(tied[lo]), inside.shape[1])
    return height, _shift(trigger, corner, 1), (corner, inside)


def _bfs_path(mask: np.ndarray, start, goal) -> tuple[np.ndarray, np.ndarray]:
    """Cells of a breadth-first path from ``start`` to ``goal`` inside ``mask``.

    It is the path of a FIFO breadth-first search that scans each cell's
    neighbours in ``_NEIGHBORS_8`` order, run one layer at a time.  A layer's
    candidates are listed in (queue order, neighbour order), and each free
    cell among them joins the next layer, in that order, with the first cell
    that lists it as its predecessor.
    """
    nx, ny = mask.shape
    width = ny + 2
    # the mask padded by one cell, so that no neighbour leaves the array
    free = np.zeros((nx + 2, width), dtype=bool)
    free[1:-1, 1:-1] = mask
    free = free.ravel()
    # each cell's first listing in its layer (np.minimum.at keeps it); a free
    # cell is listed in no earlier layer, so its entry is still this bound
    claim = np.full(free.size, np.iinfo(np.intp).max)
    offsets = np.array([di * width + dj for di, dj in _NEIGHBORS_8])
    a, b = (start[0] + 1) * width + start[1] + 1, (goal[0] + 1) * width + goal[1] + 1
    free[a] = False
    # each layer's cells in queue order, and the listing that claimed each
    # cell of the next layer (parent position * 8 + neighbour index)
    layer, layers = np.array([a]), []
    while free[b]:
        listed = np.add.outer(layer, offsets).ravel()
        hit = free[listed].nonzero()[0]
        if hit.size == 0:
            raise RuntimeError("no path inside the sublevel set; inconsistent sweep state")
        cells = listed[hit]
        np.minimum.at(claim, cells, hit)
        first = claim[cells] == hit
        layers.append((layer, hit[first]))
        layer = cells[first]
        free[layer] = False
    path, k = [b], int(np.argmax(layer == b))
    for parents, claims in layers[::-1]:
        k = int(claims[k]) // len(offsets)
        path.append(int(parents[k]))
    i, j = np.divmod(np.array(path[::-1]), width)
    return i - 1, j - 1
