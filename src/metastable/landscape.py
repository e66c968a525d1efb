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
from scipy import ndimage, optimize

from .potentials import PotentialModel, _grid_values
from .rates import Codim2, PitchforkLongitudinal, PitchforkTransverse, Quadratic, SaddleSpec

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

    Seeds that fail to converge are logged and skipped, never fatal.  Points
    closer than ``10 * tol`` are merged.  Results are sorted by potential
    value, then lexicographically by location.
    """
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    found: list[np.ndarray] = []
    for k, seed in enumerate(seeds):
        seed = np.asarray(seed, dtype=float)
        if not np.all(np.isfinite(seed)):
            raise ValueError(f"seed {k} is not finite: {seed}")
        sol = optimize.root(
            model.gradient, seed, jac=model.hessian, method="hybr", tol=tol * 1e-3
        )
        x = np.asarray(sol.x, dtype=float)
        if not np.all(np.isfinite(x)) or np.linalg.norm(model.gradient(x)) > tol:
            logger.warning(
                "seed %d at %s did not converge to a stationary point (%s)",
                k,
                np.array2string(seed, precision=4),
                sol.message.strip() if isinstance(sol.message, str) else sol.message,
            )
            continue
        if not any(np.linalg.norm(x - y) <= 10 * tol for y in found):
            found.append(x)
    pts = [StationaryPoint.at(model, x, zero_tol) for x in found]
    pts.sort(key=lambda p: (p.value, tuple(np.round(p.location, 12))))
    return pts


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

    null_indices: tuple[int, int]
    null_basis: np.ndarray  # d x 2
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


# -- codim 1 -----------------------------------------------------------------


def _raw_tensors(model, point):
    # third/fourth derivative tensors in the model's coordinates
    return model.third_tensor(point.location), model.fourth_tensor(point.location)


def _nf_tensors(point, T3, T4):
    # third/fourth derivative tensors rotated into the eigenbasis
    Q = point.eigenvectors
    T3 = np.einsum("abc,ai,bj,ck->ijk", T3, Q, Q, Q)
    T4 = np.einsum("abcd,ai,bj,ck,dl->ijkl", T4, Q, Q, Q, Q)
    return T3, T4


def codim1_coefficients(model: PotentialModel, point: StationaryPoint) -> NormalFormCodim1:
    """Normal-form coefficients C3, C4 for a point with exactly one zero eigenvalue.

    C3 is the cubic Taylor coefficient along the soft direction; C4 is the
    quartic one corrected for coupling to the nonzero directions:
    ``C4 = V1111 - (1/2) sum_j V11j^2 / lambda_j``.
    """
    return _codim1_form(point, *_raw_tensors(model, point))


def _codim1_form(point: StationaryPoint, T3, T4) -> NormalFormCodim1:
    zeros = point.zero_indices
    if len(zeros) != 1:
        raise ValueError(
            f"codim1_coefficients needs exactly one zero eigenvalue, found {len(zeros)}"
        )
    i0 = zeros[0]
    lam = point.eigenvalues
    T3, T4 = _nf_tensors(point, T3, T4)
    C3 = T3[i0, i0, i0] / 6.0
    C4 = T4[i0, i0, i0, i0] / 24.0
    lambda2 = None
    others = [j for j in range(len(lam)) if j != i0]
    if others:
        # the lowest quadratic eigenvalue: the unstable one when there is one
        lambda2 = float(min(lam[j] for j in others))
        for j in others:
            V11j = T3[i0, i0, j] / 2.0
            C4 -= 0.5 * V11j**2 / lam[j]
    return NormalFormCodim1(soft_index=i0, lambda2=lambda2, C3=float(C3), C4=float(C4))


# -- codim 2 -----------------------------------------------------------------

_QUARTIC_LABELS = ("V2222", "V2223", "V2233", "V2333", "V3333")


def _binary_quartic(qs, phi):
    """``sum_k qs[k] cos(phi)**(4-k) sin(phi)**k``, coefficients in ``_QUARTIC_LABELS`` order."""
    c, s = np.cos(phi), np.sin(phi)
    return qs[0] * c**4 + qs[1] * c**3 * s + qs[2] * c**2 * s**2 + qs[3] * c * s**3 + qs[4] * s**4


def _codim2_analysis(model: PotentialModel, point: StationaryPoint) -> NormalFormCodim2:
    ia, ib = point.zero_indices
    lam = point.eigenvalues
    T3, T4 = _nf_tensors(point, *_raw_tensors(model, point))

    # cubic coefficients on the null space (multinomial-normalized)
    cub = {
        "V222": T3[ia, ia, ia] / 6.0,
        "V223": T3[ia, ia, ib] / 2.0,
        "V233": T3[ia, ib, ib] / 2.0,
        "V333": T3[ib, ib, ib] / 6.0,
    }
    # raw restricted quartic coefficients
    quart = {
        "V2222": T4[ia, ia, ia, ia] / 24.0,
        "V2223": T4[ia, ia, ia, ib] / 6.0,
        "V2233": T4[ia, ia, ib, ib] / 4.0,
        "V2333": T4[ia, ib, ib, ib] / 6.0,
        "V3333": T4[ib, ib, ib, ib] / 24.0,
    }
    # eliminate the cross-cubic coupling c_j(y) y_j against each stiff direction
    for j in range(len(lam)):
        if j in (ia, ib):
            continue
        caa = T3[ia, ia, j] / 2.0
        cab = T3[ia, ib, j]
        cbb = T3[ib, ib, j] / 2.0
        if caa == 0.0 and cab == 0.0 and cbb == 0.0:
            continue
        inv = 0.5 / lam[j]
        quart["V2222"] -= inv * caa * caa
        quart["V2223"] -= inv * 2.0 * caa * cab
        quart["V2233"] -= inv * (cab * cab + 2.0 * caa * cbb)
        quart["V2333"] -= inv * 2.0 * cab * cbb
        quart["V3333"] -= inv * cbb * cbb

    cubic_scale = max(abs(v) for v in cub.values())
    quartic_scale = max(abs(v) for v in quart.values())
    tensor_scale = max(1.0, float(np.max(np.abs(T3))), float(np.max(np.abs(T4))))
    coeff_tol = 1e-9 * tensor_scale

    if cubic_scale > coeff_tol:
        p = 3
        coeffs = [cub["V222"], cub["V223"], cub["V233"], cub["V333"]]
    else:
        p = 4
        coeffs = [quart[k] for k in _QUARTIC_LABELS]

    delta, count, simple, posdef = _discriminant_analysis(np.array(coeffs), coeff_tol)

    if p == 4 and quartic_scale > coeff_tol:
        K_minus, K_plus = _angular_extrema(quart)
    else:
        K_minus = K_plus = float("nan")

    basis = point.eigenvectors[:, [ia, ib]]
    return NormalFormCodim2(
        null_indices=(ia, ib),
        null_basis=basis,
        cubic={k: float(v) for k, v in cub.items()},
        quartic={k: float(v) for k, v in quart.items()},
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


def _angular_extrema(quart: dict[str, float]) -> tuple[float, float]:
    qs = [quart[k] for k in _QUARTIC_LABELS]

    def k_of(phi):
        return _binary_quartic(qs, phi)

    grid = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    vals = k_of(grid)
    h = grid[1] - grid[0]

    def refine(i, sign):
        lo, hi = grid[i] - h, grid[i] + h
        res = optimize.minimize_scalar(
            lambda p: sign * k_of(p), bounds=(lo, hi), method="bounded",
            options={"xatol": 1e-12},
        )
        return sign * res.fun

    kmin = refine(int(np.argmin(vals)), +1.0)
    kmax = refine(int(np.argmax(vals)), -1.0)
    return float(kmin), float(kmax)


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
    # the raw tensors feed both the normal form and the coefficient tolerance
    T3, T4 = _raw_tensors(model, point)
    nf = _codim1_form(point, T3, T4)
    tol = 1e-8 * max(1.0, float(np.max(np.abs(T3))), float(np.max(np.abs(T4))))
    unstable_present = point.n_quadratic_unstable == 1

    if abs(nf.C3) > tol:
        return SaddleClass(SaddleTag.CODIM1, Verdict.NOT_SADDLE, nf)
    if abs(nf.C4) > tol:
        if unstable_present:
            verdict = Verdict.SADDLE if nf.C4 > 0 else Verdict.NOT_SADDLE
        else:
            verdict = Verdict.SADDLE if nf.C4 < 0 else Verdict.NOT_SADDLE
        return SaddleClass(SaddleTag.CODIM1, verdict, nf)

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
        verdict = Verdict.NOT_SADDLE
    elif unstable_present:
        verdict = Verdict.SADDLE if coeff > 0 else Verdict.NOT_SADDLE
    else:
        verdict = Verdict.SADDLE if coeff < 0 else Verdict.NOT_SADDLE
    return SaddleClass(SaddleTag.CODIM1, verdict, nf)


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

        def g(yy, s=s):
            return P.T @ model.gradient(z + s * v + P @ yy)

        sol = optimize.root(g, y, method="hybr", tol=1e-13)
        y = np.asarray(sol.x)
        vals[idx] = model.value(z + s * v + P @ y)
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
    # heuristic sign report of the lowest nonvanishing restricted form
    zeros = point.zero_indices
    B = point.eigenvectors[:, list(zeros)]
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((64, len(zeros)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    T3, T4 = _raw_tensors(model, point)
    report = {"order": None, "sign_pattern": "zero"}
    for order, T in ((3, T3), (4, T4)):
        vals = []
        for u in dirs:
            w = B @ u
            if order == 3:
                vals.append(np.einsum("abc,a,b,c->", T, w, w, w) / 6.0)
            else:
                vals.append(np.einsum("abcd,a,b,c,d->", T, w, w, w, w) / 24.0)
        vals = np.array(vals)
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
    """``obj`` with every non-finite float replaced by ``None`` (strict JSON has no NaN)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, list):
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
_BLOCK_8 = np.ones((3, 3), dtype=bool)
_RING_8 = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=bool)


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
    which a and b are connected: the strict sublevel set ``{V < h}`` is
    labelled once and the cells tied at ``h`` are joined to it one by one in
    row-major order.  The grid tolerance is the largest one-cell variation of
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
            gate &= ndimage.binary_dilation(padded == c, structure=_RING_8)
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
    return ndimage.label(mask, structure=_BLOCK_8)[0]


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

    def component(t: float):
        """The a-b component of {V <= t} as (corner, mask), or None."""
        lab = _label8((V[_box(corner, inside.shape)] <= t) & inside)
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
        found = component(values[mid])
        if found is None:
            lo = mid + 1
        else:
            hi = mid
            corner, inside = found
    height = float(values[lo])
    Vc = V[_box(corner, inside.shape)]

    # cells tied at the height activate in flat order, which is their stable
    # order; union them with the strict-sublevel components they touch until
    # the endpoints' sets meet.  Both lie in the component, and row-major
    # order in its box is flat order.
    comp = _label8((Vc < height) & inside)
    parent = list(range(int(comp.max()) + 1))
    node = {}  # tied cell -> union-find node

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def label(cell):
        return node.get(cell) if comp[cell] == 0 else int(comp[cell])

    nx, ny = inside.shape
    la, lb = _shift(ja, corner, -1), _shift(jb, corner, -1)
    for i, j in zip(*np.nonzero((Vc == height) & inside)):
        cell = (int(i), int(j))
        node[cell] = len(parent)
        parent.append(node[cell])
        for di, dj in _NEIGHBORS_8:
            ii, jj = cell[0] + di, cell[1] + dj
            if 0 <= ii < nx and 0 <= jj < ny:
                other = label((ii, jj))
                if other is not None:
                    parent[find(other)] = find(node[cell])
        ra, rb = label(la), label(lb)
        if ra is not None and rb is not None and find(ra) == find(rb):
            return height, _shift(cell, corner, 1), (corner, inside)
    raise RuntimeError("no tied cell connects the endpoints; inconsistent sweep state")


def _bfs_path(mask: np.ndarray, start, goal) -> tuple[np.ndarray, np.ndarray]:
    """Cells of a BFS path from ``start`` to ``goal`` inside ``mask``.

    Neighbours are visited in ``_NEIGHBORS_8`` order, which is ascending in
    flat offset, so each CSR row lists its columns in the order a FIFO
    breadth-first search would scan them.
    """
    # imported here: csgraph adds about 1 MB and 5 ms to every start-up,
    # and only the gate search uses it
    from scipy.sparse import csgraph, csr_array

    nx, ny = mask.shape
    edges = np.zeros((nx, ny, len(_NEIGHBORS_8)), dtype=bool)
    for k, (di, dj) in enumerate(_NEIGHBORS_8):
        src = (slice(max(0, -di), nx - max(0, di)), slice(max(0, -dj), ny - max(0, dj)))
        dst = (slice(max(0, di), nx + min(0, di)), slice(max(0, dj), ny + min(0, dj)))
        edges[src + (k,)] = mask[src] & mask[dst]
    edges = edges.reshape(nx * ny, -1)
    # csgraph indexes in int32; row r's columns are r + offset, in offset order
    offsets = np.array([di * ny + dj for di, dj in _NEIGHBORS_8], dtype=np.int32)
    cols = (np.arange(nx * ny, dtype=np.int32)[:, None] + offsets)[edges]
    indptr = np.zeros(nx * ny + 1, dtype=np.int32)
    np.cumsum(edges.sum(axis=1), out=indptr[1:])
    graph = csr_array((np.ones(cols.size), cols, indptr), shape=(nx * ny, nx * ny))
    a, b = start[0] * ny + start[1], goal[0] * ny + goal[1]
    _, pred = csgraph.breadth_first_order(
        graph, a, directed=True, return_predecessors=True
    )
    if pred[b] < 0:
        raise RuntimeError("no path inside the sublevel set; inconsistent sweep state")
    path = [b]
    while path[-1] != a:
        path.append(int(pred[path[-1]]))
    return np.divmod(np.array(path[::-1]), ny)
