"""Quadrature verification of capacity formulas on boxes around a saddle.

This module provides numerical routes to the same capacities that
:mod:`metastable.rates` evaluates in closed form, so each can check the other:

- :func:`reduced_capacity` -- the one-dimensional reduction
  ``eps * [integral of exp(-u2/eps)] / [integral of exp(-u1/eps)]`` times the
  Gaussian factors of the quadratic directions,
- :func:`dirichlet_upper_bound` -- the Dirichlet energy of an explicit trial
  function on a tensor grid (an upper bound by the variational principle),
- :func:`fiber_lower_bound` -- the fiber-integral lower bound with boundary
  values fixed at one and zero,
- :func:`capacity_1d_exact` -- the exact one-dimensional capacity.

Boxes follow the half-width choices used in the derivations (threshold level
``d * eps * |log eps|``); :func:`default_box` builds them from a classified
stationary point.  The contribution from outside the box is dropped, not
estimated -- it is exponentially small once the box conditions hold, and the
bounds carry that caveat in their notes.

Both tensor-grid bounds refine on the same ladder of grids (``grid``,
``2 grid - 1``, ... nodes per axis, up to a cap by dimension), and one pass
over a level's grid gives both integrals.  Passing one ``levels`` dict to both
calls shares them: it maps a level ``n`` to its (upper, lower) integrals, each
bound reads the levels it needs and adds the ones it is first to reach, so a
``verify`` row evaluates every level once.  A dict belongs to one (model,
saddle, box); the caller drops it with the row.  No grid is stored: a level
streams in slabs of at most ``potentials._SLAB_ROWS`` points along axis 0
(``potentials._grid_slabs``), each slab folded into per-line sums and the
fiber array, so a level takes the memory of one slab plus arrays of
``n**(d-1)`` nodes.  With one BLAS thread the integrals do not depend on the
slab length.  The grid that checks the box conditions (at most 65 nodes per
axis) is evaluated inside each call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .crossover import _integrate
from .landscape import StationaryPoint, codim1_coefficients, codim2_form
from .potentials import PotentialModel, _grid_slabs, _grid_values, _slab_length
from .rates import _check_positive

__all__ = [
    "BoxSpec",
    "CapacityEstimate",
    "default_box",
    "reduced_capacity",
    "dirichlet_upper_bound",
    "fiber_lower_bound",
    "capacity_1d_exact",
]

_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-10, limit=200)
# per-axis node caps for the refinement loop, by dimension
_MAX_NODES = {1: 8193, 2: 1025, 3: 257}
# the ladder stops once a level changes the value by less than this, relative
_REL_TOL = 1e-6
# order r + 1 of the normal-form remainder in the advisory box-width check
# (delta1 + delta2)**(r+1) = o(eps |log eps|)
_REMAINDER_ORDER = 5


@dataclass(frozen=True)
class BoxSpec:
    """Integration box around a saddle, expressed in its eigenbasis.

    Parameters
    ----------
    delta1 : float
        Half-width along the unstable (or soft unstable) axis.
    eps : float
        Noise intensity the box was sized for.
    delta2 : float, optional
        Half-width shared by the degenerate transverse axes, when any exist.
    deltaj : tuple of float
        Half-widths of the quadratic stable axes, in ascending-eigenvalue
        order (shape ``delta / sqrt(lambda_j)``).
    """

    delta1: float
    eps: float
    delta2: float | None = None
    deltaj: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "deltaj", tuple(float(v) for v in self.deltaj))
        _check_positive(self.delta1, "delta1")
        if self.delta2 is not None:
            _check_positive(self.delta2, "delta2")
        for v in self.deltaj:
            _check_positive(v, "deltaj")
        _check_positive(self.eps, "eps")

    def advisory_warnings(self) -> list[str]:
        """Width checks that hold only asymptotically; violations are advisory."""
        out = []
        spread = self.delta1 + (self.delta2 or 0.0)
        budget = self.eps * abs(math.log(self.eps))
        if spread**_REMAINDER_ORDER > budget:
            out.append(
                f"(delta1 + delta2)^{_REMAINDER_ORDER} = "
                f"{spread ** _REMAINDER_ORDER:.3e} exceeds eps |log eps| = "
                f"{budget:.3e}; normal-form remainders may not be negligible"
            )
        return out

    def as_dict(self) -> dict:
        return {
            "delta1": self.delta1,
            "delta2": self.delta2,
            "deltaj": list(self.deltaj),
            "eps": self.eps,
        }


@dataclass(frozen=True)
class CapacityEstimate:
    """Numerical capacity value with its method and integration metadata."""

    value: float
    method: str
    eps: float
    box: BoxSpec | None
    grid_shape: tuple[int, ...] | None = None
    rel_change: float | None = None
    notes: tuple[str, ...] = ()


def default_box(
    model: PotentialModel,
    point: StationaryPoint,
    eps: float,
    *,
    scale: float = 1.0,
) -> BoxSpec:
    """Box half-widths adapted to the saddle's spectrum at noise ``eps``.

    Quadratic directions get ``2 sqrt(d eps |log eps| / lambda_j)`` (twice the
    threshold width along stable axes, ``sqrt(2 ...)`` along the unstable one);
    a quartic unstable direction gets ``(d eps |log eps| / C)**(1/4)``; a soft
    quadratic-quartic transverse direction solves the quadratic-in-``delta2**2``
    threshold equation; a codimension-two block uses its angular minimum
    ``K_-``.  The soft directions and the quadratic split are the point's own
    (see :class:`~metastable.landscape.StationaryPoint`): with no quadratic
    unstable direction, the soft one is the unstable axis.  ``scale``
    multiplies every half-width (the threshold constants are proof
    parameters, not sharp).
    """
    _check_positive(eps, "eps")
    _check_positive(scale, "scale")
    evs = point.eigenvalues
    d = model.dim
    level = d * eps * abs(math.log(eps))
    zeros = point.zero_indices
    deltaj = tuple(2.0 * math.sqrt(level / v) for v in point.quadratic_stable)
    delta2 = None

    if not zeros:
        if not point.n_quadratic_unstable:
            raise ValueError("point has no unstable direction; not a saddle box")
        delta1 = math.sqrt(2.0 * level / -evs[0])
    elif len(zeros) == 1:
        nf = codim1_coefficients(model, point)
        if not point.n_quadratic_unstable:
            # soft unstable direction: normal form -|C4| y^4
            if not nf.C4 < 0.0:
                raise ValueError("soft unstable direction is not quartic unstable (C4 >= 0)")
            delta1 = (level / -nf.C4) ** 0.25
        else:
            if not nf.C4 > 0.0:
                raise ValueError("soft stable direction is not quartic stable (C4 <= 0)")
            lam2 = evs[zeros[0]]
            delta1 = math.sqrt(2.0 * level / -evs[0])
            delta2 = math.sqrt(
                (-lam2 + math.sqrt(lam2**2 + 32.0 * nf.C4 * level)) / (4.0 * nf.C4)
            )
    elif len(zeros) == 2:
        nf2 = codim2_form(model, point)
        if not point.n_quadratic_unstable:
            raise ValueError("codimension-two box requires a quadratic unstable direction")
        delta1 = math.sqrt(2.0 * level / -evs[0])
        delta2 = (2.0 * level / nf2.K_minus) ** 0.25
    else:
        raise ValueError("default boxes cover at most two degenerate directions")

    box = BoxSpec(
        delta1=scale * delta1,
        eps=eps,
        delta2=None if delta2 is None else scale * delta2,
        deltaj=tuple(scale * v for v in deltaj),
    )
    for msg in box.advisory_warnings():
        warnings.warn(msg, stacklevel=2)
    return box


# ---------------------------------------------------------------------------
# reduced integral formula


def _checked_quad(
    f: Callable[[float], float], a: float, b: float, what: str, points=None
) -> float:
    value, err = _integrate(f, a, b, points=points, **_QUAD_OPTS)
    tol = max(1e-12, 1e-8 * abs(value))
    if not err <= tol:  # a NaN error is no convergence either
        raise RuntimeError(
            f"quadrature for {what} did not converge: achieved absolute error "
            f"{err:.3e} against tolerance {tol:.3e}"
        )
    return value


def reduced_capacity(
    u1: Callable[[float], float],
    u2: Callable[..., float],
    lambdas: Sequence[float],
    eps: float,
    box: BoxSpec,
    *,
    q: int = 2,
) -> CapacityEstimate:
    """Capacity of a normal form ``-u1(y1) + u2(y2..yq) + sum lambda_j y_j**2 / 2``.

    Parameters
    ----------
    u1 : callable
        Potential well shape along the unstable axis (``u1 >= 0``), integrated
        over ``[-delta1, delta1]``.
    u2 : callable
        Transverse degenerate part: a function of one variable for ``q = 2``,
        of two variables for ``q = 3``; integrated over the interval resp. disc
        of radius ``delta2``.
    lambdas : sequence of float
        Strictly positive eigenvalues of the quadratic directions
        (``lambda_{q+1}..lambda_d``); each contributes ``sqrt(2 pi eps / lambda)``.
    eps : float
        Noise intensity.
    box : BoxSpec
        Supplies ``delta1`` and ``delta2``.
    q : int
        Number of non-quadratic directions plus one (2 or 3).

    Returns
    -------
    CapacityEstimate
        ``eps * I2 / I1 * prod_j sqrt(2 pi eps / lambda_j)`` with all integrals
        adaptive to relative accuracy 1e-10.  The normal-form altitude is zero,
        so no ``exp(-V(z)/eps)`` factor appears.
    """
    _check_positive(eps, "eps")
    if q not in (2, 3):
        raise ValueError("q must be 2 or 3")
    lambdas = [_check_positive(v, "lambdas") for v in lambdas]
    if box.delta2 is None:
        raise ValueError("reduced_capacity needs box.delta2 for the transverse block")

    i1 = _checked_quad(lambda t: math.exp(-u1(t) / eps), -box.delta1, box.delta1, "u1")
    if q == 2:
        i2 = _checked_quad(lambda t: math.exp(-u2(t) / eps), -box.delta2, box.delta2, "u2")
    else:
        def ring(r: float) -> float:
            return r * _checked_quad(
                lambda phi: math.exp(-u2(r * math.cos(phi), r * math.sin(phi)) / eps),
                0.0,
                2.0 * math.pi,
                "u2 angular",
            )

        i2 = _checked_quad(ring, 0.0, box.delta2, "u2 radial")

    gauss = math.prod(math.sqrt(2.0 * math.pi * eps / v) for v in lambdas)
    return CapacityEstimate(
        value=eps * i2 / i1 * gauss,
        method="reduced_integral",
        eps=eps,
        box=box,
    )


# ---------------------------------------------------------------------------
# tensor-grid Dirichlet bounds


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _axis_widths(box: BoxSpec, d: int) -> list[float]:
    n_soft = d - 1 - len(box.deltaj)
    if n_soft < 0 or n_soft > 2:
        raise ValueError(
            f"box lists {len(box.deltaj)} quadratic half-widths for dimension {d}"
        )
    if n_soft and box.delta2 is None:
        raise ValueError("box.delta2 required: the saddle has degenerate transverse axes")
    return [box.delta1] + [box.delta2] * n_soft + list(box.deltaj)


def _tensor_w(
    model: PotentialModel,
    point: StationaryPoint,
    widths: Sequence[float],
    shape: Sequence[int],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``V - V(point)`` on the tensor grid ``shape`` over ``[-widths, widths]``
    in the eigenbasis of ``point``, and the grid's axes.

    The grid is evaluated in slabs (``potentials._grid_values``), so memory is
    the grid plus one slab, and with one BLAS thread the values are bit for bit
    those of one ``value_many`` call on ``location + y @ Q.T`` over the whole
    grid.
    """
    axes = [np.linspace(-w, w, n) for w, n in zip(widths, shape)]
    w = _grid_values(model, axes, (point.location, point.eigenvectors))
    w -= point.value
    return w, axes


def _box_condition_warnings(
    w: np.ndarray, eps: float, d: int, method: str
) -> list[str]:
    level = d * eps * abs(math.log(eps))
    out = []
    # along the unstable axis the potential must stay within the threshold level
    center = tuple([slice(None)] + [s // 2 for s in w.shape[1:]])
    drop = float(np.max(np.abs(w[center])))
    if drop > 2.0 * level:
        out.append(
            f"unstable-axis potential range {drop:.3e} exceeds twice the threshold "
            f"level {2 * level:.3e}; box too wide for eps = {eps}"
        )
    if w.ndim > 1:
        # transverse boundary must rise far enough for boundary terms to vanish
        rim = min(
            float(np.min(np.take(w, index, axis=axis)))
            for axis in range(1, w.ndim)
            for index in (0, w.shape[axis] - 1)
        )
        if rim < 2.0 * level:
            out.append(
                f"transverse boundary rise {rim:.3e} is below the threshold "
                f"2 d eps |log eps| = {2 * level:.3e}; boundary terms may not "
                f"be negligible for {method}"
            )
    return out


def _add_planes(fibers: np.ndarray, lines: np.ndarray, start: int, wt0: np.ndarray) -> None:
    """Add ``wt0[i0] * lines[k]`` into ``fibers[r]``, where grid line
    ``start + k`` (C order) is line ``r`` of axis-0 plane ``i0`` and ``fibers``
    holds one plane of lines.  Each fiber sums its planes in order along
    axis 0, so the sums do not depend on where the slabs are cut.  ``lines``
    is overwritten."""
    per_plane = len(fibers)
    k = 0
    while k < len(lines):
        i0, r = divmod(start + k, per_plane)
        m = (len(lines) - k) // per_plane
        if r == 0 and m:
            # whole planes: one reduction along axis 0, which numpy runs in order
            planes = lines[k : k + m * per_plane].reshape(m, per_plane, -1)
            planes *= wt0[i0 : i0 + m, None, None]
            planes[0] += fibers
            np.add.reduce(planes, axis=0, out=fibers)
            k += m * per_plane
        else:
            part = lines[k : k + min(per_plane - r, len(lines) - k)]
            part *= wt0[i0]
            fibers[r : r + len(part)] += part
            k += len(part)


def _level(
    model: PotentialModel,
    point: StationaryPoint,
    widths: Sequence[float],
    n: int,
    eps: float,
) -> tuple[float, float]:
    """The upper and lower bound on the ``n``-node grid over
    ``[-widths, widths]`` in the eigenbasis of ``point``, each without its
    ``exp(-V(z)/eps)`` factor, from one pass over ``w = V - V(point)``.

    The upper bound is ``eps`` times the Simpson integral of
    ``exp(-w/eps) f'(y1)**2``, where ``f'`` is ``exp(w/eps)`` on the centre
    line normalised to unit integral; the lower bound is ``eps`` times the
    Simpson integral over the transverse section of the inverse fiber
    integrals of ``exp(w/eps)``.  The grid streams in slabs of whole lines in
    order along axis 0 (``potentials._grid_slabs``): each line's
    ``exp(-w/eps)`` is contracted over the last axis and its ``exp(w/eps)``
    added into the fiber array, and the centre line is recorded.  ``f'**2``
    multiplies the axis-0 plane sums after the pass.  Memory is one slab plus
    arrays of ``n**(d-1)`` nodes; with one BLAS thread the result does not
    depend on the slab length.
    """
    d = model.dim
    axes = [np.linspace(-w, w, n) for w in widths]
    wts = [_simpson_weights(n, a[1] - a[0]) for a in axes]
    slabs = _grid_slabs(model, axes, (point.location, point.eigenvectors))
    if d == 1:
        # one line, along axis 0: it is the centre line and the only fiber
        ((_, w),) = slabs
        centre = w[0] - point.value
        sections = np.exp(-centre / eps)
        fibers = np.exp(centre / eps) @ wts[0]
    else:
        per_plane = n ** (d - 2)  # lines per axis-0 plane; the centre line is the middle one
        line_sums, centre = np.empty(n ** (d - 1)), np.empty(n)
        fibers = np.zeros((per_plane, n))
        w_buf, e_buf = np.empty((2, min(_slab_length(n), n ** (d - 1)), n))
        for start, values in slabs:
            w = np.subtract(values, point.value, out=w_buf[: len(values)])
            stop = start + len(w)
            first = (per_plane // 2 - start) % per_plane
            part = w[first::per_plane, n // 2]
            i0 = (start + first) // per_plane
            centre[i0 : i0 + len(part)] = part
            e = e_buf[: len(w)]
            np.divide(w, -eps, out=e)
            np.exp(e, out=e)
            np.matmul(e, wts[-1], out=line_sums[start:stop])
            np.divide(w, eps, out=e)
            np.exp(e, out=e)
            _add_planes(fibers, e, start, wts[0])
        sections = line_sums.reshape((n,) * (d - 1))
        for wt in reversed(wts[1:-1]):
            sections = sections @ wt
        fibers = fibers.reshape((n,) * (d - 1))
    g = np.exp(centre / eps)
    fprime_sq = (g / float(wts[0] @ g)) ** 2
    upper = eps * float((sections * fprime_sq) @ wts[0])
    integrand = 1.0 / fibers
    for wt in reversed(wts[1:]):
        integrand = integrand @ wt
    return upper, eps * float(integrand)


def _refine(
    model: PotentialModel,
    point: StationaryPoint,
    box: BoxSpec,
    grid: int,
    which: int,
    levels: dict[int, tuple[float, float]],
) -> tuple[float, tuple[int, ...], float]:
    """Refine bound ``which`` (0 upper, 1 lower) of :func:`_level` on the ladder."""
    d = model.dim
    widths = _axis_widths(box, d)
    cap = _MAX_NODES.get(d)
    if cap is None:
        raise ValueError(f"tensor-grid bounds support dimensions 1 to {max(_MAX_NODES)} only")
    if grid < 1:
        raise ValueError(f"grid must be at least 1 node per axis, got {grid}")
    n = max(5, int(grid))
    if n % 2 == 0:
        n += 1
    if n > cap:
        raise ValueError(f"grid of {grid} nodes per axis exceeds the {d}-d limit of {cap}")

    def level(n: int) -> float:
        if n not in levels:
            levels[n] = _level(model, point, widths, n, box.eps)
        return levels[n][which]

    value = level(n)
    rel = math.inf
    while n < cap:
        n = 2 * n - 1
        new = level(n)
        rel = abs(new - value) / max(abs(new), 1e-300)
        value = new
        if rel < _REL_TOL:
            break
    return value, (n,) * d, rel


def _bound(
    model: PotentialModel,
    saddle: StationaryPoint,
    box: BoxSpec,
    grid: int,
    levels: dict | None,
    method: str,
    notes: tuple[str, ...],
    which: int,
) -> CapacityEstimate:
    """Refine bound ``which`` on the ladder, check the box on a grid of at most
    65 nodes per axis, and scale by ``exp(-V(z)/eps)``."""
    eps = box.eps
    value, shape, rel = _refine(
        model, saddle, box, grid, which, {} if levels is None else levels
    )
    w, _ = _tensor_w(model, saddle, _axis_widths(box, model.dim), [min(s, 65) for s in shape])
    box_msgs = _box_condition_warnings(w, eps, model.dim, method)
    for msg in box_msgs:
        warnings.warn(msg, stacklevel=3)
    return CapacityEstimate(
        value=value * math.exp(-saddle.value / eps),
        method=method,
        eps=eps,
        box=box,
        grid_shape=shape,
        rel_change=rel,
        notes=(*notes, *box_msgs),
    )


def dirichlet_upper_bound(
    model: PotentialModel,
    saddle: StationaryPoint,
    box: BoxSpec,
    grid: int = 65,
    *,
    levels: dict | None = None,
) -> CapacityEstimate:
    """Capacity upper bound from the one-dimensional trial function.

    The trial function varies only along the unstable axis,
    ``f'(y1) = exp(W(y1, 0)/eps) / integral exp(W(t, 0)/eps) dt`` with
    ``W = V - V(z)``, and its Dirichlet energy
    ``eps exp(-V(z)/eps) integral exp(-W/eps) f'(y1)**2 dy`` is a true upper
    bound for the capacity up to quadrature error and the dropped outside-box
    contribution.  Simpson tensor grids are refined (nodes doubled per axis)
    from ``grid`` nodes per axis (made odd and at least 5) until the value
    changes by less than 1e-6 relative.  A ``grid`` below 1 or a first level
    above the dimension's node cap raises ``ValueError``.  ``levels`` shares
    each level's integrals with :func:`fiber_lower_bound` on the same saddle
    and box, which are computed in the same pass (see the module docstring).
    """
    notes = ("outside-box contribution dropped (exponentially negligible)",)
    return _bound(model, saddle, box, grid, levels, "dirichlet_upper", notes, 0)


def fiber_lower_bound(
    model: PotentialModel,
    saddle: StationaryPoint,
    box: BoxSpec,
    grid: int = 65,
    *,
    levels: dict | None = None,
) -> CapacityEstimate:
    """Capacity lower bound from one-dimensional fiber integrals.

    Each transverse grid point contributes ``[integral exp(W(t, yperp)/eps) dt]**(-1)``
    (the exact one-dimensional capacity of its fiber with boundary values fixed
    at one and zero); integrating over the transverse section gives a lower
    bound.  By the Cauchy-Schwarz inequality the fiber integrand never exceeds
    the trial-function integrand of :func:`dirichlet_upper_bound`, so on a
    shared box and grid the ordering ``lower <= upper`` holds exactly.  Each
    fiber sums its nodes in order along the unstable axis, so results are
    deterministic.  ``levels`` is as in :func:`dirichlet_upper_bound`: on a
    dict the upper bound has filled, only levels beyond its ladder are
    evaluated.
    """
    notes = (
        "outside-box contribution dropped (exponentially negligible)",
        "boundary values fixed at 1 and 0; the O(sqrt(eps)) equilibrium-potential "
        "correction is folded into comparison tolerances",
    )
    return _bound(model, saddle, box, grid, levels, "fiber_lower", notes, 1)


def capacity_1d_exact(
    potential: Callable[[float], float], a: float, b: float, eps: float
) -> CapacityEstimate:
    """Exact one-dimensional capacity ``eps / integral_a^b exp(V(t)/eps) dt``.

    The integrand is shifted by its sampled maximum before quadrature so the
    result stays well conditioned deep in the small-``eps`` regime.
    """
    if not a < b:
        raise ValueError("capacity_1d_exact requires a < b")
    _check_positive(eps, "eps")
    ts = np.linspace(a, b, 2001)
    vals = np.array([float(potential(t)) for t in ts])
    i_max = int(np.argmax(vals))
    shift = float(vals[i_max])
    integral = _checked_quad(
        lambda t: math.exp((float(potential(t)) - shift) / eps),
        a,
        b,
        "the 1-d capacity",
        points=[float(ts[i_max])] if 0 < i_max < len(ts) - 1 else None,
    )
    return CapacityEstimate(
        value=eps * math.exp(-shift / eps) / integral,
        method="exact_1d",
        eps=eps,
        box=None,
    )
