"""Potential-energy models with exact or finite-difference derivatives.

The central abstraction is :class:`PotentialModel`: an evaluable potential
``V : R^d -> R`` together with its gradient, Hessian and higher partial
derivatives up to order four, all read from one method, ``_partials``.
Built-in families (polynomials, the periodic particle chain) give exact
derivatives there; anything else falls back to nested central differences
with order-dependent step sizes.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

__all__ = [
    "PotentialModel",
    "PolynomialPotential",
    "ChainPotential",
    "FunctionPotential",
    "chain_potential",
    "rotated_two_particle",
    "double_well_1d",
    "fourier_eigenvalues",
    "critical_coupling",
    "uniform_minimum_spectrum",
    "load_potential",
    "TWO_PARTICLE_CRITICAL_COUPLING",
]

#: Coupling threshold below which the two-particle saddle splits (N=2 analogue
#: of :func:`critical_coupling`, which is defined only for N >= 3).
TWO_PARTICLE_CRITICAL_COUPLING = 0.5

_EPS = np.finfo(float).eps


def _fd_step(order: int, x: np.ndarray) -> float:
    # Truncation/rounding balance for a central difference of a k-th derivative.
    return _EPS ** (1.0 / (2 + order)) * max(1.0, float(np.linalg.norm(x)))


class PotentialModel:
    """Base class: a smooth potential on R^d.

    Subclasses must implement :meth:`value`.  :meth:`gradient`, :meth:`hessian`,
    :meth:`partial` and the higher tensors all read :meth:`_partials`, which
    defaults to nested central differences and should be overridden whenever
    exact expressions are available.

    Parameters
    ----------
    dim : int
        Ambient dimension d.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self._tensor_layouts: dict = {}  # order -> (multisets, entry -> multiset)
        self._axes = tuple((i,) for i in range(self.dim))

    # -- evaluation --------------------------------------------------------

    def value(self, x) -> float:
        raise NotImplementedError

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate V on an (n, d) array of points.  Loop fallback."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.array([self.value(p) for p in pts])

    # -- derivatives -------------------------------------------------------

    def gradient(self, x) -> np.ndarray:
        return self._partials(x, self._axes)

    def gradient_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.array([self.gradient(p) for p in pts])

    def hessian(self, x) -> np.ndarray:
        return self._symmetric_tensor(x, 2)

    def partial(self, x, dirs: tuple[int, ...]) -> float:
        """Mixed partial derivative ∂_{dirs} V(x) (dirs lists axes, repeats allowed)."""
        return float(self._partials(x, (tuple(dirs),))[0])

    def _partials(self, x, multisets) -> np.ndarray:
        """``∂_m V(x)`` for each multiset ``m`` of axes: the one source of every
        derivative.  The default is nested central differences."""
        x = np.asarray(x, dtype=float)
        return np.array([self._fd_nested(x, m, _fd_step(len(m), x)) for m in multisets])

    def _fd_nested(self, x: np.ndarray, dirs: tuple[int, ...], h: float) -> float:
        # Nested central differences; the stencil is permutation-symmetric.
        if not dirs:
            return self.value(x)
        e = np.zeros(self.dim)
        e[dirs[0]] = h
        return (
            self._fd_nested(x + e, dirs[1:], h) - self._fd_nested(x - e, dirs[1:], h)
        ) / (2 * h)

    def _symmetric_tensor(self, x, order: int) -> np.ndarray:
        # one partial per multiset of axes, copied to all its permutations by
        # one take through the entry -> multiset map of this order
        layout = self._tensor_layouts.get(order)
        if layout is None:
            multisets = tuple(itertools.combinations_with_replacement(range(self.dim), order))
            slot = {m: k for k, m in enumerate(multisets)}
            entries = itertools.product(range(self.dim), repeat=order)
            index = np.array([slot[tuple(sorted(e))] for e in entries])
            layout = self._tensor_layouts[order] = (multisets, index.reshape((self.dim,) * order))
        multisets, index = layout
        return self._partials(x, multisets)[index]

    def third_tensor(self, x) -> np.ndarray:
        """Full symmetric third-derivative tensor, shape (d, d, d)."""
        return self._symmetric_tensor(x, 3)

    def fourth_tensor(self, x) -> np.ndarray:
        """Full symmetric fourth-derivative tensor, shape (d, d, d, d)."""
        return self._symmetric_tensor(x, 4)


class FunctionPotential(PotentialModel):
    """Wrap a plain callable ``f(x) -> float`` with finite-difference derivatives."""

    def __init__(self, f, dim: int):
        super().__init__(dim)
        self._f = f

    def value(self, x) -> float:
        return float(self._f(np.asarray(x, dtype=float)))


class PolynomialPotential(PotentialModel):
    """Polynomial potential with exact derivatives of every order.

    One kernel, :meth:`_evaluate`, gathers the derivative polynomials (memoised
    on the model by the axes in the order differentiated) from one power table
    and weighs each with one gemv; a Hessian or a higher tensor is one call.
    Pointwise methods evaluate a batch of one and never call the batch methods.

    Parameters
    ----------
    terms : sequence of (exponents, coeff)
        Each term is ``coeff * prod_i x_i**exponents[i]``.  Exponents are
        non-negative integers; terms with equal exponent vectors are merged.
    dim : int, optional
        Ambient dimension; inferred from the exponent vectors if omitted.
    """

    def __init__(self, terms, dim: int | None = None):
        terms = [(tuple(int(e) for e in exps), float(c)) for exps, c in terms]
        if dim is None:
            if not terms:
                raise ValueError("cannot infer dimension from an empty term list")
            dim = len(terms[0][0])
        for exps, c in terms:
            if len(exps) != dim:
                raise ValueError(
                    f"exponent vector {exps} has length {len(exps)}, expected {dim}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient {c!r}")
        super().__init__(dim)
        merged: dict[tuple[int, ...], float] = {}
        for exps, c in terms:
            merged[exps] = merged.get(exps, 0.0) + c
        merged = {e: c for e, c in merged.items() if c != 0.0}
        self.exponents = np.array(sorted(merged), dtype=int).reshape(len(merged), dim)
        self.coefficients = np.array([merged[tuple(e)] for e in self.exponents])
        # x_i**e sits in row e*d + i of the flattened power table
        self._polys = {(): (self.exponents * dim + np.arange(dim), self.coefficients)}
        self._stacks: dict = {}
        self._value_stack, self._gradient_stack = self._stack(((),)), self._stack(self._axes)

    def _poly(self, dirs: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Table rows and coefficients of ``∂_dirs V``, differentiated along ``dirs`` in order."""
        poly = self._polys.get(dirs)
        if poly is None:
            idx, coeffs = self._poly(dirs[:-1])
            keep = idx[:, dirs[-1]] >= self.dim
            idx, coeffs = idx[keep], coeffs[keep] * (idx[keep, dirs[-1]] // self.dim)
            idx[:, dirs[-1]] -= self.dim
            poly = self._polys[dirs] = (idx, coeffs)
        return poly

    def _stack(self, multisets: tuple[tuple[int, ...], ...]):
        """Gather rows (in 1-D a term is a table row), top power and one
        ``(coefficients, row block)`` per derivative in ``multisets``."""
        stack = self._stacks.get(multisets)
        if stack is None:
            polys = [self._poly(m) for m in multisets]
            idx = np.concatenate([i for i, _ in polys])
            bounds = [0, *itertools.accumulate(len(c) for _, c in polys)]
            blocks = [(c, slice(lo, hi)) for (_, c), lo, hi in zip(polys, bounds, bounds[1:])]
            top = int(idx.max(initial=0)) // self.dim
            stack = self._stacks[multisets] = (idx[:, 0] if self.dim == 1 else idx, top, blocks)
        return stack

    def _evaluate(self, pts: np.ndarray, stack) -> np.ndarray:
        """The stack's derivatives at an (n, d) batch, as an (n, blocks) array."""
        rows, top, blocks = stack
        # powers x_i**e, e <= top, one product per power: np.multiply.accumulate
        # runs an inner loop per (axis, point) pair and is ~10x slower at n=4000
        n, d = pts.shape
        table = np.empty((top + 1, d, n))
        table[0] = 1.0
        table[1:2] = pts.T
        x = power = table[1:2]
        for e in range(2, top + 1):
            power = np.multiply(power, x, out=table[e : e + 1])
        terms = table.reshape((top + 1) * d, n)[rows]
        if terms.ndim == 3:
            terms = np.multiply.reduce(terms, axis=1)
        out = np.empty((n, len(blocks)))
        for k, (c, block) in enumerate(blocks):
            np.matmul(c, terms[block], out=out[:, k])
        return out

    def _partials(self, x, multisets) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(1, self.dim)
        return self._evaluate(x, self._stack(multisets))[0]

    def value(self, x) -> float:
        return float(self._partials(x, ((),))[0])

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        return self._evaluate(np.atleast_2d(np.asarray(pts, dtype=float)), self._value_stack)[:, 0]

    def gradient_many(self, pts: np.ndarray) -> np.ndarray:
        return self._evaluate(np.atleast_2d(np.asarray(pts, dtype=float)), self._gradient_stack)

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "PolynomialPotential":
        if "dimension" not in doc or "terms" not in doc:
            raise ValueError("polynomial document needs 'dimension' and 'terms'")
        terms = [(t["exponents"], t["coeff"]) for t in doc["terms"]]
        return cls(terms, dim=int(doc["dimension"]))


def _integral(value) -> int:
    """An integral number (3 or 3.0) as an int; truncating 2.7 would change the model."""
    number = float(value)
    if not number.is_integer():
        raise ValueError(f"must be an integral number, got {value!r}")
    return int(number)


def _chain_size(N) -> int:
    """The particle count ``N`` as an int, or ``ValueError`` naming N unless it
    is an integral number of at least 2."""
    try:
        N = _integral(N)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"chain size N: {exc}") from None
    if N < 2:
        raise ValueError(f"chain size N must be >= 2, got {N}")
    return N


class ChainPotential(PotentialModel):
    """Periodic chain of N bistable particles with harmonic nearest-neighbour coupling.

    ``V(x) = sum_i U(x_i) + (gamma/4) sum_i (x_i - x_{i+1})^2`` with
    ``U(t) = t^4/4 - t^2/2`` and periodic indices.  All derivatives are exact;
    the third and fourth tensors are diagonal (``6 x_i`` and ``6``).

    The batch kernel ``value_many`` works column by column with in-place
    products and no ``pow``, for the large capacity grids; it agrees with the
    pointwise ``value`` to rounding, not bit for bit.
    """

    def __init__(self, N: int, gamma: float):
        N, gamma = _chain_size(N), float(gamma)
        if not 0.0 <= gamma < math.inf:
            raise ValueError(f"coupling gamma must be finite and >= 0, got {gamma!r}")
        super().__init__(dim=N)
        self.N = N
        self.gamma = gamma
        L = np.zeros((N, N))
        for i in range(N):
            L[i, i] += 1.0
            L[i, (i + 1) % N] -= 0.5
            L[i, (i - 1) % N] -= 0.5
        self._laplacian = L  # coupling quadratic form: (gamma/4)*sum (x_i-x_{i+1})^2 = (gamma/2) x.L.x
        self._next = np.roll(np.arange(N), -1)  # x[self._next] is np.roll(x, -1)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        onsite = float(np.sum(0.25 * x**4 - 0.5 * x**2))
        diff = x - x[self._next]
        return onsite + 0.25 * self.gamma * float(np.sum(diff**2))

    def value_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        n, N = pts.shape
        out = np.zeros(n)
        x2, term = np.empty(n), np.empty(n)
        for i in range(N):
            # on-site x^2 (x^2/4 - 1/2)
            np.multiply(pts[:, i], pts[:, i], out=x2)
            np.multiply(x2, 0.25, out=term)
            term -= 0.5
            term *= x2
            out += term
        coupling = 0.25 * self.gamma
        for i in range(N):
            np.subtract(pts[:, i], pts[:, (i + 1) % N], out=term)
            term *= term
            term *= coupling
            out += term
        return out

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x**3 - x + self.gamma * (self._laplacian @ x)

    def gradient_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return pts**3 - pts + self.gamma * (pts @ self._laplacian.T)

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.diag(3.0 * x**2 - 1.0) + self.gamma * self._laplacian

    def _partials(self, x, multisets) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros(len(multisets))
        for k, m in enumerate(multisets):
            if not m:
                out[k] = self.value(x)
            elif len(m) <= 2:
                out[k] = (self.gradient(x) if len(m) == 1 else self.hessian(x))[m]
            elif len(m) <= 4 and len(set(m)) == 1:
                # the on-site quartic is the only term of order 3 or 4
                out[k] = 6.0 * x[m[0]] if len(m) == 3 else 6.0
        return out


# ---------------------------------------------------------------------------
# tensor grids

# most points per value_many call when a tensor grid is evaluated slab by slab;
# on chain 129^3 and 257^3 and rotated2 1025^2 grids 2**15 was within 3% of the
# fastest size, 2**17 was 16-50% slower and one call per grid 3-6 times slower
_SLAB_ROWS = 2**15


def _slab_length(size: int) -> int:
    """Indices per slab along an axis whose every index holds ``size`` points.

    A multiple of 16, and at most ``_SLAB_ROWS`` points unless 16 indices
    already exceed it.  When every index holds the same whole number of rows
    of a matrix product, a slab then starts on a multiple of 16 rows, and a
    BLAS kernel that treats the last ``rows mod block`` rows of a call apart
    meets the same row blocks as in one call over the whole grid.
    """
    return 16 * max(1, _SLAB_ROWS // (16 * size))


def _grid_slabs(model: PotentialModel, axes, frame=None):
    """Yield ``(start, values)`` over the tensor grid of the 1-D ``axes``:
    ``values[k]`` is V on line ``start + k`` along the last axis, lines in C
    order, so the slabs come in order along axis 0.

    A node ``y`` is the point ``location + Q y`` for ``frame = (location, Q)``,
    else ``y`` itself.  A slab holds at most ``_SLAB_ROWS`` points unless one
    line exceeds it, and is as many whole lines as :func:`_slab_length` gives:
    the polynomial kernel's ``coeffs @ terms`` then meets the same row blocks
    as in one ``value_many`` call over the whole grid, and with one BLAS
    thread the values are bit for bit those of that call.
    """
    shape = tuple(len(a) for a in axes)
    d, n_last = len(shape), shape[-1]
    # leading coordinates of every line, one line per column; one line when d = 1
    lines = np.empty((d - 1, math.prod(shape[:-1])))
    for k, m in enumerate(np.meshgrid(*axes[:-1], indexing="ij")):
        lines[k] = m.ravel()
    step = _slab_length(n_last)
    # a slab's points as columns, so each coordinate is one contiguous row, in
    # buffers allocated once: the last slab takes the front of them
    y = np.empty((d, min(step, lines.shape[1]) * n_last))
    x = y if frame is None else np.empty_like(y)
    y_lines = y.reshape(d, -1, n_last)
    for start in range(0, lines.shape[1], step):
        count = min(step, lines.shape[1] - start)
        y_lines[:-1, :count] = lines[:, start : start + count, None]
        y_lines[-1, :count] = axes[-1]
        pts = x[:, : count * n_last]
        if frame is not None:
            location, Q = frame
            np.matmul(Q, y[:, : count * n_last], out=pts)
            pts += location[:, None]
        yield start, model.value_many(pts.T).reshape(count, n_last)


def _grid_values(model: PotentialModel, axes, frame=None) -> np.ndarray:
    """V on the tensor grid of the 1-D ``axes``, shape ``(len(a) for a in axes)``,
    filled from :func:`_grid_slabs`, so memory is the grid plus one slab."""
    V = np.empty(tuple(len(a) for a in axes))
    rows = V.reshape(-1, V.shape[-1])
    for start, values in _grid_slabs(model, axes, frame):
        rows[start : start + len(values)] = values
    return V


# ---------------------------------------------------------------------------
# built-in families and spectra


def chain_potential(N: int, gamma: float) -> ChainPotential:
    """Construct the periodic N-particle chain potential.

    Parameters
    ----------
    N : int
        Number of particles, at least 2.
    gamma : float
        Coupling strength, non-negative.
    """
    return ChainPotential(N, gamma)


def rotated_two_particle(gamma: float) -> PolynomialPotential:
    """Two-particle chain in rotated coordinates (y1, y2) = ((x1+x2), (x1-x2))/sqrt(2).

    Returns the quartic polynomial
    ``-y1^2/2 - (1-2*gamma)/2 * y2^2 + (y1^4 + 6 y1^2 y2^2 + y2^4)/8``.
    At ``gamma = 1/2`` the y2-quadratic term vanishes and the origin becomes a
    degenerate saddle with a quartic transverse direction.
    """
    gamma = float(gamma)
    if not math.isfinite(gamma):
        raise ValueError(f"coupling gamma must be finite, got {gamma!r}")
    return PolynomialPotential(
        [
            ((2, 0), -0.5),
            ((0, 2), -(1.0 - 2.0 * gamma) / 2.0),
            ((4, 0), 0.125),
            ((2, 2), 0.75),
            ((0, 4), 0.125),
        ],
        dim=2,
    )


def double_well_1d() -> PolynomialPotential:
    """The scalar double well ``x^4/4 - x^2/2`` (wells at ±1, barrier 1/4)."""
    return PolynomialPotential([((4,), 0.25), ((2,), -0.5)], dim=1)


def _fourier_modes(N: int) -> list[int]:
    # complete residue system: -ceil(N/2)+1 .. floor(N/2)
    return list(range(-((N + 1) // 2) + 1, N // 2 + 1))


def fourier_eigenvalues(N: int, gamma: float) -> list[tuple[int, float]]:
    """Hessian spectrum of the chain at the origin, as (k, eta_k) pairs sorted by k.

    ``eta_k = -1 + 2*gamma*sin^2(k*pi/N)`` for k in the complete residue
    system ``-ceil(N/2)+1 .. floor(N/2)``; eta_0 = -1 always.
    """
    N = _chain_size(N)
    return [
        (k, -1.0 + 2.0 * gamma * math.sin(k * math.pi / N) ** 2)
        for k in _fourier_modes(N)
    ]


def critical_coupling(N: int) -> float:
    """Coupling gamma* at which eta_{±1} vanish and the origin degenerates.

    Defined for N >= 3 (``1/(2 sin^2(pi/N))``).  For N=2 the analogous
    threshold is the constant :data:`TWO_PARTICLE_CRITICAL_COUPLING`.
    """
    N = _chain_size(N)
    if N < 3:
        raise ValueError(
            "critical_coupling is defined for N >= 3; "
            "for N=2 use TWO_PARTICLE_CRITICAL_COUPLING"
        )
    return 1.0 / (2.0 * math.sin(math.pi / N) ** 2)


def uniform_minimum_spectrum(N: int, gamma: float) -> list[tuple[int, float]]:
    """Hessian spectrum of the chain at the uniform minima ±(1,...,1).

    ``nu_k = 2 + 2*gamma*sin^2(k*pi/N)`` over the same mode range as
    :func:`fourier_eigenvalues`; valid for every chain size ``N >= 2``.
    """
    N = _chain_size(N)
    return [
        (k, 2.0 + 2.0 * gamma * math.sin(k * math.pi / N) ** 2)
        for k in _fourier_modes(N)
    ]


# ---------------------------------------------------------------------------
# loading


# built-in family name -> (factory, its parameters as (name, converter)), in
# the order the CLI help lists them
_BUILTINS = {
    "chain": (chain_potential, (("N", _integral), ("gamma", float))),
    "rotated2": (rotated_two_particle, (("gamma", float),)),
    "double_well": (double_well_1d, ()),
}


def _build_named(name: str, params: dict) -> PotentialModel:
    if not isinstance(name, str) or name not in _BUILTINS:
        raise ValueError(f"unknown potential name {name!r}; built-ins: {sorted(_BUILTINS)}")
    factory, spec = _BUILTINS[name]
    params = dict(params or {})
    try:
        raw = [params.pop(key) for key, _ in spec]
    except KeyError as exc:
        raise ValueError(f"{name} potential needs parameter {exc}") from None
    if params:
        raise ValueError(f"unexpected parameters for {name!r}: {sorted(params)}")
    args = []
    for (key, convert), value in zip(spec, raw):
        try:
            args.append(convert(value))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name} potential parameter {key}: {exc}") from None
    return factory(*args)


def load_potential(source, params: dict | None = None) -> PotentialModel:
    """Load a potential from a name, a JSON document, or a JSON file path.

    Accepted forms:

    * a built-in family name (``"chain"``, ``"rotated2"``, ``"double_well"``)
      with ``params`` supplying the family parameters;
    * a dict ``{"dimension": d, "terms": [{"exponents": [...], "coeff": c}]}``;
    * a dict ``{"name": ..., "params": {...}}`` addressing a built-in;
    * a path to a JSON file containing either dict form.
    """
    if isinstance(source, PotentialModel):
        return source
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, str):
        if source in _BUILTINS:
            return _build_named(source, params or {})
        try:
            with open(source) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise ValueError(
                f"{source!r} is neither a built-in potential name nor a readable file"
            ) from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"could not parse {source!r} as JSON: {exc}") from None
    else:
        raise TypeError(f"cannot load a potential from {type(source).__name__}")
    if "name" in doc:
        merged = dict(doc.get("params") or {})
        merged.update(params or {})
        return _build_named(doc["name"], merged)
    return PolynomialPotential.from_dict(doc)
