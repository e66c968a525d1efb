"""Tests for the quadrature capacity routes against the closed forms."""

import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from metastable import (
    BoxSpec,
    FlatStable,
    FlatUnstable,
    MinimumSpec,
    PolynomialPotential,
    Quadratic,
    SaddleSpec,
    StationaryPoint,
    capacity_1d_exact,
    chain_potential,
    Codim2,
    default_box,
    dirichlet_upper_bound,
    ek_classical,
    ek_codim2,
    ek_flat_stable,
    ek_flat_unstable,
    fiber_lower_bound,
    reduced_capacity,
    rotated_two_particle,
)
from metastable import potentials
from metastable.capacity import _checked_quad, _level, _simpson_weights, _tensor_w
from metastable.potentials import _SLAB_ROWS, _slab_length
from metastable.cli import main

UNIT_MIN = MinimumSpec(value=0.0, hessian_det=1.0)


def wide_box(eps, *, delta2=None, deltaj=()):
    return BoxSpec(delta1=8.0 * math.sqrt(eps), eps=eps, delta2=delta2, deltaj=deltaj)


# ---------------------------------------------------------------------------
# reduced integral against the closed forms (independent routes)


def test_reduced_capacity_gaussian_matches_classical():
    eps, lam1, lam2 = 0.05, 1.0, 0.5
    box = wide_box(eps, delta2=8.0 * math.sqrt(eps / lam2))
    est = reduced_capacity(
        lambda t: 0.5 * lam1 * t * t,
        lambda t: 0.5 * lam2 * t * t,
        (2.0,),
        eps,
        box,
    )
    closed = ek_classical(
        UNIT_MIN, SaddleSpec(0.0, Quadratic(), (lam2, 2.0), lam1), eps
    ).capacity_prefactor
    assert est.value == pytest.approx(closed, rel=1e-8)
    assert est.method == "reduced_integral"


def test_reduced_capacity_quartic_matches_flat_stable():
    eps, c4 = 0.05, 0.125
    box = wide_box(eps, delta2=(30.0 * eps / c4) ** 0.25)
    est = reduced_capacity(
        lambda t: 0.5 * t * t, lambda t: c4 * t**4, (), eps, box
    )
    closed = ek_flat_stable(
        UNIT_MIN, SaddleSpec(0.0, FlatStable(2, c4), (), 1.0), eps
    ).capacity_prefactor
    assert est.value == pytest.approx(closed, rel=1e-8)


def test_reduced_capacity_disc_matches_codim2():
    eps, k = 0.05, 0.125
    box = wide_box(eps, delta2=(30.0 * eps / k) ** 0.25)
    est = reduced_capacity(
        lambda t: 0.5 * t * t,
        lambda y2, y3: k * (y2 * y2 + y3 * y3) ** 2,
        (),
        eps,
        box,
        q=3,
    )
    closed = ek_codim2(
        UNIT_MIN, SaddleSpec(0.0, Codim2(angular=k, p=2), (), 1.0), eps
    ).capacity_prefactor
    assert est.value == pytest.approx(closed, rel=1e-8)


def test_reduced_capacity_eps_scaling_of_gaussian_product():
    # pure Gaussian: I2/I1 is eps-free, each quadratic direction adds sqrt(eps)
    def run(eps):
        box = wide_box(eps, delta2=8.0 * math.sqrt(eps))
        return reduced_capacity(
            lambda t: 0.5 * t * t,
            lambda t: 0.5 * t * t,
            (1.0, 1.0),
            eps,
            box,
        ).value

    ratio = run(0.02) / run(0.01)
    assert ratio == pytest.approx(2.0 * 2.0, rel=1e-7)  # eps * eps^{(d-q)/2}, d-q=2


def test_reduced_capacity_validation():
    box = wide_box(0.05, delta2=1.0)
    u = lambda t: 0.5 * t * t
    with pytest.raises(ValueError):
        reduced_capacity(u, u, (), 0.05, box, q=4)
    with pytest.raises(ValueError):
        reduced_capacity(u, u, (-1.0,), 0.05, box)
    with pytest.raises(ValueError):
        reduced_capacity(u, u, (), 0.0, box)
    with pytest.raises(ValueError):
        reduced_capacity(u, u, (), 0.05, wide_box(0.05))  # no delta2


# ---------------------------------------------------------------------------
# one-dimensional exact capacity


def test_capacity_1d_flat_potential_is_eps_over_length():
    est = capacity_1d_exact(lambda t: 0.0, -1.5, 2.5, 0.1)
    assert est.value == pytest.approx(0.1 / 4.0, rel=1e-12)
    assert est.method == "exact_1d"


def test_capacity_1d_matches_flat_unstable_closed_form():
    eps, c = 0.05, 0.25
    est = capacity_1d_exact(lambda t: -c * t**4, -2.0, 2.0, eps)
    closed = ek_flat_unstable(
        UNIT_MIN, SaddleSpec(0.0, FlatUnstable(2, c), ()), eps
    ).capacity
    assert est.value == pytest.approx(closed, rel=1e-8)


def test_capacity_1d_laplace_error_shrinks_with_eps(dw):
    # eps small enough that the interval-truncation error is negligible and the
    # leading ~3 eps/4 quartic Laplace correction dominates
    ratios = []
    for eps in (0.1, 0.05, 0.025):
        est = capacity_1d_exact(lambda t: float(dw.value(np.array([t]))), -1.0, 1.0, eps)
        closed = ek_classical(
            MinimumSpec(value=-0.25, eigenvalues=(2.0,)),
            SaddleSpec(0.0, Quadratic(), (), 1.0),
            eps,
        ).capacity
        ratios.append(abs(est.value / closed - 1.0))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 0.04


def test_capacity_1d_validation():
    with pytest.raises(ValueError):
        capacity_1d_exact(lambda t: 0.0, 1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        capacity_1d_exact(lambda t: 0.0, -1.0, 1.0, 0.0)


def test_capacity_1d_raises_when_its_quadrature_does_not_converge():
    # exp(sin(1e4 t)/2) oscillates about 3200 times over the interval: 200
    # panels of the 21-point rule cannot resolve it
    with pytest.raises(RuntimeError, match="did not converge"):
        capacity_1d_exact(lambda t: 0.05 * math.sin(1e4 * t), -1.0, 1.0, 0.1)


def test_checked_quad_raises_on_a_panel_too_narrow_to_halve():
    # a jump inside an interval 4096 ulp wide: the panel around it is kept
    # once its midpoint rounds to an end, and its error still counts
    jump = 1.0 + 2.0**-41 / 3.0
    with pytest.raises(RuntimeError, match="did not converge"):
        _checked_quad(lambda x: 1e6 if x < jump else 0.0, 1.0, 1.0 + 2.0**-40, "a step")


# ---------------------------------------------------------------------------
# Dirichlet / fiber sandwich on real potentials


def quadratic_gate_estimates(model, eps, grid=33):
    pt = StationaryPoint.at(model, np.zeros(model.dim))
    box = default_box(model, pt, eps)
    upper = dirichlet_upper_bound(model, pt, box, grid=grid)
    lower = fiber_lower_bound(model, pt, box, grid=grid)
    return lower, upper


def test_sandwich_orders_and_brackets_quadratic_gate(rotated_quadratic):
    eps = 0.05
    lower, upper = quadratic_gate_estimates(rotated_quadratic, eps)
    closed = eps * math.sqrt(2.0)  # classical capacity of this gate
    assert lower.value <= upper.value * (1.0 + 1e-5)
    assert 0.7 < lower.value / closed <= 1.0
    assert 0.7 < upper.value / closed < 1.1
    assert upper.method == "dirichlet_upper" and lower.method == "fiber_lower"
    for est in (lower, upper):
        assert est.grid_shape is not None and all(s % 2 == 1 for s in est.grid_shape)
        assert est.rel_change is not None and est.rel_change < 1e-5
        assert any("outside-box" in n for n in est.notes)


def test_sandwich_brackets_flat_gate(rotated_flat):
    eps = 0.05
    lower, upper = quadratic_gate_estimates(rotated_flat, eps)
    closed = ek_flat_stable(
        MinimumSpec(value=0.0, hessian_det=1.0),
        SaddleSpec(0.0, FlatStable(2, 0.125), (), 1.0),
        eps,
    ).capacity_prefactor
    assert lower.value <= upper.value * (1.0 + 1e-5)
    assert 0.6 < lower.value / closed <= 1.0
    assert 0.6 < upper.value / closed < 1.1


def test_upper_bound_converges_toward_closed_form(rotated_quadratic):
    ratios = []
    for eps in (0.05, 0.02):
        _, upper = quadratic_gate_estimates(rotated_quadratic, eps)
        ratios.append(abs(upper.value / (eps * math.sqrt(2.0)) - 1.0))
    assert ratios[1] < ratios[0]


def test_one_dimensional_routes_agree(dw):
    eps = 0.05
    pt = StationaryPoint.at(dw, [0.0])
    box = default_box(dw, pt, eps)
    upper = dirichlet_upper_bound(dw, pt, box)
    lower = fiber_lower_bound(dw, pt, box)
    # in d = 1 the trial function is optimal: both routes give the exact value
    assert lower.value == pytest.approx(upper.value, rel=1e-12)
    exact = capacity_1d_exact(
        lambda t: float(dw.value(np.array([t]))), -box.delta1, box.delta1, eps
    )
    assert upper.value == pytest.approx(exact.value, rel=1e-6)


@pytest.mark.parametrize("name, eps", [("chain3", 0.06), ("rotated2", 0.03), ("double_well", 0.04)])
def test_shared_ladder_gives_the_bounds_computed_alone(name, eps, rotated_flat, dw):
    model = {"chain3": chain_potential(3, 1.0), "rotated2": rotated_flat, "double_well": dw}[name]
    pt = StationaryPoint.at(model, np.zeros(model.dim))
    box = default_box(model, pt, eps)
    alone = (dirichlet_upper_bound(model, pt, box), fiber_lower_bound(model, pt, box))
    levels = {}
    shared = (
        dirichlet_upper_bound(model, pt, box, levels=levels),
        fiber_lower_bound(model, pt, box, levels=levels),
    )
    # value, grid_shape, rel_change and notes (and method, eps, box)
    assert shared == alone
    deepest = max(est.grid_shape[0] for est in alone)
    assert sorted(levels) == [n for n in (65, 129, 257, 513, 1025, 2049, 4097, 8193) if n <= deepest]


def test_verify_row_evaluates_each_ladder_level_once(tmp_path, monkeypatch):
    rows = []
    value_many = PolynomialPotential.value_many

    def counted(self, pts):
        rows.append(len(pts))
        return value_many(self, pts)

    monkeypatch.setattr(PolynomialPotential, "value_many", counted)
    # from 17 nodes the upper bound settles at 65 per axis, the lower bound at 129
    code = main([
        "verify", "--potential", "rotated2", "--params", "gamma=0.75", "--saddle-seed", "0,0",
        "--eps", "0.05", "--grid-nodes", "17", "--out", str(tmp_path),
    ])
    assert code == 0
    assert json.loads((tmp_path / "verify.json").read_text())["results"][0]["grid"] == [65, 65]
    ladder = [17, 33, 65, 129]
    checks = [65, 65]  # one box-condition grid per bound
    assert Counter(rows) == Counter(n * n for n in ladder + checks)


def _one_shot_grid(model, point, widths, n):
    axes = [np.linspace(-w, w, n) for w in widths]
    mesh = np.meshgrid(*axes, indexing="ij")
    y = np.stack([m.ravel() for m in mesh], axis=-1)
    x = point.location[None, :] + y @ point.eigenvectors.T
    return model.value_many(x).reshape((n,) * len(widths)) - point.value


def _poly3():
    # coupled quadratic part, so the eigenbasis is not the coordinate basis
    return PolynomialPotential([
        ((2, 0, 0), -0.5), ((1, 1, 0), 0.3), ((0, 2, 0), 0.4), ((0, 1, 1), -0.2),
        ((0, 0, 2), 0.6), ((4, 0, 0), 0.25), ((2, 2, 0), 0.5), ((0, 1, 3), 0.1),
    ])


# each grid spans several slabs of the streamed evaluation
STREAMED_GRIDS = {
    "rotated2": (lambda: rotated_two_particle(0.5), [0.0, 0.0], 1025),
    "poly3": (_poly3, [0.1, -0.2, 0.3], 65),
    "chain3": (lambda: chain_potential(3, 1.0), [0.0, 0.0, 0.0], 129),
}


def _streamed_mismatches() -> dict[str, int]:
    """Per grid, the number of nodes where ``_tensor_w`` and the one-shot formula differ."""
    out = {}
    for name, (build, at, n) in STREAMED_GRIDS.items():
        model = build()
        point = StationaryPoint.at(model, np.array(at))
        widths = [0.9, 0.6, 0.4][: model.dim]
        assert n**model.dim > 2 * _SLAB_ROWS
        w, axes = _tensor_w(model, point, widths, [n] * model.dim)
        assert [a.size for a in axes] == [n] * model.dim
        out[name] = int(np.count_nonzero(w != _one_shot_grid(model, point, widths, n)))
    return out


@pytest.fixture(scope="module")
def streamed_mismatches(fresh_interpreter):
    # A threaded BLAS splits one call's rows between its threads, and the last
    # rows of each share take the kernel's tail path, so the one-shot reference
    # itself moves in the last bit with the thread count.  The comparison runs
    # in a fresh interpreter with one BLAS thread, as the benchmark pins it.
    return fresh_interpreter(
        "import json, test_capacity; print(json.dumps(test_capacity._streamed_mismatches()))"
    )


@pytest.mark.parametrize("name", sorted(STREAMED_GRIDS))
def test_streamed_grid_equals_the_one_shot_formula(streamed_mismatches, name):
    assert streamed_mismatches[name] == 0


@pytest.mark.parametrize("name, n, bound", [("chain3", 129, 2.0), ("rotated2", 1025, 3.0)])
def test_streamed_grid_peak_memory_is_the_grid_plus_one_slab(name, n, bound):
    build, at, _ = STREAMED_GRIDS[name]
    model = build()
    point = StationaryPoint.at(model, np.array(at))
    tracemalloc.start()
    try:
        w, _ = _tensor_w(model, point, [0.9, 0.6, 0.4][: model.dim], [n] * model.dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * w.nbytes


def _one_shot_upper(w, axes, eps):
    # the upper bound's integrand over the whole grid in one expression
    weights = [_simpson_weights(len(a), a[1] - a[0]) for a in axes]
    center = tuple([slice(None)] + [len(a) // 2 for a in axes[1:]])
    g = np.exp(w[center] / eps)
    f_norm = float(weights[0] @ g)
    integrand = np.exp(-w / eps) * (g / f_norm).reshape((-1,) + (1,) * (w.ndim - 1)) ** 2
    for wt in reversed(weights):
        integrand = integrand @ wt
    return eps * float(integrand)


def _one_shot_lower(w, axes, eps):
    # the lower bound's fiber integrals over the whole grid in one expression
    weights = [_simpson_weights(len(a), a[1] - a[0]) for a in axes]
    integrand = 1.0 / np.tensordot(np.exp(w / eps), weights[0], axes=(0, 0))
    for wt in reversed(weights[1:]):
        integrand = integrand @ wt
    return eps * float(integrand)


def _one_shot_level(w, axes, eps):
    # _level's sums over the whole grid at once, in _level's order: one gemv
    # over every line, then the fibers plane by plane along axis 0
    weights = [_simpson_weights(len(a), a[1] - a[0]) for a in axes]
    center = tuple([slice(None)] + [len(a) // 2 for a in axes[1:]])
    sections = (np.exp(-w / eps).reshape(-1, w.shape[-1]) @ weights[-1]).reshape(w.shape[:-1])
    for wt in reversed(weights[1:-1]):
        sections = sections @ wt
    fibers = np.zeros(w.shape[1:])
    for wt, plane in zip(weights[0], np.exp(w / eps)):
        fibers += wt * plane
    g = np.exp(w[center] / eps)
    upper = eps * float((sections * (g / float(weights[0] @ g)) ** 2) @ weights[0])
    integrand = 1.0 / fibers
    for wt in reversed(weights[1:]):
        integrand = integrand @ wt
    return upper, eps * float(integrand)


# at the smaller eps some fibers of poly3 overflow and contribute 1/inf = 0
BOUND_EPS = (0.05, 0.0005)
# two slab sizes that cut every STREAMED_GRIDS grid at different lines
SLAB_ROWS = (2**13, 2**17)


def _level_mismatches() -> dict[str, list[str]]:
    """Per grid, the eps and ``_SLAB_ROWS`` at which ``_level`` differs from
    the one-shot sums in its own order."""
    out = {}
    default = potentials._SLAB_ROWS
    try:
        for name, (build, at, n) in STREAMED_GRIDS.items():
            model = build()
            point = StationaryPoint.at(model, np.array(at))
            widths = [0.9, 0.6, 0.4][: model.dim]
            w = _one_shot_grid(model, point, widths, n)
            axes = [np.linspace(-wd, wd, n) for wd in widths]
            out[name], cuts = [], set()
            for rows in SLAB_ROWS:
                potentials._SLAB_ROWS = rows
                cuts.add(_slab_length(n))
                out[name] += [
                    f"eps={eps} slab rows={rows}"
                    for eps in BOUND_EPS
                    if not _level(model, point, widths, n, eps) == _one_shot_level(w, axes, eps)
                ]
            # several slabs at each size, cut at different lines, the last one partial
            assert len(cuts) == 2 and max(cuts) < n ** (model.dim - 1) and n % 16 != 0
    finally:
        potentials._SLAB_ROWS = default
    return out


@pytest.fixture(scope="module")
def level_mismatches(fresh_interpreter):
    # one BLAS thread, for the reason given at streamed_mismatches
    return fresh_interpreter(
        "import json, warnings, test_capacity; warnings.simplefilter('ignore'); "
        "print(json.dumps(test_capacity._level_mismatches()))"
    )


@pytest.mark.parametrize("name", sorted(STREAMED_GRIDS))
def test_level_is_the_one_shot_sums_at_any_slab_length(level_mismatches, name):
    assert level_mismatches[name] == []


@pytest.mark.parametrize("name", sorted(STREAMED_GRIDS))
@pytest.mark.parametrize("eps", BOUND_EPS)
def test_level_agrees_with_the_one_shot_bound_expressions(name, eps):
    build, at, n = STREAMED_GRIDS[name]
    model = build()
    point = StationaryPoint.at(model, np.array(at))
    widths = [0.9, 0.6, 0.4][: model.dim]
    w, axes = _tensor_w(model, point, widths, [n] * model.dim)
    with np.errstate(over="ignore"):
        upper, lower = _level(model, point, widths, n, eps)
        expected = (_one_shot_upper(w, axes, eps), _one_shot_lower(w, axes, eps))
    assert (upper, lower) == pytest.approx(expected, rel=1e-14, abs=0.0)


@pytest.mark.parametrize(
    "build, eps, n",
    [
        (lambda: chain_potential(3, 1.0), 0.06, 129),
        (lambda: rotated_two_particle(0.5005), 0.03, 1025),
    ],
    ids=["chain3", "rotated2"],
)
def test_verify_row_peak_memory_is_a_few_slabs(build, eps, n):
    model = build()
    pt = StationaryPoint.at(model, np.zeros(model.dim))
    box = default_box(model, pt, eps)
    tracemalloc.start()
    try:
        levels = {}
        upper = dirichlet_upper_bound(model, pt, box, levels=levels)
        lower = fiber_lower_bound(model, pt, box, levels=levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert upper.grid_shape == lower.grid_shape == (n,) * model.dim
    # one slab of values is 0.26 MB, and value_many's temporaries on a slab
    # take up to 26 times that (rotated2); the 129^3 grid alone takes 66 and
    # the 1025^2 grid 32, and storing the levels peaked at 89 and 57
    assert peak <= 30 * _SLAB_ROWS * 8


def test_tensor_bounds_reject_dimension_above_three():
    model = PolynomialPotential(
        [((2, 0, 0, 0), -0.5), ((0, 2, 0, 0), 0.5), ((0, 0, 2, 0), 0.5), ((0, 0, 0, 2), 0.5)],
        dim=4,
    )
    pt = StationaryPoint.at(model, np.zeros(4))
    box = BoxSpec(delta1=0.5, eps=0.05, deltaj=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="1 to 3"):
        dirichlet_upper_bound(model, pt, box)


@pytest.mark.parametrize("model, grid", [("double_well", 8194), ("rotated2", 1026), ("rotated2", 0),
                                         ("chain3", -5)])
def test_tensor_bounds_reject_a_grid_outside_the_ladder_before_any_level(model, grid, dw, rotated_quadratic):
    # 8194 and 1026 round up to a first level one step past the 1-d and 2-d caps
    model = {"double_well": dw, "rotated2": rotated_quadratic, "chain3": chain_potential(3, 1.0)}[model]
    pt = StationaryPoint.at(model, np.zeros(model.dim))
    box = default_box(model, pt, 0.05)
    levels = {}
    for bound in (dirichlet_upper_bound, fiber_lower_bound):
        with pytest.raises(ValueError, match="^grid"):
            bound(model, pt, box, grid=grid, levels=levels)
    assert levels == {}


def test_tensor_bounds_round_a_small_grid_up_to_five_nodes(rotated_quadratic):
    pt = StationaryPoint.at(rotated_quadratic, np.zeros(2))
    levels = {}
    dirichlet_upper_bound(rotated_quadratic, pt, default_box(rotated_quadratic, pt, 0.05), grid=1, levels=levels)
    assert min(levels) == 5


def test_box_condition_warnings_fire(rotated_quadratic):
    pt = StationaryPoint.at(rotated_quadratic, np.zeros(2))
    eps = 0.01
    too_wide = BoxSpec(delta1=3.0, eps=eps, deltaj=(1.5,))
    with pytest.warns(UserWarning, match="unstable-axis"):
        dirichlet_upper_bound(rotated_quadratic, pt, too_wide, grid=17)
    too_low = BoxSpec(delta1=0.2, eps=eps, deltaj=(0.05,))
    with pytest.warns(UserWarning, match="transverse boundary"):
        fiber_lower_bound(rotated_quadratic, pt, too_low, grid=17)


# ---------------------------------------------------------------------------
# default boxes


def test_default_box_quadratic_gate(rotated_quadratic):
    eps = 0.01
    level = 2.0 * eps * abs(math.log(eps))
    pt = StationaryPoint.at(rotated_quadratic, np.zeros(2))
    box = default_box(rotated_quadratic, pt, eps)
    assert box.delta1 == pytest.approx(math.sqrt(2.0 * level))
    assert box.delta2 is None
    assert box.deltaj == pytest.approx((2.0 * math.sqrt(level / 0.5),))


def test_default_box_soft_stable_gate(rotated_flat):
    eps = 0.01
    level = 2.0 * eps * abs(math.log(eps))
    pt = StationaryPoint.at(rotated_flat, np.zeros(2))
    box = default_box(rotated_flat, pt, eps)
    assert box.delta1 == pytest.approx(math.sqrt(2.0 * level))
    # lambda2 = 0: delta2^2 = sqrt(32 C4 L)/(4 C4) with C4 = 1/8
    assert box.delta2 == pytest.approx(2.0 * level**0.25)
    assert box.deltaj == ()


def test_default_box_quartic_unstable_gate():
    model = PolynomialPotential([((4, 0), -0.25), ((0, 2), 0.5)], dim=2)
    eps = 0.01
    level = 2.0 * eps * abs(math.log(eps))
    pt = StationaryPoint.at(model, np.zeros(2))
    box = default_box(model, pt, eps)
    assert box.delta1 == pytest.approx((4.0 * level) ** 0.25)
    assert box.deltaj == pytest.approx((2.0 * math.sqrt(level),))


def test_default_box_codim2_gate(chain3_critical):
    eps = 0.01
    level = 3.0 * eps * abs(math.log(eps))
    pt = StationaryPoint.at(chain3_critical, np.zeros(3))
    box = default_box(chain3_critical, pt, eps)
    assert box.delta1 == pytest.approx(math.sqrt(2.0 * level))
    assert box.delta2 == pytest.approx((2.0 * level / 0.125) ** 0.25)
    assert box.deltaj == ()


def test_default_box_scale_multiplier(rotated_quadratic):
    pt = StationaryPoint.at(rotated_quadratic, np.zeros(2))
    full = default_box(rotated_quadratic, pt, 0.01)
    half = default_box(rotated_quadratic, pt, 0.01, scale=0.5)
    assert half.delta1 == pytest.approx(0.5 * full.delta1)
    assert half.deltaj == pytest.approx(tuple(0.5 * v for v in full.deltaj))


def test_default_box_rejects_wrong_points(rotated_quadratic, rotated_flat):
    minimum = StationaryPoint.at(rotated_quadratic, np.array([math.sqrt(2.0), 0.0]))
    with pytest.raises(ValueError, match="unstable"):
        default_box(rotated_quadratic, minimum, 0.01)
    wrong_sign = PolynomialPotential([((2, 0), -0.5), ((0, 4), -0.25)], dim=2)
    pt = StationaryPoint.at(wrong_sign, np.zeros(2))
    with pytest.raises(ValueError, match="C4"):
        default_box(wrong_sign, pt, 0.01)
    flat3 = PolynomialPotential(
        [((4, 0, 0), 0.25), ((0, 4, 0), 0.25), ((0, 0, 4), 0.25)], dim=3
    )
    pt = StationaryPoint.at(flat3, np.zeros(3))
    with pytest.raises(ValueError, match="two degenerate"):
        default_box(flat3, pt, 0.01)


def test_default_box_advisory_warning_at_moderate_eps(rotated_quadratic):
    pt = StationaryPoint.at(rotated_quadratic, np.zeros(2))
    with pytest.warns(UserWarning, match="normal-form remainders"):
        default_box(rotated_quadratic, pt, 0.3)


# ---------------------------------------------------------------------------
# specs and reports


def test_box_spec_validation():
    with pytest.raises(ValueError):
        BoxSpec(delta1=0.0, eps=0.1)
    with pytest.raises(ValueError):
        BoxSpec(delta1=1.0, eps=0.1, delta2=-1.0)
    with pytest.raises(ValueError):
        BoxSpec(delta1=1.0, eps=0.1, deltaj=(0.5, 0.0))
    with pytest.raises(ValueError):
        BoxSpec(delta1=1.0, eps=0.0)


def test_box_spec_advisory_messages():
    assert BoxSpec(delta1=1.0, eps=0.01).advisory_warnings()
    assert not BoxSpec(delta1=0.1, eps=0.01).advisory_warnings()


