"""Potential families: values, gradients, spectra, loading."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metastable.landscape import find_stationary_points
from metastable.potentials import (
    TWO_PARTICLE_CRITICAL_COUPLING,
    ChainPotential,
    FunctionPotential,
    PolynomialPotential,
    chain_potential,
    critical_coupling,
    double_well_1d,
    fourier_eigenvalues,
    load_potential,
    rotated_two_particle,
    uniform_minimum_spectrum,
)


def _num_gradient(model, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (model.value(x + e) - model.value(x - e)) / (2 * h)
    return out


def test_double_well_basics(dw):
    assert dw.dim == 1
    assert dw.value(np.array([1.0])) == pytest.approx(-0.25)
    assert dw.value(np.array([0.0])) == 0.0
    assert dw.gradient(np.array([1.0])) == pytest.approx([0.0])
    assert dw.hessian(np.array([0.0]))[0, 0] == pytest.approx(-1.0)
    assert dw.hessian(np.array([1.0]))[0, 0] == pytest.approx(2.0)


def test_chain_value_and_symmetry():
    model = chain_potential(4, 0.7)
    x = np.array([0.3, -0.1, 0.5, 0.2])
    # cyclic shift invariance
    assert model.value(np.roll(x, 1)) == pytest.approx(model.value(x), rel=1e-12)
    # parity invariance
    assert model.value(-x) == pytest.approx(model.value(x), rel=1e-12)
    # uniform configurations feel no coupling
    u = np.full(4, 0.8)
    assert model.value(u) == pytest.approx(4 * (0.8**4 / 4 - 0.8**2 / 2), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.floats(min_value=0.0, max_value=3.0),
    st.integers(min_value=0, max_value=10**6),
)
def test_chain_gradient_matches_finite_differences(N, gamma, salt):
    model = chain_potential(N, gamma)
    rng = np.random.default_rng(salt)
    x = rng.uniform(-1.5, 1.5, size=N)
    assert np.allclose(model.gradient(x), _num_gradient(model, x), atol=1e-5)


def test_polynomial_gradient_and_hessian_consistency():
    model = rotated_two_particle(0.6)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.uniform(-1, 1, size=2)
        assert np.allclose(model.gradient(x), _num_gradient(model, x), atol=1e-5)
        h = 1e-5
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            col = (model.gradient(x + e) - model.gradient(x - e)) / (2 * h)
            assert np.allclose(model.hessian(x)[:, i], col, atol=1e-4)


def test_value_many_matches_value():
    model = chain_potential(3, 0.5)
    pts = np.random.default_rng(0).uniform(-1, 1, size=(40, 3))
    vals = model.value_many(pts)
    assert np.allclose(vals, [model.value(p) for p in pts], rtol=1e-12)
    grads = model.gradient_many(pts)
    assert np.allclose(grads, [model.gradient(p) for p in pts], rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("N", [2, 3, 5])
def test_chain_batch_kernel_matches_the_power_formula(N):
    model = chain_potential(N, 0.68)
    pts = np.random.default_rng(N).uniform(-1.8, 1.8, size=(200, N))
    diff = pts - np.roll(pts, -1, axis=1)
    coupling = 0.25 * model.gamma * np.sum(diff**2, axis=1)
    reference = np.sum(0.25 * pts**4 - 0.5 * pts**2, axis=1) + coupling
    scale = np.sum(0.25 * pts**4 + 0.5 * pts**2, axis=1) + coupling  # size of the terms
    assert np.all(np.abs(model.value_many(pts) - reference) <= 1e-13 * scale)


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_chain_value_equals_the_roll_formula_bit_for_bit(N):
    model = chain_potential(N, 0.68)
    rng = np.random.default_rng(N)
    seeds = rng.uniform(-1.5, 1.5, size=(12, N))
    points = [p.location for p in find_stationary_points(model, seeds)]
    assert len(points) >= 2
    for x in [*rng.uniform(-1.8, 1.8, size=(50, N)), *points]:
        onsite = float(np.sum(0.25 * x**4 - 0.5 * x**2))
        rolled = onsite + 0.25 * model.gamma * float(np.sum((x - np.roll(x, -1)) ** 2))
        assert model.value(x) == rolled


def _hand_built():
    # constant term, zero-exponent columns, and no dependence on x_2 (an empty
    # gradient polynomial along that axis)
    return PolynomialPotential(
        [((0, 0, 0), 1.5), ((2, 0, 0), -0.5), ((1, 3, 0), 0.25), ((4, 1, 0), 0.1)], dim=3
    )


KERNEL_MODELS = {
    "double_well": double_well_1d,
    "rotated2": lambda: rotated_two_particle(0.6),
    "hand_built": _hand_built,
}


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_polynomial_batch_rows_match_pointwise_calls(name):
    model = KERNEL_MODELS[name]()
    pts = np.random.default_rng(5).uniform(-1.8, 1.8, size=(33, model.dim))
    values = model.value_many(pts)
    grads = model.gradient_many(pts)
    assert values.shape == (33,) and grads.shape == (33, model.dim)
    for x, v, g in zip(pts, values, grads):
        assert v == pytest.approx(model.value(x), rel=1e-14, abs=1e-14)
        assert np.allclose(g, model.gradient(x), rtol=1e-14, atol=1e-14)


def test_hand_built_polynomial_has_an_empty_gradient_polynomial():
    model = _hand_built()
    pts = np.random.default_rng(6).uniform(-1, 1, size=(7, 3))
    assert np.array_equal(model.gradient_many(pts)[:, 2], np.zeros(7))
    assert model.value(np.zeros(3)) == 1.5
    assert model.partial(np.ones(3), (2, 2)) == 0.0


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_power_table_kernel_agrees_with_float_powers(name):
    model = KERNEL_MODELS[name]()
    pts = np.random.default_rng(8).uniform(-2.0, 2.0, size=(500, model.dim))

    def float_powers(exps, coeffs):
        # the direct formula prod_i x_i**e_i @ c, and the scale |monomials| @ |c|
        # against which cancellation is measured
        monomials = np.prod(pts[:, None, :] ** exps[None, :, :], axis=2)
        return monomials @ coeffs, np.abs(monomials) @ np.abs(coeffs)

    def close(new, old_and_scale):
        old, scale = old_and_scale
        return np.all(np.abs(new - old) <= 1e-12 * scale)

    exps, coeffs = model.exponents, model.coefficients
    assert close(model.value_many(pts), float_powers(exps, coeffs))
    grads = model.gradient_many(pts)
    for axis in range(model.dim):
        keep = exps[:, axis] > 0
        d_exps = exps[keep] - np.eye(model.dim, dtype=int)[axis]
        assert close(grads[:, axis], float_powers(d_exps, coeffs[keep] * exps[keep, axis]))


def _power_table(pts, top):
    # reference: x_i**e for e = 0..top by repeated products, x_i**e in row e*d + i
    n, d = pts.shape
    table = np.empty((top + 1, d, n))
    table[0] = 1.0
    table[1:2] = pts.T
    for e in range(2, top + 1):
        np.multiply(table[e - 1], pts.T, out=table[e])
    return table.reshape((top + 1) * d, n)


def _derivative(model, dirs):
    # reference: table rows and coefficients of the derivative along dirs, in order
    d = model.dim
    idx, coeffs = model.exponents * d + np.arange(d), model.coefficients
    for axis in dirs:
        keep = idx[:, axis] >= d
        idx = idx[keep]
        coeffs = coeffs[keep] * (idx[:, axis] // d)
        idx[:, axis] -= d
    return idx, coeffs


def _per_axis_gradients(model, pts):
    # reference: one gather, product and gemv per gradient polynomial
    polys = [_derivative(model, (axis,)) for axis in range(model.dim)]
    table = _power_table(pts, max(int(idx.max(initial=0)) // model.dim for idx, _ in polys))
    grad = np.empty(pts.shape)
    for axis, (idx, c) in enumerate(polys):
        np.matmul(c, np.multiply.reduce(table[idx], axis=1), out=grad[:, axis])
    return grad


def _per_multiset_partial(model, x, dirs):
    # reference: each partial derives its own polynomial and power table
    idx, coeffs = _derivative(model, dirs)
    table = _power_table(x.reshape(1, -1), int(idx.max(initial=0)) // model.dim)
    return float(np.matmul(coeffs, np.multiply.reduce(table[idx], axis=1))[0])


def _per_multiset_tensor(model, x, order):
    T = np.zeros((model.dim,) * order)
    for idx in itertools.combinations_with_replacement(range(model.dim), order):
        v = _per_multiset_partial(model, x, idx)
        for perm in set(itertools.permutations(idx)):
            T[perm] = v
    return T


GATHER_MODELS = {
    "double_well": double_well_1d,
    "rotated2": lambda: rotated_two_particle(0.5),
    "poly3": lambda: PolynomialPotential([
        ((2, 0, 0), -0.5), ((1, 1, 0), 0.3), ((0, 2, 0), 0.4), ((0, 1, 1), -0.2),
        ((0, 0, 2), 0.6), ((4, 0, 0), 0.25), ((2, 2, 0), 0.5), ((0, 1, 3), 0.1),
    ]),
    "hand_built": _hand_built,
}


@pytest.mark.parametrize("n", [1, 7, 46, 3999, 4000])
@pytest.mark.parametrize("name", sorted(GATHER_MODELS))
def test_gradient_many_equals_the_per_axis_kernel_bit_for_bit(name, n):
    model = GATHER_MODELS[name]()
    pts = np.random.default_rng(n).uniform(-2.0, 2.0, size=(n, model.dim))
    assert np.array_equal(model.gradient_many(pts), _per_axis_gradients(model, pts))
    assert np.array_equal(model.gradient(pts[-1]), _per_axis_gradients(model, pts[-1:])[0])


TENSOR_MODELS = dict(GATHER_MODELS, poly4=lambda: PolynomialPotential([
    ((2, 0, 0, 0), -0.5), ((1, 1, 0, 0), 0.3), ((0, 0, 2, 1), 0.7), ((0, 1, 1, 1), -0.2),
    ((0, 0, 0, 2), 0.6), ((4, 0, 0, 0), 0.25), ((2, 2, 0, 0), 0.5), ((0, 1, 3, 0), 0.1),
    ((1, 1, 1, 1), -0.35), ((0, 0, 0, 5), 0.05), ((3, 5, 0, 0), 0.1),
]))


@pytest.mark.parametrize("name", sorted(TENSOR_MODELS))
def test_hessian_tensors_and_partials_equal_the_per_multiset_formula_bit_for_bit(name):
    model = TENSOR_MODELS[name]()
    rng = np.random.default_rng(11)
    for x in rng.uniform(-1.7, 1.7, size=(3, model.dim)):
        assert np.array_equal(model.hessian(x), _per_multiset_tensor(model, x, 2))
        assert np.array_equal(model.third_tensor(x), _per_multiset_tensor(model, x, 3))
        assert np.array_equal(model.fourth_tensor(x), _per_multiset_tensor(model, x, 4))
        # unsorted and repeated axes keep the order they are differentiated in
        for order in range(6):
            dirs = tuple(int(a) for a in rng.integers(0, model.dim, size=order))
            for d in (dirs, dirs[::-1], dirs + dirs[:1]):
                assert model.partial(x, d) == _per_multiset_partial(model, x, d)
        assert model.partial(x, list(dirs)) == _per_multiset_partial(model, x, dirs)


@pytest.mark.parametrize(
    "model", [double_well_1d(), rotated_two_particle(0.5), _hand_built(), chain_potential(3, 0.5)]
)
def test_batch_methods_take_a_single_point_as_a_batch_of_one(model):
    x = np.linspace(-0.7, 0.9, model.dim)
    assert np.array_equal(model.value_many(x), model.value_many(x[None, :]))
    assert np.array_equal(model.gradient_many(x), model.gradient_many(x[None, :]))
    assert model.gradient_many(x).shape == (1, model.dim)


def test_rotated_two_particle_matches_rotated_chain():
    # the quartic polynomial is the N=2 chain expressed in sum/difference modes
    gamma = 0.8
    chain = chain_potential(2, gamma)
    rot = rotated_two_particle(gamma)
    rng = np.random.default_rng(3)
    for _ in range(10):
        y = rng.uniform(-1.2, 1.2, size=2)
        x = np.array([y[0] + y[1], y[0] - y[1]]) / math.sqrt(2.0)
        assert rot.value(y) == pytest.approx(chain.value(x), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("N", range(2, 11))
def test_fourier_eigenvalues_match_dense_hessian(N):
    gamma = 0.9
    model = chain_potential(N, gamma)
    dense = np.linalg.eigvalsh(model.hessian(np.zeros(N)))
    analytic = sorted(v for _, v in fourier_eigenvalues(N, gamma))
    assert np.allclose(dense, analytic, atol=1e-10)


@pytest.mark.parametrize("N", range(2, 11))
def test_uniform_minimum_spectrum_matches_dense_hessian(N):
    gamma = 0.45
    model = chain_potential(N, gamma)
    dense = np.linalg.eigvalsh(model.hessian(np.ones(N)))
    analytic = sorted(v for _, v in uniform_minimum_spectrum(N, gamma))
    assert np.allclose(dense, analytic, atol=1e-10)


@pytest.mark.parametrize("N", range(3, 11))
def test_critical_coupling_zeroes_the_soft_mode(N):
    gstar = critical_coupling(N)
    eta = dict(fourier_eigenvalues(N, gstar))
    assert abs(eta[1]) < 1e-12


def test_two_particle_threshold_is_a_constant_not_a_coupling():
    assert TWO_PARTICLE_CRITICAL_COUPLING == 0.5
    with pytest.raises(ValueError):
        critical_coupling(2)


def test_function_potential_wraps_callables():
    model = FunctionPotential(lambda x: float(x[0] ** 2 + 2 * x[1] ** 2), dim=2)
    x = np.array([0.5, -0.25])
    assert model.value(x) == pytest.approx(0.375)
    # gradient and hessian fall back to finite differences
    assert np.allclose(model.gradient(x), [1.0, -1.0], atol=1e-6)
    assert np.allclose(model.hessian(x), np.diag([2.0, 4.0]), atol=1e-4)


def test_load_potential_builtins_and_files(tmp_path):
    assert load_potential("double_well").dim == 1
    chain = load_potential("chain", {"N": 3, "gamma": 0.5})
    assert isinstance(chain, ChainPotential) and chain.dim == 3
    rot = load_potential("rotated2", {"gamma": 0.5})
    assert rot.dim == 2

    doc = {
        "dimension": 2,
        "terms": [
            {"exponents": [2, 0], "coeff": -0.5},
            {"exponents": [4, 0], "coeff": 0.25},
            {"exponents": [0, 2], "coeff": 1.0},
        ],
    }
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(doc))
    model = load_potential(str(path))
    assert isinstance(model, PolynomialPotential)
    assert model.value(np.array([1.0, 0.0])) == pytest.approx(-0.25)

    named = tmp_path / "named.json"
    named.write_text(json.dumps({"name": "chain", "params": {"N": 2, "gamma": 0.75}}))
    assert load_potential(str(named)).dim == 2


def test_load_potential_rejects_bad_input():
    with pytest.raises(ValueError):
        load_potential("no_such_family")
    with pytest.raises(ValueError):
        load_potential("chain", {"N": 2})  # missing gamma
    with pytest.raises(ValueError):
        load_potential("chain", {"N": 2, "gamma": 0.5, "bogus": 1})


@pytest.mark.parametrize("name, params, message", [
    ("chain", {"gamma": 0.5}, "chain potential needs parameter 'N'"),
    ("chain", {"N": 3}, "chain potential needs parameter 'gamma'"),
    ("rotated2", {}, "rotated2 potential needs parameter 'gamma'"),
    ("chain", {"N": 3, "gamma": 0.5, "bogus": 1}, "unexpected parameters for 'chain': ['bogus']"),
    ("rotated2", {"gamma": 0.5, "N": 2}, "unexpected parameters for 'rotated2': ['N']"),
    ("double_well", {"gamma": 0.5}, "unexpected parameters for 'double_well': ['gamma']"),
])
def test_builtin_reports_a_missing_or_extra_parameter(name, params, message):
    for source in (name, {"name": name, "params": params}):
        with pytest.raises(ValueError) as exc:
            load_potential(source, params)
        assert str(exc.value) == message


@pytest.mark.parametrize("N", [2.7, 3.5, math.inf, math.nan, "three"])
def test_a_non_integral_chain_size_is_rejected_not_truncated(N):
    for source in ("chain", {"name": "chain"}):
        with pytest.raises(ValueError, match="^chain potential parameter N: "):
            load_potential(source, {"N": N, "gamma": 0.5})


@pytest.mark.parametrize("source", ["chain", {"name": "chain"}])
def test_an_integral_float_chain_size_builds_the_chain(source):
    model = load_potential(source, {"N": 3.0, "gamma": 0.5})
    assert type(model.N) is int and model.N == 3
    x = np.array([0.3, -0.2, 0.9])
    assert model.value(x) == load_potential("chain", {"N": 3, "gamma": 0.5}).value(x)


@pytest.mark.parametrize("name", [["chain"], {"chain": 1}, 3])
def test_a_document_naming_no_builtin_is_rejected(name):
    with pytest.raises(ValueError, match="unknown potential name"):
        load_potential({"name": name, "params": {}})


def test_chain_rejects_bad_parameters():
    with pytest.raises(ValueError):
        chain_potential(1, 0.5)
    with pytest.raises(ValueError):
        chain_potential(3, -0.1)
