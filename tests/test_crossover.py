"""Crossover interpolation functions: frozen values, routes, limits, shape."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from metastable.crossover import (
    CROSSOVER_FUNCTIONS,
    chi,
    evaluate,
    psi_minus,
    psi_plus,
    theta_minus,
    theta_plus,
)

# frozen reference values from high-precision (50-digit) quadrature
PSI_PLUS_REF = [
    (0.0, 0.86003998732451954),
    (0.1, 0.88101040955596649),
    (0.5, 0.94214582351689803),
    (1.0, 0.9867363849645236),
    (2.0, 1.0270233835602345),
    (5.0, 1.0444782117107991),
    (10.0, 1.0342685623503663),
    (30.0, 1.014852006193428),
    (50.0, 1.0093466305727735),
]
PSI_MINUS_REF = [
    (0.0, 0.86003998732451954),
    (0.1, 0.91265379966460485),
    (0.5, 1.1119181550713748),
    (1.0, 1.340616731636853),
    (2.0, 1.735908754792603),
    (5.0, 2.3766231316119936),
    (10.0, 2.2895967912828114),
    (30.0, 2.047184495153043),
    (50.0, 2.0248184841901541),
]
THETA_PLUS_REF = [
    (0.0, 0.62665706865775013),
    (0.1, 0.66266203962171359),
    (0.5, 0.77836843189029511),
    (1.0, 0.87636445645369235),
    (2.0, 0.98351931362819771),
    (5.0, 1.062795333989381),
    (10.0, 1.0604445759342367),
    (30.0, 1.0288006552603777),
    (50.0, 1.0183757716231576),
]
THETA_MINUS_REF = [
    (0.0, 0.62665706865775013),
    (0.1, 0.65164665589617117),
    (0.5, 0.75036710207862648),
    (1.0, 0.86661967813769223),
    (2.0, 1.0544692646038245),
    (5.0, 1.2455314759747072),
    (10.0, 1.2533137780510327),
    (30.0, 1.2533141373155003),
    (50.0, 1.2533141373155003),
]
CHI_REF = [
    (0.0, 2.0),
    (0.1, 1.9027509542876267),
    (0.5, 1.5800072786985663),
    (1.0, 1.3173671077289942),
    (2.0, 1.0687041784416112),
    (5.0, 0.8991626757372784),
    (10.0, 0.8479504301401751),
    (30.0, 0.81451878821854562),
    (50.0, 0.80786161700951237),
]

_ALL_REF = {
    "psi_plus": (psi_plus, PSI_PLUS_REF),
    "psi_minus": (psi_minus, PSI_MINUS_REF),
    "theta_plus": (theta_plus, THETA_PLUS_REF),
    "theta_minus": (theta_minus, THETA_MINUS_REF),
    "chi": (chi, CHI_REF),
}


@pytest.mark.parametrize("name", sorted(_ALL_REF))
def test_frozen_reference_values(name):
    fn, ref = _ALL_REF[name]
    for alpha, expected in ref:
        assert fn(alpha) == pytest.approx(expected, rel=5e-11), (name, alpha)


@pytest.mark.parametrize("name", sorted(_ALL_REF))
def test_route_agreement(name):
    fn, ref = _ALL_REF[name]
    for alpha, _ in ref:
        closed = fn(alpha, route="closed_form")
        quad = fn(alpha, route="quadrature")
        assert closed == pytest.approx(quad, rel=1e-8), (name, alpha)


def test_zero_values_exact_constants():
    g14 = math.gamma(0.25)
    psi0 = g14 / (2.0**1.25 * math.sqrt(math.pi))
    assert psi_plus(0.0) == pytest.approx(psi0, rel=1e-12)
    assert psi_minus(0.0) == pytest.approx(psi0, rel=1e-12)
    theta0 = math.sqrt(math.pi / 8.0)
    assert theta_plus(0.0) == pytest.approx(theta0, rel=1e-12)
    assert theta_minus(0.0) == pytest.approx(theta0, rel=1e-12)
    assert chi(0.0) == 2.0


def test_large_alpha_limits():
    assert psi_plus(50.0) == pytest.approx(1.0, rel=0.02)
    assert psi_minus(50.0) == pytest.approx(2.0, rel=0.02)
    assert theta_plus(50.0) == pytest.approx(1.0, rel=0.02)
    assert theta_minus(50.0) == pytest.approx(math.sqrt(math.pi / 2.0), rel=0.02)
    assert chi(50.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=0.02)


def test_negative_alpha_rejected():
    for fn in (psi_plus, psi_minus, theta_plus, theta_minus, chi):
        with pytest.raises(ValueError):
            fn(-0.1)


def test_evaluate_records_route():
    ev = evaluate("psi_plus", 0.1)
    assert ev.route == "closed_form"
    ev = evaluate("psi_plus", 3.0)
    assert ev.route == "closed_form"
    with pytest.raises(ValueError):
        evaluate("nope", 1.0)
    assert set(CROSSOVER_FUNCTIONS) == set(_ALL_REF)


def test_theta_minus_is_normal_cdf_scaled():
    # Theta_-(alpha) = sqrt(pi/2) * Phi(alpha/2) exactly
    for alpha in (0.0, 0.3, 1.7, 4.0):
        assert theta_minus(alpha) == pytest.approx(
            math.sqrt(math.pi / 2.0) * ndtr(alpha / 2.0), rel=1e-13
        )


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=49.5))
def test_shape_properties(alpha):
    # chi falls monotonically; psi_minus and theta_minus rise monotonically;
    # psi_plus/theta_plus rise near zero (they overshoot 1 and descend later,
    # so the increase claim is restricted to the initial stretch).
    h = 0.5
    assert chi(alpha + h) < chi(alpha) + 1e-12
    assert psi_minus(alpha + h) > psi_minus(alpha) - 1e-9 or alpha > 6
    assert theta_minus(alpha + h) > theta_minus(alpha) - 1e-12
    if alpha <= 2.0:
        assert psi_plus(alpha + h) > psi_plus(alpha)
        assert theta_plus(alpha + h) > theta_plus(alpha)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e3))
def test_routes_agree_everywhere(alpha):
    for fn in (psi_plus, psi_minus, theta_plus, theta_minus, chi):
        assert fn(alpha, route="closed_form") == pytest.approx(
            fn(alpha, route="quadrature"), rel=1e-7
        )


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=100.0, max_value=1e12))
def test_pitchfork_functions_approach_their_limits_from_above(alpha):
    # alpha (psi_plus - 1) -> 1/2 and alpha (psi_minus - 2) -> 1, the Hankel tail
    plus, minus = psi_plus(alpha), psi_minus(alpha)
    assert math.isfinite(plus) and math.isfinite(minus)
    assert 0.0 < plus - 1.0 <= 1.0 / alpha
    assert 0.0 < minus - 2.0 <= 2.0 / alpha


def test_crossover_tabulation_grid():
    alphas = np.linspace(0.0, 10.0, 21)
    for name in CROSSOVER_FUNCTIONS:
        values = [evaluate(name, a).value for a in alphas]
        assert all(math.isfinite(v) and v > 0 for v in values)
