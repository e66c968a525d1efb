"""Crossover interpolation functions: frozen values, routes, limits, shape."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special  # the oracle for the routines built from math alone
from scipy.special import ndtr

from metastable import crossover
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
    _, ref = _ALL_REF[name]
    for alpha, _ in ref:
        closed = evaluate(name, alpha, route="closed_form").value
        quad = evaluate(name, alpha, route="quadrature").value
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


def test_closed_forms_return_their_limits_at_infinite_alpha():
    # theta_plus's (1 + alpha) erfcx and chi's sqrt(1 + alpha) e^{-alpha} I_0
    # are inf * 0 at alpha = inf; the limits are those at the largest float
    limits = {psi_plus: 1.0, psi_minus: 2.0, theta_plus: 1.0,
              theta_minus: math.sqrt(math.pi / 2.0), chi: math.sqrt(2.0 / math.pi)}
    for fn, limit in limits.items():
        assert fn(math.inf) == limit
        assert fn(sys.float_info.max) == pytest.approx(limit, rel=2**-51, abs=0.0)


def test_negative_alpha_rejected():
    for fn in (psi_plus, psi_minus, theta_plus, theta_minus, chi):
        for alpha in (-0.1, math.nan):
            with pytest.raises(ValueError, match="alpha >= 0"):
                fn(alpha)


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
@given(st.floats(min_value=0.0, max_value=1e6))
@example(2e4)  # narrow ring peaks: quad needs breakpoints on both sides of them
@example(1e6)
def test_routes_agree_everywhere(alpha):
    for name in CROSSOVER_FUNCTIONS:
        assert evaluate(name, alpha, route="closed_form").value == pytest.approx(
            evaluate(name, alpha, route="quadrature").value, rel=1e-7
        )


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=100.0, max_value=1e12))
def test_pitchfork_functions_approach_their_limits_from_above(alpha):
    # alpha (psi_plus - 1) -> 1/2 and alpha (psi_minus - 2) -> 1, the Hankel tail
    plus, minus = psi_plus(alpha), psi_minus(alpha)
    assert math.isfinite(plus) and math.isfinite(minus)
    assert 0.0 < plus - 1.0 <= 1.0 / alpha
    assert 0.0 < minus - 2.0 <= 2.0 / alpha


@pytest.mark.parametrize("alpha", [1e154, 2e154, 1e300, sys.float_info.max])
def test_pitchfork_functions_reach_their_limits_where_alpha_squared_overflows(alpha):
    # pi alpha^2 overflows from alpha ~ 7.6e153 and alpha^2 from ~ 1.34e154;
    # below that the values keep their bits, here they are the limits
    assert psi_plus(alpha) == pytest.approx(1.0, rel=2**-52, abs=0.0)
    assert psi_minus(alpha) == pytest.approx(2.0, rel=2**-52, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e12))
def test_chi_is_finite_and_falls_to_its_limit(alpha):
    # 2 sqrt(1 + alpha) e^{-alpha} I_0(alpha) -> sqrt(2/pi) from above, the
    # Hankel tail of I_0 from alpha = 20 on
    value, limit = chi(alpha), math.sqrt(2.0 / math.pi)
    assert math.isfinite(value)
    assert 0.0 < value - limit <= 2.0 - limit
    assert alpha * (value - limit) <= 1.0


def test_crossover_tabulation_grid():
    alphas = np.linspace(0.0, 10.0, 21)
    for name in CROSSOVER_FUNCTIONS:
        values = [evaluate(name, a).value for a in alphas]
        assert all(math.isfinite(v) and v > 0 for v in values)


# ---------------------------------------------------------------------------
# the special functions from math, against scipy.special as an oracle


def _both_sides(x, width=1e-3, count=40):
    # floats on both sides of a switch point x: its neighbours a few ulp
    # away and a relative band of the given width
    ulps = [x]
    for _ in range(4):
        ulps = [np.nextafter(ulps[0], 0.0), *ulps, np.nextafter(ulps[-1], np.inf)]
    return np.concatenate([ulps, x * (1.0 + np.linspace(-width, width, count))])


# every switch of the Bessel routines: the reflection formula of K_{1/4} gives
# way to the trapezoidal rule at z = 1, the series to the Hankel sums at 20
_BESSEL_Z = np.unique(np.concatenate([
    np.geomspace(1e-300, crossover._HANKEL_MIN, 4000, endpoint=False),
    _both_sides(crossover._K_TRAPEZOID_MIN),
    _both_sides(crossover._HANKEL_MIN),
    np.linspace(15.0, 40.0, 501),
]))

# name -> (routine, oracle, end of its domain): the single I_{-+1/4} values
# come from the power series alone, which stops at _HANKEL_MIN
_BESSEL_ORACLES = {
    "e^z K_1/4": (crossover._scaled_k_quarter, lambda z: special.kve(0.25, z), math.inf),
    "e^-z I_-1/4": (lambda z: crossover._i_quarter_pair(z)[0] * math.exp(-z),
                    lambda z: special.ive(-0.25, z), crossover._HANKEL_MIN),
    "e^-z I_1/4": (lambda z: crossover._i_quarter_pair(z)[1] * math.exp(-z),
                   lambda z: special.ive(0.25, z), crossover._HANKEL_MIN),
    "e^-z (I_-1/4 + I_1/4)": (crossover._scaled_i_quarter_pair,
                              lambda z: special.ive(-0.25, z) + special.ive(0.25, z), math.inf),
    "e^-z I_0": (crossover._scaled_i_zero, lambda z: special.ive(0.0, z), math.inf),
}


@pytest.mark.parametrize("name", sorted(_BESSEL_ORACLES))
def test_bessel_routines_match_scipy(name):
    # scipy's own fractional-order values are off by up to 7e-14 (against
    # 40-digit mpmath); the routines here, by at most 2e-15
    mine, oracle, end = _BESSEL_ORACLES[name]
    z = _BESSEL_Z[_BESSEL_Z < end]
    got = np.array([mine(float(x)) for x in z])
    assert np.max(np.abs(got / oracle(z) - 1.0)) <= 1e-13


def test_erfcx_matches_scipy():
    x = np.unique(np.concatenate([
        np.linspace(0.0, 40.0, 4001),
        np.geomspace(1e-300, 1e300, 4000),
        _both_sides(crossover._ERFCX_ASYMPTOTIC),
    ]))
    got = np.array([crossover._erfcx(float(v)) for v in x])
    assert np.max(np.abs(got / special.erfcx(x) - 1.0)) <= 1e-13


def test_normal_cdf_matches_scipy():
    x = np.linspace(-40.0, 40.0, 8001)
    got = np.array([crossover._normal_cdf(float(v)) for v in x])
    expected = special.ndtr(x)
    # below x ~ -37.5 both are subnormal or zero, with no relative precision
    normal = expected >= sys.float_info.min
    assert np.max(np.abs(got[normal] / expected[normal] - 1.0)) <= 1e-13
    assert np.all(got[~normal] < sys.float_info.min)


def test_gamma_constants_match_scipy_within_an_ulp():
    # both constants are correctly rounded; math.gamma(0.25) is an ulp high
    # and scipy's gamma(0.75) an ulp low
    assert crossover._GAMMA_1_4 == pytest.approx(special.gamma(0.25), rel=2**-52, abs=0.0)
    assert crossover._GAMMA_3_4 == pytest.approx(special.gamma(0.75), rel=2**-52, abs=0.0)


# each crossover function's alpha at the switches of its special functions:
# the psi limit below z = 1e-100, K_{1/4} at z = alpha^2/16 = 1, the Hankel
# sums at z = 20, erfcx's asymptotic tail at alpha/(2 sqrt 2) = 26
_SWITCHES = {
    "psi_plus": [4e-50, 4.0, math.sqrt(16.0 * crossover._HANKEL_MIN)],
    "psi_minus": [8e-50, math.sqrt(64.0 * crossover._HANKEL_MIN)],
    "theta_plus": [2.0 * math.sqrt(2.0) * crossover._ERFCX_ASYMPTOTIC],
    "chi": [crossover._HANKEL_MIN],
}


@pytest.mark.parametrize("name", sorted(_SWITCHES))
def test_crossover_functions_are_continuous_across_the_switches(name):
    fn = _ALL_REF[name][0]
    for switch in _SWITCHES[name]:
        alphas = _both_sides(switch, width=1e-12, count=8)
        below = [fn(a) for a in alphas if a < switch]
        above = [fn(a) for a in alphas if a > switch]
        spread = max(abs(b / a - 1.0) for a in below for b in above)
        assert spread <= 1e-13, (name, switch, spread)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.0, max_value=sys.float_info.max))
@example(1e12)  # 1 - cos p cost the route 1e-6 here, and the p = 2 pi end 1e-6 at 1e20
@example(1e20)
@example(sys.float_info.max)
def test_chi_quadrature_meets_criterion_2_at_every_alpha(alpha):
    closed = evaluate("chi", alpha, route="closed_form").value
    assert evaluate("chi", alpha, route="quadrature").value == pytest.approx(closed, rel=1e-7)


@pytest.mark.parametrize("name", ["psi_plus", "psi_minus", "theta_plus", "theta_minus"])
@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(min_value=0.0, max_value=sys.float_info.max))
@example(alpha=1e8)  # psi_plus and theta_plus returned about 0 from here on
@example(alpha=1e10)  # y^2 - c cancelled for psi_minus and theta_minus from 4.5e9 on
@example(alpha=1e14)
@example(alpha=sys.float_info.max)
def test_quadrature_routes_meet_criterion_2_at_every_alpha(name, alpha):
    closed = evaluate(name, alpha, route="closed_form").value
    assert math.isfinite(closed)
    assert evaluate(name, alpha, route="quadrature").value == pytest.approx(closed, rel=1e-7)


# ---------------------------------------------------------------------------
# the adaptive Gauss-Kronrod routine of the quadrature routes


def test_gauss_half_of_the_kronrod_rule_is_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(len(crossover._GAUSS_X) * 2)
    upper = nodes > 0.0  # leggauss sorts ascending; the literals descend
    np.testing.assert_allclose(crossover._GAUSS_X, nodes[upper][::-1], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(crossover._GAUSS_W, weights[upper][::-1], rtol=0.0, atol=1e-15)


def test_kronrod_rule_integrates_polynomials_up_to_degree_3n_plus_1():
    # n Gauss nodes extended to 2n + 1 Kronrod nodes integrate x^k exactly
    # for k <= 3n + 1; a mistyped node or weight breaks one of these
    n = 2 * len(crossover._GAUSS_X)
    for k in range(3 * n + 2):
        value, _ = crossover._gk21(lambda x: x**k, -1.0, 1.0)
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert value == pytest.approx(exact, rel=1e-14, abs=1e-16), k


_SIGMA = 1e-3
_KNOWN_INTEGRALS = {
    # a narrow Gaussian off the panel centre, found by the first nodes alone
    "wide gaussian": (lambda x: math.exp(-0.5 * (x / (10 * _SIGMA)) ** 2), -1.0, 2.0, None,
                      10 * _SIGMA * math.sqrt(2.0 * math.pi) * math.erf(1.0 / (10 * _SIGMA * math.sqrt(2.0)))),
    # ten times narrower, which the first nodes would miss, with a breakpoint on it
    "narrow gaussian": (lambda x: math.exp(-0.5 * (x / _SIGMA) ** 2), -1.0, 2.0, [0.0],
                        _SIGMA * math.sqrt(2.0 * math.pi)),
    "sine": (math.sin, 0.0, math.pi, None, 2.0),
}


@pytest.mark.parametrize("name", sorted(_KNOWN_INTEGRALS))
@pytest.mark.parametrize("epsrel", [1e-6, 1e-10, 1e-13])
def test_integrate_reports_at_least_its_true_error(name, epsrel):
    f, a, b, points, exact = _KNOWN_INTEGRALS[name]
    value, err = crossover._integrate(f, a, b, epsabs=0.0, epsrel=epsrel, points=points, limit=200)
    assert abs(value - exact) <= err <= max(epsrel * abs(value), 1e-14 * abs(exact))


def test_integrate_stops_on_panels_too_narrow_to_halve():
    # a jump inside an interval a few thousand ulp wide: the panel around it
    # is halved until its midpoint rounds to an end, then kept with its error
    a, b, jump = 1.0, 1.0 + 2.0**-40, 1.0 + 2.0**-41 / 3.0
    calls = []

    def step(x):
        calls.append(x)
        return 1e6 if x < jump else 0.0

    value, err = crossover._integrate(step, a, b, epsabs=0.0, epsrel=0.0, limit=10_000)
    assert len(calls) < 21 * 100  # a few dozen halvings, far from the panel limit
    assert abs(value - 1e6 * (jump - a)) <= err
    assert err > 1e-12
