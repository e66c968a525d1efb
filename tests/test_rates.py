"""Tests for the closed-form expected-time/capacity laws and their crossovers."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metastable import (
    Codim2,
    DoubleZero,
    FlatStable,
    FlatUnstable,
    MinimumSpec,
    PitchforkLongitudinal,
    PitchforkTransverse,
    Quadratic,
    RateResult,
    SaddleSpec,
    Sombrero,
    SWEEP_FIELDS,
    closed_rate,
    combine_gates,
    doublezero_time,
    ek_classical,
    ek_codim2,
    ek_flat_stable,
    ek_flat_unstable,
    longitudinal_saddles,
    pitchfork_longitudinal_time,
    pitchfork_saddles,
    pitchfork_transverse_time,
    soft_window,
    sombrero_time,
    sweep_doublezero,
    sweep_longitudinal,
    sweep_sombrero,
    sweep_transverse,
)
from metastable.rates import _REGIMES, _error_magnitude

TWO_PI = 2.0 * math.pi

# frozen reference values from high-precision (50-digit) evaluation of the
# closed-form prefactors
DW1D_PREFACTOR = 4.4428829381583662
DW1D_TIME_EPS02 = 15.507185174028427
CHAIN2_PREFACTOR = 1.679251908362714
FLAT_UNSTABLE_PREF_EPS01 = 8.0805517055456408
FLAT_UNSTABLE_CAPPREF_EPS01 = 0.069363966974572445
ROTATED2_PREF_EPS012 = 1.2412690099074795
ROTATED2_TIME_EPS012 = 80.061966657553797
CODIM2_CHAIN3_PREF_EPS01 = 0.37366608109319525
CODIM2_CHAIN3_TIME_EPS01 = 675.60412346007584
CODIM2_CHAIN3_CAPPREF_EPS01 = 0.31415926535897932

DW1D_MIN = MinimumSpec(value=-0.25, eigenvalues=(2.0,))
CHAIN2_MIN = MinimumSpec(value=-0.5, eigenvalues=(2.0, 3.5))
ROTATED2_MIN = MinimumSpec(value=-0.5, eigenvalues=(2.0, 3.0))
CHAIN3_MIN = MinimumSpec(value=-0.75, eigenvalues=(2.0, 3.0, 3.0))


def relative_discrepancy(a: RateResult, b: RateResult) -> float:
    """Largest relative difference between two results' prefactor, capacity prefactor, and barrier."""
    pairs = (
        (a.prefactor, b.prefactor),
        (a.capacity_prefactor, b.capacity_prefactor),
        (a.barrier, b.barrier),
    )
    out = 0.0
    for x, y in pairs:
        scale = max(abs(x), abs(y))
        if scale > 0.0:
            out = max(out, abs(x - y) / scale)
    return out


def duality_gap(result: RateResult, minimum: MinimumSpec) -> float:
    lhs = result.prefactor * result.capacity_prefactor
    rhs = (TWO_PI * result.eps) ** (result.dimension / 2.0) / math.sqrt(minimum.det)
    return abs(lhs - rhs) / rhs


# ---------------------------------------------------------------------------
# classical law


def test_classical_double_well_frozen_values():
    saddle = SaddleSpec(value=0.0, regime=Quadratic(), unstable_eigenvalue=1.0)
    res = ek_classical(DW1D_MIN, saddle, 0.2)
    assert res.prefactor == pytest.approx(DW1D_PREFACTOR, rel=1e-14)
    assert res.expected_time == pytest.approx(DW1D_TIME_EPS02, rel=1e-14)
    assert res.barrier == pytest.approx(0.25)
    assert res.dimension == 1
    assert res.error_order == "eps^(1/2) |log eps|"


def test_classical_chain2_frozen_prefactor():
    saddle = SaddleSpec(
        value=0.0, regime=Quadratic(), stable_eigenvalues=(0.5,), unstable_eigenvalue=1.0
    )
    res = ek_classical(CHAIN2_MIN, saddle, 0.1)
    assert res.prefactor == pytest.approx(CHAIN2_PREFACTOR, rel=1e-14)
    assert res.dimension == 2
    # capacity prefactor for the rotated two-particle gate is eps * sqrt(2)
    res = ek_classical(
        MinimumSpec(value=-0.5, hessian_det=6.0),
        SaddleSpec(value=0.0, regime=Quadratic(), stable_eigenvalues=(0.5,), unstable_eigenvalue=1.0),
        0.07,
    )
    assert res.capacity_prefactor == pytest.approx(0.07 * math.sqrt(2.0), rel=1e-14)


def test_result_is_exactly_prefactor_times_exponential():
    saddle = SaddleSpec(value=0.3, regime=Quadratic(), unstable_eigenvalue=2.0)
    res = ek_classical(MinimumSpec(value=-0.1, hessian_det=1.5), saddle, 0.05)
    assert res.expected_time == res.prefactor * math.exp(res.barrier / res.eps)
    assert res.capacity == res.capacity_prefactor * math.exp(-res.saddle_value / res.eps)
    assert res.barrier == pytest.approx(0.4)


def test_extreme_barrier_saturates_to_inf():
    saddle = SaddleSpec(value=2000.0, regime=Quadratic(), unstable_eigenvalue=1.0)
    res = ek_classical(MinimumSpec(value=0.0, hessian_det=1.0), saddle, 1e-3)
    assert math.isinf(res.expected_time)
    assert res.capacity == 0.0
    assert math.isfinite(res.prefactor)


# ---------------------------------------------------------------------------
# degenerate laws: frozen values


def test_flat_unstable_frozen_values():
    saddle = SaddleSpec(value=0.0, regime=FlatUnstable(p=2, coefficient=0.25))
    res = ek_flat_unstable(DW1D_MIN, saddle, 0.1)
    assert res.prefactor == pytest.approx(FLAT_UNSTABLE_PREF_EPS01, rel=1e-14)
    assert res.capacity_prefactor == pytest.approx(FLAT_UNSTABLE_CAPPREF_EPS01, rel=1e-14)
    assert res.error_order == "eps^(1/4) |log eps|^(5/4)"


def test_flat_unstable_prefactor_grows_as_eps_shrinks():
    saddle = SaddleSpec(value=0.0, regime=FlatUnstable(p=2, coefficient=1.0))
    minimum = MinimumSpec(value=0.0, hessian_det=1.0)
    p1 = ek_flat_unstable(minimum, saddle, 0.1).prefactor
    p2 = ek_flat_unstable(minimum, saddle, 0.1 / 16.0).prefactor
    assert p2 / p1 == pytest.approx(2.0, rel=1e-12)  # eps^(-1/4) doubles per /16


def test_flat_stable_rotated_two_particle_frozen_values():
    saddle = SaddleSpec(
        value=0.0, regime=FlatStable(p=2, coefficient=0.125), unstable_eigenvalue=1.0
    )
    res = ek_flat_stable(ROTATED2_MIN, saddle, 0.12)
    assert res.prefactor == pytest.approx(ROTATED2_PREF_EPS012, rel=1e-14)
    assert res.expected_time == pytest.approx(ROTATED2_TIME_EPS012, rel=1e-14)
    assert res.dimension == 2


def test_codim2_chain3_frozen_values():
    saddle = SaddleSpec(
        value=0.0, regime=Codim2(angular=0.125, p=2), unstable_eigenvalue=1.0
    )
    res = ek_codim2(CHAIN3_MIN, saddle, 0.1)
    assert res.prefactor == pytest.approx(CODIM2_CHAIN3_PREF_EPS01, rel=1e-13)
    assert res.expected_time == pytest.approx(CODIM2_CHAIN3_TIME_EPS01, rel=1e-13)
    assert res.capacity_prefactor == pytest.approx(CODIM2_CHAIN3_CAPPREF_EPS01, rel=1e-13)
    assert res.dimension == 3


def test_codim2_callable_angular_matches_constant():
    minimum = CHAIN3_MIN
    const = SaddleSpec(value=0.0, regime=Codim2(angular=0.125, p=2), unstable_eigenvalue=1.0)
    fn = SaddleSpec(
        value=0.0, regime=Codim2(angular=lambda phi: 0.125, p=2), unstable_eigenvalue=1.0
    )
    a = ek_codim2(minimum, const, 0.1)
    b = ek_codim2(minimum, fn, 0.1)
    assert relative_discrepancy(a, b) < 1e-10


def test_codim2_angular_profile_must_be_positive():
    with pytest.raises(ValueError):
        Codim2(angular=-0.125)
    saddle = SaddleSpec(
        value=0.0,
        regime=Codim2(angular=lambda phi: math.cos(phi), p=2),
        unstable_eigenvalue=1.0,
    )
    with pytest.raises(ValueError):
        ek_codim2(CHAIN3_MIN, saddle, 0.1)


# ---------------------------------------------------------------------------
# duality: expected_time * capacity == (2 pi eps)^(d/2) / sqrt(det X) * e^(-V(x)/eps)


def all_regime_cases():
    minimum3 = MinimumSpec(value=-0.4, eigenvalues=(1.3, 2.1, 0.8))
    return [
        (ek_classical, minimum3, SaddleSpec(0.1, Quadratic(), (0.9, 2.2), 1.7)),
        (ek_flat_unstable, minimum3, SaddleSpec(0.1, FlatUnstable(3, 0.7), (0.9, 2.2))),
        (ek_flat_stable, minimum3, SaddleSpec(0.1, FlatStable(2, 0.3), (2.2,), 1.7)),
        (ek_codim2, minimum3, SaddleSpec(0.1, Codim2(lambda p: 0.2 + 0.1 * math.sin(p) ** 2), (), 1.7)),
        (
            pitchfork_transverse_time,
            minimum3,
            SaddleSpec(0.1, PitchforkTransverse(0.02, 0.5), (2.2,), 1.7),
        ),
        (
            pitchfork_transverse_time,
            minimum3,
            SaddleSpec(0.09, PitchforkTransverse(-0.01, 0.5, mu2=0.02), (2.2,), 1.7),
        ),
        (
            pitchfork_longitudinal_time,
            minimum3,
            SaddleSpec(0.1, PitchforkLongitudinal(-0.02, 0.5), (0.9, 2.2)),
        ),
        (
            pitchfork_longitudinal_time,
            minimum3,
            SaddleSpec(0.11, PitchforkLongitudinal(0.01, 0.5, mu1=-0.02), (0.9, 2.2)),
        ),
        (doublezero_time, minimum3, SaddleSpec(0.1, DoubleZero(0.01, 0.25), (), 1.7)),
        (
            sombrero_time,
            minimum3,
            SaddleSpec(0.1, Sombrero(gate_pairs=3, mu2=0.05, mu3=0.3, quartic=0.125), (), 1.7),
        ),
    ]


@pytest.mark.parametrize("op,minimum,saddle", all_regime_cases())
def test_duality_product_all_regimes(op, minimum, saddle):
    for eps in (0.3, 0.05, 0.004):
        res = op(minimum, saddle, eps)
        assert duality_gap(res, minimum) < 1e-12


# the eps below 1e-200 at which each case of all_regime_cases() returned a
# result while every regime still wrote its own capacity prefactor; deriving
# it from the prefactor must keep them, though (2 pi eps)^(3/2) underflows.
# Three of those results were subnormal (6.8e-313, 8.0e-309 and 4.0e-309),
# as is flat-unstable's 5e-323 at eps 1e-176, one significant bit: an
# underflow, listed apart in _TINY_EPS_SUBNORMAL
_TINY_EPS_RESULTS = [
    (), (), (1e-205,), (1e-300, 1e-250, 1e-205),
    (1e-205,), (1e-205,), (), (), (1e-205,), (),
]
_TINY_EPS_SUBNORMAL = [(), (1e-176,), (1e-250,), (), (), (), (1e-205,), (1e-205,), (), ()]


@pytest.mark.parametrize("index", range(len(_TINY_EPS_RESULTS)))
def test_capacity_prefactor_derivation_keeps_the_float_range(index):
    _, minimum, saddle = all_regime_cases()[index]
    for eps in _TINY_EPS_RESULTS[index]:
        res = closed_rate(minimum, saddle, eps)
        assert sys.float_info.min <= res.capacity_prefactor < math.inf, eps
    for eps in _TINY_EPS_SUBNORMAL[index]:
        with pytest.raises(OverflowError, match="normal float64 range"):
            closed_rate(minimum, saddle, eps)


@pytest.mark.parametrize("op,minimum,saddle", all_regime_cases())
def test_closed_rate_runs_the_operation_of_the_regime(op, minimum, saddle):
    assert closed_rate(minimum, saddle, 0.05) == op(minimum, saddle, 0.05)


def test_every_regime_writes_an_error_order_that_rates_reads():
    # all_regime_cases() and the negative branch of the double zero
    cases = [*all_regime_cases(), (doublezero_time, CHAIN3_MIN, SaddleSpec(0.1, DoubleZero(-0.01, 0.25), (), 1.7))]
    assert {type(saddle.regime) for _, _, saddle in cases} == set(_REGIMES)
    tags = set()
    for eps in (0.05, 0.01):
        for op, minimum, saddle in cases:
            result = op(minimum, saddle, eps)
            tags.add(result.regime_tag)
            magnitude = _error_magnitude(result.error_order, eps)
            assert 0.0 < magnitude < math.inf, result.error_order
            if op is ek_classical:
                assert magnitude == pytest.approx(math.sqrt(eps) * abs(math.log(eps)), rel=1e-15)
    assert {"pitchfork-transverse-split", "pitchfork-longitudinal-split", "doublezero-negative"} <= tags


def test_unknown_regime_types_are_rejected():
    class Bogus:
        pass

    with pytest.raises(ValueError, match="unknown regime type Bogus"):
        SaddleSpec(0.0, Bogus(), (), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    lam1=st.floats(0.1, 10.0),
    lams=st.lists(st.floats(0.1, 10.0), min_size=0, max_size=4),
    det=st.floats(0.05, 50.0),
    eps=st.floats(1e-4, 0.5),
)
def test_duality_classical_property(lam1, lams, det, eps):
    minimum = MinimumSpec(value=0.0, hessian_det=det)
    saddle = SaddleSpec(0.5, Quadratic(), tuple(lams), lam1)
    assert duality_gap(ek_classical(minimum, saddle, eps), minimum) < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(2, 5),
    c=st.floats(0.05, 5.0),
    eps=st.floats(1e-4, 0.5),
)
def test_duality_flat_property(p, c, eps):
    minimum = MinimumSpec(value=0.0, hessian_det=2.0)
    res = ek_flat_unstable(minimum, SaddleSpec(0.2, FlatUnstable(p, c), (1.5,)), eps)
    assert duality_gap(res, minimum) < 1e-12
    res = ek_flat_stable(minimum, SaddleSpec(0.2, FlatStable(p, c), (), 1.2), eps)
    assert duality_gap(res, minimum) < 1e-12
    assert f"eps^(1/{2 * p})" in res.error_order


# ---------------------------------------------------------------------------
# continuity across regime boundaries


def test_transverse_pitchfork_continuous_with_flat_stable():
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0))
    eps, c4 = 0.03, 0.125
    a = pitchfork_transverse_time(
        minimum, SaddleSpec(0.5, PitchforkTransverse(0.0, c4), (), 1.0), eps
    )
    b = ek_flat_stable(minimum, SaddleSpec(0.5, FlatStable(2, c4), (), 1.0), eps)
    assert relative_discrepancy(a, b) < 1e-10


def test_longitudinal_pitchfork_continuous_with_flat_unstable():
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0))
    eps, c4 = 0.03, 0.125
    a = pitchfork_longitudinal_time(
        minimum, SaddleSpec(0.5, PitchforkLongitudinal(0.0, c4), (1.0,)), eps
    )
    b = ek_flat_unstable(minimum, SaddleSpec(0.5, FlatUnstable(2, c4), (1.0,)), eps)
    assert relative_discrepancy(a, b) < 1e-10


def test_doublezero_continuous_with_codim2():
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0, 1.0))
    eps = 0.03
    for angular in (0.125, lambda phi: 0.1 + 0.05 * math.cos(phi) ** 4):
        a = doublezero_time(
            minimum, SaddleSpec(0.5, DoubleZero(0.0, angular), (), 1.0), eps
        )
        b = ek_codim2(minimum, SaddleSpec(0.5, Codim2(angular, p=2), (), 1.0), eps)
        assert relative_discrepancy(a, b) < 1e-10


def test_split_transverse_far_branch_approaches_two_parallel_gates():
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0, 1.0))
    eps, lam2, c4 = 1e-6, -0.5, 0.5
    split = pitchfork_saddles(lam2, c4)
    saddle = SaddleSpec(
        value=0.5 + split.value_shift,
        regime=PitchforkTransverse(lam2, c4, mu2=split.soft_eigenvalue),
        stable_eigenvalues=(2.0,),
        unstable_eigenvalue=1.0,
    )
    res = pitchfork_transverse_time(minimum, saddle, eps)
    single = ek_classical(
        minimum,
        SaddleSpec(saddle.value, Quadratic(), (split.soft_eigenvalue, 2.0), 1.0),
        eps,
    )
    pair = combine_gates(single, 2, arrangement="parallel")
    assert res.prefactor / pair.prefactor == pytest.approx(1.0, rel=5e-3)
    assert res.regime_tag == "pitchfork-transverse-split"


def test_split_longitudinal_far_branch_approaches_two_series_gates():
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0))
    eps, lam1, c4 = 1e-6, 0.5, 0.5
    split = longitudinal_saddles(lam1, c4)
    saddle = SaddleSpec(
        value=0.5 + split.value_shift,
        regime=PitchforkLongitudinal(lam1, c4, mu1=split.soft_eigenvalue),
        stable_eigenvalues=(2.0,),
    )
    res = pitchfork_longitudinal_time(minimum, saddle, eps)
    single = ek_classical(
        minimum,
        SaddleSpec(saddle.value, Quadratic(), (2.0,), -split.soft_eigenvalue),
        eps,
    )
    pair = combine_gates(single, 2, arrangement="series")
    assert res.prefactor / pair.prefactor == pytest.approx(1.0, rel=5e-3)
    assert res.regime_tag == "pitchfork-longitudinal-split"


def test_far_transverse_positive_branch_approaches_classical():
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0))
    eps, lam2 = 1e-8, 0.4
    res = pitchfork_transverse_time(
        minimum, SaddleSpec(0.5, PitchforkTransverse(lam2, 0.5), (), 1.0), eps
    )
    classical = ek_classical(minimum, SaddleSpec(0.5, Quadratic(), (lam2,), 1.0), eps)
    assert res.prefactor / classical.prefactor == pytest.approx(1.0, rel=1e-3)


def test_sombrero_far_regime_is_2m_discrete_gates():
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0, 1.0))
    eps, m = 1e-9, 3
    regime = Sombrero(gate_pairs=m, mu2=0.2, mu3=0.4, quartic=0.125)
    res = sombrero_time(minimum, SaddleSpec(0.5, regime, (), 1.0), eps)
    single = ek_classical(
        minimum, SaddleSpec(0.5, Quadratic(), (regime.mu2, regime.mu3), 1.0), eps
    )
    gates = combine_gates(single, 2 * m, arrangement="parallel")
    assert res.prefactor / gates.prefactor == pytest.approx(1.0, rel=1e-3)


def test_sombrero_prefactor_is_finite_where_chi_takes_its_hankel_tail():
    # chi's argument mu2 mu3 / ((2M)^2 8 eps C4) is 1e10 here, where scipy's
    # ive(0, .) is NaN; theta_minus * chi -> 1 leaves the 2M classical gates
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0, 1.0))
    eps, m = 0.01, 3
    regime = Sombrero(gate_pairs=m, mu2=0.288, mu3=1.0, quartic=1e-11)
    assert regime.mu2 * regime.mu3 / ((2 * m) ** 2 * 8 * eps * regime.quartic) == pytest.approx(
        1e10, rel=1e-12
    )
    res = sombrero_time(minimum, SaddleSpec(0.5, regime, (), 1.0), eps)
    assert math.isfinite(res.prefactor) and res.prefactor > 0.0
    single = ek_classical(
        minimum, SaddleSpec(0.5, Quadratic(), (regime.mu2, regime.mu3), 1.0), eps
    )
    gates = combine_gates(single, 2 * m, arrangement="parallel")
    assert res.prefactor == pytest.approx(gates.prefactor, rel=1e-9)


# ---------------------------------------------------------------------------
# crossover bookkeeping


def test_boundary_note_fires_exactly_at_the_window():
    eps = 0.01
    w = soft_window(eps)
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0))
    res = pitchfork_transverse_time(
        minimum, SaddleSpec(0.5, PitchforkTransverse(w, 0.5), (), 1.0), eps
    )
    assert any("crossover boundary" in n for n in res.notes)
    res = pitchfork_transverse_time(
        minimum, SaddleSpec(0.5, PitchforkTransverse(0.9 * w, 0.5), (), 1.0), eps
    )
    assert not res.notes


def test_doublezero_rejects_developed_ring():
    eps = 0.01
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0, 1.0))
    lam2 = -1.5 * soft_window(eps)
    with pytest.raises(ValueError, match="sombrero_time"):
        doublezero_time(
            minimum, SaddleSpec(0.5, DoubleZero(lam2, 0.25), (), 1.0), eps
        )


def test_doublezero_negative_edge_note():
    eps = 0.01
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0, 1.0))
    lam2 = -soft_window(eps)
    res = doublezero_time(minimum, SaddleSpec(0.5, DoubleZero(lam2, 0.25), (), 1.0), eps)
    assert res.regime_tag == "doublezero-negative"
    assert any("sombrero" in n for n in res.notes)


_EDGE_EPS = 0.01
_EDGE_W = math.sqrt(_EDGE_EPS * abs(math.log(_EDGE_EPS)))
_EDGE_MIN3 = MinimumSpec(value=-0.25, eigenvalues=(1.5, 2.0, 3.0))
_EDGE_MIN4 = MinimumSpec(value=-0.25, eigenvalues=(1.5, 2.0, 3.0, 4.0))
_CROSSOVER_ERROR = {
    sym: f"(eps |log eps|^3 / max({sym}, sqrt(eps |log eps|)))^(1/2)"
    for sym in ("|lambda1|", "|lambda2|")
}

# every note written at a window edge, with the full result it rides on
# (values recorded before the boundary comparison was factored out; the two
# upper-edge pins re-recorded when psi_plus took e^z K_{1/4}(z) from scipy's
# kve instead of the I_{+-1/4} connection formula, 2e-15 relative apart; the
# capacity fields of five pins re-recorded when the capacity prefactor came to
# be derived from the prefactor by the duality, at most 7.4e-16 relative apart)
EDGE_CASES = {
    "transverse-upper": (
        pitchfork_transverse_time,
        _EDGE_MIN3,
        SaddleSpec(0.5, PitchforkTransverse(_EDGE_W, 0.5), (2.0,), 1.25),
        RateResult(
            regime_tag="pitchfork-transverse", eps=0.01, barrier=0.75, saddle_value=0.5,
            prefactor=1.442561414336135, expected_time=5.385430854961424e32,
            capacity_prefactor=0.003639269655859649, capacity=7.019240795438997e-25,
            dimension=3, error_order=_CROSSOVER_ERROR["|lambda2|"],
            notes=("at the upper crossover boundary lambda2 = sqrt(eps |log eps|); "
                   "classical-branch prefactor discrepancy 1.493e-01",),
        ),
    ),
    "transverse-lower": (
        pitchfork_transverse_time,
        _EDGE_MIN3,
        SaddleSpec(
            0.5 + pitchfork_saddles(-_EDGE_W, 0.5).value_shift,
            PitchforkTransverse(-_EDGE_W, 0.5, mu2=2 * _EDGE_W), (2.0,), 1.25,
        ),
        RateResult(
            regime_tag="pitchfork-transverse-split", eps=0.01, barrier=0.7442435372675149,
            saddle_value=0.4942435372675149, prefactor=0.8384858068814953,
            expected_time=1.7602804206687567e32, capacity_prefactor=0.006261131600346155,
            capacity=2.1474780673751824e-24, dimension=3,
            error_order=_CROSSOVER_ERROR["|lambda2|"],
            notes=("at the lower crossover boundary lambda2 = -sqrt(eps |log eps|); "
                   "two-gate classical prefactor discrepancy 3.377e-02",),
        ),
    ),
    "longitudinal-upper": (
        pitchfork_longitudinal_time,
        _EDGE_MIN3,
        SaddleSpec(0.5, PitchforkLongitudinal(-_EDGE_W, 0.5), (2.0, 3.0)),
        RateResult(
            regime_tag="pitchfork-longitudinal", eps=0.01, barrier=0.75, saddle_value=0.5,
            prefactor=9.421467022126341, expected_time=3.517261635845888e33,
            capacity_prefactor=0.0005572242591921343, capacity=1.0747462051986357e-25,
            dimension=3, error_order=_CROSSOVER_ERROR["|lambda1|"],
            notes=("at the crossover boundary |lambda1| = sqrt(eps |log eps|); "
                   "classical-branch prefactor discrepancy 1.493e-01",),
        ),
    ),
    "longitudinal-split": (
        pitchfork_longitudinal_time,
        _EDGE_MIN3,
        SaddleSpec(
            0.5 + longitudinal_saddles(_EDGE_W, 0.5).value_shift,
            PitchforkLongitudinal(_EDGE_W, 0.5, mu1=-2 * _EDGE_W), (2.0, 3.0),
        ),
        RateResult(
            regime_tag="pitchfork-longitudinal-split", eps=0.01, barrier=0.7557564627324851,
            saddle_value=0.5057564627324851, prefactor=16.209033809537903,
            expected_time=1.0760768066408538e34, capacity_prefactor=0.00032388543596091997,
            capacity=3.512912435699179e-26, dimension=3,
            error_order=_CROSSOVER_ERROR["|lambda1|"],
            notes=("at the crossover boundary lambda1 = sqrt(eps |log eps|); "
                   "two-gate series prefactor discrepancy 3.377e-02",),
        ),
    ),
    "doublezero-upper": (
        doublezero_time,
        _EDGE_MIN4,
        SaddleSpec(0.5, DoubleZero(_EDGE_W, 0.25), (2.0,), 1.25),
        RateResult(
            regime_tag="doublezero", eps=0.01, barrier=0.75, saddle_value=0.5,
            prefactor=0.3659480207668461, expected_time=1.366172519772263e32,
            capacity_prefactor=0.0017979975007393217, capacity=3.467887406190471e-25,
            dimension=4, error_order=_CROSSOVER_ERROR["|lambda2|"],
            notes=("at the upper crossover boundary lambda2 = sqrt(eps |log eps|); "
                   "classical-branch prefactor discrepancy 2.232e-01",),
        ),
    ),
    "doublezero-negative-edge": (
        doublezero_time,
        _EDGE_MIN4,
        SaddleSpec(0.5, DoubleZero(-_EDGE_W, 0.25), (2.0,), 1.25),
        RateResult(
            regime_tag="doublezero-negative", eps=0.01, barrier=0.75, saddle_value=0.5,
            prefactor=0.025264270432148343, expected_time=9.431763539578345e30,
            capacity_prefactor=0.02604364248341923, capacity=5.0231671480321476e-24,
            dimension=4, error_order=_CROSSOVER_ERROR["|lambda2|"],
            notes=("at the lower validity edge lambda2 = -sqrt(eps |log eps|); the "
                   "sombrero regime adjoins (compare against sombrero_time)",),
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_window_edge_results_are_pinned(case):
    op, minimum, saddle, expected = EDGE_CASES[case]
    assert op(minimum, saddle, _EDGE_EPS) == expected


def test_crossover_error_order_strings():
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0))
    res = pitchfork_transverse_time(
        minimum, SaddleSpec(0.5, PitchforkTransverse(0.01, 0.5), (), 1.0), 0.01
    )
    assert res.error_order == "(eps |log eps|^3 / max(|lambda2|, sqrt(eps |log eps|)))^(1/2)"
    res = sombrero_time(
        MinimumSpec(value=0.0, eigenvalues=(1.0, 1.0, 1.0)),
        SaddleSpec(0.5, Sombrero(gate_pairs=2, mu2=0.1, mu3=0.2, quartic=0.5), (), 1.0),
        0.01,
    )
    assert "max(mu2" in res.error_order


def test_soft_window_value():
    assert soft_window(0.01) == pytest.approx(math.sqrt(0.01 * math.log(100.0)), rel=1e-14)
    assert soft_window(1.0) == 0.0
    with pytest.raises(ValueError):
        soft_window(0.0)


# ---------------------------------------------------------------------------
# split-saddle geometry


def test_pitchfork_saddles_leading_order():
    s = pitchfork_saddles(-0.2, 0.5)
    assert s.offset == pytest.approx(math.sqrt(0.2 / 2.0))
    assert s.soft_eigenvalue == pytest.approx(0.4)
    assert s.value_shift == pytest.approx(-0.04 / 8.0)
    with pytest.raises(ValueError):
        pitchfork_saddles(0.1, 0.5)


def test_longitudinal_saddles_leading_order():
    s = longitudinal_saddles(0.2, 0.5)
    assert s.offset == pytest.approx(math.sqrt(0.2 / 2.0))
    assert s.soft_eigenvalue == pytest.approx(-0.4)
    assert s.value_shift == pytest.approx(+0.04 / 8.0)
    with pytest.raises(ValueError):
        longitudinal_saddles(-0.1, 0.5)


def test_split_regimes_validate_mu_fields():
    with pytest.raises(ValueError, match="mu2"):
        pitchfork_transverse_time(
            MinimumSpec(0.0, 1.0),
            SaddleSpec(0.5, PitchforkTransverse(-0.1, 0.5), (), 1.0),
            0.01,
        )
    with pytest.raises(ValueError, match="mu2"):
        pitchfork_transverse_time(
            MinimumSpec(0.0, 1.0),
            SaddleSpec(0.5, PitchforkTransverse(0.1, 0.5, mu2=0.2), (), 1.0),
            0.01,
        )
    with pytest.raises(ValueError, match="mu1"):
        pitchfork_longitudinal_time(
            MinimumSpec(0.0, 1.0),
            SaddleSpec(0.5, PitchforkLongitudinal(0.1, 0.5), ()),
            0.01,
        )
    with pytest.raises(ValueError, match="mu1"):
        pitchfork_longitudinal_time(
            MinimumSpec(0.0, 1.0),
            SaddleSpec(0.5, PitchforkLongitudinal(-0.1, 0.5, mu1=-0.2), ()),
            0.01,
        )


# ---------------------------------------------------------------------------
# gate combinatorics and helpers


def test_combine_gates_parallel_and_series():
    saddle = SaddleSpec(0.5, Quadratic(), (2.0,), 1.0)
    minimum = MinimumSpec(value=0.0, hessian_det=2.0)
    single = ek_classical(minimum, saddle, 0.05)
    par = combine_gates(single, 3, arrangement="parallel")
    ser = combine_gates(single, 3, arrangement="series")
    assert par.expected_time == pytest.approx(single.expected_time / 3.0, rel=1e-15)
    assert par.capacity == pytest.approx(single.capacity * 3.0, rel=1e-15)
    assert ser.expected_time == pytest.approx(single.expected_time * 3.0, rel=1e-15)
    assert ser.capacity == pytest.approx(single.capacity / 3.0, rel=1e-15)
    for combined in (par, ser):
        assert duality_gap(combined, minimum) < 1e-12
        assert any("identical gates" in n for n in combined.notes)
    with pytest.raises(ValueError):
        combine_gates(single, 0)
    with pytest.raises(ValueError):
        combine_gates(single, 2, arrangement="diagonal")


def test_relative_discrepancy_behaviour():
    saddle = SaddleSpec(0.5, Quadratic(), (2.0,), 1.0)
    minimum = MinimumSpec(value=0.0, hessian_det=2.0)
    a = ek_classical(minimum, saddle, 0.05)
    assert relative_discrepancy(a, a) == 0.0
    b = combine_gates(a, 2)
    assert relative_discrepancy(a, b) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# spec validation


def test_minimum_spec_validation():
    assert MinimumSpec(value=0.0, eigenvalues=(2.0, 3.0)).det == pytest.approx(6.0)
    with pytest.raises(ValueError):
        MinimumSpec(value=0.0)
    with pytest.raises(ValueError):
        MinimumSpec(value=0.0, hessian_det=-1.0)
    with pytest.raises(ValueError):
        MinimumSpec(value=0.0, eigenvalues=(2.0, -3.0))
    with pytest.raises(ValueError):
        MinimumSpec(value=0.0, hessian_det=5.0, eigenvalues=(2.0, 3.0))


def test_saddle_spec_validation():
    with pytest.raises(ValueError):
        SaddleSpec(0.0, Quadratic(), (2.0, -1.0), 1.0)
    with pytest.raises(ValueError):
        SaddleSpec(0.0, Quadratic(), (2.0,))  # missing |lambda_1|
    with pytest.raises(ValueError):
        SaddleSpec(0.0, FlatUnstable(2, 1.0), (2.0,), 1.0)  # spurious |lambda_1|
    with pytest.raises(ValueError):
        SaddleSpec(0.0, PitchforkLongitudinal(0.0, 1.0), (), 1.0)
    assert SaddleSpec(0.0, Codim2(0.5), (1.0, 2.0), 1.0).dimension == 5


def test_regime_validation():
    for bad in (1, 0, -2, True):
        with pytest.raises(ValueError):
            FlatUnstable(p=bad, coefficient=1.0)
    with pytest.raises(ValueError):
        FlatStable(p=2, coefficient=0.0)
    with pytest.raises(ValueError):
        PitchforkTransverse(lambda2=0.1, quartic=-0.5)
    with pytest.raises(ValueError):
        Sombrero(gate_pairs=1, mu2=0.1, mu3=0.1, quartic=0.5)
    with pytest.raises(ValueError):
        Sombrero(gate_pairs=2, mu2=-0.1, mu3=0.1, quartic=0.5)
    with pytest.raises(ValueError):
        Sombrero(gate_pairs=2, mu2=0.1, mu3=0.0, quartic=0.5)


def test_minimum_dimension_mismatch_is_rejected():
    minimum = MinimumSpec(value=0.0, eigenvalues=(1.0, 2.0))
    saddle = SaddleSpec(0.5, Quadratic(), (2.0, 3.0), 1.0)  # implies d = 3
    with pytest.raises(ValueError, match="dimension"):
        ek_classical(minimum, saddle, 0.1)


def test_operations_reject_wrong_regime():
    minimum = MinimumSpec(value=0.0, hessian_det=1.0)
    saddle = SaddleSpec(0.5, Quadratic(), (), 1.0)
    with pytest.raises(ValueError, match="FlatUnstable"):
        ek_flat_unstable(minimum, saddle, 0.1)
    with pytest.raises(ValueError, match="Sombrero"):
        sombrero_time(minimum, saddle, 0.1)


def test_eps_validation():
    minimum = MinimumSpec(value=0.0, hessian_det=1.0)
    saddle = SaddleSpec(0.5, Quadratic(), (), 1.0)
    for bad in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            ek_classical(minimum, saddle, bad)


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_transverse_rows_and_altitude_drop():
    eps = 0.05
    lam2s = [-0.3, -0.1, 0.0, 0.1, 0.3]
    rows = sweep_transverse(eps, lam2s)
    assert [r["control_parameter"] for r in rows] == lam2s
    assert all(tuple(r) == SWEEP_FIELDS for r in rows)
    # split branch carries the lowered altitude: barrier = -lambda2^2/(16 C4)
    assert rows[0]["barrier"] == pytest.approx(-0.09 / 8.0)
    assert rows[2]["barrier"] == 0.0
    assert rows[0]["regime_tag"] == "pitchfork-transverse-split"
    assert rows[-1]["regime_tag"] == "pitchfork-transverse"


def test_sweep_transverse_interior_minimum_near_negative_sqrt_eps():
    eps = 0.01
    grid = np.linspace(-6.0 * math.sqrt(eps), 6.0 * math.sqrt(eps), 121)
    rows = sweep_transverse(eps, grid)
    prefs = [r["prefactor"] for r in rows]
    i = int(np.argmin(prefs))
    assert 0 < i < len(rows) - 1
    u_star = grid[i] / math.sqrt(eps)
    assert -3.0 < u_star < -1.0 / 3.0


def test_sweep_longitudinal_altitude_rise():
    rows = sweep_longitudinal(0.05, [-0.2, 0.0, 0.2])
    assert rows[0]["barrier"] == 0.0
    assert rows[2]["barrier"] == pytest.approx(+0.04 / 8.0)
    assert rows[2]["regime_tag"] == "pitchfork-longitudinal-split"


def test_sweep_doublezero_rejects_ring_values():
    eps = 0.01
    with pytest.raises(ValueError, match="sombrero"):
        sweep_doublezero(eps, [-(2.0) * soft_window(eps)])


def test_sweep_sombrero_rows():
    rows = sweep_sombrero(0.001, [0.05, 0.2, 0.8])
    assert [r["regime_tag"] for r in rows] == ["sombrero"] * 3
    # default mu2 relation keeps the ring altitude dropping quadratically
    assert rows[0]["barrier"] == pytest.approx(-(0.05**2) / 8.0)
    with pytest.raises(ValueError):
        sweep_sombrero(0.001, [0.0])


def test_sweep_prefactor_positive_and_finite():
    rows = sweep_transverse(0.1, np.linspace(-0.5, 0.5, 21)) + sweep_longitudinal(
        0.1, np.linspace(-0.5, 0.5, 21)
    )
    for r in rows:
        assert math.isfinite(r["prefactor"]) and r["prefactor"] > 0.0
