"""Tests for the Euler--Maruyama first-hitting-time sampler."""

import csv
import dataclasses
import math

import numpy as np
import pytest

from metastable import (
    Ball,
    FlatUnstable,
    FunctionPotential,
    HittingTimeEstimate,
    MinimumSpec,
    PitchforkTransverse,
    PolynomialPotential,
    Quadratic,
    RateResult,
    SaddleSpec,
    SimulationConfig,
    default_dt,
    default_radius,
    double_well_1d,
    ek_classical,
    ek_flat_unstable,
    estimate_json,
    pitchfork_transverse_time,
    simulate_first_hitting,
    validate,
    write_times_csv,
)
from metastable.rates import _error_magnitude
from metastable.sampling import _CHUNK_STEPS, _dist2

WELL = Ball(center=(1.0,), radius=0.2)
SQ2 = math.sqrt(2.0)


def dw_config(**overrides):
    base = dict(
        eps=0.2,
        dt=1e-3,
        max_time=150.0,
        replicas=64,
        seed=0,
        start=(-1.0,),
        target=WELL,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def dw_prediction(eps):
    minimum = MinimumSpec(value=-0.25, eigenvalues=(2.0,))
    saddle = SaddleSpec(
        value=0.0,
        regime=Quadratic(),
        unstable_eigenvalue=1.0,
        stable_eigenvalues=(),
    )
    return ek_classical(minimum, saddle, eps=eps)


# ---------------------------------------------------------------------------
# basic trajectory accounting
# ---------------------------------------------------------------------------


def test_start_inside_target_hits_immediately(dw):
    config = dw_config(start=(1.05,), replicas=17, keep_times=True)
    est = simulate_first_hitting(dw, config)
    assert est.mean == 0.0
    assert est.stderr == 0.0
    assert est.hit_count == 17
    assert est.censored_count == 0
    assert est.ci95 == (0.0, 0.0)
    assert est.times == (0.0,) * 17
    assert est.statuses == ("hit",) * 17


def test_union_of_balls_covering_start_hits_immediately(dw):
    config = dw_config(
        target=(WELL, Ball(center=(-1.0,), radius=0.3)), replicas=5
    )
    est = simulate_first_hitting(dw, config)
    assert est.mean == 0.0
    assert est.hit_count == 5


def test_hit_times_are_step_multiples_and_counts_add_up(dw):
    config = dw_config(eps=0.3, replicas=24, max_time=60.0, keep_times=True)
    est = simulate_first_hitting(dw, config)
    assert est.hit_count + est.censored_count + est.aborted_count == 24
    assert est.hit_count > 0
    for tau, tag in zip(est.times, est.statuses):
        if tag == "hit":
            steps = tau / config.dt
            assert steps == pytest.approx(round(steps), abs=1e-9)
            assert tau > 0.0
        else:
            assert math.isnan(tau)
    lo, hi = est.ci95
    assert lo == pytest.approx(est.mean - 1.96 * est.stderr)
    assert hi == pytest.approx(est.mean + 1.96 * est.stderr)


def test_times_not_retained_by_default(dw):
    est = simulate_first_hitting(dw, dw_config(replicas=4, max_time=5.0))
    assert est.times is None
    assert est.statuses is None


# ---------------------------------------------------------------------------
# determinism and stream layout
# ---------------------------------------------------------------------------


def test_repeat_run_is_bit_identical(dw):
    config = dw_config(eps=0.3, replicas=40, max_time=40.0, keep_times=True)
    first = simulate_first_hitting(dw, config)
    second = simulate_first_hitting(dw, config)
    assert first.mean == second.mean
    assert first.stderr == second.stderr
    assert np.array_equal(first.times, second.times, equal_nan=True)
    assert first.statuses == second.statuses


def test_doubling_replicas_reproduces_the_first_half_exactly(dw):
    small = simulate_first_hitting(
        dw, dw_config(eps=0.3, replicas=20, max_time=40.0, keep_times=True)
    )
    large = simulate_first_hitting(
        dw, dw_config(eps=0.3, replicas=40, max_time=40.0, keep_times=True)
    )
    assert np.array_equal(large.times[:20], small.times, equal_nan=True)
    assert large.statuses[:20] == small.statuses


def rotated_config(**overrides):
    base = dict(
        eps=0.4,
        dt=1e-3,
        max_time=12.0,
        replicas=8,
        seed=5,
        start=(-SQ2, 0.0),
        target=Ball(center=(SQ2, 0.0), radius=0.5),
        keep_times=True,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def hit_steps(est, dt):
    return [None if tag != "hit" else round(tau / dt) for tau, tag in zip(est.times, est.statuses)]


def test_doubling_replicas_reproduces_the_first_half_in_two_dimensions(rotated_flat):
    small = simulate_first_hitting(rotated_flat, rotated_config(replicas=4, max_time=8.0))
    large = simulate_first_hitting(rotated_flat, rotated_config(replicas=8, max_time=8.0))
    assert np.array_equal(large.times[:4], small.times, equal_nan=True)
    assert large.statuses[:4] == small.statuses


# Hit steps round(tau/dt) of small seeded runs, recorded from the original
# per-step re-indexing loop; a rewrite of the loop must reproduce them exactly.
PINNED_DW_STEPS = [1080, 770, 4340, None, 1298, None, 6158, 5954, 3457, 2231]
PINNED_ROTATED2_STEPS = [None, 1963, 4237, 10705, 5391, 8663, 10535, None]


def test_seeded_double_well_run_is_pinned(dw):
    config = dw_config(eps=0.3, max_time=12.0, replicas=10, seed=2024, keep_times=True)
    est = simulate_first_hitting(dw, config)
    assert hit_steps(est, config.dt) == PINNED_DW_STEPS
    assert est.statuses == tuple("censored" if s is None else "hit" for s in PINNED_DW_STEPS)
    hits = [s * config.dt for s in PINNED_DW_STEPS if s is not None]
    assert est.mean == float(np.mean(hits))


def test_seeded_rotated2_run_is_pinned(rotated_flat):
    config = rotated_config()
    est = simulate_first_hitting(rotated_flat, config)
    assert hit_steps(est, config.dt) == PINNED_ROTATED2_STEPS
    assert est.statuses == tuple(
        "censored" if s is None else "hit" for s in PINNED_ROTATED2_STEPS
    )


# Hit steps of a seeded run on a union of two balls (replica 7 enters the ball
# at +1, the other hits the ball at -1), recorded from the loop with the
# (steps, replicas, d) noise layout and the exact blow-up test on every step.
PINNED_UNION_STEPS = [360, 321, 281, 201, None, 159, None, 275, 199, None, None, 662]


def test_seeded_union_target_run_is_pinned(dw):
    config = dw_config(
        eps=0.3,
        max_time=0.8,
        replicas=12,
        seed=31,
        start=(-0.2,),
        target=(WELL, Ball(center=(-1.0,), radius=0.2)),
        keep_times=True,
    )
    est = simulate_first_hitting(dw, config)
    assert hit_steps(est, config.dt) == PINNED_UNION_STEPS
    assert est.statuses == tuple(
        "censored" if s is None else "hit" for s in PINNED_UNION_STEPS
    )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_squared_distance_equals_the_einsum_bit_for_bit(d):
    rng = np.random.default_rng(d)
    pts = rng.normal(size=(5000, d)) * rng.uniform(0.01, 100.0, size=(5000, 1))
    pts[:3] = [[math.inf], [math.nan], [1e200]]
    center = rng.normal(size=d)
    diff = pts - center
    with np.errstate(over="ignore"):  # 1e200 squared
        dist2 = _dist2(pts, center)
    assert np.array_equal(dist2, np.einsum("ij,ij->i", diff, diff), equal_nan=True)


def test_drawing_into_a_row_gives_the_shaped_draw():
    # the sampler draws each replica's chunk into its own row of a
    # (replicas, steps, d) block; the values must be those of a shaped draw
    key = (5 << 64) + 3
    shaped = np.random.Generator(np.random.Philox(key=key))
    into_rows = np.random.Generator(np.random.Philox(key=key))
    for span in (_CHUNK_STEPS, 37):
        block = np.empty((4, span, 2))
        into_rows.standard_normal(out=block[1])
        assert np.array_equal(block[1], shaped.standard_normal((span, 2)))


def replay(model, config, replica):
    """One replica stepped alone from its own stream: (status, hit step or None)."""
    rng = np.random.Generator(np.random.Philox(key=(config.seed << 64) + replica))
    kick = math.sqrt(2.0 * config.eps * config.dt)
    n_steps = round(config.max_time / config.dt)
    x = config.start.copy()
    (ball,) = config.target
    for first in range(0, n_steps, _CHUNK_STEPS):
        span = min(_CHUNK_STEPS, n_steps - first)
        for j, xi in enumerate(rng.standard_normal((span, model.dim))):
            x = x - model.gradient(x) * config.dt + kick * xi
            if np.dot(x - ball.center, x - ball.center) <= ball.radius**2:
                return "hit", first + j + 1
            if np.dot(x, x) > config.confinement_radius**2:
                return "aborted", None
    return "censored", None


def test_mixed_hits_and_aborts_match_replicas_stepped_alone():
    # a well at 0 with runaway tails beyond |x| = 1: replicas reach the target
    # at -0.6 or escape over the barrier at +1 and leave the confinement ball
    leaky = PolynomialPotential([((2,), 0.5), ((4,), -0.25)], dim=1)
    config = SimulationConfig(
        eps=0.4,
        dt=1e-3,
        max_time=10.0,
        replicas=12,
        seed=9,
        start=(0.0,),
        target=Ball(center=(-0.6,), radius=0.1),
        confinement_radius=10.0,
        keep_times=True,
    )
    with pytest.warns(UserWarning, match="confinement radius"):
        est = simulate_first_hitting(leaky, config)
    assert est.hit_count > 0 and est.aborted_count > 0
    assert est.hit_count + est.censored_count + est.aborted_count == 12
    assert est.statuses.count("hit") == est.hit_count
    assert est.statuses.count("aborted") == est.aborted_count
    assert [replay(leaky, config, r) for r in range(12)] == list(
        zip(est.statuses, hit_steps(est, config.dt))
    )
    assert est.mean == float(np.mean([t for t in est.times if not math.isnan(t)]))


# Hit steps of the two-dimensional run below, recorded from the loop with the
# (steps, replicas, d) noise layout and the exact blow-up test on every step.
PINNED_LEAKY2_STEPS = [1436, 1315, None, 87, None, None, None, 165, 1250, None, 1967, 929]


@pytest.mark.parametrize(
    "decoy", [(), (Ball(center=(0.05, 0.0), radius=1e-4),)], ids=["one_ball", "union"]
)
def test_two_dimensional_hits_and_aborts_match_replicas_stepped_alone(decoy):
    # a well at 0 with runaway tails beyond |x| = 1; the target centre lies
    # 0.54 from the origin in a confinement ball of radius 1.4, so a replica
    # only 0.43 from the centre may already be close to leaving the ball.  A
    # decoy ball near the start, put first in a union, moves the centre the
    # lazy blow-up test measures from; no replica enters it.
    leaky = PolynomialPotential([((2, 0), 0.5), ((4, 0), -0.25), ((0, 2), 1.0)], dim=2)
    config = SimulationConfig(
        eps=0.35,
        dt=1e-3,
        max_time=2.5,
        replicas=12,
        seed=4,
        start=(0.0, 0.0),
        target=Ball(center=(-0.5, 0.2), radius=0.1),
        confinement_radius=1.4,
        keep_times=True,
    )
    with pytest.warns(UserWarning, match="confinement radius"):
        est = simulate_first_hitting(
            leaky, dataclasses.replace(config, target=(*decoy, *config.target))
        )
    assert set(est.statuses) == {"hit", "censored", "aborted"}
    assert hit_steps(est, config.dt) == PINNED_LEAKY2_STEPS
    assert [replay(leaky, config, r) for r in range(12)] == list(
        zip(est.statuses, hit_steps(est, config.dt))
    )


def test_different_seeds_give_different_trajectories(dw):
    a = simulate_first_hitting(
        dw, dw_config(eps=0.3, replicas=20, max_time=40.0, seed=1, keep_times=True)
    )
    b = simulate_first_hitting(
        dw, dw_config(eps=0.3, replicas=20, max_time=40.0, seed=2, keep_times=True)
    )
    assert not np.array_equal(a.times, b.times, equal_nan=True)


# ---------------------------------------------------------------------------
# statistical invariants on the 1-D double-well benchmark
# ---------------------------------------------------------------------------


def test_halving_dt_moves_the_mean_by_less_than_one_stderr(dw):
    coarse = simulate_first_hitting(dw, dw_config(replicas=1500))
    fine = simulate_first_hitting(dw, dw_config(replicas=1500, dt=5e-4))
    assert coarse.censored_count == 0
    assert abs(coarse.mean - fine.mean) < coarse.stderr


def test_mean_hitting_time_decreases_with_eps(dw):
    means = [
        simulate_first_hitting(dw, dw_config(eps=eps, replicas=300, seed=7)).mean
        for eps in (0.15, 0.2, 0.3)
    ]
    assert means[0] > means[1] > means[2]


def test_disjoint_seeds_give_overlapping_confidence_intervals(dw):
    a = simulate_first_hitting(dw, dw_config(replicas=400, seed=11))
    b = simulate_first_hitting(dw, dw_config(replicas=400, seed=12))
    assert a.ci95[0] < b.ci95[1]
    assert b.ci95[0] < a.ci95[1]


def test_benchmark_agrees_with_the_closed_form_rate(dw):
    est = simulate_first_hitting(dw, dw_config(replicas=400, seed=11))
    report = validate(est, dw_prediction(0.2))
    assert report.verdict == "pass"
    assert abs(report.ratio - 1.0) <= report.tolerance
    expected_tol = math.sqrt(0.2) * abs(math.log(0.2)) + 2.0 * est.stderr / est.mean
    assert report.tolerance == pytest.approx(expected_tol, rel=1e-12)


# ---------------------------------------------------------------------------
# censoring and blow-up diagnostics
# ---------------------------------------------------------------------------


def test_short_horizon_censors_and_validate_refuses(dw):
    config = dw_config(eps=0.3, max_time=3.0, replicas=40, seed=5)
    est = simulate_first_hitting(dw, config)
    assert est.censored_count > 0
    assert est.hit_count + est.censored_count == 40
    assert est.censored_fraction > 0.10
    with pytest.raises(ValueError, match="censored fraction"):
        validate(est, dw_prediction(0.3))


def test_runaway_model_aborts_replicas_with_a_warning():
    runaway = FunctionPotential(lambda x: -float(x[0]) ** 4 / 4.0, dim=1)
    config = SimulationConfig(
        eps=0.2,
        dt=1e-3,
        max_time=5.0,
        replicas=8,
        seed=3,
        start=(1.0,),
        target=Ball(center=(50.0,), radius=0.1),
        keep_times=True,
    )
    with pytest.warns(UserWarning) as record:
        est = simulate_first_hitting(runaway, config)
    messages = [str(w.message) for w in record]
    assert any("confinement radius" in m for m in messages)
    assert any("no replica hit" in m for m in messages)
    assert est.aborted_count == 8
    assert est.hit_count == 0
    assert set(est.statuses) == {"aborted"}
    assert math.isnan(est.mean)


def test_no_hits_warns_and_reports_nan(dw):
    config = dw_config(eps=0.05, max_time=0.05, replicas=6)
    with pytest.warns(UserWarning, match="no replica hit"):
        est = simulate_first_hitting(dw, config)
    assert est.hit_count == 0
    assert math.isnan(est.mean)
    assert math.isnan(est.stderr)


# ---------------------------------------------------------------------------
# validation report logic
# ---------------------------------------------------------------------------


def synthetic_estimate(mean, *, stderr=0.0, hits=1, censored=0, eps=0.2):
    return HittingTimeEstimate(
        mean=mean,
        stderr=stderr,
        hit_count=hits,
        censored_count=censored,
        ci95=(mean - 1.96 * stderr, mean + 1.96 * stderr),
        eps=eps,
    )


def synthetic_prediction(expected_time, *, eps=0.2, order="eps^(1/2) |log eps|"):
    return RateResult(
        regime_tag="classical",
        eps=eps,
        barrier=0.25,
        saddle_value=0.0,
        prefactor=expected_time / math.exp(0.25 / eps),
        expected_time=expected_time,
        capacity_prefactor=1.0,
        capacity=1.0,
        dimension=1,
        error_order=order,
    )


def test_exact_agreement_scores_ratio_one_z_zero():
    report = validate(synthetic_estimate(10.0), synthetic_prediction(10.0))
    assert report.ratio == 1.0
    assert report.z_score == 0.0
    assert report.verdict == "pass"


def test_large_discrepancy_fails_under_a_tight_tolerance():
    report = validate(
        synthetic_estimate(12.0, stderr=0.01, hits=100),
        synthetic_prediction(10.0),
        tol=0.1,
    )
    assert report.verdict == "fail"
    assert report.ratio == pytest.approx(1.2)
    assert report.tolerance == 0.1
    assert report.z_score == pytest.approx(200.0)


def test_zero_stderr_disagreement_gives_infinite_z():
    report = validate(synthetic_estimate(12.0), synthetic_prediction(10.0))
    assert math.isinf(report.z_score)
    assert report.z_score > 0
    low = validate(synthetic_estimate(8.0), synthetic_prediction(10.0))
    assert low.z_score < 0


def test_eps_mismatch_is_rejected():
    with pytest.raises(ValueError, match="different eps"):
        validate(synthetic_estimate(10.0, eps=0.2), synthetic_prediction(10.0, eps=0.3))


def test_censored_fraction_above_ten_percent_is_refused():
    est = synthetic_estimate(10.0, hits=8, censored=2)
    with pytest.raises(ValueError, match="10%"):
        validate(est, synthetic_prediction(10.0))


def test_default_tolerance_adds_two_stderr_over_mean():
    est = synthetic_estimate(10.0, stderr=0.5, hits=100)
    report = validate(est, synthetic_prediction(10.0))
    base = math.sqrt(0.2) * abs(math.log(0.2))
    assert report.tolerance == pytest.approx(base + 2.0 * 0.5 / 10.0, rel=1e-12)


# ---------------------------------------------------------------------------
# error-order evaluation
# ---------------------------------------------------------------------------


def test_error_magnitude_classical_form():
    eps = 0.01
    assert _error_magnitude("eps^(1/2) |log eps|", eps) == pytest.approx(
        math.sqrt(eps) * abs(math.log(eps)), rel=1e-12
    )


def test_error_magnitude_flat_form_matches_production_string():
    saddle = SaddleSpec(
        value=0.0,
        regime=FlatUnstable(p=3, coefficient=1.0),
        unstable_eigenvalue=None,
        stable_eigenvalues=(1.0,),
    )
    minimum = MinimumSpec(value=-1.0, eigenvalues=(1.0, 1.0))
    pred = ek_flat_unstable(minimum, saddle, eps=0.01)
    value = _error_magnitude(pred.error_order, 0.01)
    L = abs(math.log(0.01))
    assert value == pytest.approx(0.01 ** (1 / 6) * L ** (7 / 6), rel=1e-12)


def test_error_magnitude_crossover_form_uses_the_max_floor():
    minimum = MinimumSpec(value=-1.0, eigenvalues=(1.0, 1.0))
    saddle = SaddleSpec(
        value=0.0,
        regime=PitchforkTransverse(lambda2=0.3, quartic=1.0),
        unstable_eigenvalue=1.0,
        stable_eigenvalues=(),
    )
    pred = pitchfork_transverse_time(minimum, saddle, eps=0.01)
    assert pred.error_order.startswith("(eps |log eps|^3 / max(")
    value = _error_magnitude(pred.error_order, 0.01)
    L = abs(math.log(0.01))
    assert value == pytest.approx(0.01**0.25 * L**1.25, rel=1e-12)


def test_error_magnitude_rejects_unknown_strings():
    with pytest.raises(ValueError, match="cannot evaluate"):
        _error_magnitude("O(1)", 0.01)


# ---------------------------------------------------------------------------
# external formats
# ---------------------------------------------------------------------------


def test_estimate_json_summary_fields(dw):
    est = simulate_first_hitting(dw, dw_config(eps=0.3, replicas=30, max_time=40.0))
    payload = estimate_json(est)
    assert payload["mean"] == est.mean
    assert payload["stderr"] == est.stderr
    assert payload["hits"] == est.hit_count
    assert payload["censored"] == est.censored_count
    assert payload["aborted"] == est.aborted_count
    assert payload["ci95"] == list(est.ci95)
    assert payload["eps"] == 0.3


def test_write_times_csv_round_trip(dw, tmp_path):
    config = dw_config(eps=0.3, replicas=12, max_time=2.0, keep_times=True)
    est = simulate_first_hitting(dw, config)
    path = tmp_path / "times.csv"
    write_times_csv(est, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["replica", "tau", "status"]
    assert len(rows) == 13
    for idx, (replica, tau, status) in enumerate(rows[1:]):
        assert int(replica) == idx
        assert status in {"hit", "censored"}
        if status == "hit":
            assert float(tau) == est.times[idx]
        else:
            assert tau == ""


def test_write_times_csv_requires_kept_times(dw, tmp_path):
    est = simulate_first_hitting(dw, dw_config(start=(1.05,), replicas=3))
    with pytest.raises(ValueError, match="keep_times"):
        write_times_csv(est, tmp_path / "times.csv")


# ---------------------------------------------------------------------------
# configuration validation and defaults
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"eps": 0.0}, "eps"),
        ({"dt": 0.0}, "dt"),
        ({"dt": 200.0}, "dt"),
        ({"replicas": 0}, "replicas"),
        ({"seed": -1}, "seed"),
        ({"seed": 2**64}, "seed"),
        ({"target": ()}, "target"),
        ({"target": Ball(center=(1.0, 0.0), radius=0.2)}, "dimension"),
        ({"confinement_radius": math.nan}, "confinement_radius"),
        ({"confinement_radius": 0.0}, "confinement_radius"),
        ({"confinement_radius": -1.0}, "confinement_radius"),
        ({"confinement_radius": 1e200}, "confinement_radius"),
    ],
)
def test_config_validation(overrides, message):
    with pytest.raises(ValueError, match=message):
        dw_config(**overrides)


def test_start_must_match_the_model_dimension(dw):
    config = SimulationConfig(
        eps=0.2,
        dt=1e-3,
        max_time=1.0,
        replicas=2,
        seed=0,
        start=(0.0, 0.0),
        target=Ball(center=(1.0, 0.0), radius=0.2),
    )
    with pytest.raises(ValueError, match="start dimension"):
        simulate_first_hitting(dw, config)


def test_ball_requires_positive_radius():
    with pytest.raises(ValueError, match="radius"):
        Ball(center=(0.0,), radius=0.0)


@pytest.mark.parametrize("center", [(math.nan,), (math.inf, 0.0)])
def test_ball_requires_a_finite_center(center):
    with pytest.raises(ValueError, match="finite"):
        Ball(center=center, radius=0.2)


def test_single_ball_target_is_normalized_to_a_tuple():
    config = dw_config()
    assert isinstance(config.target, tuple)
    assert config.target[0].radius == 0.2


def test_default_dt_caps_at_one_millistep(dw):
    assert default_dt(dw, 0.2, [(-1.0,), (1.0,)]) == 1e-3


def test_default_dt_shrinks_with_eps(dw):
    dt = default_dt(dw, 0.004, [(-1.0,), (1.0,)])
    assert dt == pytest.approx(0.004 / 40.0, rel=1e-12)


def test_default_radius_scales_with_sqrt_eps():
    assert default_radius(0.04) == pytest.approx(0.6, rel=1e-12)
