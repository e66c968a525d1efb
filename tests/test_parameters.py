"""Every positive real parameter is checked to be finite as well, by name."""

import math
import re

import numpy as np
import pytest

from metastable import (
    Ball,
    BoxSpec,
    Codim2,
    DoubleZero,
    FlatStable,
    FlatUnstable,
    MinimumSpec,
    PitchforkLongitudinal,
    PitchforkTransverse,
    Quadratic,
    SaddleSpec,
    SimulationConfig,
    Sombrero,
    StationaryPoint,
    UNIT_MINIMUM,
    capacity_1d_exact,
    closed_rate,
    default_box,
    default_dt,
    default_radius,
    double_well_1d,
    find_stationary_points,
    longitudinal_saddles,
    pitchfork_saddles,
    reduced_capacity,
    soft_window,
)

DW = double_well_1d()
DW_SADDLE = StationaryPoint.at(DW, np.zeros(1))
BOX = BoxSpec(delta1=0.5, eps=0.1, delta2=0.5)
SADDLE = SaddleSpec(0.25, Quadratic(), (), 1.0)


def _config(**overrides):
    base = dict(eps=0.2, dt=1e-3, max_time=1.0, replicas=2, seed=0, start=(-1.0,), target=Ball((1.0,), 0.2))
    return SimulationConfig(**{**base, **overrides})


def _reduced(lambdas=(1.0,), eps=0.1):
    return reduced_capacity(lambda t: t * t, lambda t: t * t, lambdas, eps, BOX)


# (call with the value under test, the parameter its message must name)
CASES = {
    "FlatUnstable.coefficient": (lambda v: FlatUnstable(2, v), "coefficient"),
    "FlatStable.coefficient": (lambda v: FlatStable(2, v), "coefficient"),
    "Codim2.angular": (lambda v: Codim2(angular=v), "angular"),
    "PitchforkTransverse.quartic": (lambda v: PitchforkTransverse(0.1, v), "quartic"),
    "PitchforkTransverse.mu2": (lambda v: PitchforkTransverse(-0.1, 0.5, mu2=v), "mu2"),
    "PitchforkLongitudinal.quartic": (lambda v: PitchforkLongitudinal(0.1, v), "quartic"),
    "DoubleZero.angular": (lambda v: DoubleZero(0.1, v), "angular"),
    "Sombrero.mu2": (lambda v: Sombrero(3, mu2=v, mu3=1.0, quartic=0.5), "mu2"),
    "Sombrero.mu3": (lambda v: Sombrero(3, mu2=0.5, mu3=v, quartic=0.5), "mu3"),
    "Sombrero.quartic": (lambda v: Sombrero(3, mu2=0.5, mu3=1.0, quartic=v), "quartic"),
    "MinimumSpec.hessian_det": (lambda v: MinimumSpec(0.0, hessian_det=v), "hessian_det"),
    "MinimumSpec.eigenvalues": (lambda v: MinimumSpec(0.0, eigenvalues=(1.0, v)), "eigenvalues"),
    "SaddleSpec.stable_eigenvalues": (lambda v: SaddleSpec(0.0, Quadratic(), (v,), 1.0), "stable_eigenvalues"),
    "SaddleSpec.unstable_eigenvalue": (lambda v: SaddleSpec(0.0, Quadratic(), (), v), "unstable_eigenvalue"),
    "pitchfork_saddles.quartic": (lambda v: pitchfork_saddles(-0.1, v), "quartic"),
    "longitudinal_saddles.quartic": (lambda v: longitudinal_saddles(0.1, v), "quartic"),
    "closed_rate.eps": (lambda v: closed_rate(UNIT_MINIMUM, SADDLE, v), "eps"),
    "soft_window.eps": (soft_window, "eps"),
    "BoxSpec.delta1": (lambda v: BoxSpec(delta1=v, eps=0.1), "delta1"),
    "BoxSpec.delta2": (lambda v: BoxSpec(delta1=0.5, eps=0.1, delta2=v), "delta2"),
    "BoxSpec.deltaj": (lambda v: BoxSpec(delta1=0.5, eps=0.1, deltaj=(0.5, v)), "deltaj"),
    "BoxSpec.eps": (lambda v: BoxSpec(delta1=0.5, eps=v), "eps"),
    "default_box.eps": (lambda v: default_box(DW, DW_SADDLE, v), "eps"),
    "default_box.scale": (lambda v: default_box(DW, DW_SADDLE, 0.1, scale=v), "scale"),
    "reduced_capacity.eps": (lambda v: _reduced(eps=v), "eps"),
    "reduced_capacity.lambdas": (lambda v: _reduced(lambdas=(1.0, v)), "lambdas"),
    "capacity_1d_exact.eps": (lambda v: capacity_1d_exact(lambda t: -t * t, -0.5, 0.5, v), "eps"),
    "Ball.radius": (lambda v: Ball((0.0,), v), "radius"),
    "SimulationConfig.eps": (lambda v: _config(eps=v), "eps"),
    "SimulationConfig.dt": (lambda v: _config(dt=v), "dt"),
    "SimulationConfig.max_time": (lambda v: _config(max_time=v), "max_time"),
    "default_radius.eps": (default_radius, "eps"),
    "default_dt.eps": (lambda v: default_dt(DW, v, [(-1.0,), (1.0,)]), "eps"),
    "find_stationary_points.tol": (lambda v: find_stationary_points(DW, [(0.1,)], tol=v), "tol"),
}


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0], ids=["inf", "nan", "zero"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_positive_parameters_must_be_finite(case, value, recwarn):
    call, name = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a finite positive real number"):
        call(value)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

