"""Transition times and capacities for gradient diffusions with degenerate saddles.

The package computes sharp mean-transition-time prefactors for the diffusion
``dx = -grad V(x) dt + sqrt(2 eps) dW`` across quadratic and degenerate
saddles, classifies the saddles, and cross-checks every closed form by
independent capacity quadrature and Monte Carlo first-passage sampling.
"""

from .potentials import (
    ChainPotential,
    FunctionPotential,
    PolynomialPotential,
    PotentialModel,
    TWO_PARTICLE_CRITICAL_COUPLING,
    chain_potential,
    critical_coupling,
    double_well_1d,
    fourier_eigenvalues,
    load_potential,
    rotated_two_particle,
    uniform_minimum_spectrum,
)
from .crossover import (
    CrossoverEval,
    chi,
    psi_minus,
    psi_plus,
    theta_minus,
    theta_plus,
)
from .landscape import (
    GateResult,
    GridSpec2D,
    NormalFormCodim1,
    NormalFormCodim2,
    SaddleClass,
    SaddleTag,
    StationaryPoint,
    Verdict,
    classification_report,
    classify,
    codim1_coefficients,
    codim2_form,
    communication_height_2d,
    find_stationary_points,
    saddle_spec,
)
from .rates import (
    Codim2,
    DoubleZero,
    FlatStable,
    FlatUnstable,
    MinimumSpec,
    PitchforkLongitudinal,
    PitchforkTransverse,
    Quadratic,
    RateResult,
    SWEEP_FIELDS,
    SaddleSpec,
    Sombrero,
    SplitSaddles,
    UNIT_MINIMUM,
    closed_rate,
    combine_gates,
    doublezero_time,
    ek_classical,
    ek_codim2,
    ek_flat_stable,
    ek_flat_unstable,
    higher_codim_capacity_order,
    longitudinal_saddles,
    pitchfork_saddles,
    pitchfork_longitudinal_time,
    pitchfork_transverse_time,
    relative_discrepancy,
    soft_window,
    sombrero_time,
    sweep_doublezero,
    sweep_longitudinal,
    sweep_sombrero,
    sweep_transverse,
)
from .capacity import (
    BoxSpec,
    CapacityEstimate,
    capacity_1d_exact,
    default_box,
    dirichlet_upper_bound,
    fiber_lower_bound,
    reduced_capacity,
)
from .sampling import (
    Ball,
    HittingTimeEstimate,
    SimulationConfig,
    ValidationReport,
    default_dt,
    default_radius,
    estimate_json,
    simulate_first_hitting,
    validate,
    validation_json,
    write_times_csv,
)

__version__ = "0.1.0"
