"""Quadrature capacity bounds sandwiching the closed-form prefactors.

The Dirichlet form evaluated on an explicit test function gives an upper
bound on the gate capacity; one-dimensional fiber integrals give a lower
bound.  Both are computed on a saddle-adapted box and bracket the
closed-form capacity, tightening as eps -> 0.  Runs the quadratic gate
(gamma = 0.75) and the soft-mode gate (gamma = 0.5) of the rotated
two-particle family.
"""

import warnings

import numpy as np

from metastable import (
    UNIT_MINIMUM,
    FlatStable,
    Quadratic,
    SaddleSpec,
    default_box,
    dirichlet_upper_bound,
    ek_classical,
    ek_flat_stable,
    fiber_lower_bound,
    find_stationary_points,
    rotated_two_particle,
)


def closed_capacity(gamma, saddle_value, eps):
    if gamma == 0.75:
        spec = SaddleSpec(value=saddle_value, regime=Quadratic(),
                          unstable_eigenvalue=1.0, stable_eigenvalues=(0.5,))
        return ek_classical(UNIT_MINIMUM, spec, eps).capacity
    spec = SaddleSpec(value=saddle_value, regime=FlatStable(p=2, coefficient=0.125),
                      unstable_eigenvalue=1.0, stable_eigenvalues=())
    return ek_flat_stable(UNIT_MINIMUM, spec, eps).capacity


def main():
    for gamma in (0.75, 0.5):
        model = rotated_two_particle(gamma)
        saddle = find_stationary_points(model, [np.array([0.01, 0.01])])[0]
        kind = "quadratic gate" if gamma == 0.75 else "soft-mode gate (quartic wall)"
        print(f"\nrotated two-particle family, gamma = {gamma} ({kind})")
        print(f"  {'eps':>5s}  {'lower/closed':>12s}  {'upper/closed':>12s}  {'lower/upper':>11s}")
        for eps in (0.05, 0.02, 0.01):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # box advisories at moderate eps
                box = default_box(model, saddle, eps)
                upper = dirichlet_upper_bound(model, saddle, box).value
                lower = fiber_lower_bound(model, saddle, box).value
            closed = closed_capacity(gamma, saddle.value, eps)
            print(
                f"  {eps:5.2f}  {lower / closed:12.4f}  {upper / closed:12.4f}  "
                f"{lower / upper:11.6f}"
            )
        print("  -> both ratios drift toward 1 as eps shrinks; lower never exceeds upper")


if __name__ == "__main__":
    main()
