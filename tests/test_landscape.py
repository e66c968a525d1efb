"""Tests for stationary-point search, classification, and the 2-D gate oracle."""

import json
import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from metastable import (
    GridSpec2D,
    MinimumSpec,
    NormalFormCodim1,
    PotentialModel,
    NormalFormCodim2,
    PitchforkTransverse,
    PolynomialPotential,
    SaddleClass,
    SaddleTag,
    StationaryPoint,
    Verdict,
    chain_potential,
    classification_report,
    classify,
    closed_rate,
    codim1_coefficients,
    codim2_form,
    communication_height_2d,
    critical_coupling,
    default_box,
    double_well_1d,
    find_stationary_points,
    rotated_two_particle,
    saddle_spec,
)
from metastable import landscape


def poly(dim, *terms):
    return PolynomialPotential([(tuple(e), c) for e, c in terms], dim=dim)


# ---------------------------------------------------------------------------
# stationary points


def test_stationary_point_record_at_double_well_minimum(dw):
    pt = StationaryPoint.at(dw, [1.0])
    assert pt.value == pytest.approx(-0.25)
    assert pt.gradient_norm < 1e-14
    assert np.allclose(pt.eigenvalues, [2.0])
    assert pt.zero_indices == ()


def test_find_stationary_points_double_well(dw):
    pts = find_stationary_points(dw, [[-2.0], [-0.7], [0.1], [0.6], [1.9]])
    assert len(pts) == 3
    values = [p.value for p in pts]
    assert values == sorted(values)
    assert values[0] == pytest.approx(-0.25) and values[1] == pytest.approx(-0.25)
    assert values[2] == pytest.approx(0.0, abs=1e-12)
    locs = sorted(float(p.location[0]) for p in pts)
    assert locs == pytest.approx([-1.0, 0.0, 1.0], abs=1e-8)


def test_find_stationary_points_merges_duplicates(dw):
    pts = find_stationary_points(dw, [[0.9], [1.1], [1.0], [0.99999]])
    assert len(pts) == 1
    assert pts[0].location[0] == pytest.approx(1.0)


def test_find_stationary_points_rejects_bad_seeds(dw):
    with pytest.raises(ValueError):
        find_stationary_points(dw, [[np.nan]])
    with pytest.raises(ValueError):
        find_stationary_points(dw, [[0.5]], tol=0.0)


def test_eigenvectors_are_orthonormal_columns(chain3_critical):
    pt = StationaryPoint.at(chain3_critical, np.zeros(3))
    Q = pt.eigenvectors
    assert np.allclose(Q.T @ Q, np.eye(3), atol=1e-12)
    H = chain3_critical.hessian(np.zeros(3))
    assert np.allclose(H @ Q, Q * pt.eigenvalues, atol=1e-12)


# ---------------------------------------------------------------------------
# classification tree (synthetic battery, exact polynomial derivatives)


def classify_at(model, x=None, **kw):
    x = np.zeros(model.dim) if x is None else np.asarray(x, dtype=float)
    return classify(model, StationaryPoint.at(model, x), **kw)


def test_classify_local_minimum():
    sc = classify_at(poly(2, ((2, 0), 1.0), ((0, 2), 2.0)))
    assert sc.tag is SaddleTag.LOCAL_MINIMUM and sc.verdict is Verdict.NOT_SADDLE


def test_classify_nondegenerate_saddle():
    sc = classify_at(poly(2, ((2, 0), -0.5), ((0, 2), 0.5)))
    assert sc.tag is SaddleTag.NONDEGENERATE_SADDLE and sc.verdict is Verdict.SADDLE


def test_classify_multiple_negative():
    sc = classify_at(poly(2, ((2, 0), -1.0), ((0, 2), -1.0), ((4, 0), 1.0), ((0, 4), 1.0)))
    assert sc.tag is SaddleTag.MULTIPLE_NEGATIVE and sc.verdict is Verdict.NOT_SADDLE


def test_classify_codim1_quartic_saddle():
    # one unstable direction, soft direction confined quartically
    sc = classify_at(poly(2, ((2, 0), -0.5), ((0, 4), 0.25)))
    assert sc.tag is SaddleTag.CODIM1 and sc.verdict is Verdict.SADDLE
    assert sc.detail.C3 == pytest.approx(0.0, abs=1e-12)
    assert sc.detail.C4 == pytest.approx(0.25)
    assert sc.detail.lambda2 == pytest.approx(-1.0)


def test_classify_codim1_cubic_not_saddle():
    sc = classify_at(poly(2, ((2, 0), -0.5), ((0, 3), 1.0)))
    assert sc.tag is SaddleTag.CODIM1 and sc.verdict is Verdict.NOT_SADDLE
    assert sc.detail.C3 == pytest.approx(1.0)


def test_classify_codim1_soft_unstable_direction():
    # no negative eigenvalue; the soft direction itself goes down quartically
    sc = classify_at(poly(2, ((4, 0), -0.25), ((0, 2), 0.5)))
    assert sc.tag is SaddleTag.CODIM1 and sc.verdict is Verdict.SADDLE
    assert sc.detail.C4 == pytest.approx(-0.25)


def test_classify_codim1_under_a_custom_zero_tol():
    # eigenvalues -1 and 0.04: soft only under zero_tol = 0.1, not under the
    # default tolerance, so classify must follow the point's own flags
    model = rotated_two_particle(0.52)
    assert StationaryPoint.at(model, [0, 0]).zero_indices == ()
    point = StationaryPoint.at(model, [0, 0], zero_tol=0.1)
    assert point.zero_indices == (1,)
    sc = classify(model, point)
    assert sc.tag is SaddleTag.CODIM1
    assert sc.detail.soft_index == 1


def test_soft_flags_set_at_build_time_reach_spec_box_and_rate():
    # eigenvalues -1 and 8e-4: soft under zero_tol = 1e-3 only; the spec, the
    # capacity box and the closed-form rate all read the point's flags
    model = rotated_two_particle(0.5004)
    (saddle,) = find_stationary_points(model, [[0.0, 0.0]], zero_tol=1e-3)
    assert saddle.zero_indices == (1,)
    spec, sc = saddle_spec(model, saddle)
    assert sc.tag is SaddleTag.CODIM1 and sc.verdict is Verdict.SADDLE
    assert isinstance(spec.regime, PitchforkTransverse) and spec.dimension == 2
    assert spec.regime.lambda2 == pytest.approx(8e-4)
    assert spec.regime.quartic == pytest.approx(0.125)
    box = default_box(model, saddle, 0.05)
    assert box.delta2 is not None and box.deltaj == ()
    (minimum,) = find_stationary_points(model, [[1.4, 0.1]])
    result = closed_rate(MinimumSpec(minimum.value, eigenvalues=minimum.eigenvalues), spec, 0.05)
    assert result.dimension == 2
    assert math.isfinite(result.prefactor) and math.isfinite(result.expected_time)


def test_classify_codim1_degenerate_probe_higher():
    model = poly(2, ((2, 0), -0.5), ((0, 6), 1.0))
    sc = classify_at(model)
    assert sc.tag is SaddleTag.CODIM1 and sc.verdict is Verdict.UNDETERMINED
    assert sc.notes
    sc = classify_at(model, probe_higher=True)
    assert sc.verdict is Verdict.SADDLE
    order, coeff = sc.detail.higher
    assert order == 6 and coeff == pytest.approx(1.0, rel=1e-3)


def test_codim1_coefficient_correction_from_transverse_coupling():
    # V = y^2/2 + x^2 y + x^4: eliminating y gives V_eff = (1 - 1/2) x^4
    model = poly(2, ((0, 2), 0.5), ((2, 1), 1.0), ((4, 0), 1.0))
    pt = StationaryPoint.at(model, np.zeros(2))
    nf = codim1_coefficients(model, pt)
    assert isinstance(nf, NormalFormCodim1)
    assert nf.C3 == pytest.approx(0.0, abs=1e-12)
    assert nf.C4 == pytest.approx(0.5)
    assert nf.lambda2 == pytest.approx(1.0)


def test_codim1_coefficients_requires_one_zero(dw):
    pt = StationaryPoint.at(dw, [1.0])
    with pytest.raises(ValueError):
        codim1_coefficients(dw, pt)


def test_classify_codim2_definite_quartic_saddle():
    # (x^2+y^2)^2/4 on the null plane, one stiff negative direction
    model = poly(
        3, ((0, 0, 2), -0.5), ((4, 0, 0), 0.25), ((2, 2, 0), 0.5), ((0, 4, 0), 0.25)
    )
    sc = classify_at(model)
    assert sc.tag is SaddleTag.CODIM2 and sc.verdict is Verdict.SADDLE
    nf = sc.detail
    assert nf.real_root_count == 0 and nf.positive_definite
    assert nf.K_minus == pytest.approx(0.25, rel=1e-9)
    assert nf.K_plus == pytest.approx(0.25, rel=1e-9)


def test_classify_codim2_sign_changing_quartic():
    # quartic form x^4/4 - y^4/4 changes sign on the null plane
    stiff_neg = poly(3, ((0, 0, 2), -0.5), ((4, 0, 0), 0.25), ((0, 4, 0), -0.25))
    sc = classify_at(stiff_neg)
    assert sc.tag is SaddleTag.CODIM2 and sc.verdict is Verdict.NOT_SADDLE

    stiff_pos = poly(3, ((0, 0, 2), 0.5), ((4, 0, 0), 0.25), ((0, 4, 0), -0.25))
    sc = classify_at(stiff_pos)
    assert sc.tag is SaddleTag.CODIM2 and sc.verdict is Verdict.SADDLE


def test_classify_higher_codim_reports_sign_pattern():
    model = poly(3, ((4, 0, 0), 0.25), ((0, 4, 0), 0.25), ((0, 0, 4), 0.25))
    sc = classify_at(model)
    assert sc.tag is SaddleTag.HIGHER_CODIM and sc.verdict is Verdict.UNDETERMINED
    assert sc.detail == {"order": 4, "sign_pattern": "positive"}


def test_chain_critical_origin_is_codim2_saddle(chain3_critical):
    pt = StationaryPoint.at(chain3_critical, np.zeros(3))
    assert np.allclose(pt.eigenvalues, [-1.0, 0.0, 0.0], atol=1e-12)
    sc = classify(chain3_critical, pt)
    assert sc.tag is SaddleTag.CODIM2 and sc.verdict is Verdict.SADDLE


# ---------------------------------------------------------------------------
# codim-2 normal form


def test_codim2_form_chain3_constant_angular_form(chain3_critical):
    pt = StationaryPoint.at(chain3_critical, np.zeros(3))
    nf = codim2_form(chain3_critical, pt)
    assert isinstance(nf, NormalFormCodim2)
    assert nf.K_minus == pytest.approx(0.125, rel=1e-9)
    assert nf.K_plus == pytest.approx(0.125, rel=1e-9)
    phis = np.linspace(0.0, 2.0 * math.pi, 37)
    assert np.allclose(nf.k_phi(phis), 0.125, atol=1e-9)


def test_codim2_form_chain4_angular_extrema():
    model = chain_potential(4, critical_coupling(4))
    pt = StationaryPoint.at(model, np.zeros(4))
    nf = codim2_form(model, pt)
    assert nf.K_minus == pytest.approx(0.0625, rel=1e-8)
    assert nf.K_plus == pytest.approx(0.125, rel=1e-8)
    # K± really are the angular extrema of k(phi)
    vals = nf.k_phi(np.linspace(0.0, 2.0 * math.pi, 2048))
    assert vals.min() >= nf.K_minus - 1e-9
    assert vals.max() <= nf.K_plus + 1e-9


def test_codim2_form_rejects_cubic_null_terms():
    model = poly(3, ((0, 0, 2), -0.5), ((3, 0, 0), 1.0), ((4, 0, 0), 0.25))
    pt = StationaryPoint.at(model, np.zeros(3))
    with pytest.raises(ValueError, match="cubic"):
        codim2_form(model, pt)


def test_codim2_form_requires_two_zeros(dw):
    pt = StationaryPoint.at(dw, [0.0])
    with pytest.raises(ValueError):
        codim2_form(dw, pt)


def test_classification_report_is_json_ready(chain3_critical):
    pt = StationaryPoint.at(chain3_critical, np.zeros(3))
    sc = classify(chain3_critical, pt)
    doc = classification_report(pt, sc)
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["tag"] == "Codim2" and back["verdict"] == "Saddle"
    assert back["coefficients"]["Kminus"] == pytest.approx(0.125, rel=1e-9)

    sc1 = classify_at(poly(2, ((2, 0), -0.5), ((0, 4), 0.25)))
    doc1 = classification_report(
        StationaryPoint.at(poly(2, ((2, 0), -0.5), ((0, 4), 0.25)), np.zeros(2)), sc1
    )
    assert doc1["coefficients"]["C4"] == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# 2-D communication height


def test_communication_height_symmetric_double_well(rotated_quadratic):
    a, b = [-math.sqrt(2.0), 0.0], [math.sqrt(2.0), 0.0]
    grid = {"bounds": [(-2.2, 2.2), (-1.5, 1.5)], "shape": (161, 161)}
    res = communication_height_2d(rotated_quadratic, a, b, grid)
    # true gate is the origin at height 0
    assert abs(res.communication_height) <= res.grid_tolerance
    gate = min(res.gate_cells, key=np.linalg.norm)
    assert np.linalg.norm(gate) < 0.1
    path = res.path_witness
    assert np.allclose(path[0], [-math.sqrt(2.0), 0.0], atol=0.05)
    assert np.allclose(path[-1], [math.sqrt(2.0), 0.0], atol=0.05)
    assert not res.warnings


def test_communication_height_error_shrinks_under_refinement(rotated_quadratic):
    a, b = [-math.sqrt(2.0), 0.0], [math.sqrt(2.0), 0.0]
    errs = []
    for n in (41, 81, 161):
        grid = {"bounds": [(-2.2, 2.2), (-1.5, 1.5)], "shape": (n, n)}
        res = communication_height_2d(rotated_quadratic, a, b, grid)
        errs.append(abs(res.communication_height - 0.0))
    assert errs[0] >= errs[1] >= errs[2]


def test_communication_height_same_cell(rotated_quadratic):
    res = communication_height_2d(
        rotated_quadratic,
        [1.0, 0.0],
        [1.0, 0.0],
        {"bounds": [(0.0, 2.0), (-1.0, 1.0)], "shape": (65, 65)},
    )
    assert res.communication_height == pytest.approx(
        rotated_quadratic.value(np.array([1.0, 0.0]))
    )
    assert res.path_witness.shape == (1, 2)


def test_communication_height_boundary_warning(rotated_quadratic):
    # the box clips the left well, so the sublevel set leaks through the edge
    res = communication_height_2d(
        rotated_quadratic,
        [-0.4, 0.0],
        [math.sqrt(2.0), 0.0],
        {"bounds": [(-0.5, 2.0), (-0.5, 0.5)], "shape": (101, 101)},
    )
    assert any("boundary" in w for w in res.warnings)


def test_communication_height_input_validation(rotated_quadratic, dw):
    grid = {"bounds": [(-1.0, 1.0), (-1.0, 1.0)], "shape": (33, 33)}
    with pytest.raises(ValueError, match="outside"):
        communication_height_2d(rotated_quadratic, [5.0, 0.0], [0.0, 0.0], grid)
    with pytest.raises(ValueError, match="d = 2"):
        communication_height_2d(dw, [0.0], [1.0], grid)
    with pytest.raises(TypeError):
        communication_height_2d(rotated_quadratic, [0, 0], [1, 0], "not-a-grid")


# Full results on a 129^2 grid, recorded on the union-find sweep the current
# search replaced.  Grid coordinates are -2.5 + k * 5/128, exact in binary, so
# cells are pinned by index: gates all lie at x index 64 (x = 0) and the
# witness runs over x indices 28..100 with the y indices listed.  At
# gamma = 0.45 the two saddles tie; the first in stable order (y < 0) wins.
PINNED_GATES = {
    0.45: (-0.004970475565642117, 0.000551354606704546, [51, 52, 53, 54, 74, 75, 76, 77],
           [64, 63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48, 47, 46,
            46, 46, 46, 46, 46, 46, 46, 46, 46, 46, 47, 47, 48, 49, 50, 51, 52, 53, 52,
            51, 50, 49, 48, 47, 47, 46, 46, 46, 46, 46, 46, 46, 46, 46, 46, 46, 47, 48,
            49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64]),
    0.5: (0.0, 0.0007626484158204327, list(range(57, 72)),
          [64, 63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48, 47, 46,
           47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 63,
           62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48, 47, 46, 47, 48,
           49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64]),
    0.6: (0.0, 0.0007626484158204327, [62, 63, 64, 65, 66],
          [64, 63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48, 48, 48,
           48, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 63,
           62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48, 48, 48, 48, 48,
           49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63, 64]),
}


@pytest.mark.parametrize("gamma", sorted(PINNED_GATES))
def test_communication_height_pinned_results(gamma):
    height, tol, gate_j, path_j = PINNED_GATES[gamma]
    res = communication_height_2d(
        rotated_two_particle(gamma),
        [-math.sqrt(2.0), 0.0],
        [math.sqrt(2.0), 0.0],
        {"bounds": [(-2.5, 2.5), (-2.5, 2.5)], "shape": (129, 129)},
    )
    xs = np.linspace(-2.5, 2.5, 129)
    assert res.communication_height == height
    assert res.grid_tolerance == tol
    assert res.warnings == []
    assert len(res.gate_cells) == len(gate_j)
    for cell, j in zip(res.gate_cells, gate_j):
        assert np.array_equal(cell, [xs[64], xs[j]])
    assert np.array_equal(res.path_witness, np.column_stack([xs[28:101], xs[path_j]]))


class _Table(PotentialModel):
    """A table of values at the integer points of [0, nx-1] x [0, ny-1]."""

    def __init__(self, table):
        super().__init__(2)
        self.table = table

    def value_many(self, pts):
        i, j = np.rint(np.asarray(pts)).astype(int).T
        return self.table[i, j]


def _sweep_oracle(V, ja, jb):
    """The union-find sweep, witness BFS and per-cell gate loop, written out
    cell by cell: (height, tolerance, gate cells, path, boundary warning),
    cells as grid indices."""
    nx, ny = V.shape
    nbrs = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    inside = lambda i, j: 0 <= i < nx and 0 <= j < ny
    if ja == jb:
        return float(V[ja]), 0.0, [ja], [ja], False
    parent = list(range(nx * ny))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    active = np.zeros(nx * ny, dtype=bool)
    na, nb = ja[0] * ny + ja[1], jb[0] * ny + jb[1]
    for flat in np.argsort(V, axis=None, kind="stable"):
        i, j = divmod(int(flat), ny)
        active[flat] = True
        for di, dj in nbrs:
            if inside(i + di, j + dj) and active[(i + di) * ny + j + dj]:
                parent[find((i + di) * ny + j + dj)] = find(int(flat))
        if active[na] and active[nb] and find(na) == find(nb):
            break
    height, (ti, tj) = float(V[i, j]), (i, j)
    local = [abs(V[ti + di, tj + dj] - V[ti, tj]) for di, dj in nbrs if inside(ti + di, tj + dj)]
    tol = max(local) + 1e-12 * max(1.0, abs(height))

    prev, queue = {ja: None}, deque([ja])
    while jb not in prev:
        i, j = queue.popleft()
        for di, dj in nbrs:
            c = (i + di, j + dj)
            if inside(*c) and V[c] <= height and c not in prev:
                prev[c] = (i, j)
                queue.append(c)
    path, c = [], jb
    while c is not None:
        path.append(c)
        c = prev[c]

    strict = V < height - 1e-12 * max(1.0, abs(height))
    comp = -np.ones(V.shape, dtype=int)  # flood-fill labels of the strict set
    for start in zip(*np.nonzero(strict)):
        if comp[start] >= 0:
            continue
        comp[start], stack = start[0] * ny + start[1], [start]
        while stack:
            i, j = stack.pop()
            for di, dj in nbrs:
                c = (i + di, j + dj)
                if inside(*c) and strict[c] and comp[c] < 0:
                    comp[c] = comp[start]
                    stack.append(c)
    gates = []
    if strict[ja] and strict[jb]:
        for i, j in zip(*np.nonzero(np.abs(V - height) <= tol)):
            touches = {comp[i + di, j + dj] for di, dj in nbrs if inside(i + di, j + dj)}
            if comp[ja] in touches and comp[jb] in touches:
                gates.append((i, j))
    rim = min(V[0, :].min(), V[-1, :].min(), V[:, 0].min(), V[:, -1].min())
    return height, float(tol), gates or [(ti, tj)], path[::-1], height >= rim


@settings(max_examples=150, deadline=None)
@given(
    table=hnp.arrays(np.int8, st.tuples(st.integers(1, 33), st.integers(2, 33)), elements=st.integers(0, 4)),
    ends=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
)
def test_communication_height_matches_a_union_find_sweep(table, ends):
    # values on a coarse lattice force ties between cells and plateaus
    V = table * 0.375 - 0.5
    nx, ny = V.shape
    ja = (int(ends[0] * (nx - 1)), int(ends[1] * (ny - 1)))
    jb = (int(ends[2] * (nx - 1)), int(ends[3] * (ny - 1)))
    res = communication_height_2d(
        _Table(V), ja, jb, {"bounds": [(0, nx - 1), (0, ny - 1)], "shape": (nx, ny)}
    )
    height, tol, gates, path, warns = _sweep_oracle(V, ja, jb)
    assert res.communication_height == height
    assert res.grid_tolerance == tol
    assert [tuple(c) for c in res.gate_cells] == gates
    assert [tuple(c) for c in res.path_witness] == path
    assert len(res.warnings) == warns


def _table_result(V, ja, jb):
    nx, ny = V.shape
    res = communication_height_2d(
        _Table(V), ja, jb, {"bounds": [(0, nx - 1), (0, ny - 1)], "shape": (nx, ny)}
    )
    cells = lambda arr: [tuple(int(v) for v in c) for c in arr]
    gates, path = cells(res.gate_cells), cells(res.path_witness)
    return res.communication_height, res.grid_tolerance, gates, path, len(res.warnings)


def _basins(nx, ny, seed):
    """Six Gaussian wells rounded to steps of 1/8: several basins, plateaus
    and cells tied at every level."""
    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    V = np.zeros((nx, ny))
    for _ in range(6):
        ci, cj, w = rng.uniform(0, nx), rng.uniform(0, ny), rng.uniform(0.06, 0.15) * nx
        V -= rng.uniform(1.0, 3.0) * np.exp(-((i - ci) ** 2 + (j - cj) ** 2) / (2 * w * w))
    return np.round(8.0 * V) / 8.0


def _deepest(V, rows):
    k = np.argmin(V[rows])
    return (rows.start + k // V.shape[1], k % V.shape[1])


@pytest.mark.parametrize("n, seed", [(65, 1), (97, 2), (129, 3), (129, 4)])
def test_narrowed_search_matches_the_sweep_on_basins_and_plateaus(monkeypatch, n, seed):
    V = _basins(n, n, seed)
    ja, jb = _deepest(V, slice(0, n // 2)), _deepest(V, slice(n // 2, n))
    shapes = []
    label8 = landscape._label8
    monkeypatch.setattr(landscape, "_label8", lambda m: shapes.append(m.shape) or label8(m))
    got = _table_result(V, ja, jb)
    assert got == _sweep_oracle(V, ja, jb)
    # the probes after the first connecting one label less than the grid
    assert min(a * b for a, b in shapes) < n * n

    # an endpoint at the gate level touches no strict component: the
    # trigger cell is the only gate cell
    gate = got[2][0]
    fallback = _table_result(V, ja, gate)
    assert fallback == _sweep_oracle(V, ja, gate)
    assert fallback[0] == V[gate] and len(fallback[2]) == 1


@pytest.mark.parametrize("n, edge", [(65, "top"), (97, "bottom"), (129, "left"), (80, "right")])
def test_narrowed_search_matches_the_sweep_through_a_pass_on_the_box_edge(n, edge):
    # two bumpy basins under a high plateau, joined only by a pass on the
    # grid's top edge: the endpoints' component meets that edge, and the cells
    # one row below its box are gate cells too.  The other edges are the same
    # landscape turned.
    top = np.full((n, n), 3.0)
    c = n // 2
    top[:10, c - 8 : c + 9] = _basins(10, 17, n)
    top[:, c] = 3.0
    top[0, c] = 0.5
    turn = {
        "top": lambda i, j: (i, j),
        "bottom": lambda i, j: (n - 1 - i, j),
        "left": lambda i, j: (j, i),
        "right": lambda i, j: (j, n - 1 - i),
    }[edge]
    V = np.empty_like(top)
    V[turn(*np.indices(top.shape))] = top
    ja, jb = turn(5, c - 4), turn(5, c + 4)
    got = _table_result(V, ja, jb)
    assert got == _sweep_oracle(V, ja, jb)
    assert got[0] == 0.5
    assert turn(0, c) in got[2] and turn(10, c) in got[2]


@pytest.mark.parametrize("bad, count", [(np.nan, 1), (np.inf, 0), (-np.inf, 0)])
def test_communication_height_rejects_nan_cells_only(bad, count):
    # a wall at row 4 with a gap at column 2; the odd cell sits far from it
    V = np.zeros((9, 9))
    V[4, :] = 1.0
    V[4, 2] = 0.5
    V[8, 8] = bad
    ja, jb = (1, 1), (7, 1)
    if count:
        with pytest.raises(ValueError, match="NaN at 1 of 81 grid cells"):
            _table_result(V, ja, jb)
    else:
        got = _table_result(V, ja, jb)
        assert got == _sweep_oracle(V, ja, jb)
        assert got[0] == 0.5


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_communication_height_rejects_a_polynomial_that_overflows_to_nan():
    # x^4 and y^4 overflow to inf beyond about 1e77, and inf - inf is NaN
    model = poly(2, ((4, 0), 1.0), ((0, 4), -1.0))
    grid = {"bounds": [(-1e80, 1e80), (-1e80, 1e80)], "shape": (5, 5)}
    with pytest.raises(ValueError, match="NaN at 16 of 25 grid cells"):
        communication_height_2d(model, [-1e80, 0.0], [1e80, 0.0], grid)


# 1025^2 rotated2 at gamma = 0.45, where the two saddles tie, recorded with one
# BLAS thread on the whole-grid search the narrowed one replaced.  Cells are
# pinned by index (x = -2.5 + k * 5/1024, exact in binary): the gates lie at
# x index 512 with the y indices listed, and the witness runs over x indices
# 222..802 with y starting at 512 and moving by the steps (dy, repeats).
PINNED_1025 = (
    -0.004999596130801362,
    8.312438671520456e-06,
    [419, 420, 421, 422, 602, 603, 604, 605],
    [(-1, 151), (0, 39), (1, 1), (0, 9), (1, 1), (0, 5), (1, 1), (0, 5), (1, 1), (0, 3),
     (1, 1), (0, 4), (1, 1), (0, 2), (1, 1), (0, 2), (1, 1), (0, 2), (1, 1), (0, 2), (1, 1),
     (0, 2), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1), (0, 1), (1, 1), (0, 1),
     (1, 44), (-1, 44), (0, 1), (-1, 1), (0, 1), (-1, 1), (0, 1), (-1, 1), (0, 1), (-1, 1),
     (0, 1), (-1, 1), (0, 2), (-1, 1), (0, 2), (-1, 1), (0, 2), (-1, 1), (0, 2), (-1, 1),
     (0, 2), (-1, 1), (0, 4), (-1, 1), (0, 3), (-1, 1), (0, 5), (-1, 1), (0, 5), (-1, 1),
     (0, 9), (-1, 1), (0, 39), (1, 151)],
)
GRID_1025 = {"bounds": [(-2.5, 2.5), (-2.5, 2.5)], "shape": (1025, 1025)}


def _search_1025(gamma):
    return communication_height_2d(
        rotated_two_particle(gamma), [-math.sqrt(2.0), 0.0], [math.sqrt(2.0), 0.0], GRID_1025
    )


def _pinned_1025_indices():
    res = _search_1025(0.45)
    xs = np.linspace(-2.5, 2.5, 1025)
    index = lambda v: np.searchsorted(xs, v).tolist()
    return {
        "height": res.communication_height,
        "tolerance": res.grid_tolerance,
        "warnings": res.warnings,
        "gates": [index(c) for c in res.gate_cells],
        "path": index(res.path_witness),
        "exact": bool(np.array_equal(xs[index(res.path_witness)], res.path_witness)),
    }


def test_communication_height_pinned_1025_result_with_tied_saddles(fresh_interpreter):
    # the grid's values move in the last bit with the BLAS thread count
    got = fresh_interpreter(
        "import json, test_landscape; print(json.dumps(test_landscape._pinned_1025_indices()))"
    )
    height, tol, gate_j, steps = PINNED_1025
    assert got["height"] == height
    assert got["tolerance"] == tol
    assert got["warnings"] == []
    assert got["gates"] == [[512, j] for j in gate_j]
    assert got["exact"]
    dy = [s for s, repeats in steps for _ in range(repeats)]
    y = np.concatenate([[512], 512 + np.cumsum(dy)]).tolist()
    assert got["path"] == [[i, j] for i, j in zip(range(222, 803), y)]


def test_communication_height_peak_memory_is_a_few_grids():
    # V, its sorted copy, one label array, a few masks and the witness graph
    tracemalloc.start()
    try:
        _search_1025(0.45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (8 * 1025 * 1025)


def test_grid_spec_covering():
    g = GridSpec2D.covering([[-1.0, 0.0], [1.0, 2.0]], margin=0.5, n=65)
    assert (g.xmin, g.xmax) == (-1.5, 1.5)
    assert (g.ymin, g.ymax) == (-0.5, 2.5)
    assert g.nx == g.ny == 65


def test_flat_stable_origin_is_codim1_saddle(rotated_flat):
    pt = StationaryPoint.at(rotated_flat, np.zeros(2))
    assert np.allclose(pt.eigenvalues, [-1.0, 0.0], atol=1e-12)
    sc = classify(rotated_flat, pt)
    assert sc.tag is SaddleTag.CODIM1 and sc.verdict is Verdict.SADDLE
    assert sc.detail.C4 == pytest.approx(0.125, rel=1e-9)


def test_codim1_classification_computes_each_derivative_tensor_once(monkeypatch):
    model = rotated_two_particle(0.5)
    calls = {"third_tensor": 0, "fourth_tensor": 0}
    for name in calls:
        method = getattr(model, name)

        def counted(x, _method=method, _name=name):
            calls[_name] += 1
            return _method(x)

        monkeypatch.setattr(model, name, counted)
    sc = classify(model, StationaryPoint.at(model, np.zeros(2)))
    assert calls == {"third_tensor": 1, "fourth_tensor": 1}
    # the classification recorded before the tensors were shared
    assert sc == SaddleClass(
        SaddleTag.CODIM1,
        Verdict.SADDLE,
        NormalFormCodim1(soft_index=1, lambda2=-1.0, C3=0.0, C4=0.125),
    )


def test_classify_and_newton_make_no_partial_call(monkeypatch):
    calls = []
    partial = PolynomialPotential.partial

    def counted(self, x, dirs):
        calls.append(dirs)
        return partial(self, x, dirs)

    monkeypatch.setattr(PolynomialPotential, "partial", counted)
    model = rotated_two_particle(0.5)
    sc = classify(model, StationaryPoint.at(model, np.zeros(2)))
    assert sc.tag is SaddleTag.CODIM1 and sc.verdict is Verdict.SADDLE
    model = poly(3, ((4, 0, 0), 0.25), ((2, 0, 0), -0.5), ((0, 2, 0), 0.5),
                 ((0, 0, 2), 0.5), ((1, 1, 1), 0.2))
    found = find_stationary_points(model, [[-1.1, 0.1, 0.0], [0.1, -0.1, 0.1], [0.9, 0.0, 0.1]])
    assert len(found) == 3
    assert calls == []


def test_saddle_spec_rejects_gates_without_a_closed_form(dw, chain3_critical):
    minimum = StationaryPoint.at(dw, np.array([1.0]))
    with pytest.raises(ValueError, match="closed-form rates need a saddle"):
        saddle_spec(dw, minimum)
    cubic = poly(3, ((2, 0, 0), 0.5), ((0, 3, 0), 1.0), ((0, 1, 2), -3.0),
                 ((4, 0, 0), 1.0), ((0, 4, 0), 1.0), ((0, 0, 4), 1.0))
    with pytest.raises(ValueError, match="cubic terms on the null space"):
        saddle_spec(cubic, StationaryPoint.at(cubic, np.zeros(3)))
    spec, sc = saddle_spec(chain3_critical, StationaryPoint.at(chain3_critical, np.zeros(3)))
    assert sc.tag is SaddleTag.CODIM2 and spec.dimension == 3


def test_saddle_spec_rejects_a_codim2_gate_whose_unstable_directions_are_soft():
    # (x^4 - 6 x^2 y^2 + y^4)/4: both eigenvalues vanish, the quartic changes sign
    model = poly(2, ((4, 0), 0.25), ((2, 2), -1.5), ((0, 4), 0.25))
    point = StationaryPoint.at(model, np.zeros(2))
    sc = classify(model, point)
    assert sc.tag is SaddleTag.CODIM2 and sc.verdict is Verdict.SADDLE
    assert point.n_quadratic_unstable == 0
    with pytest.raises(ValueError, match="codim-2 gate whose unstable directions are soft"):
        saddle_spec(model, point)
