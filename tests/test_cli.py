"""End-to-end tests for the command-line pipeline."""

import argparse
import csv
import json
import math
from pathlib import Path

import pytest

from metastable import SWEEP_FIELDS, ek_classical, MinimumSpec, Quadratic, SaddleSpec
from metastable import __version__
from metastable.cli import _COMMANDS, _build_parser, main, run_manifest
from metastable.crossover import CROSSOVER_FUNCTIONS

DW1D_TIME_EPS02 = 15.507185174028427
ROTATED2_TIME_EPS012 = 80.061966657553797


GOLDEN = Path(__file__).parent / "golden"


def run(tmp_path, *args):
    return main([*args, "--out", str(tmp_path)])


def read_json(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def read_strict_json(tmp_path, name):
    return json.loads((tmp_path / name).read_text(), parse_constant=_reject_constant)


def read_csv(tmp_path, name):
    with open(tmp_path / name, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_two_particle_chain_reports_codim1_saddle(tmp_path):
    code = run(
        tmp_path,
        "classify",
        "--potential", "chain",
        "--params", "N=2,gamma=0.5",
        "--seeds", "0,0",
    )
    assert code == 0
    rows = read_json(tmp_path, "classify.json")
    assert len(rows) == 1
    assert rows[0]["tag"] == "Codim1"
    assert rows[0]["verdict"] == "Saddle"


def test_classify_three_particle_critical_chain_reports_codim2_saddle(tmp_path):
    code = run(
        tmp_path,
        "classify",
        "--potential", "chain",
        "--params", f"N=3,gamma={2/3}",
        "--seeds", "0,0,0",
    )
    assert code == 0
    rows = read_json(tmp_path, "classify.json")
    assert rows[0]["tag"] == "Codim2"
    assert rows[0]["verdict"] == "Saddle"


def test_classify_double_well_finds_all_three_points(tmp_path):
    code = run(
        tmp_path,
        "classify",
        "--potential", "double_well",
        "--seeds=-0.9;0.1;1.2",
    )
    assert code == 0
    rows = read_json(tmp_path, "classify.json")
    assert len(rows) == 3
    tags = [r["tag"] for r in rows]
    assert tags.count("LocalMinimum") == 2
    assert tags.count("NondegenerateSaddle") == 1


def test_classify_accepts_a_polynomial_json_file(tmp_path):
    spec = {
        "dimension": 2,
        "terms": [
            {"exponents": [4, 0], "coeff": 0.25},
            {"exponents": [2, 0], "coeff": -0.5},
            {"exponents": [0, 2], "coeff": 0.5},
        ],
    }
    path = tmp_path / "pot.json"
    path.write_text(json.dumps(spec))
    code = run(
        tmp_path, "classify", "--potential", str(path), "--seeds", "0.1,0.0"
    )
    assert code == 0
    rows = read_json(tmp_path, "classify.json")
    assert rows[0]["tag"] == "NondegenerateSaddle"


def test_classify_without_seeds_exits_1(tmp_path):
    assert run(tmp_path, "classify", "--potential", "double_well") == 1


def test_classify_unknown_potential_exits_1(tmp_path):
    code = run(tmp_path, "classify", "--potential", "bogus", "--seeds", "0")
    assert code == 1


def test_classify_malformed_json_file_exits_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = run(tmp_path, "classify", "--potential", str(path), "--seeds", "0")
    assert code == 1


def test_classify_without_convergence_exits_2(tmp_path):
    # a linear potential has no stationary point anywhere
    spec = {"dimension": 1, "terms": [{"exponents": [1], "coeff": 1.0}]}
    path = tmp_path / "linear.json"
    path.write_text(json.dumps(spec))
    code = run(tmp_path, "classify", "--potential", str(path), "--seeds", "0")
    assert code == 2


def test_classify_writes_a_manifest(tmp_path):
    run(tmp_path, "classify", "--potential", "double_well", "--seeds", "0")
    doc = read_json(tmp_path, "manifest.json")
    assert doc["command"] == "classify"
    assert doc["potential"] == "double_well"
    assert doc["outputs"] == ["classify.json"]
    assert "--seeds" in doc["argv"]
    assert doc["version"]


def _cubic_codim2_potential(tmp_path):
    """x^2/2 + y^3 - 3 y z^2 + x^4 + y^4 + z^4: a codim-2 origin with a cubic null-space form."""
    path = tmp_path / "cubic_codim2.json"
    path.write_text(json.dumps({"dimension": 3, "terms": [
        {"exponents": [2, 0, 0], "coeff": 0.5},
        {"exponents": [0, 3, 0], "coeff": 1.0},
        {"exponents": [0, 1, 2], "coeff": -3.0},
        {"exponents": [4, 0, 0], "coeff": 1.0},
        {"exponents": [0, 4, 0], "coeff": 1.0},
        {"exponents": [0, 0, 4], "coeff": 1.0},
    ]}))
    return str(path)


def test_classify_writes_null_for_non_finite_coefficients(tmp_path):
    pot = _cubic_codim2_potential(tmp_path)
    assert run(tmp_path, "classify", "--potential", pot, "--seeds", "0,0,0") == 0
    rows = read_strict_json(tmp_path, "classify.json")
    coeffs = rows[0]["coefficients"]
    assert rows[0]["tag"] == "Codim2"
    assert coeffs["Kminus"] is None and coeffs["Kplus"] is None


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def test_rate_double_well_matches_the_library_route(tmp_path):
    code = run(
        tmp_path,
        "rate",
        "--potential", "double_well",
        "--minimum-seed", "-1",
        "--saddle-seed", "0",
        "--eps", "0.2,0.1",
    )
    assert code == 0
    doc = read_json(tmp_path, "rate.json")
    assert doc["classification"] == {"tag": "NondegenerateSaddle", "verdict": "Saddle"}
    assert len(doc["results"]) == 2
    first = doc["results"][0]
    assert first["eps"] == 0.2
    assert first["expected_time"] == pytest.approx(DW1D_TIME_EPS02, rel=1e-9)
    minimum = MinimumSpec(value=-0.25, eigenvalues=(2.0,))
    saddle = SaddleSpec(
        value=0.0, regime=Quadratic(), unstable_eigenvalue=1.0, stable_eigenvalues=()
    )
    direct = ek_classical(minimum, saddle, eps=0.1)
    assert doc["results"][1]["expected_time"] == pytest.approx(
        direct.expected_time, rel=1e-9
    )


def test_rate_classifies_the_soft_gate_and_uses_the_crossover_formula(tmp_path):
    code = run(
        tmp_path,
        "rate",
        "--potential", "rotated2",
        "--params", "gamma=0.5",
        "--minimum-seed", "1.4,0.1",
        "--saddle-seed", "0,0",
        "--eps", "0.12",
    )
    assert code == 0
    doc = read_json(tmp_path, "rate.json")
    assert doc["classification"]["tag"] == "Codim1"
    result = doc["results"][0]
    assert result["regime_tag"].startswith("pitchfork-transverse")
    assert result["expected_time"] == pytest.approx(ROTATED2_TIME_EPS012, rel=1e-6)


def test_rate_with_a_minimum_seed_reaching_a_saddle_exits_1(tmp_path):
    code = run(
        tmp_path,
        "rate",
        "--potential", "double_well",
        "--minimum-seed", "0.01",
        "--saddle-seed", "0",
        "--eps", "0.2",
    )
    assert code == 1


def test_rate_beyond_the_float_range_writes_a_null_expected_time(tmp_path):
    # exp(0.25 / 0.0003) overflows float64: strict JSON has no Infinity
    code = run(tmp_path, "rate", "--potential", "double_well", "--minimum-seed=-1", "--saddle-seed=0",
               "--eps", "0.0003")
    assert code == 0
    row = read_strict_json(tmp_path, "rate.json")["results"][0]
    assert row["expected_time"] is None and row["prefactor"] == pytest.approx(math.pi * math.sqrt(2.0))


def test_rate_without_eps_exits_1(tmp_path):
    code = run(
        tmp_path,
        "rate",
        "--potential", "double_well",
        "--minimum-seed", "-1",
        "--saddle-seed", "0",
    )
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--potential", "double_well", "--seeds", "0,0"],
        ["rate", "--potential", "rotated2", "--params", "gamma=0.75", "--minimum-seed=1",
         "--saddle-seed=0,0", "--eps", "0.1"],
        ["simulate", "--potential", "double_well", "--start=-1,0", "--target", "1",
         "--max-time", "1", "--replicas", "2", "--eps", "0.3"],
    ],
    ids=["classify", "rate", "simulate"],
)
def test_a_seed_of_the_wrong_dimension_exits_1_naming_both(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "dimension" in err, err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_single_point_grid_gives_a_single_row(tmp_path):
    code = run(
        tmp_path,
        "sweep",
        "--scenario", "transverse",
        "--grid=-0.3",
        "--eps", "0.1",
    )
    assert code == 0
    rows = read_csv(tmp_path, "sweep.csv")
    assert rows[0] == list(SWEEP_FIELDS)
    assert len(rows) == 2
    values = dict(zip(rows[0], rows[1]))
    assert float(values["control_parameter"]) == -0.3
    assert float(values["prefactor"]) > 0


def test_sweep_emits_one_row_per_grid_point_and_eps(tmp_path):
    code = run(
        tmp_path,
        "sweep",
        "--scenario", "transverse",
        "--grid=-1:1:5",
        "--eps", "0.5,0.1",
    )
    assert code == 0
    rows = read_csv(tmp_path, "sweep.csv")
    assert len(rows) == 1 + 10
    eps_col = rows[0].index("eps")
    assert [float(r[eps_col]) for r in rows[1:6]] == [0.5] * 5
    assert [float(r[eps_col]) for r in rows[6:]] == [0.1] * 5


def test_sweep_at_large_alpha_reaches_the_classical_prefactor(tmp_path):
    # quartic 1e-6 at eps 1e-4 puts alpha = lambda2 / sqrt(2 eps quartic) at
    # 3.5e4 and 7.1e4, where the prefactor is the classical 2 pi sqrt(lambda2)
    # to O(1 / alpha^2)
    code = run(
        tmp_path,
        "sweep",
        "--scenario", "transverse",
        "--quartic", "1e-6",
        "--grid=-1:1:5",
        "--eps", "1e-4",
    )
    assert code == 0
    rows = read_csv(tmp_path, "sweep.csv")
    prefactors = {
        float(r[rows[0].index("control_parameter")]): float(r[rows[0].index("prefactor")])
        for r in rows[1:]
    }
    for lambda2 in (0.5, 1.0):
        assert prefactors[lambda2] == pytest.approx(2 * math.pi * math.sqrt(lambda2), rel=1e-6)


def test_sweep_below_the_doublezero_window_exits_1_with_one_line(tmp_path, capsys):
    # lambda2 = -0.9 lies below -sqrt(eps |log eps|): the rates layer raises ValueError
    code = run(tmp_path, "sweep", "--scenario", "doublezero", "--grid=-0.9:0.1:3", "--eps", "0.05")
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("metastable sweep: error: lambda2 = -0.9")


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--potential", "chain", "--params", "N=3,gamma=1.0", "--minimum-seed=-1,-1,-1",
         "--saddle-seed=0,0,0", "--eps", "1e300"],
        ["sweep", "--scenario", "sombrero", "--grid", "0.5,1", "--eps", "1e250"],
    ],
    ids=["rate", "sweep"],
)
def test_huge_eps_exits_0_or_2_without_a_traceback(tmp_path, capsys, argv):
    # the 3-chain's capacity prefactor ~ (2 pi eps)^(3/2) overflows float64 at
    # eps 1e300 (OverflowError: exit 2, "out of range"); the sweep stays in range
    code = run(tmp_path, *argv)
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert len(err.splitlines()) == 1 and ": out of range: " in err


@pytest.mark.parametrize("control", ["nan", "inf"])
def test_sweep_rejects_a_non_finite_control_value(tmp_path, capsys, control):
    code = run(tmp_path, "sweep", "--scenario", "transverse", "--grid", control, "--eps", "0.1")
    assert code == 1
    err = capsys.readouterr().err
    assert f"sweep control values must be finite, got {control}" in err, err


def test_sweep_json_format(tmp_path):
    code = run(
        tmp_path,
        "sweep",
        "--scenario", "sombrero",
        "--grid", "0.5,1.0",
        "--eps", "0.01",
        "--gate-pairs", "3",
        "--format", "json",
    )
    assert code == 0
    rows = read_json(tmp_path, "sweep.json")
    assert len(rows) == 2
    assert set(SWEEP_FIELDS) <= set(rows[0])
    assert all(r["prefactor"] > 0 for r in rows)


def test_sweep_doublezero_uses_the_angular_flag(tmp_path):
    code = run(
        tmp_path,
        "sweep",
        "--scenario", "doublezero",
        "--grid", "0.0,0.2",
        "--eps", "0.05",
        "--angular", "0.25",
    )
    assert code == 0
    rows = read_csv(tmp_path, "sweep.csv")
    assert len(rows) == 3


def test_sweep_unknown_scenario_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "sweep", "--scenario", "bogus", "--grid", "0", "--eps", "0.1")
    assert exc.value.code == 1


def test_sweep_without_eps_exits_1(tmp_path):
    code = run(tmp_path, "sweep", "--scenario", "transverse", "--grid", "0")
    assert code == 1


def test_sweep_malformed_grid_exits_1(tmp_path):
    code = run(
        tmp_path, "sweep", "--scenario", "transverse", "--grid", "0:1", "--eps", "0.1"
    )
    assert code == 1


@pytest.mark.parametrize("scenario, flag, value", [
    ("sombrero", "--angular", "9"),
    ("doublezero", "--quartic", "9"),
    ("doublezero", "--gate-pairs", "5"),
    ("transverse", "--angular", "1"),
])
def test_sweep_rejects_a_flag_its_scenario_does_not_take(tmp_path, capsys, scenario, flag, value):
    code = run(tmp_path, "sweep", "--scenario", scenario, "--grid", "0", "--eps", "0.1", flag, value)
    assert code == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_double_well_brackets_and_matches_the_exact_1d_route(tmp_path):
    code = run(
        tmp_path,
        "verify",
        "--potential", "double_well",
        "--saddle-seed", "0",
        "--eps", "0.05",
        "--grid-nodes", "33",
    )
    assert code == 0
    doc = read_json(tmp_path, "verify.json")
    assert doc["classification"]["verdict"] == "Saddle"
    row = doc["results"][0]
    assert row["eps"] == 0.05
    assert row["lower"] <= row["upper"] * (1 + 1e-12)
    assert row["upper"] == pytest.approx(row["exact_1d"], rel=1e-6)
    assert row["lower"] == pytest.approx(row["exact_1d"], rel=1e-6)
    assert 0.5 < row["ratios"]["upper_over_closed"] < 1.5
    assert row["ratios"]["lower_over_upper"] <= 1 + 1e-12


def test_verify_rotated_two_particle_ratio_band(tmp_path):
    code = run(
        tmp_path,
        "verify",
        "--potential", "rotated2",
        "--params", "gamma=0.75",
        "--saddle-seed", "0,0",
        "--eps", "0.05",
        "--grid-nodes", "33",
    )
    assert code == 0
    doc = read_json(tmp_path, "verify.json")
    row = doc["results"][0]
    assert 0.5 < row["ratios"]["lower_over_closed"] <= row["ratios"]["upper_over_closed"] < 1.5


def test_verify_rejects_dimension_above_three(tmp_path):
    code = run(
        tmp_path,
        "verify",
        "--potential", "chain",
        "--params", "N=4,gamma=1.0",
        "--saddle-seed", "0,0,0,0",
        "--eps", "0.05",
    )
    assert code == 1


def test_verify_with_a_non_saddle_seed_exits_2(tmp_path):
    code = run(
        tmp_path,
        "verify",
        "--potential", "double_well",
        "--saddle-seed", "0.9",
        "--eps", "0.05",
    )
    assert code == 2


def test_verify_underflowing_capacities_exit_2_without_a_traceback(tmp_path, capsys):
    # saddle at the origin, altitude 3: exp(-3/eps) underflows to 0 at eps = 0.002
    pot = tmp_path / "high_saddle.json"
    pot.write_text(json.dumps({"dimension": 2, "terms": [
        {"exponents": [0, 0], "coeff": 3.0},
        {"exponents": [2, 0], "coeff": -0.5},
        {"exponents": [4, 0], "coeff": 0.25},
        {"exponents": [0, 2], "coeff": 0.5},
    ]}))
    code = run(tmp_path, "verify", "--potential", str(pot), "--saddle-seed", "0.01,0", "--eps", "0.002")
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    message = [line for line in err.splitlines() if line.startswith("metastable verify:")]
    assert len(message) == 1 and "eps=0.002" in message[0]
    assert not (tmp_path / "verify.json").exists()


@pytest.mark.parametrize(
    "command, code",
    [
        (["rate", "--minimum-seed=0,-0.75,0"], 1),
        (["simulate", "--start=0,-0.75,0", "--target=0,0.75,0", "--radius", "0.2",
          "--dt", "0.01", "--max-time", "0.05", "--replicas", "2"], 1),
        (["verify"], 2),
    ],
    ids=["rate", "simulate", "verify"],
)
def test_cubic_codim2_saddle_exits_without_a_traceback(tmp_path, capsys, command, code):
    pot = _cubic_codim2_potential(tmp_path)
    argv = [command[0], "--potential", pot, "--saddle-seed", "0,0,0", "--eps", "0.1", *command[1:]]
    assert run(tmp_path, *argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    message = [line for line in err.splitlines() if line.startswith(f"metastable {command[0]}:")]
    assert len(message) == 1 and "cubic terms on the null space" in message[0]


def test_codim2_gate_with_soft_unstable_directions_exits_1_without_a_traceback(tmp_path, capsys):
    # Re((x + iy)^4)/4 + |z|^6/6: minima at |z| = 1, and a codim-2 origin
    # with no quadratic unstable direction
    path = tmp_path / "soft_codim2.json"
    terms = [((4, 0), 0.25), ((2, 2), -1.5), ((0, 4), 0.25),
             ((6, 0), 1 / 6), ((4, 2), 0.5), ((2, 4), 0.5), ((0, 6), 1 / 6)]
    path.write_text(json.dumps({"dimension": 2, "terms": [
        {"exponents": list(e), "coeff": c} for e, c in terms
    ]}))
    code = run(tmp_path, "rate", "--potential", str(path), "--minimum-seed", "0.7,0.7",
               "--saddle-seed", "0,0", "--eps", "0.1")
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    message = [line for line in err.splitlines() if line.startswith("metastable rate:")]
    assert len(message) == 1 and "unstable directions are soft" in message[0]
    assert not (tmp_path / "rate.json").exists()


_SIMULATE_DW = ["simulate", "--potential", "double_well", "--start=-1", "--target", "1", "--replicas", "3"]
_VERIFY_DW = ["verify", "--potential", "double_well", "--saddle-seed", "0"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (_SIMULATE_DW + ["--eps", "inf", "--max-time", "10"], "eps"),
        (_SIMULATE_DW + ["--eps", "0.3", "--radius", "inf", "--max-time", "10"], "radius"),
        (_SIMULATE_DW + ["--eps", "0.3", "--max-time", "inf"], "max_time"),
        (_VERIFY_DW + ["--eps", "0.05", "--box-scale", "inf"], "scale"),
        (_VERIFY_DW + ["--eps", "inf"], "eps"),
        (["classify", "--potential", "double_well", "--seeds", "0.3", "--tol", "inf"], "tol"),
    ],
    ids=["simulate-eps", "simulate-radius", "simulate-max-time", "verify-box-scale", "verify-eps", "classify-tol"],
)
def test_a_non_finite_positive_parameter_exits_1_with_one_line(tmp_path, capsys, recwarn, argv, name):
    assert run(tmp_path, *argv) == 1
    err = capsys.readouterr().err
    assert err == f"metastable {argv[0]}: error: {name} must be a finite positive real number, got inf\n"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not (tmp_path / f"{argv[0]}.json").exists()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_resolves_the_saddle_before_the_monte_carlo_run(tmp_path, recwarn):
    pot = _cubic_codim2_potential(tmp_path)
    code = run(
        tmp_path, "simulate", "--potential", pot, "--saddle-seed", "0,0,0", "--eps", "0.1",
        "--start=0,-0.75,0", "--target=0,0.75,0", "--radius", "0.2", "--dt", "0.01",
        "--max-time", "0.05", "--replicas", "2", "--times-csv",
    )
    assert code == 1
    assert not [w for w in recwarn if "no replica hit" in str(w.message)]
    assert not (tmp_path / "times.csv").exists()


def simulate_args(**overrides):
    base = {
        "--potential": "double_well",
        "--eps": "0.3",
        "--start": "-1",
        "--target": "1",
        "--radius": "0.2",
        "--dt": "0.001",
        "--max-time": "40",
        "--replicas": "60",
    }
    base.update(overrides)
    args = ["simulate"]
    for key, value in base.items():
        if value is not None:
            args.extend([key, str(value)])
    return args


def test_simulate_writes_estimate_and_manifest(tmp_path):
    code = run(tmp_path, *simulate_args())
    assert code == 0
    doc = read_json(tmp_path, "simulate.json")
    est = doc["estimate"]
    assert est["hits"] > 0
    assert est["mean"] > 0
    assert est["ci95"][0] < est["mean"] < est["ci95"][1]
    assert doc["dt"] == 0.001
    manifest = read_json(tmp_path, "manifest.json")
    assert manifest["outputs"] == ["simulate.json"]


def test_simulate_defaults_record_dt_and_radius(tmp_path):
    code = run(tmp_path, *simulate_args(**{"--radius": None, "--dt": None}))
    assert code == 0
    doc = read_json(tmp_path, "simulate.json")
    assert doc["radius"] == pytest.approx(3.0 * math.sqrt(0.3))
    assert doc["dt"] == 0.001


def test_simulate_times_csv_is_deterministic_across_reruns(tmp_path):
    args = simulate_args(**{"--replicas": "30", "--times-csv": ""})
    argv = [a for a in args if a != ""]
    assert run(tmp_path, *argv) == 0
    first_csv = (tmp_path / "times.csv").read_bytes()
    first_json = (tmp_path / "simulate.json").read_bytes()
    assert run(tmp_path, *argv) == 0
    assert (tmp_path / "times.csv").read_bytes() == first_csv
    assert (tmp_path / "simulate.json").read_bytes() == first_json
    rows = read_csv(tmp_path, "times.csv")
    assert rows[0] == ["replica", "tau", "status"]
    assert len(rows) == 31


def test_simulate_validates_against_the_closed_form_when_asked(tmp_path):
    code = run(tmp_path, *simulate_args(**{"--saddle-seed": "0", "--replicas": "200"}))
    assert code == 0
    doc = read_json(tmp_path, "simulate.json")
    assert doc["prediction"]["regime_tag"] == "classical"
    validation = doc["validation"]
    assert validation["verdict"] == "pass"
    assert abs(validation["ratio"] - 1.0) <= validation["tolerance"]


def test_simulate_without_hits_writes_strict_json(tmp_path):
    with pytest.warns(UserWarning, match="no replica hit"):
        code = run(tmp_path, *simulate_args(**{"--max-time": "0.5", "--replicas": "4"}))
    assert code == 3
    est = read_strict_json(tmp_path, "simulate.json")["estimate"]
    assert est["hits"] == 0
    assert est["mean"] is None and est["stderr"] is None
    assert est["ci95"] == [None, None]


def test_simulate_with_one_hit_writes_strict_json(tmp_path):
    args = simulate_args(**{"--max-time": "200", "--replicas": "1", "--saddle-seed": "0"})
    assert run(tmp_path, *args) == 0
    doc = read_strict_json(tmp_path, "simulate.json")
    est = doc["estimate"]
    assert est["hits"] == 1
    assert est["mean"] > 0
    assert est["stderr"] is None and est["ci95"] == [None, None]
    assert doc["validation"]["z_score"] is None
    expected = doc["prediction"]["expected_time"]
    assert doc["validation"]["ratio"] == pytest.approx(est["mean"] / expected)


def test_simulate_zero_replicas_exits_1(tmp_path):
    code = run(tmp_path, *simulate_args(**{"--replicas": "0"}))
    assert code == 1


def test_simulate_multiple_eps_exits_1(tmp_path):
    code = run(tmp_path, *simulate_args(**{"--eps": "0.3,0.2"}))
    assert code == 1


def test_simulate_excessive_censoring_exits_3_with_partial_report(tmp_path):
    code = run(tmp_path, *simulate_args(**{"--max-time": "3", "--replicas": "40"}))
    assert code == 3
    doc = read_json(tmp_path, "simulate.json")
    assert "censored fraction" in doc["error"]
    assert doc["estimate"]["censored"] > 0


# ---------------------------------------------------------------------------
# tabulate-special
# ---------------------------------------------------------------------------


def test_tabulate_covers_every_function_on_the_grid(tmp_path):
    code = run(tmp_path, "tabulate-special", "--alphas", "0:2:3")
    assert code == 0
    rows = read_csv(tmp_path, "special.csv")
    assert rows[0] == ["function", "alpha", "value", "route"]
    assert len(rows) == 1 + 5 * 3
    names = {r[0] for r in rows[1:]}
    assert names == {"chi", "psi_minus", "psi_plus", "theta_minus", "theta_plus"}
    table = {(r[0], float(r[1])): float(r[2]) for r in rows[1:]}
    assert table[("psi_plus", 0.0)] == pytest.approx(0.8600, abs=1e-4)
    assert table[("chi", 0.0)] == pytest.approx(2.0, rel=1e-9)


def test_tabulate_routes_agree(tmp_path):
    closed_dir = tmp_path / "closed"
    quad_dir = tmp_path / "quad"
    assert main(["tabulate-special", "--alphas", "0.5:3:4", "--route", "closed_form",
                 "--out", str(closed_dir)]) == 0
    assert main(["tabulate-special", "--alphas", "0.5:3:4", "--route", "quadrature",
                 "--out", str(quad_dir)]) == 0
    with open(closed_dir / "special.csv", newline="") as fh:
        closed_rows = list(csv.reader(fh))
    with open(quad_dir / "special.csv", newline="") as fh:
        quad_rows = list(csv.reader(fh))
    for c, q in zip(closed_rows[1:], quad_rows[1:]):
        assert c[0] == q[0] and c[1] == q[1]
        assert float(c[2]) == pytest.approx(float(q[2]), rel=1e-8)
        assert c[3] == "closed_form"
        assert q[3] == "quadrature"


def test_tabulate_special_past_the_overflow_of_alpha_squared(tmp_path):
    assert run(tmp_path, "tabulate-special", "--alphas", "2e154") == 0
    values = {row[0]: float(row[2]) for row in read_csv(tmp_path, "special.csv")[1:]}
    assert sorted(values) == sorted(CROSSOVER_FUNCTIONS)
    assert all(math.isfinite(v) for v in values.values()), values
    assert (values["psi_plus"], values["psi_minus"]) == (1.0, 2.0)


@pytest.mark.parametrize("route", ["closed_form", "quadrature"])
def test_tabulate_special_rejects_a_non_finite_alpha(tmp_path, capsys, route):
    for alpha in ("nan", "inf"):
        assert run(tmp_path, "tabulate-special", "--alphas", alpha, "--route", route) == 1
        assert f"finite alpha, got {alpha}" in capsys.readouterr().err
    assert not (tmp_path / "special.csv").exists()


def test_tabulate_json_format(tmp_path):
    code = run(tmp_path, "tabulate-special", "--alphas", "1.0", "--format", "json")
    assert code == 0
    rows = read_json(tmp_path, "special.json")
    assert len(rows) == 5
    assert set(rows[0]) == {"function", "alpha", "value", "route"}


def test_tabulate_special_takes_no_eps(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "tabulate-special", "--alphas", "1.0", "--eps", "0.1")
    assert exc.value.code == 1


def test_classify_takes_no_eps(tmp_path):
    # classification does not depend on the noise; the flag was never read
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "classify", "--potential", "double_well", "--seeds", "0", "--eps", "banana,1")
    assert exc.value.code == 1
    assert not (tmp_path / "manifest.json").exists()


# ---------------------------------------------------------------------------
# manifests and global flags
# ---------------------------------------------------------------------------


def test_rerunning_a_manifest_reproduces_outputs_byte_for_byte(tmp_path):
    args = [
        "sweep",
        "--scenario", "transverse",
        "--grid=-1:0.5:7",
        "--eps", "0.1,0.01",
        "--out", str(tmp_path),
    ]
    assert main(args) == 0
    before_csv = (tmp_path / "sweep.csv").read_bytes()
    before_manifest = (tmp_path / "manifest.json").read_bytes()
    (tmp_path / "sweep.csv").unlink()
    assert run_manifest(tmp_path / "manifest.json") == 0
    assert (tmp_path / "sweep.csv").read_bytes() == before_csv
    assert (tmp_path / "manifest.json").read_bytes() == before_manifest


def test_version_flag_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# parser parity: a call builds its own command's parser, or every parser when
# argv[0] names no command, and both builds behave alike
# ---------------------------------------------------------------------------

VALID_ARGV = {
    "classify": ["classify", "--potential", "double_well", "--seeds", "0;1", "--tol", "1e-8"],
    "rate": ["rate", "--potential", "double_well", "--minimum-seed=-1", "--saddle-seed=0", "--eps", "0.2"],
    "sweep": [
        "sweep", "--scenario", "sombrero", "--grid", "0.5,1", "--eps", "0.1", "--quartic", "0.25",
        "--gate-pairs", "4", "--format", "json",
    ],
    "verify": [
        "verify", "--potential", "rotated2", "--params", "gamma=0.5", "--saddle-seed", "0,0",
        "--eps", "0.05", "--grid-nodes", "33", "--box-scale", "1.5",
    ],
    "simulate": [
        "simulate", "--potential", "double_well", "--eps", "0.3", "--seed", "7", "--start=-1",
        "--target", "1", "--max-time", "50", "--replicas", "10", "--times-csv", "--saddle-seed", "0",
    ],
    "tabulate-special": ["tabulate-special", "--alphas", "0,1", "--route", "quadrature"],
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("name", list(_COMMANDS))
def test_one_command_build_matches_the_full_build(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [*VALID_ARGV[name], "--out", "out"]
    one, full = _build_parser(argv), _build_parser([])
    assert list(_subparsers(one)) == [name]
    assert list(_subparsers(full)) == list(_COMMANDS)
    assert _subparsers(one)[name].format_help() == _subparsers(full)[name].format_help()
    assert one.parse_args(argv) == full.parse_args(argv)


TOP_USAGE = (
    "usage: metastable [-h] [--version]\n"
    "                  {classify,rate,sweep,verify,simulate,tabulate-special} ...\n"
)
COMMAND_CHOICES = "(choose from 'classify', 'rate', 'sweep', 'verify', 'simulate', 'tabulate-special')"
RATE_USAGE = (
    "usage: metastable rate [-h] [--potential POTENTIAL] [--params PARAMS]\n"
    "                       [--eps EPS] [--out OUT] --minimum-seed MINIMUM_SEED\n"
    "                       --saddle-seed SADDLE_SEED\n"
)
# stderr and exit code of each case, recorded at 80 columns under Python 3.11
# from the parser that built every command on every call
MAIN_STREAMS = {
    "": (1, TOP_USAGE + "metastable: error: the following arguments are required: command\n"),
    "-h": (0, ""),
    "--version": (0, ""),
    "nosuch": (1, TOP_USAGE + f"metastable: error: argument command: invalid choice: 'nosuch' {COMMAND_CHOICES}\n"),
    "rates": (1, TOP_USAGE + f"metastable: error: argument command: invalid choice: 'rates' {COMMAND_CHOICES}\n"),
    "rate -h": (0, ""),
    "simulate --help": (0, ""),
    "rate --potential double_well --eps 0.2": (
        1,
        RATE_USAGE
        + "metastable rate: error: the following arguments are required: --minimum-seed, --saddle-seed\n",
    ),
    " ".join(VALID_ARGV["rate"]) + " --seed 3": (
        1, TOP_USAGE + "metastable: error: unrecognized arguments: --seed 3\n"
    ),
    "sweep --scenario bad --grid 0 --eps 0.1": (
        1,
        "usage: metastable sweep [-h] [--eps EPS] [--out OUT] [--format {csv,json}]\n"
        "                        --scenario\n"
        "                        {doublezero,longitudinal,sombrero,transverse} --grid\n"
        "                        GRID [--quartic QUARTIC] [--angular ANGULAR]\n"
        "                        [--gate-pairs GATE_PAIRS]\n"
        "metastable sweep: error: argument --scenario: invalid choice: 'bad' "
        "(choose from 'doublezero', 'longitudinal', 'sombrero', 'transverse')\n",
    ),
    "tabulate-special --route x": (
        1,
        "usage: metastable tabulate-special [-h] [--out OUT] [--format {csv,json}]\n"
        "                                   [--alphas ALPHAS]\n"
        "                                   [--route {auto,closed_form,quadrature}]\n"
        "metastable tabulate-special: error: argument --route: invalid choice: 'x' "
        "(choose from 'auto', 'closed_form', 'quadrature')\n",
    ),
}
# stdout of the help cases, recorded with the streams above
HELP = json.loads((Path(__file__).parent / "golden" / "cli_help.json").read_text())


@pytest.mark.parametrize("line", list(MAIN_STREAMS))
def test_main_keeps_its_usage_streams_and_exit_codes(line, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(line.split())
    out, err = capsys.readouterr()
    code, stderr = MAIN_STREAMS[line]
    assert (exc.value.code, err) == (code, stderr)
    assert out == (f"metastable {__version__}\n" if line == "--version" else HELP.get(line, ""))


def test_seed_is_rejected_outside_simulate(tmp_path):
    # only simulate draws random numbers
    with pytest.raises(SystemExit) as exc:
        run(
            tmp_path,
            "rate",
            "--potential", "double_well",
            "--minimum-seed=-1", "--saddle-seed=0",
            "--eps", "0.2",
            "--seed", "3",
        )
    assert exc.value.code == 1


def test_manifest_records_a_null_seed_outside_simulate(tmp_path):
    run(tmp_path, "classify", "--potential", "double_well", "--seeds", "0")
    assert read_json(tmp_path, "manifest.json")["seed"] is None


def test_csv_format_is_rejected_outside_tabular_commands(tmp_path):
    # --format exists only on sweep and tabulate-special
    with pytest.raises(SystemExit) as exc:
        run(
            tmp_path,
            "classify",
            "--potential", "double_well",
            "--seeds", "0",
            "--format", "csv",
        )
    assert exc.value.code == 1


# ---------------------------------------------------------------------------
# golden outputs: byte-for-byte files recorded from the closed forms
# ---------------------------------------------------------------------------

_SWEEP_GRIDS = {
    "transverse": ["--grid=-0.5:0.5:11", "--eps", "0.05,0.1"],
    "longitudinal": ["--grid=-0.5:0.5:11", "--eps", "0.05,0.1"],
    "doublezero": ["--grid=-0.3:0.5:9", "--eps", "0.05,0.1"],
    "sombrero": ["--grid=0.05:0.8:6", "--eps", "0.01,0.001"],
}

GOLDEN_RUNS = {
    # one rate per mapped regime: classical, transverse, longitudinal, codim2
    "rate_double_well.json": [
        "rate", "--potential", "double_well", "--minimum-seed=-1", "--saddle-seed=0",
        "--eps", "0.2,0.1",
    ],
    "rate_rotated2.json": [
        "rate", "--potential", "rotated2", "--params", "gamma=0.5",
        "--minimum-seed", "1.4,0.1", "--saddle-seed", "0,0", "--eps", "0.12,0.05",
    ],
    "rate_sextic_longitudinal.json": [
        "rate", "--potential", str(GOLDEN / "sextic_longitudinal.json"),
        "--minimum-seed", "0.8,0", "--saddle-seed", "0.01,0", "--eps", "0.1,0.05",
    ],
    "rate_chain3.json": [
        "rate", "--potential", "chain", "--params", f"N=3,gamma={2 / 3}",
        "--minimum-seed=-1,-1,-1", "--saddle-seed", "0,0,0", "--eps", "0.1,0.05",
    ],
    **{
        f"sweep_{scenario}{suffix}": ["sweep", "--scenario", scenario, *grid, *fmt]
        for scenario, grid in _SWEEP_GRIDS.items()
        for suffix, fmt in ((".csv", []), (".json", ["--format", "json"]))
    },
    # flags reach the sweep they belong to
    "sweep_sombrero_flags.csv": [
        "sweep", "--scenario", "sombrero", "--grid=0.05:0.8:6", "--eps", "0.01",
        "--quartic", "0.25", "--gate-pairs", "4",
    ],
    "sweep_doublezero_flags.csv": [
        "sweep", "--scenario", "doublezero", "--grid=-0.3:0.5:9", "--eps", "0.05",
        "--angular", "0.25",
    ],
    "verify_rotated2.json": [
        "verify", "--potential", "rotated2", "--params", "gamma=0.5",
        "--saddle-seed", "0,0", "--eps", "0.05",
    ],
}


@pytest.mark.parametrize("golden", sorted(GOLDEN_RUNS))
def test_output_bytes_match_the_golden_file(tmp_path, golden):
    argv = GOLDEN_RUNS[golden]
    assert run(tmp_path, *argv) == 0
    produced = tmp_path / (argv[0] + Path(golden).suffix)
    assert produced.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("nodes", ["2049", "-5"])
def test_verify_rejects_grid_nodes_outside_the_ladder(tmp_path, capsys, nodes):
    # the 2-d cap is 1025 nodes per axis; a first level of 2049 would pass it
    code = run(
        tmp_path, "verify", "--potential", "rotated2", "--params", "gamma=0.6", "--saddle-seed", "0,0",
        "--eps", "0.1", f"--grid-nodes={nodes}",
    )
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("metastable verify: error: grid")
    assert not (tmp_path / "verify.json").exists()


# no package module imports scipy, which costs up to a third of a second of
# start-up: every module whose top-level name is scipy counts
SCIPY_LOADED = 'sorted(m for m in sys.modules if m.split(".")[0] == "scipy")'


# the submodules the package once imported at the top of a module; each cost
# from 5 ms to a third of a second of start-up
SCIPY_SUBMODULES = [
    "scipy.sparse.csgraph", "scipy.optimize", "scipy.integrate", "scipy.special", "scipy.ndimage",
]


@pytest.fixture(scope="module")
def scipy_loaded_by_cli_import(fresh_interpreter):
    return fresh_interpreter(f"import json, sys, metastable.cli; print(json.dumps({SCIPY_LOADED}))")


@pytest.mark.parametrize("module", SCIPY_SUBMODULES)
def test_importing_the_cli_leaves_scipy_unloaded(scipy_loaded_by_cli_import, module):
    assert module not in scipy_loaded_by_cli_import


def test_importing_the_cli_loads_no_scipy_module(scipy_loaded_by_cli_import):
    assert scipy_loaded_by_cli_import == []


def test_classical_rate_and_simulate_load_no_scipy_submodule(fresh_interpreter, tmp_path):
    # a nondegenerate saddle needs no crossover function, Newton's method on
    # the exact Hessian refines the seeds, and a codim-1 normal form is tensor
    # algebra on the soft block
    code = f"""
import json, sys
from metastable.cli import main
codes = [
    main(["rate", "--potential", "double_well", "--minimum-seed=-1", "--saddle-seed=0",
          "--eps", "0.2", "--out", {str(tmp_path / "rate")!r}]),
    main(["simulate", "--potential", "double_well", "--eps", "0.3", "--start=-1", "--target", "1",
          "--radius", "0.2", "--saddle-seed", "0", "--max-time", "300", "--replicas", "4",
          "--seed", "1", "--out", {str(tmp_path / "simulate")!r}]),
    main(["classify", "--potential", "rotated2", "--params", "gamma=0.5", "--seeds", "0,0",
          "--out", {str(tmp_path / "classify")!r}]),
]
print(json.dumps([codes, {SCIPY_LOADED}]))
"""
    assert fresh_interpreter(code) == [[0, 0, 0], []]
    assert (tmp_path / "rate" / "rate.json").exists()
    assert (tmp_path / "simulate" / "simulate.json").exists()
    assert json.loads((tmp_path / "classify" / "classify.json").read_text())[0]["tag"] == "Codim1"


def test_degenerate_rate_simulate_sweep_and_table_load_no_scipy_submodule(fresh_interpreter, tmp_path):
    # the crossover functions' closed forms need only math: rotated2's
    # pitchfork at gamma = 1/2, every sweep scenario and the closed-form table
    sq2 = repr(math.sqrt(2.0))
    runs = {
        "rate": ["rate", "--potential", "rotated2", "--params", "gamma=0.5",
                 "--minimum-seed", "1.4,0.1", "--saddle-seed", "0,0", "--eps", "0.12,0.05"],
        "simulate": ["simulate", "--potential", "rotated2", "--params", "gamma=0.5", "--eps", "0.35",
                     f"--start=-{sq2},0", "--target", f"{sq2},0", "--saddle-seed=0.01,0.01",
                     "--max-time", "60", "--replicas", "4", "--seed", "1"],
        **{f"sweep_{scenario}": ["sweep", "--scenario", scenario, *grid]
           for scenario, grid in _SWEEP_GRIDS.items()},
        "tabulate": ["tabulate-special", "--route", "closed_form"],
    }
    calls = ",\n    ".join(f"main({[*argv, '--out', str(tmp_path / name)]!r})" for name, argv in runs.items())
    code = f"""
import json, sys, warnings
from metastable.cli import main
warnings.simplefilter("ignore")
codes = [
    {calls},
]
print(json.dumps([codes, {SCIPY_LOADED}]))
"""
    assert fresh_interpreter(code) == [[0] * len(runs), []]
    rates = json.loads((tmp_path / "rate" / "rate.json").read_text())["results"]
    assert {r["regime_tag"] for r in rates} == {"pitchfork-transverse"}
    assert "prediction" in json.loads((tmp_path / "simulate" / "simulate.json").read_text())


def test_quadrature_table_1d_verify_and_codim2_rate_load_no_scipy_submodule(fresh_interpreter, tmp_path):
    # every one-dimensional integral goes through crossover._integrate: the
    # quadrature routes, the exact 1-d capacity of verify and the rate at the
    # 3-chain's double zero, whose angular extrema come from the roots of the
    # profile's derivative (np.roots)
    runs = {
        "tabulate": ["tabulate-special", "--route", "quadrature"],
        "verify": ["verify", "--potential", "double_well", "--saddle-seed", "0", "--eps", "0.05"],
        "rate": ["rate", "--potential", "chain", "--params", f"N=3,gamma={2 / 3}",
                 "--minimum-seed=-1,-1,-1", "--saddle-seed", "0,0,0", "--eps", "0.1,0.05"],
    }
    calls = ",\n    ".join(f"main({[*argv, '--out', str(tmp_path / name)]!r})" for name, argv in runs.items())
    code = f"""
import json, sys
from metastable.cli import main
codes = [
    {calls},
]
print(json.dumps([codes, {SCIPY_LOADED}]))
"""
    assert fresh_interpreter(code) == [[0] * len(runs), []]
    table = (tmp_path / "tabulate" / "special.csv").read_text().splitlines()
    assert len(table) > 1 and all(",quadrature" in row for row in table[1:])
    (row,) = json.loads((tmp_path / "verify" / "verify.json").read_text())["results"]
    assert row["exact_1d"] > 0.0
    assert json.loads((tmp_path / "rate" / "rate.json").read_text())["classification"]["tag"] == "Codim2"
