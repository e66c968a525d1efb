"""Command-line pipeline: classify, rate, sweep, verify, simulate, tabulate.

Every command loads a potential (built-in name or JSON file), runs the
corresponding library modules, and writes data-only artifacts (JSON/CSV) plus
a ``manifest.json`` into the output directory.  Reruns of the same manifest
produce byte-identical outputs.

Exit codes: 0 success, 1 usage or specification error (a ``ValueError``
included), 2 numerical non-convergence or a result outside the float64 range,
3 invariant violation (capacity ordering, excessive censoring).

``_COMMANDS`` is the one place a command is declared, and each call builds
only the parser of the command it invokes.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import (
    _MAX_NODES, capacity_1d_exact, default_box, dirichlet_upper_bound, fiber_lower_bound,
)
from .crossover import CROSSOVER_FUNCTIONS, evaluate
from .landscape import (
    SaddleClass,
    StationaryPoint,
    _finite_or_null,
    classification_report,
    classify,
    find_stationary_points,
    saddle_spec,
)
from .potentials import _BUILTINS, PotentialModel, load_potential
from .rates import (
    SWEEP_FIELDS,
    UNIT_MINIMUM,
    MinimumSpec,
    SaddleSpec,
    _check_positive,
    closed_rate,
    sweep_doublezero,
    sweep_longitudinal,
    sweep_sombrero,
    sweep_transverse,
)
from .sampling import (
    MAX_CENSORED_FRACTION,
    Ball,
    SimulationConfig,
    default_dt,
    default_radius,
    estimate_json,
    simulate_first_hitting,
    validate,
    validation_json,
    write_times_csv,
)

__all__ = ["main", "run_manifest"]


class UsageError(Exception):
    """Malformed invocation or specification: exit code 1."""


class InvariantViolation(Exception):
    """A module invariant failed on real data: exit code 3."""


class OutOfRange(RuntimeError):
    """A result underflows or overflows float64: exit code 2."""


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse defaults to 2, which this tool reserves
    # for numerical non-convergence)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# small parsers


def _parse_params(text: str | None) -> dict:
    out: dict = {}
    if not text:
        return out
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"--params entries must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        out[key.strip()] = value
    return out


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"could not parse float list {text!r}: {exc}") from None


def _parse_vector(text: str) -> np.ndarray:
    vals = _parse_floats(text)
    if not vals:
        raise UsageError("empty vector")
    return np.array(vals)


def _parse_seeds(text: str | None) -> list[np.ndarray]:
    if not text:
        return []
    return [_parse_vector(part) for part in text.split(";") if part.strip()]


def _parse_grid(text: str) -> list[float]:
    """Either ``start:stop:count`` (inclusive linspace) or a comma list."""
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise UsageError(f"grid must be start:stop:count, got {text!r}")
        try:
            start, stop, count = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError as exc:
            raise UsageError(f"could not parse grid {text!r}: {exc}") from None
        if count < 1:
            raise UsageError("grid count must be at least 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    return _parse_floats(text)


# ---------------------------------------------------------------------------
# artifacts


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _write_manifest(out: Path, ns: argparse.Namespace, argv: list[str], outputs: list[str]) -> None:
    doc = {
        "command": ns.command,
        "potential": getattr(ns, "potential", None),
        "params": getattr(ns, "params", None),
        "eps": getattr(ns, "eps", None),
        "seed": getattr(ns, "seed", None),
        "outputs": sorted(outputs),
        "version": __version__,
        "argv": argv,
    }
    _write_json(out / "manifest.json", doc)


def run_manifest(path) -> int:
    """Re-execute the command recorded in a manifest (byte-identical outputs)."""
    doc = json.loads(Path(path).read_text())
    return main(list(doc["argv"]))


def _out_dir(ns) -> Path:
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_model(ns) -> PotentialModel:
    if not getattr(ns, "potential", None):
        raise UsageError("--potential is required")
    try:
        return load_potential(ns.potential, _parse_params(ns.params))
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"could not load potential: {exc}") from exc


def _converge(model: PotentialModel, seed: np.ndarray, what: str) -> StationaryPoint:
    pts = find_stationary_points(model, [seed])
    if not pts:
        raise RuntimeError(f"{what} seed {seed.tolist()} did not converge to a stationary point")
    return pts[0]


# ---------------------------------------------------------------------------
# classification -> rate-formula specs


def _rate_specs(
    model: PotentialModel, minimum: StationaryPoint, saddle: StationaryPoint
) -> tuple[MinimumSpec, SaddleSpec, SaddleClass]:
    if any(v <= 0 for v in minimum.eigenvalues) or minimum.zero_indices:
        raise UsageError("the minimum seed converged to a non-minimum stationary point")
    min_spec = MinimumSpec(
        value=minimum.value, eigenvalues=tuple(float(v) for v in minimum.eigenvalues)
    )
    spec, sc = saddle_spec(model, saddle)
    return min_spec, spec, sc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(ns, argv) -> int:
    model = _load_model(ns)
    seeds = _parse_seeds(ns.seeds)
    if not seeds:
        raise UsageError("--seeds must list at least one point")
    out = _out_dir(ns)
    points = find_stationary_points(model, seeds, tol=ns.tol)
    if not points:
        raise RuntimeError("no seed converged to a stationary point")
    rows = [classification_report(p, classify(model, p)) for p in points]
    _write_json(out / "classify.json", rows)
    _write_manifest(out, ns, argv, ["classify.json"])
    return 0


def _cmd_rate(ns, argv) -> int:
    model = _load_model(ns)
    out = _out_dir(ns)
    minimum = _converge(model, _parse_vector(ns.minimum_seed), "minimum")
    saddle = _converge(model, _parse_vector(ns.saddle_seed), "saddle")
    min_spec, spec, sc = _rate_specs(model, minimum, saddle)
    doc = {
        "classification": {"tag": sc.tag.value, "verdict": sc.verdict.value},
        "results": [asdict(closed_rate(min_spec, spec, e)) for e in ns.eps_values],
    }
    _write_json(out / "rate.json", doc)
    _write_manifest(out, ns, argv, ["rate.json"])
    return 0


# scenario -> (sweep, the options it takes); options the user leaves unset
# keep the library defaults, and an option the scenario does not take is a
# usage error
_SWEEPS = {
    "transverse": (sweep_transverse, ("quartic",)),
    "longitudinal": (sweep_longitudinal, ("quartic",)),
    "doublezero": (sweep_doublezero, ("angular",)),
    "sombrero": (sweep_sombrero, ("quartic", "gate_pairs")),
}
_SWEEP_OPTIONS = sorted({k for _, options in _SWEEPS.values() for k in options})


def _cmd_sweep(ns, argv) -> int:
    fn, options = _SWEEPS[ns.scenario]
    stray = [k for k in _SWEEP_OPTIONS if k not in options and getattr(ns, k) is not None]
    if stray:
        flags = ", ".join("--" + k.replace("_", "-") for k in stray)
        raise UsageError(f"scenario {ns.scenario} does not take {flags}")
    out = _out_dir(ns)
    values = _parse_grid(ns.grid)
    kwargs = {k: getattr(ns, k) for k in options if getattr(ns, k) is not None}
    rows = [row for eps in ns.eps_values for row in fn(eps, values, **kwargs)]
    outputs = []
    if ns.format == "csv":
        _write_csv(out / "sweep.csv", SWEEP_FIELDS, ([row[f] for f in SWEEP_FIELDS] for row in rows))
        outputs.append("sweep.csv")
    else:
        _write_json(out / "sweep.json", rows)
        outputs.append("sweep.json")
    _write_manifest(out, ns, argv, outputs)
    return 0


def _cmd_verify(ns, argv) -> int:
    model = _load_model(ns)
    if model.dim not in _MAX_NODES:
        raise UsageError(f"capacity quadrature supports dimensions 1 to {max(_MAX_NODES)}")
    out = _out_dir(ns)
    saddle = _converge(model, _parse_vector(ns.saddle_seed), "saddle")
    try:
        spec, sc = saddle_spec(model, saddle)
    except ValueError as exc:
        raise RuntimeError(str(exc)) from exc
    rows = []
    violation = None
    # a 1-d model's exact capacity runs along the saddle's unstable axis, as both bounds do
    x0, q0 = float(saddle.location[0]), float(saddle.eigenvectors[0, 0])
    for eps in ns.eps_values:
        box = default_box(model, saddle, eps, scale=ns.box_scale)
        levels: dict = {}  # the row's per-level integrals, shared by both bounds
        upper = dirichlet_upper_bound(model, saddle, box, grid=ns.grid_nodes, levels=levels)
        lower = fiber_lower_bound(model, saddle, box, grid=ns.grid_nodes, levels=levels)
        del levels
        closed = closed_rate(UNIT_MINIMUM, spec, eps).capacity
        if not all(0.0 < v < math.inf for v in (upper.value, lower.value, closed)):
            raise OutOfRange(
                f"capacities at eps={eps} are outside the positive float64 range "
                f"(upper {upper.value!r}, lower {lower.value!r}, closed form {closed!r})"
            )
        row = {
            "eps": eps,
            "closed_form": closed,
            "upper": upper.value,
            "lower": lower.value,
            "ratios": {
                "upper_over_closed": upper.value / closed,
                "lower_over_closed": lower.value / closed,
                "lower_over_upper": lower.value / upper.value,
            },
            "grid": list(upper.grid_shape),
            "box": box.as_dict(),
        }
        if model.dim == 1:
            exact = capacity_1d_exact(
                lambda t: model.value(np.array([x0 + q0 * t])), -box.delta1, box.delta1, eps
            )
            row["exact_1d"] = exact.value
        rows.append(row)
        if lower.value > upper.value * (1 + 1e-12):
            violation = f"fiber lower bound {lower.value} exceeds Dirichlet upper bound {upper.value} at eps={eps}"
    doc = {"classification": {"tag": sc.tag.value, "verdict": sc.verdict.value}, "results": rows}
    _write_json(out / "verify.json", doc)
    _write_manifest(out, ns, argv, ["verify.json"])
    if violation:
        raise InvariantViolation(violation)
    return 0


def _cmd_simulate(ns, argv) -> int:
    model = _load_model(ns)
    if len(ns.eps_values) != 1:
        raise UsageError("simulate takes exactly one eps")
    (eps,) = ns.eps_values
    out = _out_dir(ns)
    start = _parse_vector(ns.start)
    center = _parse_vector(ns.target)
    radius = ns.radius if ns.radius is not None else default_radius(eps)
    dt = ns.dt if ns.dt is not None else default_dt(model, eps, [start, center])
    prediction = None
    if ns.saddle_seed:
        # resolve the closed form before paying for the Monte Carlo run
        minimum = _converge(model, start, "minimum (from start)")
        saddle = _converge(model, _parse_vector(ns.saddle_seed), "saddle")
        min_spec, spec, _ = _rate_specs(model, minimum, saddle)
        prediction = closed_rate(min_spec, spec, eps)
    config = SimulationConfig(
        eps=eps,
        dt=dt,
        max_time=ns.max_time,
        replicas=ns.replicas,
        seed=ns.seed,
        start=start,
        target=Ball(center, radius),
        keep_times=bool(ns.times_csv),
    )
    estimate = simulate_first_hitting(model, config)
    doc = {"estimate": estimate_json(estimate), "dt": dt, "radius": radius}
    outputs = ["simulate.json"]
    if ns.times_csv:
        write_times_csv(estimate, out / "times.csv")
        outputs.append("times.csv")
    if prediction is not None:
        doc["prediction"] = asdict(prediction)

    if estimate.censored_fraction > MAX_CENSORED_FRACTION:
        doc["error"] = (
            f"censored fraction {estimate.censored_fraction:.1%} exceeds "
            f"{MAX_CENSORED_FRACTION:.0%}; "
            "mean over hits is biased -- extend --max-time"
        )
        _write_json(out / "simulate.json", doc)
        _write_manifest(out, ns, argv, outputs)
        raise InvariantViolation(doc["error"])

    if prediction is not None:
        doc["validation"] = validation_json(validate(estimate, prediction))
    _write_json(out / "simulate.json", doc)
    _write_manifest(out, ns, argv, outputs)
    return 0


def _cmd_tabulate(ns, argv) -> int:
    out = _out_dir(ns)
    alphas = _parse_grid(ns.alphas)
    rows = []
    for name in sorted(CROSSOVER_FUNCTIONS):
        for alpha in alphas:
            ev = evaluate(name, alpha, route=ns.route)
            rows.append((name, ev.alpha, ev.value, ev.route))
    outputs = []
    if ns.format == "json":
        _write_json(
            out / "special.json",
            [dict(zip(("function", "alpha", "value", "route"), r)) for r in rows],
        )
        outputs.append("special.json")
    else:
        _write_csv(out / "special.csv", ("function", "alpha", "value", "route"), rows)
        outputs.append("special.csv")
    _write_manifest(out, ns, argv, outputs)
    return 0


# ---------------------------------------------------------------------------
# wiring

# shared flags in help order as (group, flag, keywords); every command takes --out
_SHARED = (
    ("potential", "--potential", dict(help=f"built-in name ({'|'.join(_BUILTINS)}) or JSON file")),
    ("potential", "--params", dict(help="comma-separated key=value family parameters")),
    ("eps", "--eps", dict(help="comma-separated noise intensities")),
    ("out", "--out", dict(default=".", help="output directory (default: current)")),
    ("format", "--format", dict(choices=("csv", "json"), default="csv")),
)

# name -> (handler, help, shared flag groups, own options as (flag, keywords))
_COMMANDS = {
    "classify": (_cmd_classify, "locate and classify stationary points", ("potential",), (
        ("--seeds", dict(help="semicolon-separated start points, e.g. '0,0;1,1'")),
        ("--tol", dict(type=float, default=1e-9, help="gradient-norm tolerance")),
    )),
    "rate": (_cmd_rate, "closed-form expected transition times", ("potential", "eps"), (
        ("--minimum-seed", dict(required=True, help="seed for the starting minimum")),
        ("--saddle-seed", dict(required=True, help="seed for the gate saddle")),
    )),
    "sweep": (_cmd_sweep, "prefactor curves along a control parameter", ("eps", "format"), (
        ("--scenario", dict(required=True, choices=sorted(_SWEEPS))),
        ("--grid", dict(required=True, help="control values: start:stop:count or comma list")),
        ("--quartic", dict(type=float)), ("--angular", dict(type=float)), ("--gate-pairs", dict(type=int)),
    )),
    "verify": (_cmd_verify, "quadrature capacity bounds vs closed form", ("potential", "eps"), (
        ("--saddle-seed", dict(required=True)),
        ("--grid-nodes", dict(type=int, default=65, help="initial Simpson nodes per axis")),
        ("--box-scale", dict(type=float, default=1.0, help="multiplier on default box widths")),
    )),
    "simulate": (_cmd_simulate, "Monte Carlo first-hitting times", ("potential", "eps"), (
        ("--seed", dict(type=int, default=0, help="64-bit random seed")),
        ("--start", dict(required=True)),
        ("--target", dict(required=True, help="target ball center")),
        ("--radius", dict(type=float, help="target radius (default 3 sqrt(eps))")),
        ("--dt", dict(type=float)), ("--max-time", dict(type=float, required=True)),
        ("--replicas", dict(type=int, required=True)),
        ("--times-csv", dict(action="store_true", help="also write per-replica times.csv")),
        ("--saddle-seed", dict(help="validate against the closed-form rate")),
    )),
    "tabulate-special": (_cmd_tabulate, "crossover-function table", ("format",), (
        ("--alphas", dict(default="0:5:51", help="alpha grid: start:stop:count or comma list")),
        ("--route", dict(choices=("auto", "closed_form", "quadrature"), default="auto")),
    )),
}


def _build_parser(argv: list[str]) -> _Parser:
    """The parser with the subparser of the command ``argv[0]`` names, or with
    all of them when it names none (help, version and usage errors)."""
    # the description is the module docstring up to its paragraph on the
    # wiring, as plain text: without reStructuredText's literal markup
    description = __doc__.rsplit("\n\n", 1)[0].replace("``", "")
    parser = _Parser(prog="metastable", description=description)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    one = [argv[0]] if argv and argv[0] in _COMMANDS else None
    # a one-command usage line still lists every command; the full build keeps
    # argparse's metavar, which its missing-command and invalid-choice errors read
    metavar = "{" + ",".join(_COMMANDS) + "}" if one else None
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser, metavar=metavar)
    for name in one or _COMMANDS:
        _, help_, groups, own = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for group, flag, kwargs in _SHARED:
            if group == "out" or group in groups:
                p.add_argument(flag, **kwargs)
        for flag, kwargs in own:
            p.add_argument(flag, **kwargs)
    return parser


def _check_real_flags(ns, groups, own) -> None:
    """Check the command's real-valued flags, naming each by its flag: every
    ``--eps`` value (parsed into ``ns.eps_values``) and every ``type=float``
    option, all of which are positive reals."""
    if "eps" in groups:
        ns.eps_values = _parse_floats(ns.eps or "")
        if not ns.eps_values:
            raise UsageError("--eps is required")
        for value in ns.eps_values:
            _check_positive(value, "--eps")
    for flag, kwargs in own:
        value = getattr(ns, flag[2:].replace("-", "_"))
        if kwargs.get("type") is float and value is not None:
            _check_positive(value, flag)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ns = _build_parser(argv).parse_args(argv)
    handler, _, groups, own = _COMMANDS[ns.command]
    try:
        _check_real_flags(ns, groups, own)
        return handler(ns, argv)
    except (UsageError, ValueError) as exc:
        print(f"metastable {ns.command}: error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"metastable {ns.command}: invariant violation: {exc}", file=sys.stderr)
        return 3
    except (OutOfRange, OverflowError) as exc:
        print(f"metastable {ns.command}: out of range: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"metastable {ns.command}: did not converge: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
