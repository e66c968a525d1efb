"""Spans around calls into the package's modules, recorded from outside the package.

:class:`Tracer` wraps the public functions of every layer (``__all__`` of each
module, plus the evaluation methods of the potential classes) and rebinds the
wrappers wherever the package holds a reference to the original: module
globals (``from .sampling import simulate_first_hitting`` in ``cli``) and
module-level dispatch tables (``cli._RATE_OPS``, ``cli._SWEEPS``,
``crossover.CROSSOVER_FUNCTIONS``).  :meth:`Tracer.remove` restores every
rebound name.

Spans are aggregated in memory by name: calls, inclusive time, and the time
covered by child spans.  Self time is inclusive time minus child time.  A span
whose parent belongs to another layer (or that has no parent) is a layer
*entry*; ``<layer>.calls`` and ``<layer>.s`` count entries only, so a layer
calling itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("potentials", "sampling", "capacity", "landscape", "crossover", "rates", "cli")
MODEL_METHODS = ("value", "value_many", "gradient", "gradient_many", "hessian", "partial",
                 "third_tensor", "fourth_tensor")
POINTWISE = ("value", "gradient", "hessian", "partial", "third_tensor", "fourth_tensor")
ROW_METHODS = ("value_many", "gradient_many")


class Tracer:
    def __init__(self):
        self.enabled = True
        self._stack = []  # frames: [layer, name, child seconds]
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.child = defaultdict(float)
        self.rows = Counter()  # rows of (n, d) batch evaluations, or rows returned by sweeps
        self.nested = Counter()  # (parent name, child name) -> calls
        self.nested_rows = Counter()
        self.entries = Counter()  # layer -> entry spans
        self.entry_s = defaultdict(float)
        self._restore = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, layer, name, fn, count_rows):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [layer, name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
            tracer.calls[name] += 1
            tracer.incl[name] += dt
            tracer.child[name] += frame[2]
            rows = count_rows(args, result) if count_rows else 0
            tracer.rows[name] += rows
            if parent is None or parent[0] != layer:
                tracer.entries[layer] += 1
                tracer.entry_s[layer] += dt
            if parent is not None:
                parent[2] += dt
                tracer.nested[(parent[1], name)] += 1
                tracer.nested_rows[(parent[1], name)] += rows
            return result

        return traced

    def snapshot(self):
        return {"calls": Counter(self.calls), "rows": Counter(self.rows),
                "nested": Counter(self.nested), "nested_rows": Counter(self.nested_rows),
                "entries": Counter(self.entries)}

    @staticmethod
    def delta(before, after):
        return {k: after[k] - before[k] for k in after}

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every public function and model method, and rebind the wrappers."""
        mods = {layer: importlib.import_module(f"metastable.{layer}") for layer in LAYERS}
        potentials = mods["potentials"]
        for cls in (potentials.PotentialModel, potentials.PolynomialPotential,
                    potentials.ChainPotential, potentials.FunctionPotential):
            for meth in MODEL_METHODS:
                if meth in vars(cls):
                    rows = _batch_rows if meth in ROW_METHODS else None
                    self._set(cls, meth, self._wrap("potentials", f"potentials.{meth}", vars(cls)[meth], rows))
        wrappers = {}
        for layer, mod in mods.items():
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    rows = _result_rows if name.startswith("sweep_") else None
                    wrappers[obj] = self._wrap(layer, f"{layer}.{name}", obj, rows)
        for mod in [importlib.import_module("metastable")] + list(mods.values()):
            for key, val in list(vars(mod).items()):
                if _hashable(val) and val in wrappers:
                    self._set(mod, key, wrappers[val])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if _hashable(v) and v in wrappers:
                            self._set_item(val, k, wrappers[v])
                        elif isinstance(v, tuple) and any(_hashable(x) and x in wrappers for x in v):
                            self._set_item(val, k, tuple(wrappers.get(x, x) if _hashable(x) else x for x in v))
        return self

    def remove(self):
        for undo in reversed(self._restore):
            undo()
        self._restore.clear()

    def _set(self, owner, key, value):
        old = vars(owner)[key]
        setattr(owner, key, value)
        self._restore.append(lambda: setattr(owner, key, old))

    def _set_item(self, table, key, value):
        old = table[key]
        table[key] = value
        self._restore.append(lambda: table.__setitem__(key, old))

    # -- derived quantities --------------------------------------------------

    def self_s(self, name):
        return self.incl[name] - self.child[name]

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(self.self_s(n) for n in list(self.incl) if n.startswith(prefix))


def _hashable(x):
    try:
        hash(x)
    except TypeError:
        return False
    return True


def _batch_rows(args, result):
    shape = getattr(args[1], "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else 1


def _result_rows(args, result):
    return len(result)


def layer_metrics(tr: Tracer, outside: dict) -> dict:
    """Per-layer metrics from the aggregated spans and the counts made from outside."""
    m = {}

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    for meth in ROW_METHODS:
        name = f"potentials.{meth}"
        m[f"{name}.calls"] = tr.calls[name]
        m[f"{name}.rows"] = tr.rows[name]
        m[f"{name}.self_s"] = tr.self_s(name)
        m[f"{name}.ns_per_row"] = ratio(tr.self_s(name), tr.rows[name], 1e9)
    m["potentials.pointwise.calls"] = sum(tr.calls[f"potentials.{p}"] for p in POINTWISE)
    m["potentials.pointwise.self_s"] = sum(tr.self_s(f"potentials.{p}") for p in POINTWISE)

    sim = "sampling.simulate_first_hitting"
    steps = tr.nested[(sim, "potentials.gradient_many")]
    replica_steps = tr.nested_rows[(sim, "potentials.gradient_many")]
    m["sampling.simulate.calls"] = tr.calls[sim]
    m["sampling.simulate.s"] = tr.incl[sim]
    m["sampling.simulate.self_s"] = tr.self_s(sim)
    m["sampling.steps"] = steps
    m["sampling.replica_steps"] = replica_steps
    m["sampling.us_per_step"] = ratio(tr.self_s(sim), steps, 1e6)
    m["sampling.ns_per_replica_step"] = ratio(tr.incl[sim], replica_steps, 1e9)
    replicas = outside.get("replicas", 0)
    for status, key in (("hit", "hits"), ("censored", "censored"), ("aborted", "aborted")):
        m[f"sampling.{status}_frac"] = ratio(outside.get(key, 0), replicas)
    m["sampling.validate.pass_frac"] = ratio(outside.get("validated", 0), outside.get("simulate_jobs", 0))

    upper, lower = "capacity.dirichlet_upper_bound", "capacity.fiber_lower_bound"
    m["capacity.default_box.s"] = tr.incl["capacity.default_box"]
    m["capacity.dirichlet_upper.calls"] = tr.calls[upper]
    m["capacity.dirichlet_upper.s"] = tr.incl[upper]
    m["capacity.fiber_lower.calls"] = tr.calls[lower]
    m["capacity.fiber_lower.s"] = tr.incl[lower]
    m["capacity.exact_1d.s"] = tr.incl["capacity.capacity_1d_exact"]
    m["capacity.self_s"] = tr.layer_self_s("capacity")
    m["capacity.grid_nodes"] = outside.get("grid_nodes", 0)
    m["capacity.levels"] = outside.get("levels", 0)
    m["capacity.ns_per_node"] = ratio(tr.incl[upper], outside.get("grid_nodes", 0), 1e9)
    m["capacity.sandwich_ok_frac"] = ratio(outside.get("sandwich_ok", 0), outside.get("verify_rows", 0))

    for fn in ("find_stationary_points", "classify"):
        m[f"landscape.{fn}.calls"] = tr.calls[f"landscape.{fn}"]
        m[f"landscape.{fn}.s"] = tr.incl[f"landscape.{fn}"]
    m["landscape.normal_form.s"] = tr.incl["landscape.codim1_coefficients"] + tr.incl["landscape.codim2_form"]
    gate = "landscape.communication_height_2d"
    m[f"{gate}.calls"] = tr.calls[gate]
    m[f"{gate}.s"] = tr.incl[gate]
    m[f"{gate}.self_s"] = tr.self_s(gate)
    m[f"{gate}.ns_per_cell"] = ratio(tr.self_s(gate), outside.get("cells", 0), 1e9)

    m["crossover.calls"] = tr.entries["crossover"]
    m["crossover.s"] = tr.entry_s["crossover"]

    m["rates.calls"] = tr.entries["rates"]
    m["rates.s"] = tr.entry_s["rates"]
    m["rates.self_s"] = tr.layer_self_s("rates")
    sweeps = [n for n in tr.calls if n.startswith("rates.sweep_")]
    sweep_rows = sum(tr.rows[n] for n in sweeps)
    m["rates.sweep.rows"] = sweep_rows
    m["rates.sweep.rows_per_s"] = ratio(sweep_rows, sum(tr.incl[n] for n in sweeps))

    m["cli.main.calls"] = tr.calls["cli.main"]
    m["cli.main.s"] = tr.incl["cli.main"]
    m["cli.self_s"] = tr.layer_self_s("cli")
    m["cli.bytes_written"] = outside.get("bytes_written", 0)
    return m


# ---------------------------------------------------------------------------
# microbenchmarks (run untraced)


def _time_per_call(fn, budget=0.04, batches=5):
    """Median over batches of the mean time per call, in microseconds."""
    fn()
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= budget / batches or reps >= 1 << 16:
            break
        reps *= 2
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps * 1e6)
    samples.sort()
    return samples[len(samples) // 2]


KERNEL_MODELS = ("double_well", "rotated2", "chain3")
KERNEL_SIZES = (1, 50, 4000)
CROSSOVER_ALPHAS = (0.1, 0.5, 1.0, 2.0, 5.0)


def kernel_sweep(seed):
    """``gradient_many`` cost per call by model and batch size.

    ``bytes_computed`` is computed from array shapes: the (n, d) float64 input
    and output arrays of one call, not measured memory traffic.
    """
    import numpy as np
    from metastable.potentials import chain_potential, double_well_1d, rotated_two_particle

    models = {"double_well": double_well_1d(), "rotated2": rotated_two_particle(0.5),
              "chain3": chain_potential(3, 1.0)}
    rng = np.random.default_rng(seed)
    out = {}
    for key, model in models.items():
        for n in KERNEL_SIZES:
            pts = rng.normal(size=(n, model.dim))
            out[f"potentials.kernel.{key}.n{n}.us_per_call"] = _time_per_call(lambda: model.gradient_many(pts))
        out[f"potentials.kernel.{key}.n4000.bytes_computed"] = 2 * 4000 * model.dim * 8
    return out


def crossover_sweep():
    """Microseconds per call of each crossover function by route, median over alphas."""
    from metastable.crossover import CROSSOVER_FUNCTIONS

    out = {}
    for name, fn in sorted(CROSSOVER_FUNCTIONS.items()):
        for route in ("closed_form", "quadrature"):
            per_alpha = sorted(_time_per_call(lambda: fn(a, route), budget=0.02, batches=3)
                               for a in CROSSOVER_ALPHAS)
            out[f"crossover.{name}.{route}.us"] = per_alpha[len(per_alpha) // 2]
    return out
