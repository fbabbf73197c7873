"""Per-layer tracing of relex, installed from outside the package.

The tracer replaces the functions of each relex layer module with wrappers
that record one span per call: the call count, the total time and the self
time (the span's time minus the time of the spans it encloses). It rebinds the
names in every loaded relex module namespace, so a module that did
``from .langevin import em_update`` calls the wrapper too, and it patches
relex modules imported later (``relex check`` imports ``relex.acceptance``
inside its handler) as they load. Nothing under ``src/relex`` is edited.

Spans are aggregated by name in memory rather than stored one by one: a
traced ``relex check`` makes about a million calls.

This module also turns the aggregates into the per-layer metrics named in
BENCHMARK.json, and measures the per-call cost table. A metric whose source
function no longer exists is reported as absent instead of failing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.abc
import importlib.machinery
import inspect
import math
import statistics
import sys
import time

import numpy as np

LAYERS = ("rng", "objective", "langevin", "replica", "diagnostics",
          "harness", "acceptance", "cli")

# Private functions that are entry points of their layer all the same.
PRIVATE_ENTRY_POINTS = {"harness": ("_summarize",)}

RNG_METHODS = ("__init__", "normal", "uniform")


class Tracer:
    """Wraps relex functions and aggregates their spans by name."""

    def __init__(self):
        self.spans = {}        # "layer.function" -> [calls, total_s, self_s]
        self.values = {}       # named counters filled by the hooks below
        self.wrapped = set()   # every span name that has a wrapper
        self.layers = set()    # layer modules loaded and patched
        self.broken = set()    # spans whose hook failed: their counters are absent
        self._stack = [0.0]    # time spent in child spans, per open span
        self._wrappers = {}    # id(original) -> (original, wrapper)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        """Wrapper recording a span ``name`` per call of ``fn``. ``hook``
        sees (args, kwargs, result) after the span closes and returns the
        result the caller gets."""
        entry = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        broken = self.broken

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - inner
            if hook is not None and name not in broken:
                try:
                    out = hook(args, kwargs, out)
                except Exception:      # relex changed shape; never fail the call
                    broken.add(name)
            return out

        traced.bench_traced = True
        self.wrapped.add(name)
        self._wrappers[id(fn)] = (fn, traced)
        return traced

    def install(self):
        """Patch every loaded relex module and any imported from now on."""
        self.patch_modules(_relex_modules())
        sys.meta_path.insert(0, _PatchOnImport(self))

    def patch_modules(self, modules):
        for module in modules:
            self._wrap_module(module)
        for module in _relex_modules():
            self._rebind(module)

    def _wrap_module(self, module):
        layer = module.__name__.rpartition(".")[2]
        if module.__name__ == "relex" or layer not in LAYERS:
            return
        self.layers.add(layer)
        private = PRIVATE_ENTRY_POINTS.get(layer, ())
        for attr, value in list(vars(module).items()):
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and id(value) not in self._wrappers
                    and (not attr.startswith("_") or attr in private)):
                self.wrap(f"{layer}.{attr}", value, self._hook(layer, attr, value))
        if layer == "rng" and isinstance(getattr(module, "RngStream", None), type):
            cls = module.RngStream
            for meth in RNG_METHODS:
                fn = cls.__dict__.get(meth)
                if inspect.isfunction(fn) and id(fn) not in self._wrappers:
                    hook = self._count("rng.streams") if meth == "__init__" else self._draws
                    setattr(cls, meth, self.wrap(f"rng.RngStream.{meth}", fn, hook))
        if layer == "objective" and hasattr(module, "ObjectiveFunction"):
            self.wrapped.update(("objective.eval", "objective.grad"))

    def _rebind(self, module):
        """Point every name bound to a wrapped original at its wrapper,
        including the values of module-level dicts such as cli.HANDLERS."""
        for attr, value in list(vars(module).items()):
            found = self._wrappers.get(id(value))
            if found is not None and found[0] is value:
                setattr(module, attr, found[1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    found = self._wrappers.get(id(item))
                    if found is not None and found[0] is item:
                        value[key] = found[1]

    def take(self):
        """Return the aggregates so far and zero them."""
        snapshot = {
            "spans": {n: list(e) for n, e in self.spans.items() if e[0]},
            "values": dict(self.values),
            "wrapped": sorted(self.wrapped),
            "layers": sorted(self.layers),
            "broken": sorted(self.broken),
        }
        for entry in self.spans.values():
            entry[:] = [0, 0.0, 0.0]
        self.values.clear()
        return snapshot

    # -- hooks --------------------------------------------------------------

    def _add(self, key, amount):
        self.values[key] = self.values.get(key, 0) + amount

    def _count(self, key):
        def hook(args, kwargs, out):
            self._add(key, 1)
            return out
        return hook

    def _draws(self, args, kwargs, out):
        self._add("rng.draws", int(np.size(out)))
        return out

    def _hook(self, layer, attr, fn):
        """The counting hook of one wrapped function, or None."""
        name = f"{layer}.{attr}"
        returns = fn.__annotations__.get("return")
        if returns == "ObjectiveFunction" or getattr(returns, "__name__", None) == "ObjectiveFunction":
            return self._objective_factory(fn)
        sig = inspect.signature(fn)

        def bound(args, kwargs):
            return sig.bind(*args, **kwargs).arguments

        if name == "harness.pregenerate_noise":
            def hook(args, kwargs, out):
                self._add("harness.noise_bytes", sum(a.nbytes for a in out))
                return out
        elif name == "harness._summarize":
            def hook(args, kwargs, out):
                self._add("harness.traj_bytes", bound(args, kwargs)["traj"].nbytes)
                return out
        elif layer == "harness" and attr.startswith("write_") and attr.endswith("_csv"):
            def hook(args, kwargs, out):
                path = bound(args, kwargs)["path"]
                with open(path, "rb") as fh:
                    data = fh.read()
                self._add("harness.csv_rows", data.count(b"\n") - 2)
                self._add("harness.csv_bytes", len(data))
                return out
        elif name == "harness.run_comparison":
            def hook(args, kwargs, out):
                for summary in out:
                    self._add(f"harness.{summary.algorithm}_s", summary.wall_time)
                    if summary.swap_counts is not None:
                        self._add("replica.swaps", int(np.sum(summary.swap_counts)))
                        self._add("replica.pair_steps",
                                  summary.final_best.size * int(summary.iterations[-1]))
                return out
        elif name == "replica.run_pair_ensemble":
            def hook(args, kwargs, out):
                swap_counts = out[2]
                self._add("replica.swaps", int(np.sum(swap_counts)))
                self._add("replica.pair_steps",
                          len(swap_counts) * int(bound(args, kwargs)["steps"]))
                return out
        elif name == "acceptance.run_criterion":
            def hook(args, kwargs, out):
                number = int(out.name.split()[0])
                self._add(f"acceptance.c{number}_s", out.runtime)
                self._add("acceptance.passed", int(out.passed))
                return out
        else:
            hook = None
        return hook

    def _objective_factory(self, fn):
        """Hook that wraps eval and grad of the objective a factory returns."""
        sig = inspect.signature(fn)

        def hook(args, kwargs, out):
            if getattr(out.eval, "bench_traced", False):
                return out
            spec = sig.bind(*args, **kwargs).arguments.get("spec")
            centres = len(spec.centers) if hasattr(spec, "centers") else 1
            row_bytes = centres * out.dimension * 8
            return dataclasses.replace(
                out,
                eval=self.wrap("objective.eval", out.eval, self._points("eval", row_bytes)),
                grad=self.wrap("objective.grad", out.grad, self._points("grad", row_bytes)),
            )
        return hook

    def _points(self, kind, row_bytes):
        def hook(args, kwargs, out):
            points = math.prod(np.shape(args[0])[:-1])
            self._add(f"objective.{kind}_points", points)
            self._add("objective.kernel_bytes", points * row_bytes)
            return out
        return hook


def _relex_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "relex" or n.startswith("relex."))]


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches relex modules that load after the tracer was installed."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if not fullname.startswith("relex."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _PatchingLoader(spec.loader, self.tracer)
        return spec


class _PatchingLoader(importlib.abc.Loader):
    def __init__(self, loader, tracer):
        self.loader = loader
        self.tracer = tracer

    def __getattr__(self, name):
        return getattr(self.loader, name)

    def create_module(self, spec):
        return self.loader.create_module(spec)

    def exec_module(self, module):
        self.loader.exec_module(module)
        self.tracer.patch_modules([module])


# ---------------------------------------------------------------------------
# Per-layer metrics from the aggregates of one traced operation.

class Absent(Exception):
    """A metric's source function does not exist in this version of relex."""


class NotLoaded(Exception):
    """The metric's layer module was never imported, so it did no work."""


class _Run:
    def __init__(self, run, setup):
        self.spans = run["spans"]
        self.values = run["values"]
        self.wrapped = set(run["wrapped"])
        self.layers = set(run["layers"])
        self.setup_spans = setup["spans"]
        self.broken = set(run["broken"])

    def need(self, *names):
        if not any(n in self.wrapped for n in names):
            if names and names[0].split(".")[0] not in self.layers:
                raise NotLoaded(names)
            raise Absent(names)

    def calls(self, name):
        self.need(name)
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total(self, *names):
        self.need(*names)
        return sum(self.spans.get(n, (0, 0.0, 0.0))[1] for n in names)

    def value(self, key, *sources):
        self.need(*sources)
        if all(n in self.broken for n in sources):
            raise Absent(sources)
        return self.values.get(key, 0)

    def setup_total(self, name):
        self.need(name)
        return self.setup_spans.get(name, (0, 0.0, 0.0))[1]

    def layer_self(self, layer):
        if layer not in self.layers:
            raise NotLoaded(layer)
        return sum(e[2] for n, e in self.spans.items() if n.startswith(layer + "."))


def _ratio(num, den):
    return num / den if den else 0.0


WRITERS = ("harness.write_bestsofar_csv", "harness.write_summary_csv",
           "harness.write_chi2decay_csv", "harness.write_discerr_csv")
GIBBS = ("diagnostics.gibbs_density", "diagnostics.pair_gibbs_density")
SWAP_SOURCES = ("harness.run_comparison", "replica.run_pair_ensemble")


def _layer_metric_defs():
    """(name, unit, fn(run, ctx)); ctx holds particle_steps, wall_s, import_s."""
    defs = [
        ("rng.streams_created", "count", lambda r, c: r.value("rng.streams", "rng.RngStream.__init__")),
        ("rng.draws", "count", lambda r, c: r.value("rng.draws", "rng.RngStream.normal", "rng.RngStream.uniform")),
        ("rng.s", "s", lambda r, c: r.layer_self("rng")),
        ("objective.eval_calls", "count", lambda r, c: r.calls("objective.eval")),
        ("objective.grad_calls", "count", lambda r, c: r.calls("objective.grad")),
        ("objective.eval_points", "count", lambda r, c: r.value("objective.eval_points", "objective.eval")),
        ("objective.grad_points", "count", lambda r, c: r.value("objective.grad_points", "objective.grad")),
        ("objective.eval_s", "s", lambda r, c: r.total("objective.eval")),
        ("objective.grad_s", "s", lambda r, c: r.total("objective.grad")),
        ("objective.evals_per_particle_step", "ratio",
         lambda r, c: _ratio(r.value("objective.eval_points", "objective.eval"), c["particle_steps"])),
        ("objective.grads_per_particle_step", "ratio",
         lambda r, c: _ratio(r.value("objective.grad_points", "objective.grad"), c["particle_steps"])),
        ("objective.kernel_bytes_computed", "bytes",
         lambda r, c: r.value("objective.kernel_bytes", "objective.eval", "objective.grad")),
        ("objective.self_s", "s", lambda r, c: r.layer_self("objective")),
        ("langevin.em_update_calls", "count", lambda r, c: r.calls("langevin.em_update")),
        ("langevin.em_update_s", "s", lambda r, c: r.total("langevin.em_update")),
        ("langevin.check_finite_calls", "count", lambda r, c: r.calls("langevin.check_finite")),
        ("langevin.check_finite_s", "s", lambda r, c: r.total("langevin.check_finite")),
        ("langevin.self_s", "s", lambda r, c: r.layer_self("langevin")),
        ("replica.swap_rate_calls", "count", lambda r, c: r.calls("replica.swap_rate")),
        ("replica.swap_rate_s", "s", lambda r, c: r.total("replica.swap_rate")),
        ("replica.swap_probability_s", "s", lambda r, c: r.total("replica.swap_probability")),
        ("replica.pair_ensemble_s", "s", lambda r, c: r.total("replica.run_pair_ensemble")),
        ("replica.swaps", "count", lambda r, c: r.value("replica.swaps", *SWAP_SOURCES)),
        ("replica.swap_frac", "ratio",
         lambda r, c: _ratio(r.value("replica.swaps", *SWAP_SOURCES),
                             r.value("replica.pair_steps", *SWAP_SOURCES))),
        ("replica.self_s", "s", lambda r, c: r.layer_self("replica")),
        ("harness.noise_s", "s", lambda r, c: r.total("harness.pregenerate_noise")),
        ("harness.noise_bytes", "bytes", lambda r, c: r.value("harness.noise_bytes", "harness.pregenerate_noise")),
        ("harness.low_s", "s", lambda r, c: r.value("harness.low-temp_s", "harness.run_comparison")),
        ("harness.high_s", "s", lambda r, c: r.value("harness.high-temp_s", "harness.run_comparison")),
        ("harness.rex_s", "s", lambda r, c: r.value("harness.replica-exchange_s", "harness.run_comparison")),
        ("harness.rex_over_low", "ratio",
         lambda r, c: _ratio(r.value("harness.replica-exchange_s", "harness.run_comparison"),
                             r.value("harness.low-temp_s", "harness.run_comparison"))),
        ("harness.self_s", "s", lambda r, c: r.layer_self("harness")),
        ("harness.summarize_s", "s", lambda r, c: r.total("harness._summarize")),
        ("harness.traj_bytes", "bytes", lambda r, c: r.value("harness.traj_bytes", "harness._summarize")),
        ("harness.csv_s", "s", lambda r, c: r.total(*WRITERS)),
        ("harness.csv_rows", "count", lambda r, c: r.value("harness.csv_rows", *WRITERS)),
        ("harness.csv_bytes", "bytes", lambda r, c: r.value("harness.csv_bytes", *WRITERS)),
        ("diagnostics.histogram_calls", "count", lambda r, c: r.calls("diagnostics.empirical_histogram")),
        ("diagnostics.histogram_s", "s", lambda r, c: r.total("diagnostics.empirical_histogram")),
        ("diagnostics.gibbs_s", "s", lambda r, c: r.total(*GIBBS)),
        ("diagnostics.chi2_decay_s", "s", lambda r, c: r.total("diagnostics.chi2_decay_experiment")),
        ("diagnostics.dirichlet_s", "s", lambda r, c: r.total("diagnostics.dirichlet_acceleration_term")),
        ("diagnostics.self_s", "s", lambda r, c: r.layer_self("diagnostics")),
    ]
    for k in range(1, 10):
        defs.append((f"acceptance.c{k}_s", "s",
                     lambda r, c, k=k: r.value(f"acceptance.c{k}_s", "acceptance.run_criterion")))
    defs += [
        ("acceptance.passed", "count", lambda r, c: r.value("acceptance.passed", "acceptance.run_criterion")),
        ("acceptance.self_s", "s", lambda r, c: r.layer_self("acceptance")),
        ("cli.import_s", "s", lambda r, c: c["import_s"]),
        ("cli.config_s", "s", lambda r, c: r.setup_total("cli.load_config")),
        ("cli.self_s", "s", lambda r, c: r.layer_self("cli")),
        ("trace.wall_s", "s", lambda r, c: c["wall_s"]),
        ("trace.remainder_s", "s",
         lambda r, c: c["wall_s"] - sum(e[2] for e in r.spans.values())),
    ]
    return defs


LAYER_METRICS = _layer_metric_defs()


def layer_metrics(raw, particle_steps):
    """{name: value or None if absent} for one traced child's output."""
    run = _Run(raw["trace"], raw["setup_trace"])
    ctx = {"particle_steps": particle_steps, "wall_s": raw["wall_s"],
           "import_s": raw["import_s"]}
    out = {}
    for name, _, fn in LAYER_METRICS:
        try:
            out[name] = float(fn(run, ctx))
        except NotLoaded:
            out[name] = 0.0
        except Absent:
            out[name] = None
    return out


# ---------------------------------------------------------------------------
# Per-call cost table: the scaling curve of each hot call with chain count.

COST_SIZES = (20, 2000, 20000)
COST_OPS = ("eval", "grad", "em_update", "check_finite", "swap_rate", "rng_normal")
COST_METRICS = [(f"cost.{op}_us.n{n}", "us") for op in COST_OPS for n in COST_SIZES]


def _per_call_us(call, repeats, sample_s=0.01):
    call()
    start = time.perf_counter()
    call()
    once = time.perf_counter() - start
    number = max(1, min(10_000, int(sample_s / max(once, 1e-7))))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            call()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples) * 1e6


def cost_table(repeats=5):
    """{metric name: median microseconds per call, or None if absent}."""
    from relex import langevin, objective, replica, rng

    gen = np.random.default_rng(20200705)
    out = {}
    for n in COST_SIZES:
        x = gen.uniform(-1.0, 5.0, (n, 2))
        xi = gen.standard_normal((n, 2))
        temps = np.full(n, 0.5)
        u1, u2 = gen.uniform(-1.5, 0.0, n), gen.uniform(-1.5, 0.0, n)
        t1, t2 = np.full(n, 0.01), np.full(n, 1.0)
        calls = dict.fromkeys(COST_OPS)
        if hasattr(objective, "benchmark_mixture"):
            f = objective.benchmark_mixture(0.1)
            g = f.grad(x)
            calls["eval"] = lambda: f.eval(x)
            calls["grad"] = lambda: f.grad(x)
            if hasattr(langevin, "em_update"):
                calls["em_update"] = lambda: langevin.em_update(x, g, temps, 0.01, xi)
        if hasattr(langevin, "check_finite"):
            calls["check_finite"] = lambda: langevin.check_finite(x, 1)
        if hasattr(replica, "swap_rate"):
            calls["swap_rate"] = lambda: replica.swap_rate(u1, u2, t1, t2)
        if hasattr(rng, "RngStream"):
            stream = rng.RngStream(7, 1)
            calls["rng_normal"] = lambda: stream.normal((n, 2))
        for op, call in calls.items():
            out[f"cost.{op}_us.n{n}"] = None if call is None else _per_call_us(call, repeats)
    return out


def metric_units():
    return {name: unit for name, unit, _ in LAYER_METRICS} | dict(COST_METRICS) | {
        "trace.overhead_s": "s"}
