"""Outside-in tracing of ``gel``'s layers, and the per-layer metrics the
spans give.

:class:`Tracer` wraps every public function of each ``gel`` module (its
``__all__``, or the names defined in it when it has none; for ``cli`` the
verb functions and the CSV renderer) and the ``__post_init__`` and public
methods of the public classes.  It then rebinds every ``gel`` module's name
for each wrapped function, so ``gel.dynamics.dirichlet_energy`` is the
wrapper too and calls from one module into another are timed.  Nothing under
``src/gel`` changes.

A span is ``(name, start, end, parent)``; spans stay in memory and are
written when the traced process ends.  A span's self time is its duration
minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("config", "graphs", "energy", "dynamics", "spectral", "verify", "plotting", "cli")

#: ``cli`` has no ``__all__``: its verb functions and the CSV renderer.
CLI_FUNCTIONS = (
    "run_experiment",
    "preset_bipartite_demo",
    "run_suite",
    "replay_witness",
    "trajectory_csv",
)

GRAPH_BUILDERS = (
    "graphs.from_edge_list",
    "graphs.complete_bipartite",
    "graphs.cycle",
    "graphs.path",
    "graphs.erdos_renyi",
    "graphs.Graph.__post_init__",
)
GRAPH_OPERATORS = (
    "graphs.adjacency_matrix",
    "graphs.degree_vector",
    "graphs.edge_array",
    "graphs.normalized_adjacency",
    "graphs.normalized_laplacian",
)
GRAPH_SPECTRA = ("graphs.spectral_decomposition", "graphs.laplacian_spectrum")


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def public_targets(modules: dict[str, types.ModuleType]):
    """Yield ``(span name, owner, attribute, function)`` for every callable
    the tracer wraps; ``owner`` is a module or a class."""
    for layer in LAYERS:
        mod = modules[layer]
        if layer == "cli":
            names = CLI_FUNCTIONS
        else:
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
        for name in names:
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    if isinstance(member, types.FunctionType) and (
                        attr == "__post_init__" or not attr.startswith("_")
                    ):
                        yield f"{layer}.{name}.{attr}", obj, attr, member
            elif _is_function(obj):
                yield f"{layer}.{name}", mod, name, obj


class Tracer:
    """Records one span per call of each wrapped ``gel`` function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.originals: dict[str, object] = {}
        self.step_calls: Counter = Counter()
        self._step_graphs: dict[int, object] = {}
        self.checks: list[tuple[bool, float, float]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.monotonic

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        traced.__perfbench_span__ = name
        return traced

    def install(self) -> int:
        """Wrap every target and rebind all ``gel`` names for it; returns
        the number of functions wrapped."""
        modules = {layer: importlib.import_module(f"gel.{layer}") for layer in LAYERS}
        observers = {
            "dynamics.step_model": self._observe_step,
            "verify.run_check": self._observe_check,
        }
        replaced: dict[int, object] = {}
        for name, owner, attr, fn in list(public_targets(modules)):
            wrapper = self.wrap(name, fn, observers.get(name))
            self.originals[name] = fn
            replaced[id(fn)] = wrapper
            setattr(owner, attr, wrapper)
        gel_modules = [m for k, m in list(sys.modules.items())
                       if m is not None and (k == "gel" or k.startswith("gel."))]
        for mod in gel_modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        return len(replaced)

    def _observe_step(self, args, result) -> None:
        g = args[1]
        self._step_graphs[id(g)] = g
        self.step_calls[(id(g), result.shape[1])] += 1

    def _observe_check(self, args, result) -> None:
        self.checks.append((bool(result.passed), float(result.max_error), float(result.tolerance)))

    # -- results ----------------------------------------------------------

    def cache_counts(self) -> dict[str, list[int]]:
        """``[hits, misses]`` of every cached ``graphs`` function."""
        out = {}
        for name, fn in self.originals.items():
            if name.startswith("graphs.") and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[name] = [info.hits, info.misses]
        return out

    def step_work(self) -> dict[str, float]:
        """Computed (not measured) work of all traced steps.

        Per step: ``2 * entries * d`` flops for the graph operator times the
        features plus ``2 * n * d^2`` for the channel mixing; bytes are the
        operator's storage plus the features read and written and W.  The
        operator is ``normalized_adjacency``'s, dense or sparse as stored.
        """
        from gel.errors import GelError

        adjacency = self.originals["graphs.normalized_adjacency"]
        flops = nbytes = 0.0
        for (gid, d), calls in self.step_calls.items():
            g = self._step_graphs[gid]
            n = g.n
            try:
                op = adjacency(g)
                entries = op.nnz if hasattr(op, "nnz") else op.size
                op_bytes = sum(
                    getattr(op, a).nbytes for a in ("data", "indices", "indptr")
                ) if hasattr(op, "nnz") else op.nbytes
            except GelError:  # a graph with an isolated node has no such operator
                entries, op_bytes = n * n, 8 * n * n
            flops += calls * (2.0 * entries * d + 2.0 * n * d * d)
            nbytes += calls * (op_bytes + 16.0 * n * d + 8.0 * d * d)
        return {"flops": flops, "bytes": nbytes}

    def spans_tsv(self) -> str:
        return "".join(
            f"{n}\t{s!r}\t{e!r}\t{p}\n"
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        )


# ---------------------------------------------------------------------------
# analysis (run in the benchmark process)
# ---------------------------------------------------------------------------

def read_spans(text: str) -> list[tuple[str, float, float, int]]:
    out = []
    for line in text.splitlines():
        name, start, end, parent = line.split("\t")
        out.append((name, float(start), float(end), int(parent)))
    return out


def self_times(spans, window: tuple[float, float] | None = None) -> list[float]:
    """Self time of each span; with ``window``, only the part inside it."""
    def length(start: float, end: float) -> float:
        if window is None:
            return end - start
        return max(0.0, min(end, window[1]) - max(start, window[0]))

    own = [length(s, e) for _, s, e, _ in spans]
    out = list(own)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            out[parent] -= own[i]
    return out


def tail(values) -> float | None:
    """The highest percentile with at least ten samples beyond it, or None
    when there are fewer than eleven samples."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 11 else None


def median(values) -> float:
    """The median, or 0 for no samples (a layer the workload never reaches)."""
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, child: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child.

    ``child`` holds the child's markers (``import_s``, ``ready``, ``end``)
    and the tracer's extras (``cache``, ``step_work``, ``checks``).
    """
    own = self_times(spans)
    inside = self_times(spans, (child["ready"], child["end"]))
    self_by = defaultdict(float)
    total_by = defaultdict(float)
    calls = Counter()
    per_call = defaultdict(list)
    for (name, start, end, _), s in zip(spans, own):
        self_by[name] += s
        total_by[name] += end - start
        calls[name] += 1
        if name in ("dynamics.step_model", "verify.run_check"):
            per_call[name].append(s if name == "dynamics.step_model" else end - start)

    def self_s(*names) -> float:
        return sum(self_by[n] for n in names)

    def count(*names) -> int:
        return sum(calls[n] for n in names)

    m: dict[str, float] = {"gel.import_s": child["import_s"]}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_by.items() if k.startswith(layer + "."))
    m["config.load_s"] = self_s("config.load_config", "config.parse_config")
    m["graphs.build_s"] = self_s(*GRAPH_BUILDERS)
    m["graphs.operator_s"] = self_s(*GRAPH_OPERATORS)
    m["graphs.operator_calls"] = count(*GRAPH_OPERATORS)
    hits = sum(h for h, _ in child["cache"].values())
    lookups = sum(h + miss for h, miss in child["cache"].values())
    m["graphs.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    m["graphs.spectrum_s"] = self_s(*GRAPH_SPECTRA)
    m["graphs.spectrum_calls"] = count(*GRAPH_SPECTRA)
    m["graphs.checks_s"] = self_s("graphs.graph_checks")

    steps = count("dynamics.step_model")
    m["energy.dirichlet_s"] = self_s("energy.dirichlet_energy")
    m["energy.dirichlet_calls"] = count("energy.dirichlet_energy")
    m["energy.parametric_s"] = self_s("energy.parametric_energy")
    m["energy.parametric_calls"] = count("energy.parametric_energy")
    energy_calls = sum(v for k, v in calls.items()
                       if k.startswith("energy.") and k.count(".") == 1)
    m["energy.calls_per_step"] = energy_calls / steps if steps else 0.0

    step_ms = [1e3 * v for v in per_call["dynamics.step_model"]]
    m["dynamics.step_s"] = self_s("dynamics.step_model")
    m["dynamics.steps"] = steps
    m["dynamics.step_ms_p50"] = median(step_ms)
    m["dynamics.step_ms_tail"] = tail(step_ms) or 0.0
    m["dynamics.trajectory_s"] = total_by["dynamics.run_trajectory"]
    m["dynamics.overhead_ratio"] = (
        m["dynamics.trajectory_s"] / m["dynamics.step_s"] if m["dynamics.step_s"] else 0.0
    )
    work = child["step_work"]
    m["dynamics.step_flops"] = work["flops"] / steps if steps else 0.0
    m["dynamics.step_bytes"] = work["bytes"] / steps if steps else 0.0
    m["dynamics.step_flops_per_byte"] = work["flops"] / work["bytes"] if work["bytes"] else 0.0
    m["dynamics.step_gflops"] = (
        work["flops"] / m["dynamics.step_s"] / 1e9 if m["dynamics.step_s"] else 0.0
    )

    m["spectral.classify_s"] = self_s("spectral.classify_regime")
    m["spectral.profile_s"] = self_s("spectral.asymptotic_profile")
    m["spectral.closed_form_s"] = self_s("spectral.closed_form_features")

    check_ms = [1e3 * v for v in per_call["verify.run_check"]]
    checks = child["checks"]
    m["verify.check_s"] = total_by["verify.run_check"]
    m["verify.checks"] = len(checks)
    m["verify.checks_failed"] = sum(1 for ok, _, _ in checks if not ok)
    m["verify.check_ms_p50"] = median(check_ms)
    m["verify.check_ms_tail"] = tail(check_ms) or 0.0
    margins = [err / tol for _, err, tol in checks if tol > 0 and math.isfinite(err)]
    m["verify.worst_margin"] = max(margins) if margins else 0.0

    m["cli.csv_s"] = self_s("cli.trajectory_csv")
    m["cli.report_s"] = m["cli.self_s"] - m["cli.csv_s"]
    m["plotting.svg_s"] = m["plotting.self_s"]

    busy = child["end"] - child["ready"]
    m["trace.spans"] = len(spans)
    m["trace.coverage_frac"] = sum(inside) / busy if busy > 0 else 0.0
    return m
