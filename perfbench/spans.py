"""Span tracer for the benchmark's traced runs.

`Tracer.install` wraps the public functions of every bsvi layer in place,
from outside the package: each call records a span (name, start, end,
parent) in memory.  `solver` and `analysis` bind some layer functions with
from-imports, so every module namespace that holds a wrapped function object
is patched, not just the defining module.  `Tracer.uninstall` puts the
originals back, so the output checks after a run are not traced.

Names that a later version of the package no longer defines are skipped;
their metrics then read 0.
"""

import contextlib
import functools
import gzip
import importlib
import json
import time
import tracemalloc

# Layer -> public functions wrapped in a traced run.  A dotted entry is a
# method, wrapped on its class.
LAYERS = {
    "cli": ("main", "run", "parse_config", "emit_report"),
    "problems": ("box_linear_problem", "terminal_constant", "terminal_linear",
                 "terminal_clipped_linear"),
    "lattice": ("build_tree", "ScenarioTree.path_sums", "conditional_expectation",
                "z_projection", "history_value", "segment_accessors"),
    "generators": ("eval_generator", "delayed_quadrature", "generator_at_origin",
                   "generator_bound_diagnostic", "lipschitz_probe_audit"),
    "convex": ("eval_phi", "prox", "moreau", "yosida_triple", "yosida_grad",
               "resolvent_step", "subgradient_check"),
    "solver": ("check_wellposedness", "backward_pass", "picard_solve",
               "solve_penalized", "solve_bsvi", "prox_step_solve"),
    "analysis": ("path_norms", "apriori_audit", "yosida_audit", "epsilon_rate_fit",
                 "stability_audit", "default_subdiff_probes", "solution_residuals"),
}

# Spans reported with total (`<name>_s`) and self (`<name>.self_s`) time.
TIMED = (
    "cli.parse_config", "cli.emit_report", "problems.terminal_clipped_linear",
    "lattice.path_sums", "generators.eval_generator",
    "generators.delayed_quadrature", "convex.subgradient_check",
    "convex.resolvent_step", "solver.picard_solve", "solver.solve_bsvi",
    "solver.prox_step_solve", "analysis.solution_residuals",
    "analysis.apriori_audit", "analysis.yosida_audit",
)

# Spans reported as exact call counts (`<name>.calls`).
COUNTED = (
    "lattice.history_value", "lattice.segment_accessors",
    "generators.eval_generator", "generators.delayed_quadrature",
    "convex.subgradient_check", "convex.resolvent_step", "convex.prox",
    "solver.picard_solve", "analysis.path_norms",
)

# Metrics that must repeat exactly between two traced runs of one input.
EXACT = tuple(f"{name}.calls" for name in COUNTED) + ("solver.sweeps",
                                                      "solver.node_updates")


class Tracer:
    """Collects spans in memory while installed.

    ``spans`` holds [name, start, end, parent] lists (parent is an index into
    ``spans`` or -1).  Picard sweeps are read off each `picard_solve` result.
    With ``alloc`` set, nothing but `solve_bsvi` is wrapped and no spans are
    kept: tracemalloc runs for the length of each call and records the peak of
    what the call allocated (tracing makes it several times slower).
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans = []
        self._stack = []
        self._patches = []
        self.sweeps_per_solve = []
        self.node_updates = 0
        self.alloc_peak_bytes = 0

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, name: str, fn):
        if self.alloc:
            return self._measure_alloc(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        # `span` inlined: this runs on every call of a per-node function.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        if name == "solver.picard_solve":
            return self._count_sweeps(traced)
        return traced

    def _count_sweeps(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            sweeps = sol.diagnostics.iterations_used
            self.sweeps_per_solve.append(sweeps)
            self.node_updates += sweeps * sum(len(v) for v in sol.Y.values)
            return sol
        return counted

    def _measure_alloc(self, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak_bytes = max(self.alloc_peak_bytes, peak)
        return measured

    def install(self):
        """Wrap every listed function in every bsvi namespace that holds it."""
        package = importlib.import_module("bsvi")
        modules = [package] + [importlib.import_module(f"bsvi.{layer}")
                               for layer in LAYERS]
        layers = {"solver": ("solve_bsvi",)} if self.alloc else LAYERS
        for layer, names in layers.items():
            home = importlib.import_module(f"bsvi.{layer}")
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name, None)
                    orig = getattr(cls, "__dict__", {}).get(meth)
                    if orig is not None:
                        self._patch(cls, meth, orig,
                                    self._wrap(f"{layer}.{meth}", orig))
                    continue
                orig = getattr(home, name, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def metrics(self) -> dict:
        """Per-layer totals, self times, exact counts and sweep figures."""
        total, self_time, calls = {}, {}, {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child_time):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - inner)
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for name in TIMED:
            out[f"{name}_s"] = total.get(name, 0.0)
            out[f"{name}.self_s"] = self_time.get(name, 0.0)
        for name in COUNTED:
            out[f"{name}.calls"] = calls.get(name, 0)
        sweeps = sum(self.sweeps_per_solve)
        out["solver.sweeps"] = sweeps
        out["solver.node_updates"] = self.node_updates
        picard_s = total.get("solver.picard_solve", 0.0)
        out["solver.sweep_s"] = picard_s / sweeps if sweeps else 0.0
        out["solver.solve_bsvi.alloc_peak_mb"] = self.alloc_peak_bytes / 2 ** 20
        return out

    def leader(self, root: str, share: float = 0.6):
        """The span that leads the run under ``root``, and the chain to it.

        From the root span, repeatedly step to the child name with the largest
        summed time while that covers at least ``share`` of the root.  The
        leader is the outermost span of the last layer the chain reaches, so
        an entry point (``solve_bsvi``) stands for the solver calls below it.
        Returns (leader name, [(name, share of root time)]).
        """
        children = {}
        for idx, (_, _, _, parent) in enumerate(self.spans):
            children.setdefault(parent, []).append(idx)
        level = [i for i, s in enumerate(self.spans) if s[0] == root]
        base = sum(self.spans[i][2] - self.spans[i][1] for i in level)
        chain = []
        while base > 0:
            by_name = {}
            for i in level:
                for c in children.get(i, ()):
                    name, start, end, _ = self.spans[c]
                    entry = by_name.setdefault(name, [0.0, []])
                    entry[0] += end - start
                    entry[1].append(c)
            if not by_name:
                break
            name, (t, level) = max(by_name.items(), key=lambda kv: kv[1][0])
            if t < share * base:
                break
            chain.append((name, t / base))
        lead = root
        for name, _ in reversed(chain):
            if lead != root and name.split(".")[0] != lead.split(".")[0]:
                break
            lead = name
        return lead, chain

    def write(self, path):
        """Write the spans as gzip JSON lines: [id, parent, name, start, end]."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([idx, parent, name, round(start - t0, 9),
                                     round(end - t0, 9)]) + "\n")
