"""Span tracer that wraps reslearn's functions from outside the package.

A probe names a function by module and attribute path and gives it a fixed
span name.  Installing it replaces every reference to that function object
in the loaded ``reslearn`` modules (``from .spectral import solve_laplacian``
makes a second reference), so a call is seen whichever module makes it.
Nothing under ``src/`` is edited.  A probe whose target does not exist at
the traced commit is skipped, so its span is absent and its metrics read 0;
span names never change, so a refactor of the package never needs an edit
here.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "reslearn"

# Errors a count hook may raise when a refactor changes a traced function's
# arguments or result; the count is then absent instead of crashing the run.
_HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError,
                OSError)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """In-memory spans of one job, nested by a call stack (one thread)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def wrap(self, fn, name, count=None):
        """``fn`` recording a span ``name``; ``count(args, kwargs, result)``
        returns counters to add to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                try:
                    span.counts.update(count(args, kwargs, result))
                except _HOOK_ERRORS:
                    pass
            return result

        return traced


@dataclass(frozen=True)
class Probe:
    name: str
    module: str
    attr: str
    count: Callable | None = None


def _arg(args, kwargs, index, keyword):
    return args[index] if len(args) > index else kwargs[keyword]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _learn_counts(args, kwargs, result):
    graph, trace = result
    return {"iterations": len(trace.records),
            "loop_s": sum(rec.seconds for rec in trace.records),
            "edges": graph.edge_count, "nodes": graph.node_count}


PROBES = (
    Probe("measurements.generate_currents", "reslearn.measurements",
          "generate_currents"),
    Probe("measurements.simulate_voltages", "reslearn.measurements",
          "simulate_voltages",
          lambda a, k, r: {"rhs": _arg(a, k, 1, "Y").shape[1]}),
    Probe("spectral.solve_laplacian", "reslearn.spectral", "solve_laplacian"),
    Probe("spectral.eigensolve_smallest", "reslearn.spectral",
          "eigensolve_smallest"),
    Probe("spectral.embedding_distances", "reslearn.spectral",
          "embedding_distances",
          lambda a, k, r: {"pairs": len(_arg(a, k, 1, "sources"))}),
    Probe("learner.init_graph", "reslearn.learner", "init_graph",
          lambda a, k, r: {"candidates": r[0].edge_count}),
    Probe("learner.learn", "reslearn.learner", "learn", _learn_counts),
    Probe("learner.edge_scale", "reslearn.learner", "edge_scale"),
    Probe("graphs.effective_resistance", "reslearn.graphs",
          "effective_resistance",
          lambda a, k, r: {"pairs": len(_arg(a, k, 1, "pairs"))}),
    Probe("graphs.maximum_spanning_tree", "reslearn.graphs",
          "maximum_spanning_tree"),
    Probe("graphs.build_laplacian", "reslearn.graphs", "build_laplacian"),
    Probe("graphs.with_edges", "reslearn.graphs", "WeightedGraph.with_edges"),
    Probe("metrics.compare_spectra", "reslearn.metrics", "compare_spectra"),
    Probe("metrics.resistance_correlation", "reslearn.metrics",
          "resistance_correlation"),
    Probe("metrics.layout_coordinates", "reslearn.metrics",
          "layout_coordinates"),
    Probe("io.read", "reslearn.io", "read_graph_mtx", _file_bytes),
    Probe("io.read", "reslearn.io", "read_matrix", _file_bytes),
    Probe("io.write", "reslearn.io", "write_graph_mtx", _file_bytes),
    Probe("io.write", "reslearn.io", "write_matrix_binary", _file_bytes),
    Probe("io.write", "reslearn.io", "write_matrix_csv", _file_bytes),
)


def _resolve(probe):
    """``(owner, attr, function)`` of a dotted path, or ``None`` when any
    part is missing."""
    try:
        owner = importlib.import_module(probe.module)
    except ImportError:
        return None
    *path, attr = probe.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    target = getattr(owner, attr, None)
    if not callable(target):
        return None
    return owner, attr, target


def _references(owner, attr, target):
    """Every ``(namespace, name)`` in the loaded package bound to
    ``target``; a method has just its class attribute."""
    if isinstance(owner, type):
        return [(owner, attr)]
    found = []
    for name, module in list(sys.modules.items()):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            found.extend((module, key) for key, value in vars(module).items()
                         if value is target)
    return found


@contextmanager
def installed(tracer, probes=PROBES):
    """Swap each resolvable probe's references for a tracing wrapper, and
    restore the originals on exit."""
    swaps = []
    try:
        for probe in probes:
            resolved = _resolve(probe)
            if resolved is None:
                continue
            wrapper = tracer.wrap(resolved[2], probe.name, probe.count)
            for namespace, name in _references(*resolved):
                swaps.append((namespace, name, getattr(namespace, name)))
                setattr(namespace, name, wrapper)
        yield tracer
    finally:
        for namespace, name, original in reversed(swaps):
            setattr(namespace, name, original)


def self_seconds(spans):
    """Each span's duration minus the durations of its direct children
    (children of one stack-nested span never overlap)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, child)]


@dataclass
class SpanTotals:
    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0
    counts: dict = field(default_factory=dict)


def totals(spans):
    """Per span name: calls, summed self time, inclusive time of the
    outermost spans of that name, and summed counters."""
    out: dict[str, SpanTotals] = {}
    for span, own in zip(spans, self_seconds(spans)):
        entry = out.setdefault(span.name, SpanTotals())
        entry.calls += 1
        entry.self_s += own
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            entry.inclusive_s += span.seconds
        for key, value in span.counts.items():
            entry.counts[key] = entry.counts.get(key, 0) + value
    return out


def stage_breakdown(spans):
    """Self seconds per span name inside each ``stage.<name>`` span; the
    stage's own entry is time spent outside every traced call."""
    own = self_seconds(spans)
    out: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        stage = index
        while stage is not None and not spans[stage].name.startswith(
                "stage."):
            stage = spans[stage].parent
        if stage is None:
            continue
        per_name = out.setdefault(spans[stage].name[len("stage."):], {})
        per_name[span.name] = per_name.get(span.name, 0.0) + own[index]
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """The per-layer metrics of one traced job, by their fixed names.

    Absent spans give 0.  ``.s`` is self seconds; ``.incl_s`` includes
    children.  Stage spans (``stage.<name>``) come from the benchmark.
    """
    t = totals(spans)

    def get(name):
        return t.get(name, SpanTotals())

    solve = get("spectral.solve_laplacian")
    eig = get("spectral.eigensolve_smallest")
    learn = get("learner.learn")
    included = learn.counts.get("edges", 0) - max(
        learn.counts.get("nodes", 0) - 1, 0)
    scored = get("spectral.embedding_distances").counts.get("pairs", 0)
    stages_s = sum(v.inclusive_s for k, v in t.items()
                   if k.startswith("stage."))
    return {
        "measurements.simulate_voltages.s":
            get("measurements.simulate_voltages").self_s,
        "measurements.simulate_voltages.rhs":
            get("measurements.simulate_voltages").counts.get("rhs", 0),
        "measurements.generate_currents.s":
            get("measurements.generate_currents").self_s,
        "spectral.solve_laplacian.calls": solve.calls,
        "spectral.solve_laplacian.s": solve.self_s,
        "spectral.solve_laplacian.s_per_call": _ratio(solve.self_s,
                                                      solve.calls),
        "spectral.solve_laplacian.share": _ratio(solve.inclusive_s,
                                                 stages_s),
        "spectral.eigensolve_smallest.calls": eig.calls,
        "spectral.eigensolve_smallest.s": eig.self_s,
        "spectral.eigensolve_smallest.s_per_call": _ratio(eig.self_s,
                                                          eig.calls),
        "spectral.embedding_distances.pairs": scored,
        "spectral.embedding_distances.s":
            get("spectral.embedding_distances").self_s,
        "learner.init_graph.s": get("learner.init_graph").self_s,
        "learner.init_graph.incl_s": get("learner.init_graph").inclusive_s,
        "learner.candidates":
            get("learner.init_graph").counts.get("candidates", 0),
        "learner.learn.s": learn.self_s,
        "learner.loop.s": learn.counts.get("loop_s", 0.0),
        "learner.iterations": learn.counts.get("iterations", 0),
        "learner.loop.s_per_iter": _ratio(learn.counts.get("loop_s", 0.0),
                                          learn.counts.get("iterations", 0)),
        "learner.edges_included": included,
        "learner.included_per_scored": _ratio(included, scored),
        "learner.edge_scale.s": get("learner.edge_scale").self_s,
        "learner.edge_scale.incl_s": get("learner.edge_scale").inclusive_s,
        "graphs.effective_resistance.pairs":
            get("graphs.effective_resistance").counts.get("pairs", 0),
        "graphs.effective_resistance.s":
            get("graphs.effective_resistance").self_s,
        "graphs.maximum_spanning_tree.s":
            get("graphs.maximum_spanning_tree").self_s,
        "graphs.build_laplacian.calls": get("graphs.build_laplacian").calls,
        "graphs.build_laplacian.s": get("graphs.build_laplacian").self_s,
        "graphs.with_edges.s": get("graphs.with_edges").self_s,
        "metrics.compare_spectra.s": get("metrics.compare_spectra").self_s,
        "metrics.resistance_correlation.s":
            get("metrics.resistance_correlation").self_s,
        "metrics.layout_coordinates.s":
            get("metrics.layout_coordinates").self_s,
        "io.read.s": get("io.read").self_s,
        "io.write.s": get("io.write").self_s,
        "io.bytes": (get("io.read").counts.get("bytes", 0)
                     + get("io.write").counts.get("bytes", 0)),
        "cli.generate.s": get("cli.generate").self_s,
        "cli.learn.s": get("cli.learn").self_s,
        "cli.eval.s": get("cli.eval").self_s,
    }
