"""Spans around funnelkit's layer calls, and the per-layer metrics made from them.

The benchmark never edits the package.  For a traced pass it swaps each
public layer function listed in ``LAYERS`` for a wrapper that records a span
(name, start, end, parent, counts) and then calls the original; every
funnelkit module that refers to the same function object gets the wrapper,
so calls between modules (``bench.analyze`` calling ``exact.lower_bound``,
the solver seeding itself with ``approx.approximate_addf``) show up nested
under their caller.  The originals are restored when the pass ends, so
untraced passes run the package exactly as shipped.

Spans stay in memory until the run ends.  A layer's self time is its span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

# (module, attribute) of every wrapped layer; the span is named "module.attribute".
LAYERS = [
    ("graph", "read_arc_list"),
    ("graph", "Dag"),
    ("analysis", "is_funnel_degree"),
    ("analysis", "find_forbidden_witness"),
    ("analysis", "is_funnel_private_arc"),
    ("approx", "approximate_addf"),
    ("approx", "assign_labels_greedy"),
    ("approx", "greedy_relabel"),
    ("exact", "lower_bound"),
    ("exact", "solve_addf"),
    ("generator", "generate_planted_funnel"),
    ("generator", "add_noise_arcs"),
    ("bench", "analyze"),
    ("bench", "write_csv"),
    ("cli", "main"),
]

SOLVER_COUNTERS = ("nodes", "rr1", "rr2", "br1", "br2", "pruned", "leaves")


def _solver_counts(result) -> dict:
    return {f"exact.{key}": getattr(result.stats, key) for key in SOLVER_COUNTERS}


# Counts taken from a layer's return value, keyed by span name.
RESULT_COUNTS: dict[str, Callable] = {
    "exact.lower_bound": lambda bound: {"exact.lower_bound": bound},
    "approx.approximate_addf": lambda result: {"approx.size": result.size},
    "exact.solve_addf": _solver_counts,
}

# Per-layer time metrics: metric name -> span name whose self time it sums.
SELF_TIME_METRICS = {
    "graph.read_arc_list_ms": "graph.read_arc_list",
    "graph.dag_ms": "graph.Dag",
    "analysis.is_funnel_degree_ms": "analysis.is_funnel_degree",
    "analysis.find_forbidden_witness_ms": "analysis.find_forbidden_witness",
    "analysis.is_funnel_private_arc_ms": "analysis.is_funnel_private_arc",
    "approx.assign_labels_greedy_ms": "approx.assign_labels_greedy",
    "approx.greedy_relabel_ms": "approx.greedy_relabel",
    "exact.lower_bound_ms": "exact.lower_bound",
    "generator.generate_planted_funnel_ms": "generator.generate_planted_funnel",
    "generator.add_noise_arcs_ms": "generator.add_noise_arcs",
    "bench.analyze_self_ms": "bench.analyze",
    "bench.write_csv_ms": "bench.write_csv",
    "cli.self_ms": "cli.main",
}

COUNT_METRICS = (
    "approx.size",
    "exact.lower_bound",
    *(f"exact.{key}" for key in SOLVER_COUNTERS if key != "pruned"),
    "exact.solved",
    "exact.gap_arcs",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: dict = {}

    def count(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value


class _NullSpan:
    def count(self, key: str, value) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    """Tracer for untraced passes: records nothing."""

    _span = _NullSpan()

    def span(self, name: str):
        return self._span


class Tracer:
    """Records spans in memory, with the enclosing span as parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(name, time.perf_counter(), self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def mark(self) -> int:
        return len(self.spans)


def _wrap(tracer: Tracer, name: str, original):
    counts = RESULT_COUNTS.get(name)

    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = original(*args, **kwargs)
            if counts is not None:
                for key, value in counts(result).items():
                    span.count(key, value)
            return result

    return traced


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route every funnelkit reference to a ``LAYERS`` function through spans."""
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "funnelkit" or name.startswith("funnelkit."))
    ]
    wrappers = {}
    for module_name, attr in LAYERS:
        home = sys.modules[f"funnelkit.{module_name}"]
        original = getattr(home, attr)
        wrappers[id(original)] = (original, _wrap(tracer, f"{module_name}.{attr}", original), home)
    saved = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is None or entry[0] is not value:
                    continue
                original, wrapper, home = entry
                # A class stays itself in its own module, where isinstance needs it.
                if isinstance(original, type) and module is home:
                    continue
                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span], first: int, end: int) -> dict[str, float]:
    """Seconds of self time per span name over ``spans[first:end]``."""
    own = [span.end - span.start for span in spans[first:end]]
    for span in spans[first:end]:
        if span.parent is not None and first <= span.parent < end:
            own[span.parent - first] -= span.end - span.start
    totals: dict[str, float] = {}
    for span, seconds in zip(spans[first:end], own):
        totals[span.name] = totals.get(span.name, 0.0) + seconds
    return totals


def span_counts(spans: list[Span], first: int, end: int) -> dict:
    totals: dict = {}
    for span in spans[first:end]:
        for key, value in span.counts.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def layer_metrics(
    tracer: Tracer,
    setup: tuple[int, int],
    passes: list[tuple[int, int]],
    outcome_counts: dict,
    untraced_walls: list[float],
    traced_walls: list[float],
) -> dict:
    """Per-layer metrics of one set-up plus one pass, as ``{name: (value, unit)}``.

    ``setup`` and each entry of ``passes`` are (first, end) ranges of span
    indices.  Times are the set-up's self time plus the median over the
    traced passes.  Counts are the set-up's plus the first traced pass's
    plus ``outcome_counts`` (the caller checks that every pass counted the
    same).  Solve-time percentiles pool every traced pass.
    """
    spans = tracer.spans
    setup_self = self_times(spans, *setup)
    pass_self = [self_times(spans, *bounds) for bounds in passes]
    metrics: dict = {}
    for metric, name in SELF_TIME_METRICS.items():
        seconds = setup_self.get(name, 0.0) + statistics.median(
            own.get(name, 0.0) for own in pass_self
        )
        metrics[metric] = (seconds * 1000.0, "ms")

    counts = span_counts(spans, *setup)
    pass_counts = span_counts(spans, *passes[0])
    for source in (pass_counts, outcome_counts):
        for key, value in source.items():
            counts[key] = counts.get(key, 0) + value
    for key in COUNT_METRICS:
        metrics[key] = (counts.get(key, 0), "count")

    solves = [
        [span.end - span.start for span in spans[a:b] if span.name == "exact.solve_addf"]
        for a, b in passes
    ]
    solve_ms = [seconds * 1000.0 for pass_solves in solves for seconds in pass_solves]
    solve_s = statistics.median(sum(pass_solves) for pass_solves in solves)
    nodes = pass_counts.get("exact.nodes", 0)
    metrics["exact.nodes_per_s"] = (nodes / solve_s if solve_s else 0.0, "1/s")
    metrics["exact.pruned_ratio"] = (
        pass_counts.get("exact.pruned", 0) / nodes if nodes else 0.0,
        "ratio",
    )
    metrics["exact.solve_samples"] = (len(solve_ms), "count")
    metrics["exact.solve_ms_p50"] = (statistics.median(solve_ms) if solve_ms else 0.0, "ms")
    metrics["exact.solve_ms_p95"] = (percentile(solve_ms, 0.95) if solve_ms else 0.0, "ms")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls),
        "s",
    )
    return metrics
