"""Outside-in span tracing for the benchmark's traced run.

Spans are recorded around calls into each layer's public functions by
rebinding the names the callers import (``orchestrator.load_table``,
``bench.run_metric`` ...) and by wrapping every tool executor of a
:class:`ToolRegistry`. Nothing in the program changes; the hooks exist only
inside :func:`installed` and are undone when it exits. Spans are kept in
memory and turned into per-operation layer metrics by :func:`layer_metrics`.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

from biasaudit import bench, methodlib, orchestrator, synthgen
from biasaudit.metrics import ALL_METRIC_IDS
from biasaudit.orchestrator import DETECTION_TOOLS, ToolRegistry

import spec


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder; ``op`` tags spans of one operation."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, self.op, name, time.perf_counter(),
                 attrs=attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        except Exception as exc:
            s.attrs["error"] = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(s, result)
                return result
        return traced


class _CountedPlanner:
    """Records one span per planner decision (orchestrator.actions)."""

    def __init__(self, tracer: Tracer, planner):
        self._tracer = tracer
        self._planner = planner

    def next(self, state):
        with self._tracer.span("orchestrator.planner"):
            return self._planner.next(state)


def traced_planner_factory(tracer: Tracer, factory):
    return lambda: _CountedPlanner(tracer, factory())


def traced_registry(tracer: Tracer, registry: ToolRegistry) -> ToolRegistry:
    """A copy of ``registry`` whose executors record tool spans."""
    entries = {}
    for name, entry in registry.entries.items():
        label = "detection" if name in DETECTION_TOOLS else name
        entries[name] = replace(entry, executor=tracer.wrap(
            f"orchestrator.tool.{label}", entry.executor))
    return ToolRegistry(entries=entries)


def _traced_run_metric(tracer: Tracer, run_metric, peak_alloc: dict):
    def traced(metric_id, cols, *args, **kwargs):
        with tracer.span("metrics.run_metric", metric=metric_id):
            if metric_id not in spec.ALLOC_TRACED_METRICS:
                return run_metric(metric_id, cols, *args, **kwargs)
            tracemalloc.start()
            try:
                return run_metric(metric_id, cols, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                peak_alloc[metric_id] = max(peak_alloc.get(metric_id, 0), peak)
    return traced


def _rows(span, table):
    span.attrs["rows"] = table.row_count


def _svg_bytes(span, markup):
    span.attrs["bytes"] = len(markup.encode("utf-8"))


# (modules whose binding is replaced, attribute, span name, result hook)
_HOOKS = (
    ((orchestrator, bench), "load_table", "tabular.load_table", _rows),
    ((orchestrator, bench), "extract_columns", "tabular.extract_columns", None),
    ((orchestrator, bench), "clean_missing", "tabular.clean_missing", None),
    ((orchestrator, bench), "map_to_level", "severity.map_to_level", None),
    ((synthgen,), "calibrate", "severity.calibrate", None),
    ((orchestrator,), "render_chart", "reporting.render_chart", _svg_bytes),
    ((orchestrator,), "assemble_report", "reporting.assemble_report", None),
    ((orchestrator, bench), "run_session", "orchestrator.session", None),
    ((bench,), "ground_truth", "bench.ground_truth", None),
    ((bench,), "score_process", "bench.score_process", None),
    ((synthgen,), "generate", "synthgen.generate", _rows),
    ((methodlib,), "builtin_library", "methodlib.builtin_library", None),
    ((methodlib,), "retrieve", "methodlib.retrieve", None),
)


@contextmanager
def installed(tracer: Tracer, peak_alloc: dict):
    """Rebind the layer entry points to traced wrappers; restore on exit."""
    saved = []

    def rebind(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    try:
        for modules, attr, name, on_result in _HOOKS:
            for module in modules:
                rebind(module, attr,
                       tracer.wrap(name, getattr(module, attr), on_result))
        for module in (orchestrator, bench, synthgen):
            rebind(module, "run_metric", _traced_run_metric(
                tracer, module.run_metric, peak_alloc))
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def check_nesting(spans) -> list:
    """Problems with span structure.

    Children must lie inside their parent and siblings must not overlap;
    then a parent's time is exactly its children's plus its self time, so
    for every session the tool spans plus loop_self account for the session.
    """
    problems = []
    last_end: dict = {}
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {s.id} {s.name} escapes parent {p.name}")
        if s.start < last_end.get(s.parent, s.start):
            problems.append(f"span {s.id} {s.name} overlaps a sibling")
        last_end[s.parent] = s.end
    return problems


def layer_metrics(spans, n_ops: int, peak_alloc: dict) -> dict:
    """Per-operation layer totals, keyed by the names in spec.PER_LAYER."""
    n_ops = max(n_ops, 1)
    by_name: dict = {}
    children: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def seconds(name):
        return sum(s.duration for s in named(name)) / n_ops

    def calls(name):
        return len(named(name)) / n_ops

    def child_time(span, prefix):
        return sum(c.duration for c in children.get(span.id, ())
                   if c.name.startswith(prefix))

    def under(span, ancestor_name):
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == ancestor_name:
                return True
        return False

    def error_counts(span_list, classes):
        counts = {c: 0 for c in classes + ("other",)}
        for s in span_list:
            err = s.attrs.get("error")
            if err is not None:
                counts[err if err in counts else "other"] += 1
        return {c: v / n_ops for c, v in counts.items()}

    out = {}
    loads = named("tabular.load_table")
    load_s = sum(s.duration for s in loads)
    out["tabular.load_table.s"] = load_s / n_ops
    out["tabular.load_table.calls"] = len(loads) / n_ops
    out["tabular.load_table.rows_per_s"] = (
        sum(s.attrs.get("rows", 0) for s in loads) / load_s if load_s else 0.0)
    out["tabular.extract_columns.s"] = seconds("tabular.extract_columns")
    out["tabular.clean_missing.s"] = seconds("tabular.clean_missing")

    metric_spans = named("metrics.run_metric")
    out["metrics.run_metric.s"] = seconds("metrics.run_metric")
    out["metrics.run_metric.calls"] = calls("metrics.run_metric")
    for m in ALL_METRIC_IDS:
        out[f"metrics.{m}.s"] = sum(s.duration for s in metric_spans
                                    if s.attrs["metric"] == m) / n_ops
    for m in spec.ALLOC_TRACED_METRICS:
        out[f"metrics.{m}.peak_alloc_mb"] = peak_alloc.get(m, 0) / 2 ** 20
    for c, v in error_counts(metric_spans, spec.METRIC_ERROR_CLASSES).items():
        out[f"metrics.errors.{c}"] = v

    out["severity.map_to_level.s"] = seconds("severity.map_to_level")
    out["severity.calibrate.s"] = seconds("severity.calibrate")
    out["reporting.render_chart.s"] = seconds("reporting.render_chart")
    out["reporting.svg_bytes"] = sum(
        s.attrs.get("bytes", 0) for s in named("reporting.render_chart")) / n_ops
    out["reporting.assemble_report.s"] = seconds("reporting.assemble_report")

    out["orchestrator.session.s"] = seconds("orchestrator.session")
    tool_spans = [s for s in spans if s.name.startswith("orchestrator.tool.")]
    for t in spec.TOOL_SPANS:
        out[f"orchestrator.tool.{t}.s"] = seconds(f"orchestrator.tool.{t}")
    out["orchestrator.chart_data.s"] = sum(
        s.duration - child_time(s, "reporting.render_chart")
        for s in tool_spans if s.name.startswith("orchestrator.tool.plot_")
    ) / n_ops
    out["orchestrator.loop_self.s"] = sum(
        s.duration - child_time(s, "orchestrator.tool.")
        for s in named("orchestrator.session")) / n_ops
    out["orchestrator.actions"] = calls("orchestrator.planner")
    for c, v in error_counts(tool_spans, spec.TOOL_ERROR_CLASSES).items():
        out[f"orchestrator.tool_errors.{c}"] = v

    out["bench.ground_truth.s"] = seconds("bench.ground_truth")
    out["bench.ground_truth.load_table.calls"] = sum(
        1 for s in loads if under(s, "bench.ground_truth")) / n_ops
    out["bench.score_process.s"] = seconds("bench.score_process")
    out["synthgen.generate.s"] = seconds("synthgen.generate")
    out["synthgen.generate.rows"] = sum(
        s.attrs.get("rows", 0) for s in named("synthgen.generate")) / n_ops
    out["methodlib.builtin_library.s"] = seconds("methodlib.builtin_library")
    out["methodlib.builtin_library.calls"] = calls("methodlib.builtin_library")
    out["methodlib.retrieve.s"] = seconds("methodlib.retrieve")
    return out

