"""Benchmark harness: tasksets, ground-truth oracle, scoring, process rubric.

End results are scored by level agreement (S_avg); the process side scores
a session log on six dimensions with a deterministic heuristic judge. Both
sides reuse the exact metric and threshold machinery, so an agent that runs
all five scenario metrics and takes the max level reproduces the oracle.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import methodlib
from .errors import (
    AllMetricsFailedError,
    BiasAuditError,
    EmptyRecordsError,
    InvalidJobsError,
    MalformedLogError,
    SchemaError,
)
from .metrics import (
    ALL_METRIC_IDS,
    METRICS,
    SCENARIO_METRICS,
    BiasType,
    classify_scenario,
    run_metric,
)
from .orchestrator import (
    DETECTION_TOOLS,
    STAGE_ORDER,
    SessionLog,
    TaskContext,
    ToolRegistry,
    run_session,
)
from .severity import DEFAULT_TABLE, ThresholdTable, map_to_level
from .tabular import clean_missing, extract_columns, load_table

# Task bias types as they appear in taskset files and ``--bias-type``.
# "implication" leaves the distribution/correlation split to the feature count.
BIAS_TYPES = {
    "distribution": BiasType.DISTRIBUTION,
    "correlation": BiasType.CORRELATION,
    "implication": BiasType.UNSTATED,
}
_BIAS_TYPE_OUT = {v: k.capitalize() for k, v in BIAS_TYPES.items()}
TYPE_ROWS = ("Distribution", "Correlation", "Implication")
# The feature counts each bias type takes, and their wording.
_ARITY = {
    BiasType.DISTRIBUTION: ((1,), "exactly 1 feature"),
    BiasType.CORRELATION: ((2,), "exactly 2 features"),
    BiasType.UNSTATED: ((1, 2), "1 or 2 features"),
}


def check_feature_count(where: str, bias_type: BiasType, features) -> None:
    """Raise :class:`SchemaError` unless ``bias_type`` takes this many
    features; ``where`` names the task or flag in the message."""
    counts, wording = _ARITY[bias_type]
    if len(features) not in counts:
        raise SchemaError(f"{where}: {_BIAS_TYPE_OUT[bias_type].lower()} tasks "
                          f"take {wording}, got {len(features)}")


@dataclass(frozen=True, kw_only=True)
class TaskSpec(TaskContext):
    id: str

    def __post_init__(self):
        check_feature_count(f"task {self.id}", self.bias_type, self.features)

    @property
    def type_label(self) -> str:
        return _BIAS_TYPE_OUT[self.bias_type]


def load_taskset(path) -> list:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        records = json.loads(text) if text.strip() else []
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"taskset {path}: {exc}") from exc
    if not isinstance(records, list):
        raise SchemaError(f"taskset {path}: expected a list of tasks")
    base = os.path.dirname(os.path.abspath(path))
    tasks = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise SchemaError(f"taskset entry {i}: expected an object, "
                              f"got {rec!r}")
        try:
            bias_type = BIAS_TYPES.get(str(rec["bias_type"]).lower())
            if bias_type is None:
                raise SchemaError(f"taskset entry {i}: bias_type must be one "
                                  f"of {list(BIAS_TYPES)}, got "
                                  f"{rec['bias_type']!r}")
            dataset, question = rec["dataset"], rec["question"]
            for name, value in (("dataset", dataset), ("question", question)):
                if not isinstance(value, str):
                    raise SchemaError(f"taskset entry {i}: {name} must be a "
                                      f"string, got {value!r}")
            if not os.path.isabs(dataset):
                dataset = os.path.join(base, dataset)
            features = rec["features"]
            if (not isinstance(features, list)
                    or not all(isinstance(f, str) for f in features)):
                raise SchemaError(f"taskset entry {i}: features must be a "
                                  f"list of column names, got {features!r}")
            task_id = rec["id"]
            if (not isinstance(task_id, str) or task_id in ("", ".", "..")
                    or "/" in task_id or os.sep in task_id):
                raise SchemaError(f"taskset entry {i}: id must be a name "
                                  f"usable as a file name, got {task_id!r}")
            tasks.append(TaskSpec(
                id=task_id, dataset=dataset,
                question=question, bias_type=bias_type,
                features=tuple(features)))
        except KeyError as exc:
            raise SchemaError(f"taskset entry {i}: missing field {exc}") from exc
    ids = [t.id for t in tasks]
    if len(set(ids)) != len(ids):
        raise SchemaError(f"taskset {path}: duplicate task ids")
    return tasks


@dataclass(frozen=True)
class GroundTruth:
    oracle_levels: dict  # metric_id -> level (1-5)
    y: int               # max of the oracle levels


def ground_truth(task: TaskSpec, thresholds: ThresholdTable = DEFAULT_TABLE,
                 table=None) -> GroundTruth:
    """Oracle reference: run all five scenario metrics, take the max level.

    ``table`` is the task's dataset as already loaded; None loads it. On a
    loaded table whose features a session has already cleaned and graded,
    drop_row returns that session's cut columns and ``run_metric`` the
    results it kept on them, so the oracle computes nothing again."""
    if table is None:
        table = load_table(task.dataset)
    subset = extract_columns(table, task.features)
    cleaned = clean_missing(subset, subset.column_names).table
    cols = [cleaned.column(n) for n in task.features]
    scenario = classify_scenario(cols)
    levels = {}
    errors = []
    for metric_id in SCENARIO_METRICS[scenario]:
        try:
            result = run_metric(metric_id, cols)
            levels[metric_id] = map_to_level(result, thresholds).value
        except BiasAuditError as exc:
            errors.append(f"{metric_id}: {exc}")
    if not levels:
        raise AllMetricsFailedError(
            f"task {task.id}: every scenario metric failed: {errors}")
    return GroundTruth(oracle_levels=levels, y=max(levels.values()))


@dataclass(frozen=True)
class EndResultRecord:
    task_id: str
    predicted: int      # agent headline level x, 1-5
    truth: int          # oracle level y, 1-5
    oracle_levels: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {"task_id": self.task_id, "predicted": self.predicted,
                "truth": self.truth, "oracle_levels": self.oracle_levels}


def score_end_results(records) -> dict:
    """Level-agreement scores: S_avg percent and mean absolute error."""
    records = list(records)
    if not records:
        raise EmptyRecordsError("no end results to score")
    n = len(records)
    mae = sum(abs(r.predicted - r.truth) for r in records) / n
    s_avg = sum(1.0 - abs(r.predicted - r.truth) / 4.0 for r in records) / n * 100.0
    return {"s_avg": s_avg, "mae": mae, "n": n}


# --------------------------------------------------------------------------
# Process evaluation
# --------------------------------------------------------------------------

DIMENSIONS = ("Communication", "Planning", "Tooling", "Adaptivity",
              "Summarization", "Integration")

RATING_BANDS = ((90, "Excellent"), (75, "Proficient"), (60, "Adequate"),
                (40, "Mediocre"))


def rating_label(score: float) -> str:
    for cut, label in RATING_BANDS:
        if score >= cut:
            return label
    return "Unsatisfactory"


@dataclass(frozen=True)
class ProcessScores:
    scores: dict    # dimension -> score 0-100
    evidence: dict  # dimension -> text

    def __post_init__(self):
        for dim in DIMENSIONS:
            if dim not in self.scores:
                raise ValueError(f"missing dimension {dim}")
            if not 0 <= self.scores[dim] <= 100:
                raise ValueError(f"{dim} score out of range")

    def label(self, dim: str) -> str:
        return rating_label(self.scores[dim])

    def to_record(self) -> dict:
        return {dim: {"score": self.scores[dim], "label": self.label(dim),
                      "evidence": self.evidence.get(dim, "")}
                for dim in DIMENSIONS}

    def to_markdown(self) -> str:
        lines = ["# Process evaluation", "",
                 "| dimension | score | rating | evidence |",
                 "|---|---|---|---|"]
        for dim in DIMENSIONS:
            lines.append(f"| {dim} | {self.scores[dim]:.0f} | "
                         f"{self.label(dim)} | {self.evidence.get(dim, '')} |")
        return "\n".join(lines) + "\n"


class HeuristicJudge:
    """Deterministic process scoring computed purely from log structure."""

    def score(self, log: SessionLog) -> ProcessScores:
        events = log.events
        if not events:
            raise MalformedLogError("empty session log")
        seqs = [e.seq for e in events]
        if seqs != list(range(len(events))):
            raise MalformedLogError("event sequence numbers are not contiguous")

        tool_events = [e for e in events if e.actor == "tool"]
        tool_names = [e.payload.get("tool") for e in tool_events]
        tool_failures = [e for e in tool_events if not e.payload.get("ok")]
        detection_invoked = {DETECTION_TOOLS[t] for t in tool_names
                             if t in DETECTION_TOOLS}
        critiques = [e for e in events if e.actor == "advisor"]
        user_events = [e for e in events
                       if e.actor == "user" and e.action == "task"]
        finish = next((e for e in events if e.action == "finish"), None)
        finished_complete = bool(finish and finish.payload.get("complete"))
        exhausted = any(e.action == "budget_exhausted" for e in events)
        planner_errors = sum(1 for e in events if e.action == "planner_error")

        scores = {}
        evidence = {}

        scores["Communication"] = (30 + (30 if user_events else 0)
                                   + (20 if finished_complete else 0)
                                   + (20 if critiques else 0))
        evidence["Communication"] = (
            f"{len(user_events)} user turn(s), {len(critiques)} advisor "
            f"consultation(s), "
            f"{'complete' if finished_complete else 'no complete'} wrap-up")

        if detection_invoked:
            # The scenario of the invoked metric first in the paper's order.
            first = min(detection_invoked, key=ALL_METRIC_IDS.index)
            required = set(SCENARIO_METRICS[METRICS[first].scenario])
            coverage = len(detection_invoked & required) / len(required)
            scores["Planning"] = round(30 + 70 * coverage)
            evidence["Planning"] = (
                f"{len(detection_invoked & required)}/{len(required)} "
                f"scenario metrics scheduled")
        else:
            scores["Planning"] = 20
            evidence["Planning"] = "no detection metrics scheduled"

        if not tool_events:
            scores["Tooling"] = 20
            evidence["Tooling"] = "no tool invocations in the log"
        else:
            error_rate = len(tool_failures) / len(tool_events)
            scores["Tooling"] = round(max(40, 100 - 60 * error_rate))
            evidence["Tooling"] = (
                f"{len(tool_events)} invocation(s), "
                f"{len(tool_failures)} failure(s)")

        if not tool_failures:
            scores["Adaptivity"] = 85
            evidence["Adaptivity"] = "no tool errors; no recovery needed"
        elif finished_complete:
            scores["Adaptivity"] = 75
            evidence["Adaptivity"] = (
                f"recovered from {len(tool_failures)} tool failure(s) and "
                f"still completed")
        else:
            scores["Adaptivity"] = 30
            evidence["Adaptivity"] = "tool failures without recovery to completion"

        report_events = [e for e in tool_events
                         if e.payload.get("tool") == "generate_bias_report"
                         and e.payload.get("ok")]
        charts = [t for t in tool_names if t and t.startswith("plot_")]
        if report_events and charts:
            scores["Summarization"] = 100
            evidence["Summarization"] = "report assembled with charts"
        elif report_events:
            scores["Summarization"] = 70
            evidence["Summarization"] = "report assembled without charts"
        else:
            scores["Summarization"] = 20
            evidence["Summarization"] = "no report generated"

        integration = 100
        notes = []
        order = [s.value for s in STAGE_ORDER]
        for e in events:
            if e.action == "stage":
                src, dst = e.payload.get("from"), e.payload.get("to")
                if (src in order and dst in order
                        and order.index(dst) > order.index(src) + 1):
                    integration -= 30
                    notes.append(f"skipped stage {src}->{dst}")
        integration -= 20 * planner_errors
        if planner_errors:
            notes.append(f"{planner_errors} planner error(s)")
        if exhausted:
            integration = min(integration, 40)
            notes.append("budget exhausted")
        elif not finish:
            integration = min(integration, 30)
            notes.append("no finish event")
        scores["Integration"] = max(0, integration)
        evidence["Integration"] = "; ".join(notes) or "legal stage flow, finished"

        return ProcessScores(scores=scores, evidence=evidence)


def score_process(log: SessionLog):
    """Score one session log with the heuristic judge; returns
    (ProcessScores, markdown report)."""
    scores = HeuristicJudge().score(log)
    return scores, scores.to_markdown()


# --------------------------------------------------------------------------
# Benchmark runner
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkReport:
    rows: dict       # type label -> {"n", "s_avg", "mae"}
    overall: dict    # {"n", "s_avg", "mae"}
    records: tuple   # EndResultRecord per scored task
    failures: tuple  # (task_id, error text)

    def to_markdown(self) -> str:
        lines = ["# Benchmark results", "",
                 "| task type | n | S_avg (%) | MAE |",
                 "|---|---|---|---|"]
        for label in TYPE_ROWS:
            row = self.rows.get(label)
            if row is None:
                lines.append(f"| {label} | 0 | - | - |")
            else:
                lines.append(f"| {label} | {row['n']} | {row['s_avg']:.2f} "
                             f"| {row['mae']:.3f} |")
        lines.append(f"| Overall | {self.overall['n']} "
                     f"| {self.overall['s_avg']:.2f} "
                     f"| {self.overall['mae']:.3f} |")
        if self.failures:
            lines += ["", "## Failures", ""]
            lines += [f"- {task_id}: {error}" for task_id, error in self.failures]
        return "\n".join(lines) + "\n"

    def to_record(self) -> dict:
        return {"rows": self.rows, "overall": self.overall,
                "records": [r.to_record() for r in self.records],
                "failures": [list(f) for f in self.failures]}


def _run_one(task: TaskSpec, planner_factory, registry, thresholds, out_dir,
             library, load):
    task_dir = log_path = None
    if out_dir is not None:
        task_dir = os.path.join(out_dir, task.id)
        log_path = os.path.join(out_dir, f"{task.id}.log.jsonl")
    report, _ = run_session(task, planner_factory(), registry,
                            thresholds=thresholds, out_dir=task_dir,
                            library=library, log_path=log_path, loader=load)
    if not report.complete or not report.findings:
        raise BiasAuditError("session produced no complete report")
    truth = ground_truth(task, thresholds, load(task.dataset))
    return EndResultRecord(task_id=task.id,
                           predicted=report.headline.value,
                           truth=truth.y,
                           oracle_levels=truth.oracle_levels)


def run_benchmark(taskset, planner_factory, registry: ToolRegistry,
                  thresholds: ThresholdTable = DEFAULT_TABLE, out_dir=None,
                  jobs: int = 1, library=None) -> BenchmarkReport:
    """Run every task through a session and score against the oracle.

    ``planner_factory`` is called once per task so planners may hold
    per-session state. Every session cites from ``library``, the shipped
    method library if None. Per-task failures are reported, not raised;
    ``jobs`` below 1 raises InvalidJobsError.

    The run keeps one thing of its own: each dataset's table, loaded once
    and shared by every session and oracle, so a dataset rewritten during
    the run is not read again. Everything derived from a table's columns
    is kept by ``tabular.shared`` while the run holds it: each (dataset,
    features) keeps its drop_row cut and every metric result on it, so the
    oracle and every later session read the first session's results, and
    each metric runs once per feature set unless it raises. All of it goes
    with the run's tables. A failed load is not kept: each task on that
    dataset tries again and fails with its own error.
    """
    if jobs < 1:
        raise InvalidJobsError(f"jobs must be >= 1, got {jobs}")
    tasks = list(taskset)
    if not tasks:
        raise EmptyRecordsError("empty taskset")
    if library is None:
        library = methodlib.builtin_library()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    # With jobs > 1 two tasks may both fill the same entry; the values
    # they compute are equal.
    tables = {}  # dataset path -> Table

    def load(path):
        if path not in tables:
            tables[path] = load_table(path)
        return tables[path]

    def attempt(task):
        try:
            return task, _run_one(task, planner_factory, registry, thresholds,
                                  out_dir, library, load), None
        except BiasAuditError as exc:
            return task, None, f"{type(exc).__name__}: {exc}"

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(attempt, tasks))
    else:
        outcomes = [attempt(t) for t in tasks]

    records = []
    failures = []
    by_type = {}
    for task, record, error in outcomes:
        if record is None:
            failures.append((task.id, error))
            continue
        records.append(record)
        by_type.setdefault(task.type_label, []).append(record)
    if not records:
        raise EmptyRecordsError("every task failed; nothing to score")

    rows = {label: score_end_results(recs) for label, recs in by_type.items()}
    overall = score_end_results(records)
    report = BenchmarkReport(rows=rows, overall=overall,
                             records=tuple(records), failures=tuple(failures))
    if out_dir is not None:
        with open(os.path.join(out_dir, "benchmark.md"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.to_markdown())
        with open(os.path.join(out_dir, "results.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(report.to_record(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
