"""Five-stage detect/visualize/report workflow behind a pluggable planner.

One session is a single-threaded event loop: the planner proposes an
action, the loop executes it against the tool registry, and every action,
tool result, critique, and stage transition lands in the session log.
The Primary/Advisor split is a role protocol within the loop, not two
processes; the rule planner and rule advisor are deterministic and every
event's ``wall_ms`` is 0, so offline runs replay byte-identically.

A planner asks the user through ``get_user_input_tool``. In an interactive
session (``repl``) the tool reads the user's next line; in ``detect`` and
``bench`` there is no user, and the call is a failed tool result. A tool
call the tool cannot take (an unknown or missing parameter, a value of the
wrong type, or a value outside an enum) is a failed tool result too.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from dataclasses import dataclass, field
from enum import Enum

from . import methodlib
from .errors import (
    BiasAuditError,
    EndOfInputError,
    NetworkError,
    PlannerError,
    ToolError,
)
from .metrics import (
    METRICS,
    SCENARIO_METRICS,
    BiasType,
    Scenario,
    base,
    cat_cat,
    cat_num,
    classify_scenario,
    num_num,
    run_metric,
)
from .reporting import ChartKind, ChartSpec, Finding, assemble_report, render_chart
from .reporting.report import ReportDocument
from .severity import DEFAULT_TABLE, ThresholdTable, map_to_level
from .tabular import (
    AggregateFn,
    CleaningMode,
    Kind,
    NormalizeMode,
    Table,
    clean_missing,
    extract_columns,
    group_and_aggregate,
    list_features,
    load_table,
    normalize_or_standardize,
)


class Stage(str, Enum):
    USER_INPUT = "user_input"
    PREPROCESSING = "preprocessing"
    DETECTION = "detection"
    VISUALIZATION_SUMMARY = "visualization_summary"
    FEEDBACK = "feedback"


STAGE_ORDER = tuple(Stage)


class ActionKind(str, Enum):
    INVOKE_TOOL = "invoke_tool"
    CONSULT_ADVISOR = "consult_advisor"
    TRANSITION = "transition"
    FINISH = "finish"


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    tool: str | None = None
    args: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)
    stage: Stage | None = None
    rationale: str = ""

    def to_record(self) -> dict:
        rec = {"kind": self.kind.value, "rationale": self.rationale}
        if self.tool:
            rec["tool"] = self.tool
            rec["args"] = self.args
        if self.payload:
            rec["payload"] = self.payload
        if self.stage:
            rec["stage"] = self.stage.value
        return rec


class Verdict(str, Enum):
    APPROVE = "approve"
    REVISE = "revise"


@dataclass(frozen=True)
class Critique:
    verdict: Verdict
    issues: tuple = ()
    suggested_actions: tuple = ()

    def __post_init__(self):
        if self.verdict is Verdict.REVISE and not self.issues:
            raise ValueError("a Revise critique must name at least one issue")

    def to_record(self) -> dict:
        return {"verdict": self.verdict.value, "issues": list(self.issues),
                "suggested": [a.to_record() for a in self.suggested_actions]}


@dataclass(frozen=True)
class TaskContext:
    question: str
    dataset: str
    features: tuple
    bias_type: BiasType = BiasType.UNSTATED
    interactive: bool = False


@dataclass
class LogEvent:
    seq: int
    stage: str
    actor: str
    action: str
    payload: dict
    wall_ms: int

    def to_record(self) -> dict:
        return {"seq": self.seq, "stage": self.stage, "actor": self.actor,
                "action": self.action, "payload": self.payload,
                "wall_ms": self.wall_ms}


@dataclass
class SessionLog:
    events: list = field(default_factory=list)

    def append(self, stage: Stage, actor: str, action: str, payload: dict) -> None:
        self.events.append(LogEvent(len(self.events), stage.value, actor,
                                    action, _jsonable(payload), 0))

    def to_jsonl(self) -> str:
        return "".join(json.dumps(e.to_record(), sort_keys=True) + "\n"
                       for e in self.events)

    @classmethod
    def from_jsonl(cls, text: str) -> "SessionLog":
        from .errors import MalformedLogError
        events = []
        for lineno, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                events.append(LogEvent(rec["seq"], rec["stage"], rec["actor"],
                                       rec["action"], rec["payload"],
                                       rec["wall_ms"]))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise MalformedLogError(f"log line {lineno}: {exc}") from exc
        return cls(events=events)


def _jsonable(obj):
    try:
        json.dumps(obj)
        return obj
    except (TypeError, ValueError):
        return json.loads(json.dumps(obj, default=str))


# --------------------------------------------------------------------------
# Tool registry
# --------------------------------------------------------------------------

def _schema(kind) -> dict:
    if kind is str:
        return {"type": "string"}
    if kind == list[str]:
        return {"type": "array", "items": {"type": "string"}}
    return {"type": "string", "enum": [m.value for m in kind]}


def _checked_value(name, kind, value):
    """``value`` as a ``kind`` parameter takes it, else a :class:`ToolError`."""
    if kind is str:
        if isinstance(value, str):
            return value
        raise ToolError(f"{name} must be a string, got {value!r}")
    if kind == list[str]:
        if isinstance(value, list) and all(isinstance(v, str) for v in value):
            return value
        raise ToolError(f"{name} must be a list of column names, "
                        f"got {value!r}")
    try:
        return kind(value)
    except ValueError:
        raise ToolError(f"{value!r} is not one of "
                        f"{[m.value for m in kind]}") from None


@dataclass(frozen=True)
class ToolEntry:
    name: str
    description: str
    executor: object  # callable(SessionState, **args) -> json payload
    params: dict      # keyword argument -> str, list[str] or an enum class
    required: tuple   # the keyword arguments without a default

    @property
    def signature(self) -> str:
        return f"({', '.join(self.params)})"

    @property
    def parameters(self) -> dict:
        """The JSON schema of the keyword arguments, for a chat endpoint."""
        return {"type": "object",
                "properties": {p: _schema(t) for p, t in self.params.items()},
                "required": list(self.required),
                "additionalProperties": False}

    def checked_args(self, args) -> dict:
        """``args`` with enum values as members if the tool takes them, else
        a :class:`ToolError`. A ``None`` value counts as left out."""
        if not isinstance(args, dict):
            raise ToolError(f"{self.name} takes keyword arguments, "
                            f"got {args!r}")
        unknown = [k for k in args if k not in self.params]
        if unknown:
            raise ToolError(f"{self.name}{self.signature} has no "
                            f"parameter(s) {unknown}")
        missing = [p for p in self.required if args.get(p) is None]
        if missing:
            raise ToolError(f"{self.name}{self.signature} is missing "
                            f"parameter(s) {missing}")
        return {k: _checked_value(k, self.params[k], v)
                for k, v in args.items() if v is not None}


@dataclass(frozen=True)
class ToolRegistry:
    entries: dict

    def __contains__(self, name):
        return name in self.entries

    def get(self, name) -> ToolEntry:
        return self.entries[name]

    def descriptions(self) -> list:
        return [{"name": e.name, "signature": e.signature,
                 "description": e.description, "parameters": e.parameters}
                for _, e in sorted(self.entries.items())]


# Each metric is a detection tool named by its scenario's prefix and its id.
_TOOL_PREFIX = {
    Scenario.CAT_DIST: "categorical_distribution",
    Scenario.NUM_DIST: "numerical_distribution",
    Scenario.CAT_CAT: "categorical_categorical_correlation",
    Scenario.CAT_NUM: "categorical_numerical_correlation",
    Scenario.NUM_NUM: "numerical_numerical_correlation",
}
# Tool name -> metric id, in the paper's order.
DETECTION_TOOLS = {f"{_TOOL_PREFIX[spec.scenario]}_{mid}": mid
                   for mid, spec in METRICS.items()}
METRIC_TO_TOOL = {m: t for t, m in DETECTION_TOOLS.items()}

CHART_TOOLS = {
    "plot_bar_chart": ChartKind.BAR,
    "plot_pie_chart": ChartKind.PIE,
    "plot_horizontal_bar_chart": ChartKind.HORIZONTAL_BAR,
    "plot_treemap": ChartKind.TREEMAP,
    "plot_heatmap": ChartKind.HEATMAP,
    "plot_correlation_heatmap": ChartKind.CORRELATION_HEATMAP,
    "plot_stacked_bar_chart": ChartKind.STACKED_BAR,
    "plot_grouped_bar_chart": ChartKind.GROUPED_BAR,
    "plot_box_plot": ChartKind.BOX,
}

# Chart kind the rule planner picks per scenario.
SCENARIO_CHART = {
    Scenario.CAT_DIST: "plot_bar_chart",
    Scenario.NUM_DIST: "plot_box_plot",
    Scenario.CAT_CAT: "plot_stacked_bar_chart",
    Scenario.CAT_NUM: "plot_box_plot",
    Scenario.NUM_NUM: "plot_correlation_heatmap",
}


@dataclass
class SessionState:
    """Mutable per-session workspace shared by the loop and the tools:
    ``table`` is the dataset as loaded, which extraction reads, and
    ``working`` the table the last data tool returned, which the rest read."""
    task: TaskContext
    registry: "ToolRegistry"
    thresholds: ThresholdTable
    out_dir: str | None
    library: list
    stage: Stage = Stage.USER_INPUT
    budget: int = 64
    table: Table | None = None
    working: Table | None = None
    report: ReportDocument | None = None
    findings: list = field(default_factory=list)
    charts: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    last_failed_call: tuple | None = None  # (tool, args)
    log: SessionLog = field(default_factory=SessionLog)

    def working_table(self) -> Table:
        if self.working is None:
            raise ToolError("no table loaded yet")
        return self.working

    def scenario(self) -> Scenario:
        table = self.working_table()
        return classify_scenario([table.column(n) for n in self.task.features])


def _tool_get_csv_features(state: SessionState):
    return {"features": list_features(state.task.dataset)}


def _tool_load_csv_file(state: SessionState):
    table = state.table = state.working = load_table(state.task.dataset)
    return {"rows": table.row_count,
            "columns": [{"name": c.name, "kind": c.kind.value}
                        for c in table.columns]}


def _extract(state: SessionState, names):
    if state.table is None:
        raise ToolError("load_csv_file must run before extraction")
    subset = state.working = extract_columns(state.table, names)
    return {"columns": [{"name": c.name, "kind": c.kind.value}
                        for c in subset.columns],
            "rows": subset.row_count}


def _tool_extract_single_column(state: SessionState, column: str):
    return _extract(state, [column])


def _tool_extract_two_columns(state: SessionState, column_a: str,
                              column_b: str):
    return _extract(state, [column_a, column_b])


def _tool_clean_missing_values(state: SessionState, columns: list[str] = (),
                               mode: CleaningMode = CleaningMode.DROP_ROW):
    table = state.working_table()
    result = clean_missing(table, columns or table.column_names, mode)
    state.working = result.table
    return {"rows": result.table.row_count,
            "cells_changed": result.cells_changed,
            "rows_dropped": result.rows_dropped}


def _tool_normalize_or_standardize(
        state: SessionState, column: str,
        mode: NormalizeMode = NormalizeMode.STANDARDIZE):
    state.working = normalize_or_standardize(state.working_table(), column,
                                             mode)
    return {"column": column, "mode": mode.value}


def _tool_group_and_aggregate(state: SessionState, by: str, target: str,
                              fn: AggregateFn = AggregateFn.MEAN):
    table = state.working_table()
    out = group_and_aggregate(table, by, target, fn)
    by_col, agg_col = out.columns
    return {"groups": out.row_count,
            "rows": [{by_col.name: key, agg_col.name: value} for key, value in
                     zip(by_col.cells(), agg_col.cells())]}


def _make_detection_executor(metric_id):
    def executor(state: SessionState):
        table = state.working_table()
        cols = [table.column(n) for n in state.task.features]
        result = run_metric(metric_id, cols)
        level = map_to_level(result, state.thresholds)
        state.findings.append(Finding.from_result(result, level))
        record = result.to_record()
        record["scenario"] = METRICS[metric_id].scenario.value
        record["level"] = level.value
        record["label"] = level.label
        return record
    return executor


def _chart_data(state: SessionState, kind: ChartKind) -> ChartSpec:
    table = state.working_table()
    cols = [table.column(n) for n in state.task.features]
    title = f"{kind.value}: {', '.join(state.task.features)}"
    if kind in (ChartKind.BAR, ChartKind.PIE, ChartKind.HORIZONTAL_BAR,
                ChartKind.TREEMAP, ChartKind.HEATMAP):
        col = next((c for c in cols if c.kind is Kind.CATEGORICAL), cols[0])
        return ChartSpec(kind, {"series": base.category_counts(col)}, title=title)
    if kind in (ChartKind.STACKED_BAR, ChartKind.GROUPED_BAR):
        if len(cols) != 2 or any(c.kind is not Kind.CATEGORICAL for c in cols):
            raise ToolError(f"{kind.value} needs two categorical features")
        counts, rows, outcomes = cat_cat.contingency(*cols)
        groups = {str(r): {str(o): int(n) for o, n in zip(outcomes, row) if n}
                  for r, row in zip(rows, counts)}
        return ChartSpec(kind, {"groups": groups}, title=title)
    if kind is ChartKind.BOX:
        cat = next((c for c in cols if c.kind is Kind.CATEGORICAL), None)
        num = next((c for c in cols if c.kind is Kind.NUMERICAL), None)
        if num is None:
            raise ToolError("box plot needs a numerical feature")
        if cat is None:
            groups = {num.name: base.paired(num)[0]}
        else:
            groups = {str(g): v for g, v in cat_num.group_values(cat, num).items()}
        return ChartSpec(kind, {"groups": groups}, title=title)
    # correlation heatmap over the numerical features
    nums = [c for c in cols if c.kind is Kind.NUMERICAL]
    if len(nums) < 2:
        raise ToolError("correlation heatmap needs two numerical features")
    labels = [c.name for c in nums]
    matrix = [[1.0 if i == j else
               num_num.pearson(nums[i], nums[j]).raw["r"]
               for j in range(len(nums))] for i in range(len(nums))]
    return ChartSpec(kind, {"labels": labels, "matrix": matrix}, title=title)


def _make_chart_executor(kind):
    def executor(state: SessionState):
        spec = _chart_data(state, kind)
        filename = f"chart_{len(state.charts):02d}_{kind.value}.svg"
        render_chart(spec, None if state.out_dir is None
                     else os.path.join(state.out_dir, filename))
        state.charts.append(filename)
        return {"file": filename, "kind": kind.value}
    return executor


def _tool_get_user_input(state: SessionState, prompt: str = ""):
    return {"message": get_user_input(state, prompt)}


def _tool_get_all_reference_intentions(state: SessionState):
    return {"intentions": [{"id": i, "intention": t}
                           for i, t in methodlib.list_intentions(state.library)]}


def _tool_get_reference_method_by_id(state: SessionState, method_id: str):
    entry = methodlib.get_method_by_id(state.library, method_id)
    return entry.to_record()


def _tool_generate_bias_report(state: SessionState):
    citations = [
        e.id for e in methodlib.retrieve(
            state.library,
            methodlib.RetrievalQuery(state.scenario(), state.task.question,
                                     top_k=2))
    ]
    report = assemble_report(
        task_summary=state.task.question,
        scenario=state.scenario(),
        findings=state.findings,
        charts=state.charts,
        method_citations=citations,
        errors=tuple(state.errors),
    )
    state.report = report
    if state.out_dir is not None:
        with open(os.path.join(state.out_dir, "report.md"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.to_markdown())
        with open(os.path.join(state.out_dir, "findings.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.to_json())
    return {"headline_level": report.headline.value,
            "findings": len(report.findings), "charts": list(report.charts)}


def build_registry() -> ToolRegistry:
    """The built-in offline toolset (no generated-code execution)."""
    entries = {}

    def add(name, description, executor):
        # Each keyword parameter's annotation is its type, and one without a
        # default is required; nothing reads the signature after this.
        params, required = {}, []
        _, *keywords = inspect.signature(
            executor, eval_str=True).parameters.values()
        for p in keywords:
            kind = p.annotation
            if not (kind in (str, list[str])
                    or isinstance(kind, type) and issubclass(kind, Enum)):
                raise TypeError(f"{name}: parameter {p.name!r} is annotated "
                                f"{kind!r}, not str, list[str] or an enum")
            params[p.name] = kind
            if p.default is p.empty:
                required.append(p.name)
        entries[name] = ToolEntry(name, description, executor, params,
                                  tuple(required))

    add("get_csv_features",
        "Reads the task's CSV file and returns all feature names.",
        _tool_get_csv_features)
    add("load_csv_file",
        "Loads the task's CSV file into the session as a typed table.",
        _tool_load_csv_file)
    add("extract_single_column",
        "Replaces the working table with one column of the loaded dataset.",
        _tool_extract_single_column)
    add("extract_two_columns",
        "Replaces the working table with two columns of the loaded dataset.",
        _tool_extract_two_columns)
    add("clean_missing_values",
        "Cleans missing or invalid values from the working table.",
        _tool_clean_missing_values)
    add("normalize_or_standardize_data",
        "Normalizes or standardizes a numerical column of the working table.",
        _tool_normalize_or_standardize)
    add("group_and_aggregate",
        "Groups the working table by one column and aggregates another.",
        _tool_group_and_aggregate)
    for tool_name, metric_id in DETECTION_TOOLS.items():
        add(tool_name,
            f"Runs the {metric_id} bias metric on the task features and maps "
            f"the result to a severity level.",
            _make_detection_executor(metric_id))
    for tool_name, kind in CHART_TOOLS.items():
        add(tool_name,
            f"Renders a {kind.value} chart of the task features to SVG.",
            _make_chart_executor(kind))
    add("get_user_input_tool",
        "Captures user input during an interaction.",
        _tool_get_user_input)
    add("get_all_reference_intentions",
        "Lists all method-library entries as (id, intention) pairs.",
        _tool_get_all_reference_intentions)
    add("get_reference_method_by_id",
        "Fetches one method-library entry by its id.",
        _tool_get_reference_method_by_id)
    add("generate_bias_report",
        "Assembles the findings, charts, and recommendations into the "
        "detection report (markdown + JSON).",
        _tool_generate_bias_report)
    return ToolRegistry(entries=entries)


# --------------------------------------------------------------------------
# User input
# --------------------------------------------------------------------------

def get_user_input(state: SessionState, prompt: str = "", reader=None) -> str:
    """The user's next non-blank line, read after showing ``prompt``.

    Only an interactive session (``repl``) has a user to ask; elsewhere this
    raises :class:`EndOfInputError`.
    """
    if not state.task.interactive:
        raise EndOfInputError("no user to ask: the session is not interactive")
    reader = reader or input
    while True:
        try:
            message = reader(f"{prompt} > " if prompt else "> ")
        except EOFError:
            raise EndOfInputError("stdin closed") from None
        if message is None:
            raise EndOfInputError("no more input")
        if str(message).strip():
            return str(message)


# --------------------------------------------------------------------------
# Advisor
# --------------------------------------------------------------------------

def advisor_review(payload: dict, state: SessionState) -> Critique:
    """Deterministic rule-mode critique of a plan, results, or report."""
    kind = payload.get("kind")
    if kind == "plan":
        try:
            scenario = Scenario(payload.get("scenario"))
        except ValueError:
            return Critique(Verdict.REVISE, (
                f"plan names no valid scenario: {payload.get('scenario')!r}",))
        required = [METRIC_TO_TOOL[m] for m in SCENARIO_METRICS[scenario]]
        scheduled = set(payload.get("scheduled", ()))
        missing = [t for t in required if t not in scheduled]
        issues = []
        suggestions = []
        if missing:
            issues.append(f"plan misses scenario metrics: {', '.join(missing)}")
            suggestions = [Action(ActionKind.INVOKE_TOOL, tool=t,
                                  rationale="advisor: schedule missing metric")
                           for t in missing]
        if not payload.get("cleaning_done"):
            issues.append("cleaning must precede detection")
        if issues:
            return Critique(Verdict.REVISE, tuple(issues), tuple(suggestions))
        return Critique(Verdict.APPROVE)
    if kind == "results":
        unrecovered = payload.get("unrecovered_errors", ())
        if unrecovered:
            return Critique(Verdict.REVISE,
                            tuple(f"tool failed without retry: {e}"
                                  for e in unrecovered))
        if not payload.get("findings"):
            return Critique(Verdict.REVISE, ("no metric produced a finding",))
        return Critique(Verdict.APPROVE)
    if kind == "report":
        report = state.report
        issues = []
        if report is None:
            issues.append("no report assembled")
        else:
            if not all(f.level.label for f in report.findings):
                issues.append("findings lack level labels")
            if not report.recommendations:
                issues.append("report lacks recommendations")
        if issues:
            return Critique(Verdict.REVISE, tuple(issues))
        return Critique(Verdict.APPROVE)
    return Critique(Verdict.REVISE, (f"unknown consultation payload {kind!r}",))


# --------------------------------------------------------------------------
# Planners
# --------------------------------------------------------------------------

class RulePlanner:
    """Fixed deterministic policy standing in for an LLM primary agent.

    It follows one plan, the five stages in the paper's order. A load,
    extract, clean, chart or report step that has just failed is proposed
    once more, so one that fails twice ends the session through the loop's
    same-call-twice rule. A failed metric step is not retried.
    """

    def __init__(self):
        self._steps = None
        self._last = None

    def next(self, state: SessionState) -> Action:
        # last_failed_call outlives consults and transitions, so it counts
        # only if the action proposed last is the call that failed.
        last = self._last
        if (last is not None and last.tool not in DETECTION_TOOLS
                and state.last_failed_call == (last.tool, last.args)):
            return last
        if self._steps is None:
            self._steps = self._plan(state)
        self._last = next(self._steps)
        return self._last

    # Static, so the plan's frame holds no reference back to the planner: a
    # planner <-> plan cycle would keep the session's table alive until the
    # next cyclic garbage collection.
    @staticmethod
    def _plan(state: SessionState):
        task = state.task
        yield Action(ActionKind.TRANSITION, stage=Stage.PREPROCESSING,
                     rationale=f"task parsed: features={list(task.features)} "
                               f"bias_type={task.bias_type.value}")
        yield Action(ActionKind.INVOKE_TOOL, tool="load_csv_file",
                     rationale="load the dataset")
        if len(task.features) == 1:
            yield Action(ActionKind.INVOKE_TOOL, tool="extract_single_column",
                         args={"column": task.features[0]},
                         rationale="restrict to the task feature")
        else:
            yield Action(ActionKind.INVOKE_TOOL, tool="extract_two_columns",
                         args={"column_a": task.features[0],
                               "column_b": task.features[1]},
                         rationale="restrict to the task features")
        yield Action(ActionKind.INVOKE_TOOL, tool="clean_missing_values",
                     args={"columns": list(task.features), "mode": "drop_row"},
                     rationale="drop rows with missing task cells")
        scenario = state.scenario()
        metric_tools = {METRIC_TO_TOOL[m]: m for m in SCENARIO_METRICS[scenario]}
        yield Action(ActionKind.CONSULT_ADVISOR,
                     payload={"kind": "plan", "scenario": scenario.value,
                              "scheduled": list(metric_tools),
                              "cleaning_done": True},
                     rationale="advisor check before detection")
        yield Action(ActionKind.TRANSITION, stage=Stage.DETECTION,
                     rationale="preprocessing complete")
        for tool, metric_id in metric_tools.items():
            yield Action(ActionKind.INVOKE_TOOL, tool=tool,
                         rationale=f"run scenario metric {metric_id}")
        yield Action(ActionKind.CONSULT_ADVISOR,
                     payload={"kind": "results", "findings": len(state.findings),
                              "unrecovered_errors": []},
                     rationale="advisor check on detection results")
        yield Action(ActionKind.TRANSITION, stage=Stage.VISUALIZATION_SUMMARY,
                     rationale="all scenario metrics attempted")
        yield Action(ActionKind.INVOKE_TOOL, tool=SCENARIO_CHART[scenario],
                     rationale="chart kind chosen by scenario")
        yield Action(ActionKind.INVOKE_TOOL, tool="generate_bias_report",
                     rationale="assemble the detection report")
        yield Action(ActionKind.TRANSITION, stage=Stage.FEEDBACK,
                     rationale="report assembled")
        yield Action(ActionKind.CONSULT_ADVISOR, payload={"kind": "report"},
                     rationale="advisor check before finishing")
        yield Action(ActionKind.FINISH, rationale="task complete")


class ScriptedPlanner:
    """Replays a fixed action list; for tests and fixture logs."""

    def __init__(self, actions):
        self._actions = iter(actions)

    def next(self, state: SessionState) -> Action:
        return next(self._actions,
                    Action(ActionKind.FINISH, rationale="script exhausted"))


# chat_complete tries the endpoint this many times on network errors.
MAX_RETRIES = 3


@dataclass(frozen=True)
class ChatConfig:
    base_url: str
    model: str
    key_env: str = "BIASAUDIT_API_KEY"
    timeout_s: float = 30.0


def _default_transport(url, headers, payload, timeout_s):
    # Imported here: only chat mode needs it, and it slows every start.
    import urllib.request

    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body, headers=headers,
                                     method="POST")
    # URLError and TimeoutError are OSErrors; a body that is not UTF-8 JSON
    # raises a ValueError.
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return json.loads(response.read().decode("utf-8"))
    except (OSError, ValueError) as exc:
        raise NetworkError(str(exc)) from exc


def chat_complete(messages, tool_descriptions, config: ChatConfig,
                  transport=None, sleep=time.sleep) -> dict:
    """One chat-completion round trip with retry/backoff on network errors."""
    transport = transport or _default_transport
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(config.key_env, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    payload = {"model": config.model, "messages": messages,
               "tools": [{"type": "function",
                          "function": {
                              "name": t["name"],
                              "description": f"{t['name']}{t['signature']}: "
                                             f"{t['description']}",
                              "parameters": t["parameters"]}}
                         for t in tool_descriptions],
               "temperature": 0}
    last = None
    for attempt in range(MAX_RETRIES):
        try:
            return transport(config.base_url, headers, payload, config.timeout_s)
        except NetworkError as exc:
            last = exc
            if attempt + 1 < MAX_RETRIES:
                sleep(0.2 * 2 ** attempt)
    raise NetworkError(f"chat endpoint failed after "
                       f"{MAX_RETRIES} attempts: {last}")


_PRIMARY_FRAME = (
    "You are the primary analyst for a tabular bias audit. Communicate with "
    "the user, develop a detection plan covering preprocessing, detection "
    "metrics, visualization, and summarization, select tools from the "
    "registry below, and finish with a report. Reply with a tool call, or "
    "with TRANSITION:<stage>, or with FINISH."
)


class ChatPlanner:
    """Delegates planning to a chat-completion endpoint."""

    def __init__(self, config: ChatConfig, transport=None):
        self.config = config
        self.transport = transport

    def next(self, state: SessionState) -> Action:
        messages = self._render(state)
        tools = state.registry.descriptions()
        reply = chat_complete(messages, tools, self.config,
                              transport=self.transport)
        action = self._parse(reply)
        if action is None:
            messages.append({
                "role": "system",
                "content": "Reply strictly with one tool call, "
                           "TRANSITION:<stage>, or FINISH."})
            reply = chat_complete(messages, tools, self.config,
                                  transport=self.transport)
            action = self._parse(reply)
        if action is None:
            raise PlannerError("chat reply was unparseable after one retry")
        return action

    def _render(self, state: SessionState) -> list:
        summary = {
            "stage": state.stage.value,
            "question": state.task.question,
            "features": list(state.task.features),
            "working_columns": state.working and state.working.column_names,
            "findings": len(state.findings),
            "errors": state.errors[-3:],
            "budget": state.budget,
        }
        return [
            {"role": "system", "content": _PRIMARY_FRAME},
            {"role": "user", "content": json.dumps(summary, sort_keys=True)},
        ]

    @staticmethod
    def _parse(reply):
        """The action a chat reply names, or None for any other reply."""
        try:
            message = reply["choices"][0]["message"]
            calls = message.get("tool_calls")
            if calls:
                fn = calls[0]["function"]
                name = fn["name"]
                args = json.loads(fn.get("arguments") or "{}")
                if name and isinstance(name, str) and isinstance(args, dict):
                    return Action(ActionKind.INVOKE_TOOL, tool=name, args=args,
                                  rationale="chat planner tool call")
                return None
            content = (message.get("content") or "").strip()
            if content.upper().startswith("FINISH"):
                return Action(ActionKind.FINISH, rationale="chat planner finish")
            if content.upper().startswith("TRANSITION:"):
                target = content.split(":", 1)[1].strip().lower()
                return Action(ActionKind.TRANSITION, stage=Stage(target),
                              rationale="chat planner transition")
        except (LookupError, TypeError, AttributeError, ValueError):
            pass  # JSONDecodeError and an unknown stage are ValueErrors
        return None


# --------------------------------------------------------------------------
# Session loop
# --------------------------------------------------------------------------

def _legal_transition(current: Stage, target: Stage) -> bool:
    ci = STAGE_ORDER.index(current)
    ti = STAGE_ORDER.index(target)
    return ti <= ci + 1  # one step forward, or back to any earlier stage


def _incomplete_report(state: SessionState) -> ReportDocument:
    try:
        scenario = state.scenario()
    except BiasAuditError:
        scenario = None
    return ReportDocument(
        task_summary=state.task.question,
        scenario=scenario,
        findings=tuple(state.findings),
        charts=tuple(state.charts),
        recommendations=("run incomplete: increase the step budget and retry",),
        complete=False,
        errors=tuple(state.errors),
    )


def run_session(task: TaskContext, planner, registry: ToolRegistry,
                budget: int = 64, thresholds: ThresholdTable = DEFAULT_TABLE,
                out_dir=None, library=None, log_path=None):
    """Drive one workflow session to a report and a structured log, which
    is written to ``log_path``, if given, however the session ends."""
    if library is None:
        library = methodlib.builtin_library()
    state = SessionState(task=task, registry=registry, thresholds=thresholds,
                         out_dir=out_dir, library=library, budget=budget)
    log = state.log
    log.append(Stage.USER_INPUT, "user", "task",
               {"question": task.question, "dataset": task.dataset,
                "features": list(task.features),
                "bias_type": task.bias_type.value})
    try:
        while state.budget > 0:
            action = _next_action(planner, state, log)
            state.budget -= 1
            log.append(state.stage, "primary", "action", action.to_record())
            if action.kind is ActionKind.FINISH:
                report = state.report
                if report is None:
                    report = _incomplete_report(state)
                headline = report.headline.value if report.findings else None
                log.append(state.stage, "primary", "finish",
                           {"complete": report.complete, "headline": headline})
                return report, log
            _execute(action, state, log)

        report = _incomplete_report(state)
        log.append(state.stage, "system", "budget_exhausted",
                   {"findings": len(state.findings)})
        return report, log
    finally:
        if log_path is not None:
            with open(log_path, "w", encoding="utf-8") as fh:
                fh.write(log.to_jsonl())


def _next_action(planner, state: SessionState, log: SessionLog) -> Action:
    action = planner.next(state)
    problem = _illegal(action, state)
    if problem is None:
        return action
    log.append(state.stage, "system", "planner_error", {"error": problem})
    action = planner.next(state)  # one retry
    problem = _illegal(action, state)
    if problem is None:
        return action
    raise PlannerError(problem)


def _illegal(action: Action, state: SessionState):
    if action.kind is ActionKind.INVOKE_TOOL:
        if action.tool not in state.registry:
            return f"unknown tool {action.tool!r}"
    if action.kind is ActionKind.TRANSITION:
        if action.stage is None or not _legal_transition(state.stage, action.stage):
            return (f"illegal transition {state.stage.value} -> "
                    f"{action.stage.value if action.stage else None}")
    return None


def _execute(action: Action, state: SessionState, log: SessionLog):
    if action.kind is ActionKind.TRANSITION:
        previous = state.stage
        state.stage = action.stage
        log.append(state.stage, "system", "stage",
                   {"from": previous.value, "to": action.stage.value})
        return
    if action.kind is ActionKind.CONSULT_ADVISOR:
        critique = advisor_review(action.payload, state)
        log.append(state.stage, "advisor", "critique", critique.to_record())
        return
    # InvokeTool
    entry = state.registry.get(action.tool)
    call = (action.tool, action.args)
    try:
        result = entry.executor(state, **entry.checked_args(action.args))
        state.last_failed_call = None
        log.append(state.stage, "tool", "result",
                   {"tool": action.tool, "ok": True, "result": result})
    except BiasAuditError as exc:
        state.errors.append(f"{action.tool}: {exc}")
        log.append(state.stage, "tool", "result",
                   {"tool": action.tool, "ok": False, "error": str(exc)})
        # The same call failing twice in a row means the planner cannot make
        # progress (e.g. an unknown column); surface the error to the caller.
        if state.last_failed_call == call:
            raise
        state.last_failed_call = call
