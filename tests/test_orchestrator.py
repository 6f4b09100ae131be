"""Workflow sessions: registry, planners, advisor, and the event loop."""

import csv
import gc
import json
import os
import statistics
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasaudit import bench, orchestrator
from biasaudit.errors import (
    EndOfInputError,
    MalformedLogError,
    NetworkError,
    PlannerError,
    ToolError,
    UnknownColumnError,
)
from biasaudit.metrics import BiasType, Scenario
from biasaudit.orchestrator import (
    CHART_TOOLS,
    DETECTION_TOOLS,
    SCENARIO_CHART,
    Action,
    ActionKind,
    ChatConfig,
    ChatPlanner,
    RulePlanner,
    ScriptedPlanner,
    SessionLog,
    SessionState,
    Stage,
    TaskContext,
    Verdict,
    advisor_review,
    build_registry,
    chat_complete,
    get_user_input,
    run_session,
)
from biasaudit.severity import DEFAULT_TABLE

SAMPLE = os.path.join(os.path.dirname(bench.__file__), "data", "sample.csv")


class Recorder:
    """Passes a planner's actions through, keeping them and the state."""

    def __init__(self, planner):
        self.planner = planner
        self.actions = []
        self.state = None

    def next(self, state):
        self.state = state
        action = self.planner.next(state)
        self.actions.append(action)
        return action


@pytest.fixture(scope="module")
def registry():
    return build_registry()


@pytest.fixture
def cat_csv(tmp_path):
    path = tmp_path / "cat.csv"
    rows = ["group"] + ["a"] * 30 + ["b"] * 10 + ["c"] * 5
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def cat_num_csv(tmp_path):
    path = tmp_path / "cat_num.csv"
    lines = ["group,score"]
    for i in range(30):
        lines.append(f"a,{10 + 0.1 * i:.1f}")
    for i in range(30):
        lines.append(f"b,{14 + 0.1 * i:.1f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def num_num_csv(tmp_path):
    path = tmp_path / "num_num.csv"
    lines = ["x,y"]
    for i in range(40):
        x = i / 10.0
        lines.append(f"{x},{2 * x + (i % 3) * 0.1}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def cat_task(path, **kw):
    kw.setdefault("bias_type", BiasType.DISTRIBUTION)
    return TaskContext(question="Is group balanced?", dataset=path,
                       features=("group",), **kw)


class TestRegistry:
    def test_forty_five_tools(self, registry):
        assert len(registry.entries) == 45
        assert len(DETECTION_TOOLS) == 25
        assert len(CHART_TOOLS) == 9

    def test_no_code_execution_tool(self, registry):
        assert "execute_python_code" not in registry

    def test_detection_tool_naming(self, registry):
        assert "categorical_distribution_shannon_balance" in registry
        assert "numerical_numerical_correlation_hsic" in registry
        assert DETECTION_TOOLS["categorical_numerical_correlation_causal_effect"] \
            == "causal_effect"

    def test_descriptions_cover_all_tools(self, registry):
        descs = registry.descriptions()
        assert len(descs) == 45
        assert all({"name", "signature", "description"} <= set(d) for d in descs)


CANONICAL_DISTRIBUTION_SCRIPT = [
    Action(ActionKind.TRANSITION, stage=Stage.PREPROCESSING),
    Action(ActionKind.INVOKE_TOOL, tool="load_csv_file"),
    Action(ActionKind.INVOKE_TOOL, tool="extract_single_column",
           args={"column": "group"}),
    Action(ActionKind.INVOKE_TOOL, tool="clean_missing_values",
           args={"mode": "drop_row"}),
    Action(ActionKind.TRANSITION, stage=Stage.DETECTION),
    Action(ActionKind.INVOKE_TOOL, tool="categorical_distribution_shannon_balance"),
    Action(ActionKind.INVOKE_TOOL, tool="categorical_distribution_max_min_ratio"),
    Action(ActionKind.INVOKE_TOOL, tool="categorical_distribution_entropy"),
    Action(ActionKind.INVOKE_TOOL, tool="categorical_distribution_gini"),
    Action(ActionKind.INVOKE_TOOL, tool="categorical_distribution_relative_risk"),
    Action(ActionKind.TRANSITION, stage=Stage.VISUALIZATION_SUMMARY),
    Action(ActionKind.INVOKE_TOOL, tool="plot_bar_chart"),
    Action(ActionKind.INVOKE_TOOL, tool="generate_bias_report"),
    Action(ActionKind.TRANSITION, stage=Stage.FEEDBACK),
    Action(ActionKind.FINISH),
]


class TestRunSession:
    def test_scripted_distribution_session(self, registry, cat_csv, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        planner = ScriptedPlanner(CANONICAL_DISTRIBUTION_SCRIPT)
        report, log = run_session(cat_task(cat_csv), planner, registry,
                                  out_dir=str(out))
        assert report.complete
        assert len(report.findings) == 5
        assert len(report.charts) == 1
        assert report.headline.value in range(1, 6)
        assert (out / "report.md").exists()
        assert (out / "findings.json").exists()
        assert (out / report.charts[0]).exists()

    def test_budget_zero_incomplete(self, registry, cat_csv):
        report, log = run_session(cat_task(cat_csv), RulePlanner(), registry,
                                  budget=0)
        assert not report.complete
        assert report.findings == ()
        assert log.events[-1].action == "budget_exhausted"

    def test_incomplete_run_without_a_table_names_no_scenario(
            self, registry, num_num_csv):
        task = TaskContext(question="q", dataset=num_num_csv,
                           features=("x", "y"))
        report, _ = run_session(task, RulePlanner(), registry, budget=1)
        assert report.scenario is None
        assert "**Scenario:** undetermined\n" in report.to_markdown()
        assert report.to_record()["scenario"] is None

    def test_unknown_tool_raises_after_one_retry(self, registry, cat_csv):
        planner = ScriptedPlanner([
            Action(ActionKind.INVOKE_TOOL, tool="no_such_tool"),
            Action(ActionKind.INVOKE_TOOL, tool="no_such_tool"),
        ])
        with pytest.raises(PlannerError):
            run_session(cat_task(cat_csv), planner, registry)

    def test_illegal_transition_recovers_on_retry(self, registry, cat_csv):
        script = [Action(ActionKind.TRANSITION, stage=Stage.DETECTION)] \
            + CANONICAL_DISTRIBUTION_SCRIPT
        report, log = run_session(cat_task(cat_csv), ScriptedPlanner(script),
                                  registry)
        assert report.complete
        assert any(e.action == "planner_error" for e in log.events)

    def test_repeated_tool_failure_surfaces(self, registry, cat_csv):
        planner = ScriptedPlanner([
            Action(ActionKind.TRANSITION, stage=Stage.PREPROCESSING),
            Action(ActionKind.INVOKE_TOOL, tool="load_csv_file"),
            Action(ActionKind.INVOKE_TOOL, tool="extract_single_column",
                   args={"column": "missing_col"}),
            Action(ActionKind.INVOKE_TOOL, tool="extract_single_column",
                   args={"column": "missing_col"}),
        ])
        with pytest.raises(Exception) as info:
            run_session(cat_task(cat_csv), planner, registry)
        assert "missing_col" in str(info.value)

    def test_metric_of_another_scenario_is_a_tool_error(self, registry, cat_csv):
        # A numerical-distribution metric on a categorical feature fails as
        # one tool call; the session goes on and still completes.
        script = list(CANONICAL_DISTRIBUTION_SCRIPT)
        script.insert(5, Action(ActionKind.INVOKE_TOOL,
                                tool="numerical_distribution_skewness"))
        report, log = run_session(cat_task(cat_csv), ScriptedPlanner(script),
                                  registry)
        assert report.complete
        assert len(report.findings) == 5
        failed = [e.payload for e in log.events
                  if e.action == "result" and not e.payload["ok"]]
        assert len(failed) == 1
        assert failed[0]["tool"] == "numerical_distribution_skewness"
        assert "skewness is a num_dist metric" in failed[0]["error"]


# Calls a chat planner may make that name an unknown parameter, pass a
# non-object as the arguments, leave out a required parameter, give a value
# of the wrong type, or give an enum value outside the allowed set.
MALFORMED_CALLS = [
    ("load_csv_file", {"file": "data.csv"}, "has no parameter(s) ['file']"),
    ("load_csv_file", [1], "takes keyword arguments, got [1]"),
    ("load_csv_file", {"path": "x.csv"}, "has no parameter(s) ['path']"),
    ("clean_missing_values", {"columns": 1.5},
     "columns must be a list of column names, got 1.5"),
    ("clean_missing_values", {"columns": "gender"},
     "columns must be a list of column names, got 'gender'"),
    ("clean_missing_values", {"mode": "drop"}, "'drop' is not one of"),
    ("normalize_or_standardize_data", {"column": "group", "mode": "zscore"},
     "'zscore' is not one of"),
    ("group_and_aggregate", {"by": "group", "target": "group", "fn": "avg"},
     "'avg' is not one of"),
    ("extract_single_column", {},
     "extract_single_column(column) is missing parameter(s) ['column']"),
    ("extract_single_column", {"column": 5}, "column must be a string, got 5"),
    ("extract_single_column", {"column": None},
     "extract_single_column(column) is missing parameter(s) ['column']"),
]
MALFORMED_IDS = ["unknown-param", "array-args", "path-param",
                 "columns-number", "columns-string", "cleaning-mode",
                 "normalize-mode", "aggregate-fn", "missing-column",
                 "column-number", "null-column"]


class TestMalformedToolCalls:
    @pytest.mark.parametrize("tool,args,message", MALFORMED_CALLS,
                             ids=MALFORMED_IDS)
    def test_failed_result_not_a_crash(self, registry, cat_csv, tool, args,
                                       message):
        script = list(CANONICAL_DISTRIBUTION_SCRIPT)
        script.insert(2, Action(ActionKind.INVOKE_TOOL, tool=tool, args=args))
        report, log = run_session(cat_task(cat_csv), ScriptedPlanner(script),
                                  registry)
        assert report.complete
        failed = [e.payload for e in log.events
                  if e.action == "result" and not e.payload["ok"]]
        assert [f["tool"] for f in failed] == [tool]
        assert message in failed[0]["error"]

    @pytest.mark.parametrize("tool,args,message", MALFORMED_CALLS,
                             ids=MALFORMED_IDS)
    def test_same_call_twice_raises(self, registry, cat_csv, tool, args,
                                    message):
        call = Action(ActionKind.INVOKE_TOOL, tool=tool, args=args)
        script = CANONICAL_DISTRIBUTION_SCRIPT[:2] + [call, call]
        with pytest.raises(ToolError) as info:
            run_session(cat_task(cat_csv), ScriptedPlanner(script), registry)
        assert message in str(info.value)


    def test_null_argument_counts_as_left_out(self, registry, cat_csv):
        # mode: null cleans with the default, drop_row.
        def cleaned(args):
            script = list(CANONICAL_DISTRIBUTION_SCRIPT)
            script[3] = Action(ActionKind.INVOKE_TOOL,
                               tool="clean_missing_values", args=args)
            _, log = run_session(cat_task(cat_csv), ScriptedPlanner(script),
                                 registry)
            return [e.payload for e in log.events if e.action == "result"
                    and e.payload["tool"] == "clean_missing_values"]

        assert cleaned({"columns": None, "mode": None}) \
            == cleaned({"mode": "drop_row"})
        assert cleaned({"mode": None})[0]["ok"]


def fits(schema, value):
    """Whether a JSON value fits a tool's parameters schema: an object of
    strings, string enums and string arrays."""
    kind = schema["type"]
    if kind == "object":
        props = schema["properties"]
        return (isinstance(value, dict)
                and set(schema["required"]) <= set(value)
                and all(fits(props[k], v) if k in props
                        else schema["additionalProperties"]
                        for k, v in value.items()))
    if kind == "array":
        return isinstance(value, list) and all(fits(schema["items"], v)
                                               for v in value)
    assert kind == "string", schema
    return isinstance(value, str) and value in schema.get("enum", [value])


# JSON values a chat endpoint may send, null aside: a null argument counts as
# left out, which the schema does not say.
JSON_VALUES = ["gender", "drop_row", "fill_median", "standardize", "count",
               "drop", "", 0, 1.5, True, [], ["gender", "count"], ["gender", 1],
               [None], {"column": "gender"}]
# One tool per distinct schema: the 38 tools without parameters share one.
SCHEMA_TOOLS = sorted({
    json.dumps(entry.parameters, sort_keys=True): name
    for name, entry in sorted(build_registry().entries.items())}.values())


def arguments(params):
    """The tool's own parameters, each present or not; sometimes another
    name; sometimes not an object."""
    values = st.sampled_from(JSON_VALUES)
    return st.one_of(
        st.fixed_dictionaries({}, optional=dict.fromkeys(params, values)),
        st.dictionaries(st.sampled_from([*params, "nope"]), values,
                        max_size=3),
        values)


class TestToolSchemas:
    @pytest.mark.parametrize("tool", SCHEMA_TOOLS)
    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_checked_args_accept_what_the_schema_admits(self, registry, tool,
                                                        data):
        entry = registry.get(tool)
        schema = entry.parameters
        args = data.draw(arguments(tuple(entry.params)))
        try:
            entry.checked_args(args)
            accepted = True
        except ToolError:
            accepted = False
        assert accepted == fits(schema, args)


class TestRulePlanner:
    def test_eighteen_action_policy(self, registry, cat_csv):
        report, log = run_session(cat_task(cat_csv), RulePlanner(), registry)
        assert report.complete
        actions = [e for e in log.events if e.action == "action"]
        assert len(actions) == 18
        assert actions[-1].payload["kind"] == "finish"

    def test_a_finished_session_frees_its_table_at_once(
            self, registry, cat_csv, monkeypatch):
        # Without a planner <-> plan cycle, reference counting frees the
        # table when the session's planner goes; the cycle collector, which
        # may run much later, is not needed.
        loaded = []
        real_load_table = orchestrator.load_table

        def load_table(path):
            table = real_load_table(path)
            loaded.append(weakref.ref(table))
            return table

        monkeypatch.setattr(orchestrator, "load_table", load_table)
        gc.disable()
        try:
            planner = RulePlanner()
            report, _ = run_session(cat_task(cat_csv), planner, registry)
            del planner
            assert report.complete and len(loaded) == 1
            assert loaded[0]() is None
        finally:
            gc.enable()

    def test_cat_num_gets_box_plot(self, registry, cat_num_csv):
        task = TaskContext(question="Do groups differ on score?",
                           dataset=cat_num_csv, features=("group", "score"),
                           bias_type=BiasType.CORRELATION)
        report, log = run_session(task, RulePlanner(), registry)
        assert report.complete
        assert report.charts and "box" in report.charts[0]
        assert SCENARIO_CHART[Scenario.CAT_NUM] == "plot_box_plot"

    def test_num_num_gets_correlation_heatmap(self, registry, num_num_csv):
        task = TaskContext(question="Are x and y correlated?",
                           dataset=num_num_csv, features=("x", "y"),
                           bias_type=BiasType.CORRELATION)
        report, log = run_session(task, RulePlanner(), registry)
        assert report.complete
        assert report.charts and "correlation_heatmap" in report.charts[0]

    def test_log_is_byte_identical_across_runs(self, registry, cat_csv):
        _, log1 = run_session(cat_task(cat_csv), RulePlanner(), registry)
        _, log2 = run_session(cat_task(cat_csv), RulePlanner(), registry)
        assert log1.to_jsonl() == log2.to_jsonl()


    def test_unknown_feature_raises_on_the_second_extract(self, registry,
                                                           cat_csv):
        task = TaskContext(question="q", dataset=cat_csv, features=("nope",))
        planner = Recorder(RulePlanner())
        with pytest.raises(UnknownColumnError,
                           match=r"unknown column 'nope'; have \['group'\]"):
            run_session(task, planner, registry)
        assert [a.tool for a in planner.actions] == [
            None, "load_csv_file", "extract_single_column",
            "extract_single_column"]

    def test_mid_plan_budget_stops_after_the_first_metric(self, registry,
                                                          cat_csv):
        report, log = run_session(cat_task(cat_csv), RulePlanner(), registry,
                                  budget=7)
        assert not report.complete
        assert [f.metric_id for f in report.findings] == ["shannon_balance"]
        assert len(log.events) == 16
        *_, action, result, end = log.events
        assert action.payload["tool"] == \
            "categorical_distribution_shannon_balance"
        assert (result.action, result.payload["ok"]) == ("result", True)
        assert (end.stage, end.action) == ("detection", "budget_exhausted")

    def test_plan_consult_schedules_the_called_metrics(self, registry,
                                                       cat_csv):
        _, log = run_session(cat_task(cat_csv), RulePlanner(), registry)
        actions = [e.payload for e in log.events if e.action == "action"]
        [plan] = [a["payload"] for a in actions
                  if a.get("payload", {}).get("kind") == "plan"]
        called = [a["tool"] for a in actions
                  if a.get("tool") in DETECTION_TOOLS]
        assert plan["scheduled"] == called
        assert len(called) == 5


def _sample_cells(column):
    with open(SAMPLE, encoding="utf-8", newline="") as fh:
        return [row[column] for row in csv.DictReader(fh)]


class TestToolPayloads:
    """One scripted session through the data and library tools that the
    rule planner never calls, checked payload by payload."""

    @pytest.fixture(scope="class")
    def session(self, registry):
        def call(tool, **args):
            return Action(ActionKind.INVOKE_TOOL, tool=tool, args=args)

        script = [
            call("get_csv_features"),
            Action(ActionKind.TRANSITION, stage=Stage.PREPROCESSING),
            call("load_csv_file"),
            call("get_all_reference_intentions"),
            call("get_reference_method_by_id", method_id="A-0-1"),
            call("extract_two_columns", column_a="gender", column_b="age"),
            call("clean_missing_values", columns=["gender", "age"],
                 mode="fill_mode"),
            call("group_and_aggregate", by="gender", target="age", fn="mean"),
            call("normalize_or_standardize_data", column="age",
                 mode="normalize"),
        ]
        task = TaskContext(question="q", dataset=SAMPLE,
                           features=("gender", "age"))
        planner = Recorder(ScriptedPlanner(script))
        report, log = run_session(task, planner, registry)
        results = [e.payload for e in log.events if e.action == "result"]
        assert all(r["ok"] for r in results), results
        return {r["tool"]: r["result"] for r in results}, planner.state

    def test_csv_features(self, session):
        payloads, _ = session
        assert payloads["get_csv_features"] == {"features": [
            "gender", "region", "age", "hours", "score", "income_level"]}

    def test_reference_intentions(self, session):
        payloads, state = session
        intentions = payloads["get_all_reference_intentions"]["intentions"]
        assert len(intentions) == len(state.library) == 27
        assert intentions[0]["id"] == "A-0-1"
        assert intentions[0]["intention"] == state.library[0].intention

    def test_reference_method_by_id(self, session):
        payloads, state = session
        method = payloads["get_reference_method_by_id"]
        assert method == state.library[0].to_record()
        assert method["id"] == "A-0-1"

    def test_fill_mode_fills_the_most_frequent_value(self, session):
        # gender has one "?" cell and age three "NA" cells. age is
        # numerical, so its mode is taken over its distinct values.
        payloads, _ = session
        assert payloads["clean_missing_values"] == {
            "rows": 400, "cells_changed": 4, "rows_dropped": 0}

    def test_group_and_aggregate(self, session):
        payloads, _ = session
        genders = [g if g != "?" else "male" for g in _sample_cells("gender")]
        ages = [float(a) if a != "NA" else 18.0 for a in _sample_cells("age")]
        want = [{"gender": g, "mean_age": pytest.approx(statistics.fmean(
            a for h, a in zip(genders, ages) if h == g))}
            for g in ("female", "male", "nonbinary")]
        assert payloads["group_and_aggregate"] == {"groups": 3, "rows": want}

    def test_normalize(self, session):
        payloads, state = session
        assert payloads["normalize_or_standardize_data"] == {
            "column": "age", "mode": "normalize"}
        age = state.artifacts["clean"].column("age").data
        assert (age.min(), age.max()) == (0.0, 1.0)


class TestAdvisor:
    def state(self, registry):
        return SessionState(task=cat_task("unused.csv"), registry=registry,
                            thresholds=DEFAULT_TABLE, out_dir=None, library=[])

    def test_plan_missing_metrics_revise(self, registry):
        payload = {"kind": "plan", "scenario": "cat_dist",
                   "scheduled": ["categorical_distribution_shannon_balance",
                                 "categorical_distribution_entropy",
                                 "categorical_distribution_gini"],
                   "cleaning_done": True}
        critique = advisor_review(payload, self.state(registry))
        assert critique.verdict is Verdict.REVISE
        assert len(critique.suggested_actions) == 2
        suggested = {a.tool for a in critique.suggested_actions}
        assert suggested == {"categorical_distribution_max_min_ratio",
                             "categorical_distribution_relative_risk"}

    def test_complete_plan_approved(self, registry):
        payload = {"kind": "plan", "scenario": "cat_dist",
                   "scheduled": [f"categorical_distribution_{m}" for m in
                                 ("shannon_balance", "max_min_ratio", "entropy",
                                  "gini", "relative_risk")],
                   "cleaning_done": True}
        critique = advisor_review(payload, self.state(registry))
        assert critique.verdict is Verdict.APPROVE

    def test_results_with_unrecovered_error_revise(self, registry):
        payload = {"kind": "results", "findings": 4,
                   "unrecovered_errors": ["hsic: timeout"]}
        critique = advisor_review(payload, self.state(registry))
        assert critique.verdict is Verdict.REVISE
        assert critique.issues

    def test_revise_without_issues_invalid(self):
        from biasaudit.orchestrator import Critique
        with pytest.raises(ValueError):
            Critique(Verdict.REVISE)


class TestGetUserInput:
    def state(self, registry, **kw):
        return SessionState(task=cat_task("unused.csv", **kw),
                            registry=registry, thresholds=DEFAULT_TABLE,
                            out_dir=None, library=[])

    def test_interactive_echo(self, registry):
        state = self.state(registry, interactive=True)
        assert get_user_input(state, reader=lambda _prompt: "hello") == "hello"

    def test_interactive_blank_reprompts(self, registry):
        replies = iter(["", "   ", "ok"])
        state = self.state(registry, interactive=True)
        assert get_user_input(state, reader=lambda _p: next(replies)) == "ok"

    def test_interactive_eof(self, registry):
        def reader(_prompt):
            raise EOFError
        state = self.state(registry, interactive=True)
        with pytest.raises(EndOfInputError):
            get_user_input(state, reader=reader)


def reply_with_tool(name, arguments="{}"):
    return {"choices": [{"message": {"tool_calls": [
        {"function": {"name": name, "arguments": arguments}}]}}]}


def reply_with_text(text):
    return {"choices": [{"message": {"content": text}}]}


class TestChatPlanner:
    config = ChatConfig(base_url="http://localhost:1/v1/chat", model="m")

    def state(self, registry):
        return SessionState(task=cat_task("unused.csv"), registry=registry,
                            thresholds=DEFAULT_TABLE, out_dir=None, library=[])

    def test_tool_call_reply(self, registry):
        transport = lambda url, headers, payload, t: reply_with_tool(
            "load_csv_file", '{"path": "d.csv"}')
        planner = ChatPlanner(self.config, transport=transport)
        action = planner.next(self.state(registry))
        assert action.kind is ActionKind.INVOKE_TOOL
        assert action.tool == "load_csv_file"
        assert action.args == {"path": "d.csv"}

    def test_non_object_arguments_unparseable(self, registry):
        transport = lambda *a: reply_with_tool("load_csv_file", "[1]")
        with pytest.raises(PlannerError):
            ChatPlanner(self.config, transport=transport).next(
                self.state(registry))

    def test_transition_reply(self, registry):
        transport = lambda *a: reply_with_text("TRANSITION: preprocessing")
        action = ChatPlanner(self.config, transport=transport).next(
            self.state(registry))
        assert action.kind is ActionKind.TRANSITION
        assert action.stage is Stage.PREPROCESSING

    def test_finish_reply(self, registry):
        transport = lambda *a: reply_with_text("FINISH")
        action = ChatPlanner(self.config, transport=transport).next(
            self.state(registry))
        assert action.kind is ActionKind.FINISH

    def test_unparseable_reply_retries_then_fails(self, registry):
        calls = []

        def transport(url, headers, payload, t):
            calls.append(payload)
            return reply_with_text("let me think about that")

        planner = ChatPlanner(self.config, transport=transport)
        with pytest.raises(PlannerError):
            planner.next(self.state(registry))
        assert len(calls) == 2

    def test_network_error_retries_then_raises(self):
        attempts = []
        sleeps = []

        def transport(url, headers, payload, t):
            attempts.append(url)
            raise NetworkError("connection refused")

        with pytest.raises(NetworkError):
            chat_complete([], [], self.config, transport=transport,
                          sleep=sleeps.append)
        assert len(attempts) == 3
        assert len(sleeps) == 2

    def test_key_read_from_environment(self, registry, monkeypatch):
        seen = {}

        def transport(url, headers, payload, t):
            seen.update(headers)
            return reply_with_text("FINISH")

        monkeypatch.setenv("BIASAUDIT_API_KEY", "sk-test")
        ChatPlanner(self.config, transport=transport).next(self.state(registry))
        assert seen.get("Authorization") == "Bearer sk-test"

    def test_tool_descriptions_carry_signatures(self, registry):
        sent = []

        def transport(url, headers, payload, t):
            sent.extend(payload["tools"])
            return reply_with_text("FINISH")

        ChatPlanner(self.config, transport=transport).next(self.state(registry))
        described = {t["function"]["name"]: t["function"]["description"]
                     for t in sent}
        assert described["extract_two_columns"].startswith(
            "extract_two_columns(column_a, column_b): ")
        assert described["clean_missing_values"].startswith(
            "clean_missing_values(columns, mode): ")
        assert len(described) == len(registry.entries)


    def test_tools_declare_their_parameters(self, registry):
        sent = []

        def transport(url, headers, payload, t):
            sent.extend(payload["tools"])
            return reply_with_text("FINISH")

        ChatPlanner(self.config, transport=transport).next(self.state(registry))
        schemas = {t["function"]["name"]: t["function"]["parameters"]
                   for t in sent}
        name = {"type": "string"}
        assert schemas["extract_two_columns"] == {
            "type": "object",
            "properties": {"column_a": name, "column_b": name},
            "required": ["column_a", "column_b"],
            "additionalProperties": False}
        assert schemas["clean_missing_values"] == {
            "type": "object",
            "properties": {
                "columns": {"type": "array", "items": name},
                "mode": {"type": "string", "enum": [
                    "drop_row", "fill_mode", "fill_median"]}},
            "required": [],
            "additionalProperties": False}
        assert schemas["group_and_aggregate"]["properties"]["fn"] == {
            "type": "string", "enum": ["mean", "count", "sum", "median"]}
        assert schemas["group_and_aggregate"]["required"] == ["by", "target"]
        assert schemas["load_csv_file"] == {
            "type": "object", "properties": {}, "required": [],
            "additionalProperties": False}
        assert {name: list(s["properties"]) for name, s in schemas.items()} \
            == {name: list(e.params) for name, e in registry.entries.items()}
        assert all("type" in p for s in schemas.values()
                   for p in s["properties"].values())


class TestSessionLog:
    def test_jsonl_round_trip(self, registry, cat_csv):
        _, log = run_session(cat_task(cat_csv), RulePlanner(), registry)
        back = SessionLog.from_jsonl(log.to_jsonl())
        assert [e.to_record() for e in back.events] \
            == [e.to_record() for e in log.events]

    def test_malformed_line_rejected(self):
        with pytest.raises(MalformedLogError):
            SessionLog.from_jsonl('{"seq": 0}\nnot json at all\n')

    def test_missing_field_rejected(self):
        with pytest.raises(MalformedLogError):
            SessionLog.from_jsonl('{"seq": 0, "stage": "user_input"}\n')
