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

from biasaudit import bench, orchestrator, tabular
from biasaudit.errors import (
    EndOfInputError,
    MalformedLogError,
    NetworkError,
    PlannerError,
    TableError,
    ToolError,
    UnknownColumnError,
)
from biasaudit.metrics import BiasType, Scenario, cat_num, run_metric
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
from biasaudit.tabular import extract_columns, load_table

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

    def test_out_dir_is_created(self, registry, cat_csv, tmp_path):
        out = tmp_path / "a" / "b"
        report, _ = run_session(cat_task(cat_csv), RulePlanner(), registry,
                                out_dir=out)
        assert report.complete
        assert (out / "report.md").exists()
        assert (out / "findings.json").exists()
        assert report.charts and all((out / chart).exists()
                                     for chart in report.charts)

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


def call(tool, **args):
    return Action(ActionKind.INVOKE_TOOL, tool=tool, args=args)


class TestWorkingTable:
    """Every data tool replaces the working table, which the next tool reads;
    extraction always starts from the loaded dataset."""

    def run(self, registry, features, *steps):
        task = TaskContext(question="q", dataset=SAMPLE, features=features)
        script = [Action(ActionKind.TRANSITION, stage=Stage.PREPROCESSING),
                  call("load_csv_file"), *steps]
        planner = Recorder(ScriptedPlanner(script))
        _, log = run_session(task, planner, registry)
        results = [e.payload for e in log.events if e.action == "result"]
        return results, planner.state

    def test_a_new_extract_replaces_a_cleaned_table(self, registry):
        results, state = self.run(
            registry, ("score",),
            call("extract_single_column", column="gender"),
            call("clean_missing_values", mode="drop_row"),
            call("extract_single_column", column="score"),
            Action(ActionKind.TRANSITION, stage=Stage.DETECTION),
            call("numerical_distribution_skewness"))
        assert all(r["ok"] for r in results), results
        assert state.working.column_names == ["score"]
        assert results[-1]["result"]["raw"] == run_metric(
            "skewness", [state.table.column("score")]).raw

    def test_clean_keeps_a_normalization(self, registry):
        results, state = self.run(
            registry, ("score",),
            call("normalize_or_standardize_data", column="score",
                 mode="normalize"),
            call("clean_missing_values", columns=["score"], mode="drop_row"))
        assert all(r["ok"] for r in results), results
        score = state.working.column("score").data
        assert (score.min(), score.max()) == (0.0, 1.0)
        assert state.table.column("score").data[0] == 58.18


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

    @pytest.mark.parametrize("features", [("group", "score"),
                                          ("score", "group")])
    def test_cat_num_session_splits_the_rows_once(self, registry, cat_num_csv,
                                                  monkeypatch, features):
        # The five metrics and the box chart read one shared split.
        calls = []
        real_split = tabular.split_by_code

        def split_by_code(*args):
            calls.append(len(args[0]))
            return real_split(*args)

        monkeypatch.setattr(tabular, "split_by_code", split_by_code)
        monkeypatch.setattr(cat_num, "split_by_code", split_by_code)
        task = TaskContext(question="q", dataset=cat_num_csv,
                           features=features)
        report, _ = run_session(task, RulePlanner(), registry)
        assert report.complete and len(report.findings) == 4  # pse: no mediator
        assert calls == [60]

    def test_box_chart_of_an_outcome_in_extreme_units_is_raw(
            self, registry, tmp_path, monkeypatch):
        path = tmp_path / "huge.csv"
        path.write_text("group,score\n" + "".join(
            f"{'ab'[i % 2]},{(i + 1) * 1e298}\n" for i in range(40)),
            encoding="utf-8")
        specs = []
        monkeypatch.setattr(orchestrator, "render_chart",
                            lambda spec, path: specs.append(spec))
        task = TaskContext(question="q", dataset=str(path),
                           features=("group", "score"))
        report, _ = run_session(task, RulePlanner(), registry)
        assert report.complete and len(report.findings) == 4  # pse: no mediator
        [spec] = specs
        groups = spec.data["groups"]
        assert sorted(groups) == ["a", "b"]
        assert groups["a"].tolist() == [(i + 1) * 1e298 for i in range(0, 40, 2)]
        assert groups["b"].tolist() == [(i + 1) * 1e298 for i in range(1, 40, 2)]

    def test_heatmap_of_three_features_is_a_failed_tool_call(self, registry,
                                                             tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("x,y,z\n" + "".join(
            f"{i / 10},{(i * 7 % 13) / 10},{(i * 5 % 11) / 10}\n"
            for i in range(40)), encoding="utf-8")
        task = TaskContext(question="q", dataset=str(path),
                           features=("x", "y", "z"))
        script = [Action(ActionKind.TRANSITION, stage=Stage.PREPROCESSING),
                  call("load_csv_file"),
                  Action(ActionKind.TRANSITION, stage=Stage.DETECTION),
                  Action(ActionKind.TRANSITION,
                         stage=Stage.VISUALIZATION_SUMMARY),
                  call("plot_correlation_heatmap"),
                  Action(ActionKind.FINISH)]
        _, log = run_session(task, ScriptedPlanner(script), registry)
        [result] = [e.payload for e in log.events if e.action == "result"
                    and e.payload["tool"] == "plot_correlation_heatmap"]
        assert not result["ok"]
        assert "exactly two numerical features" in result["error"]

    def test_bar_chart_of_a_numerical_feature_is_a_failed_tool_call(
            self, registry, tmp_path):
        # One bar per distinct value would be one per row here.
        path = tmp_path / "num.csv"
        path.write_text("x\n" + "".join(f"{i * 0.37}\n" for i in range(40)),
                        encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        task = TaskContext(question="q", dataset=str(path), features=("x",))
        script = [Action(ActionKind.TRANSITION, stage=Stage.PREPROCESSING),
                  call("load_csv_file"),
                  Action(ActionKind.TRANSITION, stage=Stage.DETECTION),
                  Action(ActionKind.TRANSITION,
                         stage=Stage.VISUALIZATION_SUMMARY),
                  call("plot_bar_chart"),
                  Action(ActionKind.FINISH)]
        report, log = run_session(task, ScriptedPlanner(script), registry,
                                  out_dir=str(out))
        [result] = [e.payload for e in log.events if e.action == "result"
                    and e.payload["tool"] == "plot_bar_chart"]
        assert not result["ok"]
        assert result["error"] == "bar chart needs a categorical feature"
        assert not report.charts and not list(out.glob("*.svg"))

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

    def test_a_failed_load_is_proposed_once_more(self, registry, tmp_path):
        planner = Recorder(RulePlanner())
        with pytest.raises(TableError, match="No such file"):
            run_session(cat_task(str(tmp_path / "absent.csv")), planner,
                        registry)
        assert [a.tool for a in planner.actions] == [
            None, "load_csv_file", "load_csv_file"]

    def test_a_failed_chart_is_proposed_once_more(self, registry, cat_csv,
                                                  monkeypatch):
        def render_chart(spec, path):
            raise ToolError("no canvas")

        monkeypatch.setattr(orchestrator, "render_chart", render_chart)
        planner = Recorder(RulePlanner())
        with pytest.raises(ToolError, match="no canvas"):
            run_session(cat_task(cat_csv), planner, registry)
        assert [a.tool for a in planner.actions[-3:]] == [
            None, "plot_bar_chart", "plot_bar_chart"]

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
        age = state.working.column("age").data
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

    @pytest.mark.parametrize("payload, issue", [
        ({"kind": "plan", "scenario": "cat_dist", "scheduled": 5,
          "cleaning_done": True},
         "scheduled must be a list, got 5"),
        ({"kind": "results", "unrecovered_errors": 5},
         "unrecovered_errors must be a list, got 5"),
        (["kind", "plan"],
         "consultation payload must be an object, got ['kind', 'plan']"),
    ], ids=["scheduled", "unrecovered_errors", "not-an-object"])
    def test_unreadable_payload_is_a_revise_critique(self, registry, cat_csv,
                                                     payload, issue):
        # A planner's consult the advisor cannot read is critiqued, and the
        # session goes on to the end of its script.
        script = [Action(ActionKind.CONSULT_ADVISOR, payload=payload)]
        report, log = run_session(cat_task(cat_csv), ScriptedPlanner(script),
                                  registry, library=[])
        critique = next(e.payload for e in log.events
                        if e.action == "critique")
        assert critique == {"verdict": "revise", "issues": [issue],
                            "suggested": []}
        assert log.events[-1].action == "finish"

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

    @pytest.mark.parametrize("message", [
        "FINISH",
        {"content": [{"type": "text", "text": "FINISH"}]},
        {"tool_calls": ["load_csv_file"]},
        {"tool_calls": [{"function": "load_csv_file"}]},
        {"tool_calls": [{"function": {"name": "extract_single_column",
                                      "arguments": {"column": "group"}}}]},
    ], ids=["message-string", "content-parts", "call-string",
            "function-string", "arguments-object"])
    def test_reply_of_another_shape_unparseable(self, registry, message):
        calls = []

        def transport(url, headers, payload, t):
            calls.append(payload)
            return {"choices": [{"message": message}]}

        with pytest.raises(PlannerError):
            ChatPlanner(self.config, transport=transport).next(
                self.state(registry))
        assert len(calls) == 2

    def test_summary_names_the_working_columns(self, registry):
        sent = []

        def transport(url, headers, payload, t):
            sent.append(json.loads(payload["messages"][1]["content"]))
            return reply_with_text("FINISH")

        planner = ChatPlanner(self.config, transport=transport)
        state = self.state(registry)
        planner.next(state)
        state.table = load_table(SAMPLE)
        state.working = extract_columns(state.table, ["score", "gender"])
        planner.next(state)
        assert [s["working_columns"] for s in sent] == [None,
                                                        ["score", "gender"]]
        assert "artifacts" not in sent[0]

    @pytest.mark.parametrize("body", [b"\xff\xfe{}", b"<html>busy</html>"],
                             ids=["not-utf8", "not-json"])
    def test_body_that_is_not_utf8_json_is_a_network_error(self, monkeypatch,
                                                           body):
        import io
        import urllib.request

        monkeypatch.setattr(urllib.request, "urlopen",
                            lambda request, timeout: io.BytesIO(body))
        with pytest.raises(NetworkError):
            orchestrator._default_transport(self.config.base_url, {}, {}, 1.0)

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

    def test_a_value_json_cannot_hold_is_written_as_its_str(self, registry,
                                                             cat_csv):
        script = [Action(ActionKind.CONSULT_ADVISOR, payload={
            "kind": "plan", "tags": {"b"}, "ids": (1,)})]
        _, log = run_session(cat_task(cat_csv), ScriptedPlanner(script),
                             registry, library=[])
        assert log.to_jsonl().splitlines()[1] == (
            '{"action": "action", "actor": "primary", "payload": '
            '{"kind": "consult_advisor", "payload": {"ids": [1], "kind": "plan", '
            '"tags": "{\'b\'}"}, "rationale": ""}, "seq": 1, '
            '"stage": "user_input", "wall_ms": 0}')

    @pytest.mark.parametrize("action", [
        Action(ActionKind.CONSULT_ADVISOR, payload={"kind": "plan", 2: (1,)}),
        Action(ActionKind.INVOKE_TOOL, tool="load_csv_file",
               args={"x": [{"kind": "plan"}, {(1,): 1}]}),
    ], ids=["payload", "nested-args"])
    def test_a_non_str_key_is_a_planner_error(self, registry, cat_csv,
                                              tmp_path, action):
        # The log cannot sort such keys; the action is refused, retried
        # once, and the log written on the way out still serializes.
        path = tmp_path / "session.log.jsonl"
        with pytest.raises(PlannerError, match="has a key that is not a str"):
            run_session(cat_task(cat_csv), ScriptedPlanner([action, action]),
                        registry, library=[], log_path=str(path))
        log = SessionLog.from_jsonl(path.read_text(encoding="utf-8"))
        assert [e.action for e in log.events] == ["task", "planner_error"]

    def test_malformed_line_rejected(self):
        with pytest.raises(MalformedLogError):
            SessionLog.from_jsonl('{"seq": 0}\nnot json at all\n')

    def test_missing_field_rejected(self):
        with pytest.raises(MalformedLogError):
            SessionLog.from_jsonl('{"seq": 0, "stage": "user_input"}\n')

    @pytest.mark.parametrize("key, value, message", [
        ("seq", '"1"', "seq must be of type int, got '1'"),
        ("seq", "true", "seq must be of type int, got True"),
        ("wall_ms", "0.5", "wall_ms must be of type int, got 0.5"),
        ("wall_ms", "false", "wall_ms must be of type int, got False"),
        ("stage", "1", "stage must be of type str, got 1"),
        ("actor", "null", "actor must be of type str, got None"),
        ("action", '["result"]', "action must be of type str, got ['result']"),
        ("payload", "[1]", "payload must be of type dict, got [1]"),
        ("payload", '"ok"', "payload must be of type dict, got 'ok'"),
    ], ids=["seq-str", "seq-bool", "wall_ms-float", "wall_ms-bool",
            "stage-int", "actor-null", "action-list", "payload-list",
            "payload-str"])
    def test_field_of_the_wrong_type_rejected(self, key, value, message):
        record = {"seq": "1", "stage": '"user_input"', "actor": '"tool"',
                  "action": '"result"', "payload": "{}", "wall_ms": "0"}
        record[key] = value
        line = "{" + ", ".join(f'"{k}": {v}' for k, v in record.items()) + "}"
        text = ('{"seq": 0, "stage": "user_input", "actor": "user", '
                '"action": "task", "payload": {}, "wall_ms": 0}\n' + line)
        with pytest.raises(MalformedLogError) as info:
            SessionLog.from_jsonl(text)
        assert str(info.value) == f"log line 1: {message}"
