"""Workflow sessions: registry, planners, advisor, and the event loop."""

import pytest

from biasaudit.errors import (
    EndOfInputError,
    MalformedLogError,
    NetworkError,
    PlannerError,
)
from biasaudit.metrics import BiasType, MetricOptions, Scenario
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
        assert len(registry.names()) == 45
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


class TestRulePlanner:
    def test_eighteen_action_policy(self, registry, cat_csv):
        report, log = run_session(cat_task(cat_csv), RulePlanner(), registry)
        assert report.complete
        actions = [e for e in log.events if e.action == "action"]
        assert len(actions) == 18
        assert actions[-1].payload["kind"] == "finish"

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


class TestAdvisor:
    def state(self, registry):
        return SessionState(task=cat_task("unused.csv"), registry=registry,
                            thresholds=DEFAULT_TABLE, opts=MetricOptions(),
                            out_dir=None, library=[])

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
                            opts=MetricOptions(), out_dir=None, library=[])

    def test_scripted_followups_then_exhaustion(self, registry):
        state = self.state(registry, followups=("first", "second"))
        assert get_user_input(state) == "first"
        assert get_user_input(state) == "second"
        with pytest.raises(EndOfInputError):
            get_user_input(state)

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
                            thresholds=DEFAULT_TABLE, opts=MetricOptions(),
                            out_dir=None, library=[])

    def test_tool_call_reply(self, registry):
        transport = lambda url, headers, payload, t: reply_with_tool(
            "load_csv_file", '{"path": "d.csv"}')
        planner = ChatPlanner(self.config, transport=transport)
        action = planner.next(self.state(registry))
        assert action.kind is ActionKind.INVOKE_TOOL
        assert action.tool == "load_csv_file"
        assert action.args == {"path": "d.csv"}

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
