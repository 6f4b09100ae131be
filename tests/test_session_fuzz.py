"""Random planner actions never crash a session.

A chat planner may call any tool with any arguments, move between stages in
any order, consult the advisor at any point and finish early. Each such
session, replayed through ``ScriptedPlanner`` on the sample data, must
return or raise a ``BiasAuditError``; its log's ``seq`` must run 0, 1, 2,
... with no gap; and it must take no more actions than its budget.
"""

import math
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biasaudit import bench
from biasaudit.errors import BiasAuditError
from biasaudit.metrics import Scenario
from biasaudit.orchestrator import (
    Action,
    ActionKind,
    ScriptedPlanner,
    Stage,
    TaskContext,
    build_registry,
    run_session,
)

SAMPLE = os.path.join(os.path.dirname(bench.__file__), "data", "sample.csv")
COLUMNS = ["gender", "region", "age", "hours", "score", "income_level"]
REGISTRY = build_registry()
TOOLS = sorted(REGISTRY.entries)

junk = st.one_of(st.text(max_size=6), st.booleans(),
                 st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=3), st.integers(),
                                 max_size=2))
values = st.one_of(
    st.sampled_from(COLUMNS),
    st.lists(st.sampled_from(COLUMNS + ["nope"]), max_size=3),
    st.sampled_from([None, math.nan, math.inf, -1, 0, 1.5, 10 ** 9]),
    st.integers(), st.floats(), st.sampled_from(TOOLS), junk)


def from_schema(schema):
    """Values of the JSON-schema type a chat endpoint is told a parameter
    has: a column name or other text, a list of names, or an enum value."""
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    names = st.sampled_from(COLUMNS + ["nope"])
    if schema["type"] == "array":
        return st.lists(names, max_size=3)
    return names | st.text(max_size=6)


def tool_call(tool):
    # Mostly the tool's own parameters, each one present or not and half the
    # time of its declared type; sometimes a parameter no tool takes, or
    # arguments that are not an object.
    properties = (REGISTRY.get(tool).parameters["properties"]
                  if tool in REGISTRY else {})
    own = st.fixed_dictionaries({}, optional={
        name: values | from_schema(schema)
        for name, schema in properties.items()})
    stray = st.dictionaries(st.sampled_from((*properties, "path", "nope")),
                            values, min_size=1, max_size=3)
    return st.one_of(own, own, own, stray, junk).map(
        lambda args: Action(ActionKind.INVOKE_TOOL, tool=tool, args=args))


# The three kinds of advisor consult the rule planner sends. A plan consult
# may also name no scenario, or one that does not exist; its scheduled
# tools and a results consult's errors may be of any type, and a payload
# may be no object at all.
consults = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("plan"),
        "scheduled": st.lists(st.sampled_from(TOOLS), max_size=5) | junk,
        "cleaning_done": st.booleans()}, optional={
        "scenario": st.sampled_from([s.value for s in Scenario] + ["nope"])}),
    st.fixed_dictionaries({
        "kind": st.just("results"),
        "findings": st.integers(0, 5),
        "unrecovered_errors": (st.lists(st.text(max_size=8), max_size=2)
                               | junk)}),
    st.just({"kind": "report"}),
    junk.filter(lambda payload: not isinstance(payload, dict)),
).map(lambda payload: Action(ActionKind.CONSULT_ADVISOR, payload=payload))

# The tools that read or change the session's table come up more often, so
# that more sessions get past loading; tool calls come up more often than
# the other kinds of action, and finish least often.
DATA_TOOLS = ["load_csv_file", "extract_single_column", "extract_two_columns",
              "clean_missing_values", "normalize_or_standardize_data",
              "group_and_aggregate"]
tool_calls = st.one_of([tool_call(tool) for tool in
                        TOOLS + 4 * DATA_TOOLS + ["no_such_tool"]])
transitions = st.sampled_from([*Stage, None]).map(
    lambda stage: Action(ActionKind.TRANSITION, stage=stage))
actions = st.one_of([tool_calls] * 12 + [transitions, consults] * 2
                    + [st.just(Action(ActionKind.FINISH))])
tasks = st.lists(st.sampled_from(COLUMNS + ["nope"]), min_size=1, max_size=2,
                 unique=True).map(lambda features: TaskContext(
                     question="q", dataset=SAMPLE, features=tuple(features)))


class KeepState(ScriptedPlanner):
    """A ScriptedPlanner that keeps the session state it is shown, so a
    session that raises still leaves its log to check."""

    state = None

    def next(self, state):
        self.state = state
        return super().next(state)


# Budgets lean large, so most sessions play out their script.
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(task=tasks, load_first=st.booleans(),
       script=st.lists(actions, min_size=10, max_size=30),
       budget=st.integers(0, 40).map(lambda cut: 40 - cut))
def test_random_actions_never_crash_a_session(task, load_first, script,
                                              budget):
    if load_first:
        script = [Action(ActionKind.INVOKE_TOOL, tool="load_csv_file"), *script]
    planner = KeepState(script)
    try:
        _, log = run_session(task, planner, REGISTRY, budget=budget)
    except BiasAuditError:
        log = planner.state.log
    seqs = [e.seq for e in log.events]
    assert seqs == list(range(len(seqs)))
    assert sum(e.action == "action" for e in log.events) <= budget
