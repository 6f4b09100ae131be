"""The session data tools against their per-cell reference, and what they do
where float64 runs out.

``tests/oracles.py`` holds each tool cell by cell, with Python's sums. Where
the reference's cells are all finite, the tool's must equal them bit for bit.
Where they are not, because a sum or square of finite cells overflows, the
tool raises ``NumericRangeError`` or returns finite cells. No float sum in
the tools or in the categorical distribution metrics may depend on the
running Python's ``sum``, which compensates from 3.12 on.
"""

import builtins
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biasaudit import bench
from biasaudit.errors import (
    AllRowsDroppedError,
    ConstantColumnError,
    NumericRangeError,
)
from biasaudit.metrics import METRICS, SCENARIO_METRICS, Scenario
from biasaudit.orchestrator import (
    Action,
    ActionKind,
    ScriptedPlanner,
    Stage,
    TaskContext,
    build_registry,
    run_session,
)
from biasaudit.tabular import (
    AggregateFn,
    CleaningMode,
    Column,
    NormalizeMode,
    Table,
    clean_missing,
    group_and_aggregate,
    load_table,
    normalize_or_standardize,
)

import oracles

SAMPLE = os.path.join(os.path.dirname(bench.__file__), "data", "sample.csv")
BIG = 1.7e308


def table_of(keys, values):
    return Table((Column.of("g", "categorical", keys),
                  Column.of("x", "numerical", values)))


def hexes(cells):
    """Each cell's bits, None for missing (NaN reads as missing)."""
    return [None if v is None else v.hex() for v in cells]


def finite(cells):
    return all(v is None or math.isfinite(v) for v in cells)


def outcome(f, *args):
    """``f(*args)``, or the error it raised."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError, ConstantColumnError,
            AllRowsDroppedError, NumericRangeError) as exc:
        return exc


def agree(got, want, constant_error, missing):
    """The tool's outcome ``got`` against the reference's ``want``.

    Finite reference cells: equal bits. A reference ValueError: the tool's
    ``constant_error``. Otherwise NumericRangeError, or finite cells missing
    exactly where ``missing`` says."""
    if isinstance(want, ValueError):
        assert isinstance(got, constant_error), got
    elif isinstance(want, list) and finite(want):
        assert isinstance(got, tuple), got
        assert hexes(got) == hexes(want)
    elif not isinstance(got, NumericRangeError):
        assert isinstance(got, tuple), got
        assert finite(got) and [v is None for v in got] == missing


# Cells that make the reference's traps likely: signed zeros (all-(-0.0)
# groups, zero medians whose zeros differ in sign), subnormals, values near
# the largest float64, and missing cells; groups of one row, and groups whose
# every target cell is missing.
cells = st.one_of(
    st.none(), st.sampled_from([0.0, -0.0]),
    st.sampled_from([BIG, -BIG, 5e-324, -5e-324, 1.0, -1.0, 0.5]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-4, 4).map(lambda i: i * 1e-3))
rows = st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d", None]), cells),
                min_size=1, max_size=24)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows)
def test_tools_match_the_per_cell_reference(rows):
    keys, values = (list(c) for c in zip(*rows))
    table = table_of(keys, values)
    missing = [v is None for v in values]

    got = outcome(lambda: normalize_or_standardize(
        table, "x", NormalizeMode.STANDARDIZE).column("x").cells())
    agree(got, outcome(oracles.standardize, values), ConstantColumnError,
          missing)

    got = outcome(lambda: clean_missing(
        table, ["x"], CleaningMode.FILL_MEDIAN).table.column("x").cells())
    agree(got, outcome(oracles.fill_median, values), AllRowsDroppedError,
          [False] * len(values))

    for fn in AggregateFn:
        out = outcome(group_and_aggregate, table, "g", "x", fn)
        groups, want = oracles.group_and_aggregate(keys, values, fn.value)
        if not isinstance(out, Exception):
            assert list(out.columns[0].cells()) == groups
            out = out.columns[1].cells()
        agree(out, want, (), [v is None for v in want])


def test_standardize_squares_as_python_does():
    # ``**`` squares by the C library's pow, which rounds these deviations'
    # squares otherwise than v * v, and moves the sd and every cell.
    values = [32364696.66235561, -32364696.66235561, 1.0]
    got = normalize_or_standardize(table_of(["a"] * 3, values), "x",
                                   NormalizeMode.STANDARDIZE)
    assert hexes(got.column("x").cells()) == hexes(oracles.standardize(values))


# Finite input on which the tools used to fail: standardize raised an
# untyped OverflowError or returned all NaN, normalize turned the maximum
# into NaN, and group sums and means read inf.
@pytest.mark.parametrize("values,tool,call", [
    ([BIG, -BIG, 1.0, 2.0], "standardize", lambda t: normalize_or_standardize(
        t, "x", NormalizeMode.STANDARDIZE)),
    ([BIG, BIG, -BIG, 0.0], "standardize", lambda t: normalize_or_standardize(
        t, "x", NormalizeMode.STANDARDIZE)),
    ([BIG, -BIG, 1.0, 2.0], "normalize", lambda t: normalize_or_standardize(
        t, "x", NormalizeMode.NORMALIZE)),
    ([BIG, BIG, -BIG, 0.0], "group_and_aggregate",
     lambda t: group_and_aggregate(t, "g", "x", AggregateFn.SUM)),
    ([BIG, BIG, -BIG, 0.0], "group_and_aggregate",
     lambda t: group_and_aggregate(t, "g", "x", AggregateFn.MEAN)),
], ids=["standardize-square", "standardize-sum", "normalize", "group-sum",
        "group-mean"])
def test_an_overflow_is_a_numeric_range_error(values, tool, call):
    with pytest.raises(NumericRangeError, match=rf"^{tool}: .*'x'"):
        call(table_of(["a"] * len(values), values))


def test_a_median_past_float64_halves_each_value():
    # statistics.median adds the middle two values first, and reads inf.
    table = table_of(["a", "a", "a"], [BIG, BIG, None])
    filled = clean_missing(table, ["x"], CleaningMode.FILL_MEDIAN).table
    assert filled.column("x").cells() == (BIG, BIG, BIG)
    out = group_and_aggregate(table, "g", "x", AggregateFn.MEDIAN)
    assert out.columns[1].cells() == (BIG,)


def test_an_overflow_is_a_failed_tool_result(tmp_path):
    path = tmp_path / "big.csv"
    # Four integers would read as a categorical code.
    path.write_text(f"x\n{BIG!r}\n{-BIG!r}\n1.5\n2\n", encoding="utf-8")
    script = [Action(ActionKind.TRANSITION, stage=Stage.PREPROCESSING),
              Action(ActionKind.INVOKE_TOOL, tool="load_csv_file"),
              Action(ActionKind.INVOKE_TOOL,
                     tool="normalize_or_standardize_data",
                     args={"column": "x", "mode": "standardize"}),
              Action(ActionKind.INVOKE_TOOL, tool="get_csv_features")]
    task = TaskContext(question="q", dataset=str(path), features=("x",))
    _, log = run_session(task, ScriptedPlanner(script), build_registry())
    results = [e.payload for e in log.events if e.action == "result"]
    with pytest.raises(NumericRangeError) as raised:
        normalize_or_standardize(load_table(str(path)), "x",
                                 NormalizeMode.STANDARDIZE)
    assert [r["ok"] for r in results] == [True, False, True]
    assert results[1]["error"] == str(raised.value)


def compensated_sum(iterable, /, start=0):
    """A Neumaier-compensated sum of floats, as Python's sum from 3.12;
    integers add exactly."""
    total, comp, floats = start, 0.0, isinstance(start, float)
    for x in iterable:
        if not (floats or isinstance(x, float)):
            total = total + x
            continue
        total, floats = float(total), True
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if floats and comp and math.isfinite(total) else total


def test_no_float_sum_follows_the_running_python(monkeypatch):
    # income_level has 117, 113 and 170 rows: gini reads G 0x1.4ef354112b303p-1
    # summed left to right, and 0x1.4ef354112b302p-1 compensated.
    sample = load_table(SAMPLE)
    income = sample.column("income_level")
    values = [0.1 * i for i in range(1, 40)] + [-0.0, None, 1e-3, 7.25]
    table = table_of([("a", "b", "c")[i % 3] for i in range(len(values))],
                     values)

    def outputs():
        out = [METRICS[m].fn(income).raw
               for m in SCENARIO_METRICS[Scenario.CAT_DIST]]
        for mode in NormalizeMode:
            out.append(normalize_or_standardize(table, "x", mode))
        for mode in (CleaningMode.FILL_MEDIAN, CleaningMode.FILL_MODE):
            out.append(clean_missing(table, ["x"], mode).table)
        out += [group_and_aggregate(table, "g", "x", fn) for fn in AggregateFn]
        return [[hexes(c.cells()) if c.labels is None else c.cells()
                 for c in o.columns] if isinstance(o, Table)
                else {k: v.hex() for k, v in o.items()} for o in out]

    want = outputs()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0
    assert outputs() == want
