"""The first step a scenario's metrics share, each metric's result and
drop_row's cut are computed once per set of columns, kept only while those
columns live, and give every caller the record or error it gets on columns
of its own."""

import gc
import json
import math
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from biasaudit.errors import BiasAuditError
from biasaudit.metrics import (
    SCENARIO_METRICS,
    Scenario,
    classify_scenario,
    run_metric,
)
from biasaudit import tabular
from biasaudit.metrics import cat_cat, cat_num, num_dist
from biasaudit.synthgen import SynthSpec, generate
from biasaudit.tabular import Column, Table, categorical, clean_missing


def outcome(metric_id, cols) -> str:
    try:
        return json.dumps(run_metric(metric_id, cols).to_record(),
                          sort_keys=True)
    except BiasAuditError as exc:
        return f"{type(exc).__name__}: {exc}"


def copies(cols):
    return [Column(c.name, c.data.copy(), c.labels) for c in cols]


def with_missing(cols, rng):
    """The columns with a tenth of each one's cells missing."""
    missing = []
    for c in cols:
        data = c.data.copy()
        data[rng.choice(data.size, data.size // 10 + 1, replace=False)] = (
            np.nan if c.labels is None else -1)
        missing.append(Column(c.name, data) if c.labels is None
                       else categorical(c.name, data, c.labels))
    return missing


def cut(cols):
    """drop_row's cut of the columns: the rows where none is missing."""
    return clean_missing(Table(tuple(cols)), [c.name for c in cols]).table.columns


def variants(cols, rng):
    """The columns as generated, then with ties, missing cells, extreme
    units, one far value, and only five rows left."""
    def numeric(f):
        return [c if c.labels is not None else Column(c.name, f(c.data.copy()))
                for c in cols]

    def far(v):
        v[0] = 1e165
        return v

    return {
        "plain": cols,
        "ties": numeric(lambda v: np.round(v, 1)),
        "missing": with_missing(cols, rng),
        "large units": numeric(lambda v: v * 1e160),
        "small units": numeric(lambda v: v * 1e-200),
        "far value": numeric(far),
        "five rows": [c.subset(np.arange(c.data.size) < 5) for c in cols],
    }


CASES = [(scenario, n) for scenario in Scenario for n in (10, 65, 300, 2000)]


@pytest.mark.parametrize("scenario, n", CASES,
                         ids=[f"{s.value}-{n}" for s, n in CASES])
def test_shared_columns_give_what_fresh_columns_give(scenario, n):
    table = generate(SynthSpec(scenario, n, 0.5, k=3, seed=n))
    rng = np.random.default_rng(n)
    order = list(SCENARIO_METRICS[scenario])
    for name, cols in variants(list(table.columns), rng).items():
        fresh = {m: outcome(m, copies(cols)) for m in order}
        random.Random(f"{scenario.value}-{n}-{name}").shuffle(order)
        shared = copies(cols)
        assert {m: outcome(m, shared) for m in order} == fresh, name


def test_each_metric_keeps_its_own_error():
    # Five rows spanning more orders of magnitude than float64 holds:
    # pearson, wasserstein and hsic fail the range check, nmi and hgr the
    # size check that comes first, in either order.
    x = Column("x", np.array([1e-300, 2e-300, 3e-300, 4e-300, 1e300]))
    y = Column("y", np.arange(5.0))
    fresh = {m: outcome(m, [Column("x", x.data), y])
             for m in SCENARIO_METRICS[Scenario.NUM_NUM]}
    assert fresh["pearson"].startswith("NumericRangeError: pearson:")
    assert fresh["nmi"] == "InsufficientSamplesError: nmi needs n >= 10, got 5"
    for order in (SCENARIO_METRICS[Scenario.NUM_NUM],
                  SCENARIO_METRICS[Scenario.NUM_NUM][::-1]):
        cols = [Column("x", x.data), y]
        assert {m: outcome(m, cols) for m in order} == fresh


@pytest.mark.parametrize("scenario", list(Scenario))
def test_columns_outlive_nothing(scenario):
    generated = generate(SynthSpec(scenario, 500, 0.5, k=3, seed=1)).columns
    cols = with_missing(generated, np.random.default_rng(1))
    del generated
    rows = cut(cols)
    kept = []
    for metric_id in SCENARIO_METRICS[scenario]:
        outcome(metric_id, cols)
        try:
            kept.append(run_metric(metric_id, rows))
        except BiasAuditError:
            pass
    assert kept
    assert cols[0] in tabular._MEMO and rows[0] in tabular._MEMO
    refs = [weakref.ref(x) for x in (*cols, *rows, *kept)]
    del cols, rows, kept
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_each_second_column_has_its_own_memo_held_weakly():
    a, b = generate(SynthSpec(Scenario.CAT_CAT, 500, 0.5, k=3)).columns
    c = generate(SynthSpec(Scenario.CAT_CAT, 500, 0.9, k=3, seed=1)).columns[1]
    fresh = [outcome("cramers_v", copies([a, other])) for other in (b, c)]
    assert fresh[0] != fresh[1]
    assert [outcome("cramers_v", [a, other]) for other in (b, c)] == fresh
    ref = weakref.ref(b)
    del b
    gc.collect()
    assert ref() is None
    _, after_a = tabular._MEMO[a]
    assert list(after_a.keys()) == [c]


def test_shared_arrays_are_read_only():
    a, b = generate(SynthSpec(Scenario.CAT_CAT, 500, 0.5, k=3)).columns
    counts, _, _ = cat_cat.contingency(a, b)
    assert not counts.flags.writeable
    assert cat_cat.contingency(a, b)[0] is counts
    result = run_metric("cramers_v", [a, b])
    assert run_metric("cramers_v", (a, b)) is result
    with pytest.raises(TypeError):
        result.raw["v"] = 0.0
    # A cut of three columns, on the rows where the two targets are present.
    x = Column("x", np.where(np.arange(500) % 7, 1.0, np.nan))
    table = Table((*with_missing([a, b], np.random.default_rng(0)), x))
    names = [a.name, b.name]
    cleaned = clean_missing(table, names).table
    assert clean_missing(table, names[::-1]).table.columns is cleaned.columns
    assert clean_missing(table, names[:1]).table.columns is not cleaned.columns
    assert cleaned.row_count < 500 and np.isnan(cleaned.column("x").data).any()
    assert not any(c.data.flags.writeable for c in cleaned.columns)
    assert clean_missing(cleaned, names).table.columns is cleaned.columns


def test_threads_on_the_same_columns_agree():
    rng = np.random.default_rng(0)
    tables = [with_missing(generate(SynthSpec(scenario, 2000, 0.5, k=3,
                                              seed=seed)).columns, rng)
              for scenario in Scenario for seed in range(3)]
    expected = [{m: outcome(m, cut(copies(cols)))
                 for m in SCENARIO_METRICS[classify_scenario(cols)]}
                for cols in tables]

    def work(i, seed):
        rows = cut(tables[i])
        order = list(expected[i])
        random.Random(seed).shuffle(order)
        return {m: outcome(m, rows) for m in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [(i, pool.submit(work, i, seed))
                       for i in range(len(tables)) for seed in range(4)]
            results = [(i, f.result(timeout=60)) for i, f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(got == expected[i] for i, got in results)


@pytest.mark.parametrize("units", [1.0, 1e300])
def test_cat_num_metrics_and_box_chart_share_one_split(units):
    g, y = generate(SynthSpec(Scenario.CAT_NUM, 500, 0.5, k=3, seed=2)).columns
    y = Column(y.name, y.data * units)
    groups = cat_num.group_values(g, y)
    assert list(groups) == sorted(groups, key=lambda k: -groups[k].size)
    assert not any(v.flags.writeable for v in groups.values())
    for metric_id in SCENARIO_METRICS[Scenario.CAT_NUM]:
        outcome(metric_id, [g, y])
    assert cat_num.group_values(g, y) is groups
    # The box chart reads the groups in the outcome's own units.
    assert np.concatenate(list(groups.values())).max() == y.data.max()
    usable, _, shift = cat_num._checked_groups(g, y, "cohens_d")
    assert list(usable) == list(groups)
    if units == 1.0:
        assert shift == 0
        assert all(usable[k] is groups[k] for k in groups)
    else:
        assert shift < 0
        assert all(np.array_equal(usable[k], np.ldexp(groups[k], shift))
                   for k in groups)


@pytest.mark.parametrize("n", [3, 4, 58, 59, 500, 5000, 5001])
@pytest.mark.parametrize("units", [1.0, 1e-200, 1e160])
def test_num_dist_steps_read_what_numpy_recomputes(n, units):
    # outlier's sd is the square root of the shared second moment, and
    # cohens_d_mad's median the mean of the shared sorted middle one or two:
    # both bit-equal to numpy's own std and median, ties included.
    rng = np.random.default_rng(n)
    for data in (rng.standard_normal(n), np.round(rng.standard_normal(n), 1)):
        col = Column("x", data * units)
        x = num_dist._values(col, "outlier")  # in float range, as scored
        d, m2 = num_dist._deviations(col, x)
        s = num_dist._sorted(col, x)
        assert math.sqrt(m2) == x.std()
        assert np.mean(s[(n - 1) // 2:n // 2 + 1]) == np.median(x)
        assert run_metric("outlier", [col]).raw["fraction"] == float(
            np.mean(np.abs(d) / x.std() > num_dist.Z_CUTOFF))
        med = float(np.median(x))
        mad = float(np.median(np.abs(x - med)))
        assert run_metric("cohens_d_mad", [col]).raw["d"] == (
            (float(x.mean()) - med) / (1.4826 * mad))
