"""Randomized invariance battery shared by the unit and acceptance tests.

Three properties, 1000 trials in total:

- permutation: every metric is row-order invariant (25 metrics x 20 trials);
- relabeling: metrics over categorical columns are invariant under a
  bijective renaming of the categories (15 metrics x 20 trials);
- affine: scale-free metrics keep their severity-relevant raw value under
  x -> a*x + b with a > 0 on the numerical column (15 metrics x 13 or 14
  trials).

Each trial compares raw outputs before and after the transformation and
records any disagreement as a violation.

A fourth property runs apart from those 1000 (``run_monotone``): a strictly
increasing map of each numerical axis leaves nmi exactly unchanged and hgr
within ``MONOTONE_TOL``, at n = 30-60, where every hgr row is a copula knot,
and at n = 300-2000, where most rows lie between knots.
"""

import math
import random
import zlib
from unittest import mock

from biasaudit.errors import MetricError
from biasaudit.metrics import ALL_METRIC_IDS, METRICS, num_num, run_metric
from biasaudit.tabular import Column, Kind

PERM_TOL = 1e-9
AFFINE_TOL = 1e-6

# Rank-based metrics and how far a strictly increasing map of each
# numerical axis may move their severity-relevant raw value.
MONOTONE_TOL = {"nmi": 0.0, "hgr_approximation": 1e-3}
MONOTONE_TRIALS = 20
# Each axis is mapped by one of these, picked per trial.
MONOTONE_MAPS = (lambda v: math.exp(v / 2.0), lambda v: v ** 3, math.sinh,
                 math.atan)

# Bins and copula lattice of the binning metrics during the battery.
BINS = 4
KDE_GRID = 16

CAT_DIST = ("shannon_balance", "max_min_ratio", "entropy", "gini",
            "relative_risk")
NUM_DIST = ("skewness", "kurtosis", "outlier", "cohens_d_mad",
            "quantile_deviation")
CAT_CAT = ("cramers_v", "elift", "statistical_parity", "lipschitz",
           "total_variation")
CAT_NUM = ("max_abs_mean", "cohens_d", "standardized_difference",
           "causal_effect", "pse")
NUM_NUM = ("pearson", "nmi", "hgr_approximation", "wasserstein", "hsic")

RELABEL_METRICS = CAT_DIST + CAT_CAT + CAT_NUM
AFFINE_METRICS = NUM_DIST + CAT_NUM + NUM_NUM
# Severity-relevant raw key per metric: the affine check compares this key
# only, since location/scale-bearing keys (means, raw ACE) change by design.
AFFINE_KEYS = {mid: METRICS[mid].raw_key for mid in AFFINE_METRICS}

PERM_TRIALS = 20
RELABEL_TRIALS = 20
AFFINE_TRIALS = {mid: 13 for mid in AFFINE_METRICS}
for _mid in NUM_NUM:
    AFFINE_TRIALS[_mid] += 1

TOTAL_TRIALS = (len(ALL_METRIC_IDS) * PERM_TRIALS
                + len(RELABEL_METRICS) * RELABEL_TRIALS
                + sum(AFFINE_TRIALS.values()))


def cat_col(name, values):
    return Column.of(name, Kind.CATEGORICAL, tuple(values))


def num_col(name, values):
    return Column.of(name, Kind.NUMERICAL, tuple(float(v) for v in values))


def _grouped_cat_num(rng):
    """Category + value columns with strictly distinct group sizes."""
    k = rng.randint(2, 3)
    sizes = sorted(rng.sample(range(3, 12), k))
    groups = []
    values = []
    for gi, size in enumerate(sizes):
        groups += [f"g{gi}"] * size
        values += [round(rng.gauss(gi, 1.5), 3) for _ in range(size)]
    order = list(range(len(groups)))
    rng.shuffle(order)
    return ([groups[i] for i in order], [values[i] for i in order])


def make_instance(metric_id, rng, n=None):
    """(columns, extra inputs) for one random trial of the given metric,
    with n rows (30-60 drawn at random if not given)."""
    if n is None:
        n = rng.randint(30, 60)
    k = rng.randint(2, 4)
    if metric_id in CAT_DIST:
        return [cat_col("c", [f"c{rng.randrange(k)}" for _ in range(n)])], {}
    if metric_id in NUM_DIST:
        return [num_col("x", [round(rng.gauss(0, 2), 3)
                              for _ in range(n)])], {}
    if metric_id in CAT_CAT:
        a = [f"c{rng.randrange(k)}" for _ in range(n)]
        b = [f"o{rng.randrange(2)}" for _ in range(n)]
        return [cat_col("a", a), cat_col("b", b)], {}
    if metric_id in CAT_NUM:
        groups, values = _grouped_cat_num(rng)
        cols = [cat_col("g", groups), num_col("y", values)]
        if metric_id == "pse":
            mediator = num_col("m", [round(rng.gauss(0, 1), 3)
                                     for _ in range(len(values))])
            return cols, {"mediator": mediator}
        return cols, {}
    x = [round(rng.gauss(0, 2), 3) for _ in range(n)]
    y = [round(0.5 * v + rng.gauss(0, 1), 3) for v in x]
    return [num_col("x", x), num_col("y", y)], {}


def _run(metric_id, cols, extra):
    return run_metric(metric_id, cols, **extra).raw


def _compare(metric_id, prop, before, after, keys, tol, violations):
    for key in keys:
        want, got = before[key], after[key]
        if math.isinf(want) and math.isinf(got):
            continue
        if not math.isclose(want, got, rel_tol=tol, abs_tol=tol):
            violations.append((metric_id, prop, key, want, got))


def _permute(cols, extra, rng):
    n = len(cols[0].cells())
    order = list(range(n))
    rng.shuffle(order)
    new_cols = [Column.of(c.name, c.kind, tuple(c.cells()[i] for i in order))
                for c in cols]
    new_extra = {key: Column.of(c.name, c.kind,
                                tuple(c.cells()[i] for i in order))
                 for key, c in extra.items()}
    return new_cols, new_extra


def _relabel(cols, rng):
    new_cols = []
    for ci, c in enumerate(cols):
        if c.kind is not Kind.CATEGORICAL:
            new_cols.append(c)
            continue
        labels = sorted(set(c.cells()))
        shuffled = labels[:]
        rng.shuffle(shuffled)
        mapping = {old: f"r{ci}_{new}" for old, new in zip(labels, shuffled)}
        new_cols.append(Column.of(c.name, c.kind,
                                  tuple(mapping[v] for v in c.cells())))
    return new_cols


def _affine(cols, rng):
    a = rng.uniform(0.25, 4.0)
    b = rng.uniform(-3.0, 3.0)
    new_cols = []
    for c in cols:
        if c.kind is Kind.NUMERICAL:
            new_cols.append(Column.of(c.name, c.kind,
                                      tuple(a * v + b for v in c.cells())))
        else:
            new_cols.append(c)
    return new_cols


def _monotone(cols, rng):
    new_cols = []
    for c in cols:
        f = rng.choice(MONOTONE_MAPS)
        new_cols.append(Column.of(c.name, c.kind, tuple(map(f, c.cells()))))
    return new_cols


def _trials(metric_id, count, rng, apply_fn, violations, sizes=None):
    done = attempts = 0
    while done < count:
        attempts += 1
        assert attempts < 50 * count, f"{metric_id}: too many degenerate draws"
        n = None if sizes is None else rng.randint(*sizes[done % len(sizes)])
        cols, extra = make_instance(metric_id, rng, n)
        try:
            before = _run(metric_id, cols, extra)
            apply_fn(metric_id, cols, extra, before, rng, violations)
        except MetricError:
            continue
        done += 1
    return done


def _rng_for(seed, metric_id, prop):
    return random.Random(zlib.crc32(f"{seed}/{metric_id}/{prop}".encode()))


def run_battery(seed=20260823):
    """Run all 1000 trials; returns (total_trials, violations)."""
    violations = []
    total = 0

    def perm(metric_id, cols, extra, before, rng, out):
        new_cols, new_extra = _permute(cols, extra, rng)
        after = _run(metric_id, new_cols, new_extra)
        _compare(metric_id, "permutation", before, after,
                 sorted(set(before) & set(after)), PERM_TOL, out)

    def relabel(metric_id, cols, extra, before, rng, out):
        after = _run(metric_id, _relabel(cols, rng), extra)
        _compare(metric_id, "relabeling", before, after,
                 sorted(set(before) & set(after)), PERM_TOL, out)

    def affine(metric_id, cols, extra, before, rng, out):
        after = _run(metric_id, _affine(cols, rng), extra)
        _compare(metric_id, "affine", before, after,
                 [AFFINE_KEYS[metric_id]], AFFINE_TOL, out)

    with mock.patch.multiple(num_num, BINS=BINS, KDE_GRID=KDE_GRID):
        for metric_id in ALL_METRIC_IDS:
            total += _trials(metric_id, PERM_TRIALS,
                             _rng_for(seed, metric_id, "perm"), perm,
                             violations)
        for metric_id in RELABEL_METRICS:
            total += _trials(metric_id, RELABEL_TRIALS,
                             _rng_for(seed, metric_id, "relabel"), relabel,
                             violations)
        for metric_id in AFFINE_METRICS:
            total += _trials(metric_id, AFFINE_TRIALS[metric_id],
                             _rng_for(seed, metric_id, "affine"), affine,
                             violations)
    return total, violations


def run_monotone(seed=20261019):
    """Run the monotone trials; returns (total_trials, violations)."""
    violations = []
    total = 0

    def monotone(metric_id, cols, extra, before, rng, out):
        after = _run(metric_id, _monotone(cols, rng), extra)
        _compare(metric_id, "monotone", before, after,
                 [AFFINE_KEYS[metric_id]], MONOTONE_TOL[metric_id], out)

    with mock.patch.multiple(num_num, BINS=BINS, KDE_GRID=KDE_GRID):
        for metric_id in MONOTONE_TOL:
            total += _trials(metric_id, MONOTONE_TRIALS,
                             _rng_for(seed, metric_id, "monotone"), monotone,
                             violations, sizes=((30, 60), (300, 2000)))
    return total, violations
