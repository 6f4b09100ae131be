"""Every metric agrees with its from-definition reference on random small inputs."""

import math
import random

import pytest

import oracles
from biasaudit.errors import MetricError
from biasaudit.metrics import ALL_METRIC_IDS, METRICS, num_num, run_metric
from biasaudit.tabular import Column, Kind

TOL = 1e-9
INSTANCES = 20

# Small-instance settings: few bins and a coarse lattice so that even
# n <= 12 inputs exercise the full code paths.
BINS = 3
KDE_GRID = 8


@pytest.fixture(autouse=True)
def small_bins(monkeypatch):
    monkeypatch.setattr(num_num, "BINS", BINS)
    monkeypatch.setattr(num_num, "KDE_GRID", KDE_GRID)


def cat_col(name, values):
    return Column.of(name, Kind.CATEGORICAL, tuple(values))


def num_col(name, values):
    return Column.of(name, Kind.NUMERICAL, tuple(float(v) for v in values))


def random_cat(rng, n, k):
    return [f"c{rng.randrange(k)}" for _ in range(n)]


def random_num(rng, n):
    return [round(rng.uniform(-5, 5), 3) for _ in range(n)]


def gen_instance(metric_id, rng):
    """One random small instance (columns, oracle args) for a metric."""
    n = rng.randint(8, 12)
    k = rng.randint(2, 3)
    if metric_id in ("shannon_balance", "entropy", "gini", "relative_risk",
                     "max_min_ratio"):
        vals = random_cat(rng, n, k)
        return [cat_col("c", vals)], (vals,), {}
    if metric_id in ("skewness", "kurtosis", "outlier", "cohens_d_mad",
                     "quantile_deviation"):
        vals = random_num(rng, n)
        return [num_col("x", vals)], (vals,), {}
    if metric_id in ("cramers_v", "elift", "statistical_parity", "lipschitz",
                     "total_variation"):
        a = random_cat(rng, n, k)
        b = [f"o{rng.randrange(k)}" for _ in range(n)]
        return [cat_col("a", a), cat_col("b", b)], (a, b), {}
    if metric_id in ("max_abs_mean", "cohens_d", "standardized_difference",
                     "causal_effect", "pse"):
        g = random_cat(rng, n, k)
        y = random_num(rng, n)
        cols = [cat_col("g", g), num_col("y", y)]
        if metric_id == "pse":
            m = random_num(rng, n)
            return cols, (g, y, m), {"mediator": num_col("m", m)}
        return cols, (g, y), {}
    # num_num
    x = random_num(rng, n)
    y = random_num(rng, n)
    return [num_col("x", x), num_col("y", y)], (x, y), {}


ORACLES = {
    "shannon_balance": oracles.shannon_balance,
    "max_min_ratio": oracles.max_min_ratio,
    "entropy": oracles.entropy,
    "gini": oracles.gini,
    "relative_risk": oracles.relative_risk,
    "skewness": oracles.skewness,
    "kurtosis": oracles.kurtosis,
    "outlier": oracles.outlier,
    "cohens_d_mad": oracles.cohens_d_mad,
    "quantile_deviation": oracles.quantile_deviation,
    "cramers_v": oracles.cramers_v,
    "elift": oracles.elift,
    "statistical_parity": oracles.statistical_parity,
    "lipschitz": oracles.lipschitz,
    "total_variation": oracles.total_variation,
    "max_abs_mean": oracles.max_abs_mean,
    "cohens_d": oracles.cohens_d,
    "standardized_difference": oracles.standardized_difference,
    "causal_effect": oracles.causal_effect,
    "pse": oracles.pse,
    "pearson": oracles.pearson,
    "nmi": lambda x, y: oracles.nmi(x, y, bins=BINS),
    "hgr_approximation": lambda x, y: oracles.hgr_approximation(
        x, y, bins=BINS, kde_grid=KDE_GRID),
    "wasserstein": oracles.wasserstein,
    "hsic": oracles.hsic,
}


@pytest.mark.parametrize("metric_id", ALL_METRIC_IDS)
def test_metric_matches_oracle(metric_id):
    rng = random.Random(hash(metric_id) % (2 ** 31))
    checked = 0
    attempts = 0
    while checked < INSTANCES:
        attempts += 1
        assert attempts < 500, f"could not build {INSTANCES} valid instances"
        cols, args, extra = gen_instance(metric_id, rng)
        try:
            result = run_metric(metric_id, cols, **extra)
        except MetricError:
            continue  # degenerate draw; try another
        assert result.metric_id == metric_id
        assert METRICS[metric_id].raw_key in result.raw
        expected = ORACLES[metric_id](*args)
        for key, want in expected.items():
            got = result.raw[key]
            if math.isinf(want):
                assert math.isinf(got), f"{metric_id}.{key}"
            else:
                assert got == pytest.approx(want, abs=TOL), f"{metric_id}.{key}"
        checked += 1


def test_all_metrics_covered():
    assert set(ORACLES) == set(ALL_METRIC_IDS)
    assert len(ALL_METRIC_IDS) == 25


MISSING_RATE = 0.15


def gen_missing_instance(metric_id, rng):
    """A gen_instance draw with cells blanked independently in each column,
    the mediator included, so the pairwise-missing masks differ."""
    cols, args, extra = gen_instance(metric_id, rng)
    args = tuple([None if rng.random() < MISSING_RATE else v for v in vals]
                 for vals in args)

    def blanked(col, vals):
        cast = float if col.kind is Kind.NUMERICAL else (lambda v: v)
        return Column.of(col.name, col.kind,
                         tuple(None if v is None else cast(v) for v in vals))

    cols = [blanked(c, vals) for c, vals in zip(cols, args)]
    if "mediator" in extra:
        extra = {"mediator": blanked(extra["mediator"], args[2])}
    return cols, args, extra


@pytest.mark.parametrize("metric_id", ALL_METRIC_IDS)
def test_metric_matches_oracle_with_missing_cells(metric_id):
    rng = random.Random(f"{metric_id}:missing")
    checked = 0
    attempts = 0
    while checked < INSTANCES:
        attempts += 1
        assert attempts < 2000, f"could not build {INSTANCES} valid instances"
        cols, args, extra = gen_missing_instance(metric_id, rng)
        try:
            result = run_metric(metric_id, cols, **extra)
        except MetricError:
            continue  # degenerate draw; try another
        expected = ORACLES[metric_id](*args)
        for key, want in expected.items():
            got = result.raw[key]
            if math.isinf(want):
                assert math.isinf(got), f"{metric_id}.{key}"
            else:
                assert got == pytest.approx(want, abs=TOL), f"{metric_id}.{key}"
        checked += 1


STRATA = {Kind.NUMERICAL: (-1.5, 0.0, 2.25, 10.0),
          Kind.CATEGORICAL: ("s0", "s1", "s2", "s10")}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("cov_kind", [Kind.NUMERICAL, Kind.CATEGORICAL])
def test_causal_effect_with_covariate_matches_oracle(cov_kind, reverse):
    rng = random.Random(f"causal_effect:{cov_kind.value}:{reverse}")
    checked = 0
    attempts = 0
    while checked < INSTANCES:
        attempts += 1
        assert attempts < 2000, f"could not build {INSTANCES} valid instances"
        cols, (g, y), _ = gen_missing_instance("causal_effect", rng)
        values = STRATA[cov_kind][:rng.randint(1, 4)]
        cov = [None if rng.random() < MISSING_RATE else rng.choice(values)
               for _ in g]
        covariate = Column.of("s", cov_kind, tuple(cov))
        try:
            result = run_metric("causal_effect", cols[::-1] if reverse else cols,
                                covariate=covariate)
        except MetricError:
            continue  # degenerate draw; try another
        assert "stratified on 's'" in result.details
        expected = oracles.causal_effect(g, y, cov)
        for key, want in expected.items():
            assert result.raw[key] == pytest.approx(want, abs=TOL), key
        checked += 1


def test_hgr_multi_block_lattice_matches_oracle(monkeypatch):
    # Blocks of 3 rows split every small instance into several blocks,
    # the last one ragged.
    monkeypatch.setattr(num_num, "_BIN_BLOCK", 3)
    test_metric_matches_oracle("hgr_approximation")
    test_metric_matches_oracle_with_missing_cells("hgr_approximation")


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("n", [200, 500])
def test_hgr_ties_and_outliers_match_oracle(monkeypatch, n, block):
    # x is integer-valued, so most knots are tied, with one point 100 sd
    # out; y has a far point too. At n=200 every row is a knot; at n=500
    # most rows of y lie between knots and are placed by interpolation.
    if block is not None:
        monkeypatch.setattr(num_num, "_BIN_BLOCK", block)
    rng = random.Random(n)
    x = [float(round(rng.gauss(0, 3))) for _ in range(n - 1)] + [300.0]
    y = [round(v + rng.gauss(0, 3), 6) for v in x[:-1]] + [-300.0]
    assert n <= num_num.COPULA_KNOTS or len(set(y)) > num_num.COPULA_KNOTS
    monkeypatch.setattr(num_num, "BINS", 4)
    monkeypatch.setattr(num_num, "KDE_GRID", 16)
    got = run_metric("hgr_approximation",
                     [num_col("x", x), num_col("y", y)]).raw
    want = oracles.hgr_approximation(x, y, bins=4, kde_grid=16)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=TOL), key
