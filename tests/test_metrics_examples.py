"""Frozen hand-derived values and closed-form anchors for the 25 metrics."""

import math

import numpy as np
import pytest

from biasaudit.errors import (
    RaggedRowError,
    SingleCategoryError,
    UnknownMetricError,
    UnsupportedArityError,
)
from biasaudit.metrics import (
    Scenario,
    classify_scenario,
    run_metric,
)
from biasaudit.metrics.cat_cat import (
    cramers_v,
    elift,
    lipschitz,
    statistical_parity,
    total_variation,
)
from biasaudit.metrics.cat_dist import (
    entropy,
    gini,
    max_min_ratio,
    relative_risk,
    shannon_balance,
)
from biasaudit.metrics.cat_num import causal_effect, cohens_d, pse
from biasaudit.metrics.num_dist import (
    cohens_d_mad,
    outlier,
    quantile_deviation,
    skewness,
)
from biasaudit.metrics import num_num
from biasaudit.metrics.base import paired
from biasaudit.metrics.num_num import hsic, nmi, pearson, wasserstein
from biasaudit.tabular import Column, Kind, categorical


def cat(values, name="c"):
    return Column.of(name, Kind.CATEGORICAL, tuple(values))


def num(values, name="x"):
    return Column.of(name, Kind.NUMERICAL, tuple(float(v) for v in values))


def cat_counts(counts):
    return cat([f"c{i}" for i, n in enumerate(counts) for _ in range(n)])


class TestCatDist:
    def test_balance_uniform(self):
        r = shannon_balance(cat_counts([25, 25, 25, 25]))
        assert r.raw["balance"] == pytest.approx(1.0, abs=1e-12)

    def test_entropy_90_10(self):
        r = entropy(cat_counts([90, 10]))
        assert r.raw["H"] == pytest.approx(0.3250829733914482, abs=1e-12)
        assert r.raw["H_norm"] == pytest.approx(0.46899559358928117, abs=1e-12)

    def test_max_min_ratio_200_2(self):
        r = max_min_ratio(cat_counts([200, 2]))
        assert r.raw["ratio"] == 100.0

    def test_max_min_ratio_single_category_inf(self):
        r = max_min_ratio(cat_counts([10]))
        assert math.isinf(r.raw["ratio"])

    def test_gini_75_25(self):
        r = gini(cat_counts([75, 25]))
        q = [(76 / 102) ** 2, (26 / 102) ** 2]
        g = 1.0 - sum(q)
        assert r.raw["G"] == pytest.approx(g, abs=1e-12)
        assert r.raw["G_norm"] == pytest.approx(g / 0.5, abs=1e-12)
        assert round(r.raw["G"], 4) == 0.3799
        assert round(r.raw["G_norm"], 4) == 0.7597

    def test_relative_risk_60_40(self):
        r = relative_risk(cat_counts([60, 40]))
        assert r.raw["rr_max"] == pytest.approx(1.2, abs=1e-12)
        assert r.raw["rr_min"] == pytest.approx(0.8, abs=1e-12)
        assert r.raw["max_abs_deviation"] == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("metric", [shannon_balance, entropy, max_min_ratio,
                                        gini, relative_risk])
    def test_a_label_no_code_uses_is_no_category(self, metric):
        codes = np.array([0, 0, 0, 2, -1, 2])
        with_unused = Column("c", codes, ("a", "b", "c"))
        without = categorical("c", codes, ("a", "b", "c"))
        assert without.labels == ("a", "c")
        assert (metric(with_unused).to_record()
                == metric(without).to_record())

    def test_only_unused_labels_are_an_empty_column(self):
        with pytest.raises(SingleCategoryError):
            max_min_ratio(Column("c", np.array([-1, -1]), ("a", "b")))


class TestNumDist:
    def test_skewness_symmetric(self):
        r = skewness(num([1, 2, 3, 4, 5]))
        assert r.raw["g1"] == pytest.approx(0.0, abs=1e-12)

    def test_skewness_frozen_sample(self):
        # moments of {1,2,3,4,100}: m2 = 1522, m3 = 88920 (population, x10
        # scaling: mean 22, deviations {-21,-20,-19,-18,78})
        r = skewness(num([1, 2, 3, 4, 100]))
        m2 = ((-21) ** 2 + (-20) ** 2 + (-19) ** 2 + (-18) ** 2 + 78 ** 2) / 5
        m3 = ((-21) ** 3 + (-20) ** 3 + (-19) ** 3 + (-18) ** 3 + 78 ** 3) / 5
        assert r.raw["g1"] == pytest.approx(m3 / m2 ** 1.5, abs=1e-12)
        assert r.raw["g1"] == pytest.approx(1.4975, abs=1e-3)

    def test_outlier_tight_sample(self):
        r = outlier(num(list(range(100))))
        assert r.raw["fraction"] == 0.0

    def test_quantile_deviation_uniform_grid(self):
        r = quantile_deviation(num(list(range(1, 101))))
        assert r.raw["qd"] == pytest.approx(0.5, abs=1e-12)
        assert r.raw["deviation"] == pytest.approx(0.0, abs=1e-12)

    def test_cohens_d_mad_symmetric(self):
        r = cohens_d_mad(num([1, 2, 3, 4, 5]))
        assert r.raw["d"] == pytest.approx(0.0, abs=1e-12)


def cat_pairs(cells):
    """Columns from a dict {(group, outcome): count}."""
    a, b = [], []
    for (g, o), n in cells.items():
        a += [g] * n
        b += [o] * n
    return cat(a, "g"), cat(b, "o")


class TestCatCat:
    def test_cramers_v_anchor(self):
        g, o = cat_pairs({("a", "x"): 30, ("a", "y"): 10,
                          ("b", "x"): 10, ("b", "y"): 30})
        r = cramers_v(g, o)
        assert r.raw["chi2"] == pytest.approx(20.0, abs=1e-9)
        assert r.raw["v"] == pytest.approx(0.5, abs=1e-9)

    def test_cramers_v_diagonal(self):
        g, o = cat_pairs({("a", "x"): 20, ("b", "y"): 20})
        assert cramers_v(g, o).raw["v"] == pytest.approx(1.0, abs=1e-12)

    def test_elift_ratio_two(self):
        # P(x | a) = 0.92 while P(x) = 0.46 overall -> lift 2; the sparse
        # (a, y) cell stays below the support threshold and is skipped,
        # and every supported cell's lift lies inside [1/2, 2]
        g, o = cat_pairs({("a", "x"): 46, ("a", "y"): 4,
                          ("b", "y"): 50})
        r = elift(g, o)
        assert r.raw["max_elift"] == pytest.approx(2.0, abs=1e-9)

    def test_parity_anchor(self):
        g, o = cat_pairs({("a", "pos"): 70, ("a", "neg"): 30,
                          ("b", "pos"): 50, ("b", "neg"): 50})
        r = statistical_parity(g, o)
        assert r.raw["max_delta"] == pytest.approx(0.2, abs=1e-9)
        z = 0.2 / math.sqrt(0.6 * 0.4 * (1 / 100 + 1 / 100))
        assert r.raw["max_z"] == pytest.approx(z, abs=1e-9)
        assert r.raw["max_z"] == pytest.approx(2.886751345948129, abs=1e-6)

    def test_total_variation_anchor(self):
        # group a at (0.8, 0.2), group b at (0.5, 0.5): overall (0.65, 0.35)
        g, o = cat_pairs({("a", "x"): 80, ("a", "y"): 20,
                          ("b", "x"): 50, ("b", "y"): 50})
        r = total_variation(g, o)
        assert r.raw["tvd"] == pytest.approx(0.15, abs=1e-9)

    def test_independent_table_null(self):
        g, o = cat_pairs({("a", "x"): 30, ("a", "y"): 30,
                          ("b", "x"): 20, ("b", "y"): 20})
        assert cramers_v(g, o).raw["v"] == pytest.approx(0.0, abs=1e-9)
        assert elift(g, o).raw["max_elift"] == pytest.approx(1.0, abs=1e-9)
        assert statistical_parity(g, o).raw["max_delta"] == pytest.approx(0, abs=1e-9)
        assert lipschitz(g, o).raw["lipschitz"] == pytest.approx(0.0, abs=1e-9)
        assert total_variation(g, o).raw["tvd"] == pytest.approx(0.0, abs=1e-9)


class TestCatNum:
    def test_cohens_d_half(self):
        # two groups with means 12 and 10 and pooled sample sd 4
        a = [12 - 4, 12 + 4, 12 - 4, 12 + 4, 12]
        b = [10 - 4, 10 + 4, 10 - 4, 10 + 4, 10]
        g = cat(["a"] * 5 + ["b"] * 5, "g")
        y = num(a + b, "y")
        r = cohens_d(g, y)
        assert r.raw["d"] == pytest.approx(0.5, abs=1e-6)

    def test_causal_effect_mean_difference(self):
        g = cat(["t", "t", "t", "c", "c"], "g")
        y = num([5.0, 4.0, 6.0, 3.5, 2.5], "y")
        r = causal_effect(g, y)
        assert r.raw["ace"] == pytest.approx(2.0, abs=1e-12)

    def test_pse_pure_indirect(self):
        # m = t exactly and y = m: a1=1, b1=0, b2=1 -> ADE=0, AIE=1
        # (the larger group is coded as the treatment, so it gets 11 rows)
        t_vals = ["t", "c"] * 10 + ["t"]
        m_vals = [1.0 if v == "t" else 0.0 for v in t_vals]
        y_vals = m_vals[:]
        r = pse(cat(t_vals, "g"), num(y_vals, "y"), mediator=num(m_vals, "m"))
        assert r.raw["ade"] == pytest.approx(0.0, abs=1e-9)
        assert r.raw["aie"] == pytest.approx(1.0, abs=1e-9)


class TestNumNum:
    def test_pearson_identity(self):
        x = num([1, 2, 3, 4, 5], "x")
        assert pearson(x, num([1, 2, 3, 4, 5], "y")).raw["r"] == pytest.approx(1.0)
        assert pearson(x, num([-1, -2, -3, -4, -5], "y")).raw["r"] == pytest.approx(-1.0)

    def test_pearson_anchor(self):
        r = pearson(num([1, 2, 3, 4], "x"), num([1, 3, 2, 4], "y"))
        assert r.raw["r"] == pytest.approx(0.8, abs=1e-9)

    def test_nmi_identity(self, monkeypatch):
        monkeypatch.setattr(num_num, "BINS", 4)
        vals = [float(v) for v in range(1, 13)]
        r = nmi(num(vals, "x"), num(vals, "y"))
        assert r.raw["nmi"] == pytest.approx(1.0, abs=1e-9)

    def test_wasserstein_permutation_zero(self):
        x = [1.0, 5.0, 2.0, 9.0, 4.0, 3.0, 8.0, 7.0, 6.0, 0.0]
        y = list(reversed(x))
        r = wasserstein(num(x, "x"), num(y, "y"))
        assert r.raw["w2"] == pytest.approx(0.0, abs=1e-12)

    def test_nhsic_self(self):
        vals = [float(v) for v in [3, 1, 4, 1.5, 5, 9, 2, 6, 5.5, 3.5]]
        r = hsic(num(vals, "x"), num(vals, "y"))
        assert r.raw["nhsic"] == pytest.approx(1.0, abs=1e-9)

    def test_nhsic_independent_below_permutation_null(self):
        # the observed statistic on independent draws sits below the 99th
        # percentile of its own label-permutation null distribution
        import random

        rng = random.Random(12345)
        x = [rng.uniform(0, 1) for _ in range(500)]
        y = [rng.uniform(0, 1) for _ in range(500)]
        observed = hsic(num(x, "x"), num(y, "y")).raw["nhsic"]
        assert observed < 0.05
        null = []
        perm = y[:]
        for _ in range(200):
            rng.shuffle(perm)
            null.append(hsic(num(x, "x"), num(perm, "y")).raw["nhsic"])
        null.sort()
        assert observed < null[197]  # 99th percentile of 200 permutations


class TestScenarioClassification:
    def test_one_categorical(self):
        assert classify_scenario([cat(["a", "b"])]) is Scenario.CAT_DIST

    def test_order_insensitive(self):
        cols = [num([1, 2], "x"), cat(["a", "b"], "g")]
        assert classify_scenario(cols) is Scenario.CAT_NUM
        assert classify_scenario(list(reversed(cols))) is Scenario.CAT_NUM

    def test_two_numericals(self):
        assert classify_scenario([num([1, 2]), num([3, 4], "y")]) is Scenario.NUM_NUM

    def test_arity(self):
        with pytest.raises(UnsupportedArityError):
            classify_scenario([cat(["a"]), cat(["b"], "b2"), cat(["c"], "c2")])


def test_run_metric_swaps_cat_num_order():
    g = cat(["a", "a", "b", "b"], "g")
    y = num([1, 2, 3, 4], "y")
    r1 = run_metric("cohens_d", [g, y])
    r2 = run_metric("cohens_d", [y, g])
    assert r1.raw == r2.raw


@pytest.mark.parametrize("metric_id, cols", [
    ("cramers_v", [num([1, 2, 3, 4]), num([4, 3, 2, 1], "y")]),
    ("cohens_d", [cat(["a", "b", "a", "b"]), cat(["x", "y", "y", "x"], "d")]),
    ("pearson", [cat(["a", "b", "a", "b"]), num([1, 2, 3, 4])]),
    ("skewness", [cat(["a", "b", "c"])]),
])
def test_run_metric_rejects_columns_of_another_scenario(metric_id, cols):
    with pytest.raises(UnknownMetricError, match="metric; got"):
        run_metric(metric_id, cols)


def test_run_metric_forwards_the_mediator():
    g = cat(["a", "b"] * 6 + ["a"], "g")
    y = num([1, 3, 2, 5, 4, 4, 6, 8, 5, 9, 7, 7, 3], "y")
    m = num([0, 2, 1, 2, 1, 3, 2, 5, 2, 4, 3, 3, 1], "m")
    via_run = run_metric("pse", [y, g], mediator=m)
    direct = pse(g, y, mediator=m)
    assert via_run == direct
    assert via_run.details == "treatment='a' mediator='m'"
    # Kept per set of columns, the mediator included; None is no input.
    assert run_metric("pse", [g, y], mediator=m) is via_run
    shifted = num([1, 2, 1, 2, 1, 3, 2, 5, 2, 4, 3, 3, 1], "m")
    assert run_metric("pse", [g, y], mediator=shifted) != via_run
    assert (run_metric("causal_effect", [y, g], covariate=None)
            is run_metric("causal_effect", [g, y]))


def test_mediator_of_another_length_is_a_table_error():
    g = cat(["a", "a", "a", "b", "b", "b"], "g")
    y = num([1, 2, 4, 3, 5, 8], "y")
    with pytest.raises(RaggedRowError):
        pse(g, y, mediator=num([1, 2, 3, 4], "m"))


def test_paired_shares_the_columns_unless_a_row_is_dropped():
    g = cat(["a", "b", "a", "b"], "g")
    y = num([1, 2, 3, 4], "y")
    gs, ys = paired(g, y)
    assert np.shares_memory(gs, g.data) and np.shares_memory(ys, y.data)
    assert not ys.flags.writeable
    x = Column("x", np.array([1.0, np.nan, 3.0, 4.0]))
    ys, xs = paired(y, x)
    assert not np.shares_memory(ys, y.data) and not np.shares_memory(xs, x.data)
    assert ys.tolist() == [1.0, 3.0, 4.0] and xs.tolist() == [1.0, 3.0, 4.0]
