"""Scale-invariant metrics keep their value for a column in extreme units.

Each num_dist and num_num metric is invariant to multiplying a column by a
positive constant, and so is each cat_num metric's graded value for the
outcome, so a column in units 1e80 times too large or 1e160 times too small
must read as it does in ordinary units, not as an overflowed or underflowed
NaN, 0 or 1. cat_num's unit-bearing values scale with the outcome.
"""

import numpy as np
import pytest

from biasaudit import synthgen
from biasaudit.errors import NumericRangeError
from biasaudit.metrics import SCENARIO_METRICS, MetricResult, Scenario, run_metric
from biasaudit.metrics.base import in_float_range
from biasaudit.severity import graded_value
from biasaudit.tabular import Column, categorical

N = 500
NUM_DIST = SCENARIO_METRICS[Scenario.NUM_DIST]
NUM_NUM = SCENARIO_METRICS[Scenario.NUM_NUM]
CAT_NUM = SCENARIO_METRICS[Scenario.CAT_NUM]


def columns(metric_id, scale):
    """A skewed column for num_dist; a pair correlated at 0.9 for num_num."""
    rng = np.random.default_rng(3)
    if metric_id in NUM_DIST:
        return [Column("x", scale * np.exp(rng.standard_normal(N)))]
    x = rng.standard_normal(N)
    y = 0.9 * x + np.sqrt(1 - 0.81) * rng.standard_normal(N)
    return [Column("x", scale * x), Column("y", scale * y)]


def graded(metric_id, scale):
    return graded_value(run_metric(metric_id, columns(metric_id, scale)))


def cat_num_result(metric_id, scale):
    """Two groups whose outcome means differ by 0.6, part of it through a
    mediator in the outcome's units (pse's only)."""
    rng = np.random.default_rng(3)
    t = rng.integers(0, 2, N)
    m = 0.5 * t + rng.standard_normal(N)
    y = 0.6 * t + 0.3 * m + rng.standard_normal(N)
    inputs = {"mediator": Column("m", scale * m)} if metric_id == "pse" else {}
    cols = [categorical("g", t, ("a", "b")), Column("y", scale * y)]
    return run_metric(metric_id, cols, **inputs)


@pytest.mark.parametrize("scale", [1e80, 1e160, 1e-160])
@pytest.mark.parametrize("metric_id", NUM_DIST + NUM_NUM)
def test_extreme_units_read_as_ordinary_units(metric_id, scale):
    assert graded(metric_id, scale) == pytest.approx(graded(metric_id, 1.0),
                                                     rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("scale", [1e160, 1e-160])
@pytest.mark.parametrize("metric_id", CAT_NUM)
def test_cat_num_in_extreme_units(metric_id, scale):
    ordinary = cat_num_result(metric_id, 1.0)
    extreme = cat_num_result(metric_id, scale)
    assert graded_value(extreme) == pytest.approx(graded_value(ordinary),
                                                  rel=1e-6, abs=1e-9)
    for key in {"ace", "ade", "aie", "total"} & set(ordinary.raw):
        assert extreme.raw[key] == pytest.approx(scale * ordinary.raw[key],
                                                 rel=1e-6)


def test_in_range_columns_keep_every_bit():
    for v in (np.array([2.0 ** 64, -3.0, 1.0]), np.array([2.0 ** -64, 0.0])):
        scaled, shift = in_float_range(v, "m")
        assert scaled is v and shift == 0


def test_scaling_is_by_a_power_of_two():
    v = np.array([3e100, -1.5e90, 7.0])
    scaled, shift = in_float_range(v, "m")
    assert np.array_equal(scaled, np.ldexp(v, shift))
    assert 0.5 <= np.abs(scaled).max() < 1
    assert np.all(np.frexp(scaled)[0] == np.frexp(v)[0])


@pytest.mark.parametrize("metric_id", NUM_DIST + NUM_NUM)
def test_a_far_pair_beside_ordinary_values_raises(metric_id):
    # Scaling 1e308 into [0.5, 1) leaves the other rows subnormal.
    rng = np.random.default_rng(5)
    x = rng.standard_normal(N)
    x[:2] = 1e308, -1e308
    cols = [Column("x", x)]
    if metric_id in NUM_NUM:
        cols.append(Column("y", rng.standard_normal(N)))
    with pytest.raises(NumericRangeError, match=metric_id):
        run_metric(metric_id, cols)


def test_a_column_that_is_mostly_zero_is_scaled_exactly():
    v = np.zeros(100)
    v[:3] = 1e300, 2e300, 3e300
    assert np.array_equal(in_float_range(v, "m")[0] != 0, v != 0)


def test_a_nan_graded_value_has_no_level():
    with pytest.raises(NumericRangeError, match="kurtosis"):
        graded_value(MetricResult("kurtosis", {"g2": float("nan")}, N))


def test_calibration_treats_a_nan_value_as_a_failure(monkeypatch):
    def nan_kurtosis(metric_id, cols):
        if metric_id == "kurtosis":
            return MetricResult(metric_id, {"g2": float("nan")}, N)
        return run_metric(metric_id, cols)

    monkeypatch.setattr(synthgen, "run_metric", nan_kurtosis)
    suite = synthgen.grade_suite(Scenario.NUM_DIST, levels=[1, 5])[:2]
    samples = synthgen.collect_calibration_samples(suite)
    assert "kurtosis" not in samples and "skewness" in samples



def effect_beyond_float64(case):
    """A group column, a finite outcome and a mediator on which an effect
    exceeds float64 in the outcome's units. "gap": group a's outcome sits
    near +1e308, b's near -1e308, and the mediator is independent noise;
    "mediated": the same outcome, with the group's code as the mediator,
    which routes the whole effect through it; "split": an effect of 1.9e308
    split 0.55 : 0.45 between the direct and the mediated path, so each
    part is finite and only their total is not."""
    rng = np.random.default_rng(7)
    t = rng.integers(0, 2, N)
    if case == "split":
        m = t + 0.1 * rng.standard_normal(N)
        y = (0.55 * (t - 0.5) + 0.45 * (m - 0.5)) * 1e308 * 1.9
    else:
        y = np.where(t == 1, 1e308, -1e308) * (1 - 1e-3 * rng.random(N))
        m = rng.standard_normal(N) if case == "gap" else t.astype(float)
    return [categorical("g", t, ("a", "b")), Column("y", y)], Column("m", m)


@pytest.mark.parametrize("metric_id, key, case", [
    ("causal_effect", "ace", "gap"),
    ("pse", "ade", "gap"),
    ("pse", "aie", "mediated"),
    ("pse", "total", "split"),
])
def test_an_effect_beyond_float64_raises(metric_id, key, case):
    cols, mediator = effect_beyond_float64(case)
    assert np.isfinite(cols[1].data).all()
    inputs = {"mediator": mediator} if metric_id == "pse" else {}
    with pytest.raises(NumericRangeError, match=(
            f"^{metric_id}: {key} exceeds float64 in the outcome's units$")):
        run_metric(metric_id, cols, **inputs)
