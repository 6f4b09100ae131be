"""The 25 bias-detection metrics, organized by scenario."""

from __future__ import annotations

from ..errors import UnknownMetricError
from ..tabular import Column, Kind
from . import cat_cat, cat_dist, cat_num, num_dist, num_num
from .base import (
    BiasType,
    MetricOptions,
    MetricResult,
    Scenario,
    classify_scenario,
)

# Scenario -> {metric id: metric function}, in the paper's order.
SCENARIO_METRICS = {
    Scenario.CAT_DIST: cat_dist.METRICS,
    Scenario.NUM_DIST: num_dist.METRICS,
    Scenario.CAT_CAT: cat_cat.METRICS,
    Scenario.CAT_NUM: cat_num.METRICS,
    Scenario.NUM_NUM: num_num.METRICS,
}

ALL_METRIC_IDS = tuple(m for ids in SCENARIO_METRICS.values() for m in ids)


def scenario_of_metric(metric_id: str) -> Scenario:
    for scenario, ids in SCENARIO_METRICS.items():
        if metric_id in ids:
            return scenario
    raise UnknownMetricError(f"unknown metric {metric_id!r}")


def run_metric(metric_id: str, cols, opts: MetricOptions = MetricOptions()) -> MetricResult:
    """Evaluate one metric on 1 or 2 columns, ordering them as needed.

    Two-column scenarios accept the columns in either order: the
    categorical column is passed as the group for cat/num metrics. The
    column kinds must match the metric's scenario.
    """
    scenario = scenario_of_metric(metric_id)
    if len(cols) not in (1, 2) or classify_scenario(cols) is not scenario:
        raise UnknownMetricError(f"{metric_id} is a {scenario.value} metric; "
                                 f"got {[c.kind.value for c in cols]} columns")
    fn = SCENARIO_METRICS[scenario][metric_id]
    if len(cols) == 1:
        return fn(cols[0], opts)
    a, b = cols
    if scenario is Scenario.CAT_NUM and a.kind is not Kind.CATEGORICAL:
        a, b = b, a
    return fn(a, b, opts)


__all__ = [
    "ALL_METRIC_IDS",
    "BiasType",
    "MetricOptions",
    "MetricResult",
    "SCENARIO_METRICS",
    "Scenario",
    "cat_cat",
    "cat_dist",
    "cat_num",
    "classify_scenario",
    "num_dist",
    "num_num",
    "run_metric",
    "scenario_of_metric",
]
