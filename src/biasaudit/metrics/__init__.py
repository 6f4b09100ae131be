"""The 25 bias-detection metrics, held in one table in the paper's order."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import UnknownMetricError
from ..tabular import Kind, shared
from . import cat_cat, cat_dist, cat_num, num_dist, num_num
from .base import (
    BiasType,
    MetricResult,
    Scenario,
    classify_scenario,
)


@dataclass(frozen=True)
class MetricSpec:
    """One metric: its scenario, its function, and the raw value its
    severity is graded on, ``raw[raw_key]`` under ``transform`` (identity,
    abs or one_minus), which makes "higher means more biased" true."""
    scenario: Scenario
    fn: object  # callable(*cols, **inputs) -> MetricResult
    raw_key: str
    transform: str

    @property
    def id(self) -> str:
        return self.fn.__name__


# Metric id -> spec, in the paper's order.
METRICS = {spec.id: spec for spec in (
    MetricSpec(Scenario.CAT_DIST, cat_dist.shannon_balance, "balance", "one_minus"),
    MetricSpec(Scenario.CAT_DIST, cat_dist.max_min_ratio, "ratio", "identity"),
    MetricSpec(Scenario.CAT_DIST, cat_dist.entropy, "H_norm", "one_minus"),
    MetricSpec(Scenario.CAT_DIST, cat_dist.gini, "G_norm", "one_minus"),
    MetricSpec(Scenario.CAT_DIST, cat_dist.relative_risk, "max_abs_deviation", "identity"),
    MetricSpec(Scenario.NUM_DIST, num_dist.skewness, "g1", "abs"),
    MetricSpec(Scenario.NUM_DIST, num_dist.kurtosis, "g2", "abs"),
    MetricSpec(Scenario.NUM_DIST, num_dist.outlier, "fraction", "identity"),
    MetricSpec(Scenario.NUM_DIST, num_dist.cohens_d_mad, "d", "abs"),
    MetricSpec(Scenario.NUM_DIST, num_dist.quantile_deviation, "deviation", "identity"),
    MetricSpec(Scenario.CAT_CAT, cat_cat.cramers_v, "v", "identity"),
    MetricSpec(Scenario.CAT_CAT, cat_cat.elift, "max_elift", "identity"),
    MetricSpec(Scenario.CAT_CAT, cat_cat.statistical_parity, "max_delta", "identity"),
    MetricSpec(Scenario.CAT_CAT, cat_cat.lipschitz, "lipschitz", "identity"),
    MetricSpec(Scenario.CAT_CAT, cat_cat.total_variation, "tvd", "identity"),
    MetricSpec(Scenario.CAT_NUM, cat_num.max_abs_mean, "n_value", "identity"),
    MetricSpec(Scenario.CAT_NUM, cat_num.cohens_d, "d", "identity"),
    MetricSpec(Scenario.CAT_NUM, cat_num.standardized_difference, "sd", "identity"),
    MetricSpec(Scenario.CAT_NUM, cat_num.causal_effect, "ace_std", "abs"),
    MetricSpec(Scenario.CAT_NUM, cat_num.pse, "pse", "identity"),
    MetricSpec(Scenario.NUM_NUM, num_num.pearson, "r", "abs"),
    MetricSpec(Scenario.NUM_NUM, num_num.nmi, "nmi", "identity"),
    MetricSpec(Scenario.NUM_NUM, num_num.hgr_approximation, "hgr", "identity"),
    MetricSpec(Scenario.NUM_NUM, num_num.wasserstein, "w2", "identity"),
    MetricSpec(Scenario.NUM_NUM, num_num.hsic, "nhsic", "identity"),
)}

ALL_METRIC_IDS = tuple(METRICS)

# Scenario -> its metric ids, in the paper's order.
SCENARIO_METRICS = {scenario: tuple(m for m, spec in METRICS.items()
                                    if spec.scenario is scenario)
                    for scenario in Scenario}


def run_metric(metric_id: str, cols, **inputs) -> MetricResult:
    """Evaluate one metric on 1 or 2 columns, ordering them as needed.

    Two-column scenarios accept the columns in either order: the
    categorical column is passed as the group for cat/num metrics. The
    column kinds must match the metric's scenario. Keyword inputs are
    passed on to the metric: ``covariate=`` for causal_effect and
    ``mediator=`` for pse; an input of None is no input.

    Each result is computed once per set of columns, the ordered columns
    and the input columns, and kept while they live (``tabular.shared``),
    so a session's detection, its charts and ``bench.ground_truth`` on the
    same columns read one result. A metric that raises is not kept.
    """
    try:
        spec = METRICS[metric_id]
    except KeyError:
        raise UnknownMetricError(f"unknown metric {metric_id!r}") from None
    scenario = spec.scenario
    if len(cols) not in (1, 2) or classify_scenario(cols) is not scenario:
        raise UnknownMetricError(f"{metric_id} is a {scenario.value} metric; "
                                 f"got {[c.kind.value for c in cols]} columns")
    cols = tuple(cols)
    if scenario is Scenario.CAT_NUM and cols[0].kind is not Kind.CATEGORICAL:
        cols = cols[::-1]
    inputs = {k: v for k, v in inputs.items() if v is not None}
    names = sorted(inputs)
    return shared(cols + tuple(inputs[k] for k in names),
                  f"result {metric_id} {' '.join(names)}",
                  lambda: spec.fn(*cols, **inputs))


__all__ = [
    "ALL_METRIC_IDS",
    "BiasType",
    "METRICS",
    "MetricResult",
    "MetricSpec",
    "SCENARIO_METRICS",
    "Scenario",
    "cat_cat",
    "cat_dist",
    "cat_num",
    "classify_scenario",
    "num_dist",
    "num_num",
    "run_metric",
]
