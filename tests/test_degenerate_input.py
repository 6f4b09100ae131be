"""Each metric on degenerate input: the exact error, or the value it reads.

One table over the scenarios: a constant column, a constant outcome, a
pair with one constant axis, a single category and too few rows. A metric
that cannot be computed raises its own error class with its own message,
which a session lists under "Metric errors".
"""

import re

import numpy as np
import pytest

from biasaudit.errors import (
    ConstantColumnError,
    DegenerateIQRError,
    InsufficientSamplesError,
    SingleCategoryError,
    ZeroVarianceError,
)
from biasaudit.metrics import SCENARIO_METRICS, Scenario, run_metric
from biasaudit.tabular import Column, categorical

N = 20


def constant_column():
    return [Column("x", np.full(N, 3.0))]


def constant_outcome():
    codes = np.arange(N) % 2
    return [categorical("g", codes, ("a", "b")), Column("y", np.full(N, 2.0))]


def one_constant_axis():
    return [Column("x", np.arange(N, dtype=float)), Column("y", np.full(N, 1.0))]


def single_category():
    return [categorical("c", np.zeros(N, dtype=np.intp), ("a",))]


def two_rows():
    return [Column("x", np.array([1.0, 2.0]))]


CONSTANT = "undefined for a constant column"
RAISES = [
    (constant_column, "skewness", ConstantColumnError, f"skewness {CONSTANT}"),
    (constant_column, "kurtosis", ConstantColumnError, f"kurtosis {CONSTANT}"),
    (constant_column, "outlier", ConstantColumnError,
     f"outlier fraction {CONSTANT}"),
    (constant_column, "cohens_d_mad", ConstantColumnError,
     "cohens_d_mad undefined: MAD is zero"),
    (constant_column, "quantile_deviation", DegenerateIQRError,
     "quantile_deviation undefined: IQR is zero"),
    (constant_outcome, "max_abs_mean", ZeroVarianceError,
     "max_abs_mean undefined: outcome is constant"),
    (constant_outcome, "cohens_d", ZeroVarianceError,
     "cohens_d undefined: zero pooled variance"),
    (constant_outcome, "standardized_difference", ZeroVarianceError,
     "standardized_difference undefined: MAD is zero"),
    (constant_outcome, "causal_effect", ZeroVarianceError,
     "causal_effect undefined: outcome is constant"),
    *[(one_constant_axis, m, ConstantColumnError, f"{m} {CONSTANT}")
      for m in SCENARIO_METRICS[Scenario.NUM_NUM] if m != "nmi"],
    *[(single_category, m, SingleCategoryError,
       f"{m} needs >= 2 categories, got 1")
      for m in SCENARIO_METRICS[Scenario.CAT_DIST] if m != "max_min_ratio"],
    *[(two_rows, m, InsufficientSamplesError, f"{m} needs n >= 3, got 2")
      for m in SCENARIO_METRICS[Scenario.NUM_DIST]],
]


@pytest.mark.parametrize("columns, metric_id, error, message", RAISES,
                         ids=[f"{c.__name__}-{m}" for c, m, _, _ in RAISES])
def test_degenerate_input_raises(columns, metric_id, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        run_metric(metric_id, columns())
    assert type(caught.value) is error


@pytest.mark.parametrize("columns, metric_id, raw", [
    (one_constant_axis, "nmi", {"nmi": 0.0, "mi": 0.0}),
    (single_category, "max_min_ratio", {"ratio": float("inf")}),
], ids=["one_constant_axis-nmi", "single_category-max_min_ratio"])
def test_degenerate_input_reads_a_value(columns, metric_id, raw):
    assert dict(run_metric(metric_id, columns()).raw) == raw
