"""Shared types for the detection metrics, and the first step the metrics
of a scenario share.

Every metric of a scenario starts from the same data: the paired rows, in
float range, and for num_num each axis's sort order; num_dist's deviations
from the mean and its sorted values; cat_num's groups; cat_cat's
contingency table; cat_dist's category counts. ``tabular.shared`` computes
each such step once per ordered set of ``Column`` objects and keeps it for
as long as those objects live, and no longer; ``run_metric`` keeps each
result there too. So the five metrics and the chart of a session's working
table, and those of ``bench.ground_truth`` and of a calibration suite case,
share one first step, while a new load or ``generate`` makes new columns
and starts afresh. Kept arrays are read-only, and none depends on the order
among tied values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..errors import NumericRangeError, UnsupportedArityError
from ..tabular import Column, Kind, present_rows, shared


class Scenario(str, Enum):
    CAT_DIST = "cat_dist"
    NUM_DIST = "num_dist"
    CAT_CAT = "cat_cat"
    CAT_NUM = "cat_num"
    NUM_NUM = "num_num"


class BiasType(str, Enum):
    DISTRIBUTION = "distribution"
    CORRELATION = "correlation"
    UNSTATED = "unstated"


@dataclass(frozen=True)
class MetricResult:
    """One metric's values; ``raw`` is read-only, since ``run_metric`` keeps
    each result for every later caller on the same columns."""
    metric_id: str
    raw: Mapping
    n: int
    details: str = ""

    def __post_init__(self):
        object.__setattr__(self, "raw", MappingProxyType(self.raw))

    def to_record(self) -> dict:
        raw = {k: ("inf" if math.isinf(v) else v) for k, v in self.raw.items()}
        return {"metric_id": self.metric_id, "raw": raw, "n": self.n,
                "details": self.details}


def classify_scenario(cols) -> Scenario:
    """Map 1-2 typed columns to a scenario by their count and kinds.

    One column is a distribution scenario, two are a correlation scenario;
    column order is irrelevant for two-column scenarios.
    """
    if len(cols) == 1:
        col = cols[0]
        return Scenario.CAT_DIST if col.kind is Kind.CATEGORICAL else Scenario.NUM_DIST
    if len(cols) == 2:
        kinds = sorted(c.kind.value for c in cols)
        if kinds == ["categorical", "categorical"]:
            return Scenario.CAT_CAT
        if kinds == ["categorical", "numerical"]:
            return Scenario.CAT_NUM
        return Scenario.NUM_NUM
    raise UnsupportedArityError(f"expected 1 or 2 columns, got {len(cols)}")


def category_counts(col: Column) -> dict:
    """Counts of a categorical column's non-missing categories, keyed and
    ordered by label."""
    labels, counts = shared((col,), "category counts", _category_counts, col)
    return dict(zip(labels, counts))


def _category_counts(col: Column):
    counts = np.bincount(col.data[col.present], minlength=len(col.labels))
    used = np.flatnonzero(counts).tolist()  # a label no code uses has no row
    return tuple(map(col.labels.__getitem__, used)), tuple(counts[used].tolist())


def paired(*cols: Column) -> list:
    """The columns' data on the rows where none of them is missing: the
    read-only arrays themselves when no row is."""
    keep = present_rows(cols, len(cols[0].data))
    if keep.all():
        return [c.data for c in cols]
    return [c.data[keep] for c in cols]


def in_float_range(v: np.ndarray, metric_id: str):
    """(v, 0) when v is empty, all zero or its largest |value| lies in
    [2^-64, 2^64], else v times the exact power of two that brings that value
    into [0.5, 1), and that power's exponent, so that the powers a metric
    takes neither overflow nor underflow. Raises NumericRangeError if the
    scaling leaves the middle half of a column with nonzero quartiles
    subnormal or zero."""
    top = max(float(v.max(initial=0.0)), -float(v.min(initial=0.0)))
    if top == 0 or 2.0 ** -64 <= top <= 2.0 ** 64:
        return v, 0
    shift = -int(np.frexp(top)[1])
    middle = float(np.max(np.abs(np.quantile(v, [0.25, 0.75]))))
    if 0 < middle and np.ldexp(middle, shift) < np.finfo(float).tiny:
        raise NumericRangeError(
            f"{metric_id}: the column spans too many orders of magnitude "
            f"for float64 (largest |value| {top:.3g}, quartiles within "
            f"{middle:.3g})")
    return np.ldexp(v, shift), shift
