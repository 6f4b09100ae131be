"""Shared types for the detection metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import UnsupportedArityError
from ..tabular import Column, Kind, present_rows


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
class MetricOptions:
    bins: int = 10
    kde_grid: int = 64
    mediator: Column | None = None
    covariate: Column | None = None

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError("bins must be >= 2")
        if self.kde_grid < 8:
            raise ValueError("kde_grid must be >= 8")


@dataclass(frozen=True)
class MetricResult:
    metric_id: str
    scenario: Scenario
    raw: dict
    n: int
    details: str = ""

    def to_record(self) -> dict:
        raw = {k: ("inf" if math.isinf(v) else v) for k, v in self.raw.items()}
        return {"metric_id": self.metric_id, "scenario": self.scenario.value,
                "raw": raw, "n": self.n, "details": self.details}


def classify_scenario(cols, stated_bias: BiasType = BiasType.UNSTATED) -> Scenario:
    """Map 1-2 typed columns (plus the stated bias type) to a scenario.

    An unstated ("implication") bias type resolves by column count: one
    column means distribution, two mean correlation. Column order is
    irrelevant for two-column scenarios.
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


def column_values(col: Column) -> np.ndarray:
    """Non-missing values of a numerical column as a float array."""
    view = col.view
    return view.data[view.present]


def category_counts(col: Column) -> dict:
    """Counts of non-missing categories, keyed and ordered by label.

    A numerical column counts its distinct values, ordered by ``str``.
    """
    view = col.view.categories()
    counts = np.bincount(view.data[view.present], minlength=len(view.labels))
    return dict(zip(view.labels, counts.tolist()))


def paired(*cols: Column) -> list:
    """The columns' view data on the rows where none of them is missing."""
    keep = present_rows(cols, len(cols[0].view.data))
    return [c.view.data[keep] for c in cols]
