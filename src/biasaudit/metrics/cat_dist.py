"""Distribution-bias metrics for a single categorical column.

All entropies use natural log; normalized quantities are base-free. Float
terms are added left to right from 0.0 by ``reduce``, as Python's ``sum``
added them up to 3.11; from 3.12 ``sum`` compensates and can round otherwise.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

from ..errors import SingleCategoryError
from ..tabular import Column
from .base import MetricResult, category_counts


def _counts(col: Column, require_k2: bool, metric_id: str):
    counts = category_counts(col)
    if require_k2 and len(counts) < 2:
        raise SingleCategoryError(
            f"{metric_id} needs >= 2 categories, got {len(counts)}")
    if not counts:
        raise SingleCategoryError(f"{metric_id}: column is empty after cleaning")
    return counts


def _entropy(col: Column, metric_id: str):
    """Shannon entropy H, its normalized form H / ln k, n and k."""
    counts = _counts(col, True, metric_id)
    n = sum(counts.values())
    h = -reduce(add, ((c / n) * math.log(c / n) for c in counts.values()), 0.0)
    return h, h / math.log(len(counts)), n, len(counts)


def shannon_balance(col: Column) -> MetricResult:
    """Shannon entropy H and balance = H / ln k."""
    h, balance, n, k = _entropy(col, "shannon_balance")
    return MetricResult("shannon_balance", {"H": h, "balance": balance}, n,
                        f"k={k}")


def entropy(col: Column) -> MetricResult:
    """Shannon entropy with its normalized form H / ln k."""
    h, h_norm, n, k = _entropy(col, "entropy")
    return MetricResult("entropy", {"H": h, "H_norm": h_norm}, n, f"k={k}")


def max_min_ratio(col: Column) -> MetricResult:
    """Ratio of the largest to the smallest category count.

    A category observed zero times never appears in the counts, so the
    ratio is over positive counts; a degenerate single-category column
    reports an infinite ratio sentinel (maximal imbalance, not an error).
    """
    counts = _counts(col, False, "max_min_ratio")
    n = sum(counts.values())
    if len(counts) < 2:
        return MetricResult("max_min_ratio", {"ratio": math.inf}, n,
                            "single category")
    ratio = max(counts.values()) / min(counts.values())
    return MetricResult("max_min_ratio", {"ratio": ratio}, n,
                        f"k={len(counts)}")


def gini(col: Column) -> MetricResult:
    """Gini index with Laplace smoothing, normalized by 1 - 1/k."""
    counts = _counts(col, True, "gini")
    n = sum(counts.values())
    k = len(counts)
    q = [(c + 1) / (n + k) for c in counts.values()]
    g = 1.0 - reduce(add, (x * x for x in q), 0.0)
    return MetricResult("gini", {"G": g, "G_norm": g / (1.0 - 1.0 / k)}, n,
                        f"k={k}")


def relative_risk(col: Column) -> MetricResult:
    """Observed/expected frequency ratios against the uniform expectation."""
    counts = _counts(col, True, "relative_risk")
    n = sum(counts.values())
    k = len(counts)
    rr = {lbl: (c / n) * k for lbl, c in counts.items()}
    dev = max(abs(v - 1.0) for v in rr.values())
    return MetricResult("relative_risk",
                        {"max_abs_deviation": dev, "rr_max": max(rr.values()),
                         "rr_min": min(rr.values())},
                        n, f"k={k}")
