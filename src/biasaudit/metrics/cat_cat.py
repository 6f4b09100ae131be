"""Correlation-bias metrics for two categorical columns.

All metrics operate on the contingency table of paired non-missing rows;
the first column plays the group role, the second the outcome role where
the metric distinguishes them.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateTableError
from ..tabular import Column
from .base import MetricResult, paired

# elift skips cells with a joint count below this, to avoid ratio blow-ups.
MIN_CELL_SUPPORT = 5


def contingency(a: Column, b: Column):
    """Contingency counts with rows/columns ordered by label."""
    ca, cb = paired(a, b)
    la, lb = a.labels, b.labels
    counts = np.bincount(ca * len(lb) + cb, minlength=len(la) * len(lb))
    table = counts.reshape(len(la), len(lb)).astype(float)
    used_r = table.sum(axis=1) > 0
    used_c = table.sum(axis=0) > 0
    rows = [r for r, used in zip(la, used_r) if used]
    cols = [c for c, used in zip(lb, used_c) if used]
    return table[np.ix_(used_r, used_c)], rows, cols


def _checked(a: Column, b: Column, metric_id: str):
    table, rows, cols = contingency(a, b)
    if len(rows) < 2 or len(cols) < 2:
        raise DegenerateTableError(
            f"{metric_id} needs >= 2 categories in each column "
            f"(got {len(rows)} x {len(cols)})")
    return table, rows, cols


def cramers_v(a: Column, b: Column) -> MetricResult:
    """Cramer's V from the chi-square statistic of the contingency table."""
    o, rows, cols = _checked(a, b, "cramers_v")
    n = o.sum()
    e = np.outer(o.sum(axis=1), o.sum(axis=0)) / n
    mask = e > 0
    chi2 = float(((o[mask] - e[mask]) ** 2 / e[mask]).sum())
    v = float(np.sqrt(chi2 / (n * (min(len(rows), len(cols)) - 1))))
    return MetricResult("cramers_v", {"chi2": chi2, "v": min(v, 1.0)}, int(n),
                        f"{len(rows)}x{len(cols)} table")


def elift(a: Column, b: Column) -> MetricResult:
    """Worst-case lift max(P(y|x)/P(y), P(y)/P(y|x)) over supported cells.

    Cells with joint count below ``MIN_CELL_SUPPORT`` are skipped to avoid
    ratio blow-ups on rare cells; if no cell qualifies, all non-empty cells
    are used instead (noted in the diagnostics).
    """
    o, rows, cols = _checked(a, b, "elift")
    n = o.sum()
    lift = (o / o.sum(axis=1, keepdims=True)) / (o.sum(axis=0) / n)
    cells = o >= MIN_CELL_SUPPORT
    fallback = not cells.any()
    if fallback:
        cells = o > 0
    lift = lift[cells]
    worst = max(1.0, lift.max(initial=1.0), (1.0 / lift[lift > 0]).max(initial=1.0))
    details = ("fallback: no cell met support" if fallback
               else f"support>={MIN_CELL_SUPPORT}")
    return MetricResult("elift", {"max_elift": float(worst)}, int(n), details)


def statistical_parity(a: Column, b: Column) -> MetricResult:
    """Max outcome-rate gap between group pairs, with a pooled z-score."""
    o, rows, cols = _checked(a, b, "statistical_parity")
    n = o.sum(axis=1, keepdims=True)
    p = o / n
    max_delta = max_z = 0.0
    for g in range(len(rows) - 1):  # group g against every later group h
        delta = np.abs(p[g] - p[g + 1:])
        pooled = (o[g] + o[g + 1:]) / (n[g] + n[g + 1:])
        denom = pooled * (1 - pooled) * (1 / n[g] + 1 / n[g + 1:])
        z = delta[denom > 0] / np.sqrt(denom[denom > 0])
        max_delta = max(max_delta, delta.max())
        max_z = max(max_z, z.max(initial=0.0))
    return MetricResult("statistical_parity",
                        {"max_delta": float(max_delta), "max_z": float(max_z)},
                        int(o.sum()))


def _tvd(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(p - q).sum(axis=-1)


def lipschitz(a: Column, b: Column) -> MetricResult:
    """Largest pairwise TVD between group-conditional outcome distributions.

    This is the Lipschitz constant of the group -> conditional-distribution
    map when any two distinct groups are at unit distance.
    """
    o, rows, cols = _checked(a, b, "lipschitz")
    cond = o / o.sum(axis=1, keepdims=True)
    worst = max(_tvd(cond[g], cond[g + 1:]).max() for g in range(len(rows) - 1))
    return MetricResult("lipschitz", {"lipschitz": float(worst)}, int(o.sum()))


def total_variation(a: Column, b: Column) -> MetricResult:
    """Largest TVD between a group's outcome distribution and the overall one."""
    o, rows, cols = _checked(a, b, "total_variation")
    n = o.sum()
    cond = o / o.sum(axis=1, keepdims=True)
    worst = float(_tvd(cond, o.sum(axis=0) / n).max())
    return MetricResult("total_variation", {"tvd": worst}, int(n))
