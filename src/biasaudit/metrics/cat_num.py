"""Correlation-bias metrics for a categorical group column vs a numerical one.

Rows where either cell is missing are dropped pairwise. Groups are ordered
by descending size with label order breaking ties, so "the two largest
categories" is deterministic. An outcome (or mediator) in extreme units is
scaled by an exact power of two before any arithmetic; ``ace``, ``ade``,
``aie`` and ``total`` are reported in the outcome's own units, and one that
exceeds float64 there raises NumericRangeError.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from ..errors import (
    MissingMediatorError,
    NumericRangeError,
    SingletonGroupError,
    ZeroVarianceError,
)
from ..tabular import Column, Kind, readonly, shared, split_by_code
from .base import MetricResult, in_float_range, paired


def group_values(g: Column, y: Column):
    """The paired outcome split by group: the non-empty groups, largest
    first, in the outcome's own units; shared, so read-only."""
    return shared((g, y), "groups", _grouped, g, y)


def _grouped(g: Column, y: Column):
    parts = split_by_code(*paired(g, y), len(g.labels))
    ordered = sorted((i for i, part in enumerate(parts) if part.size),
                     key=lambda i: (-parts[i].size, i))  # labels are str-sorted
    return MappingProxyType({g.labels[i]: readonly(parts[i]) for i in ordered})


def _checked_groups(g: Column, y: Column, metric_id: str):
    """The groups with >= 2 observations of the outcome brought into float
    range, their values concatenated, and the exponent of the power of two
    the outcome was scaled by; all shared."""
    usable, all_y, shift = shared((g, y), "usable groups", _usable_groups,
                                  g, y, metric_id)
    if len(usable) < 2:
        raise SingletonGroupError(
            f"{metric_id} needs >= 2 categories with >= 2 observations each")
    return usable, all_y, shift


def _usable_groups(g: Column, y: Column, metric_id: str):
    shift = in_float_range(paired(g, y)[1], metric_id)[1]
    usable = {k: v if shift == 0 else readonly(np.ldexp(v, shift))
              for k, v in group_values(g, y).items() if v.size >= 2}
    all_y = np.concatenate(list(usable.values()) or [np.empty(0)])
    return MappingProxyType(usable), readonly(all_y), shift


def max_abs_mean(g: Column, y: Column) -> MetricResult:
    """Largest |group mean| of the globally standardized outcome (N value)."""
    groups, allv, _ = _checked_groups(g, y, "max_abs_mean")
    sd = allv.std()
    if sd == 0:
        raise ZeroVarianceError("max_abs_mean undefined: outcome is constant")
    mean = allv.mean()
    n_value = max(abs(float((v - mean).mean() / sd)) for v in groups.values())
    return MetricResult("max_abs_mean", {"n_value": n_value}, allv.size)


def cohens_d(g: Column, y: Column) -> MetricResult:
    """Largest pairwise Cohen's d with the pooled sample-variance sd."""
    groups = _checked_groups(g, y, "cohens_d")[0].values()
    size = np.array([v.size for v in groups])
    mean = np.array([v.mean() for v in groups])
    squares = np.array([(v.size - 1) * v.var(ddof=1) for v in groups])
    worst = 0.0
    for i in range(len(groups) - 1):  # group i against every later group
        pooled = (squares[i] + squares[i + 1:]) / (size[i] + size[i + 1:] - 2)
        if (pooled == 0).any():
            raise ZeroVarianceError("cohens_d undefined: zero pooled variance")
        worst = max(worst, np.abs((mean[i] - mean[i + 1:]) / np.sqrt(pooled)).max())
    return MetricResult("cohens_d", {"d": float(worst)}, int(size.sum()))


def standardized_difference(g: Column, y: Column) -> MetricResult:
    """Largest pairwise mean gap scaled by 1.4826 * MAD of all outcomes."""
    groups, allv, _ = _checked_groups(g, y, "standardized_difference")
    med = np.median(allv)
    mad = float(np.median(np.abs(allv - med)))
    if mad == 0:
        raise ZeroVarianceError("standardized_difference undefined: MAD is zero")
    means = [v.mean() for v in groups.values()]
    gap = float(max(means) - min(means))  # the largest pairwise gap
    return MetricResult("standardized_difference",
                        {"sd": gap / (1.4826 * mad)}, allv.size)


def causal_effect(g: Column, y: Column,
                  covariate: Column | None = None) -> MetricResult:
    """Average causal effect of the two largest categories on the outcome.

    Without a covariate this is the raw mean difference (largest minus
    second-largest group); with one, stratum mean differences are averaged
    weighted by stratum size. Also reported scaled by the outcome sd.
    """
    groups, allv, shift = _checked_groups(g, y, "causal_effect")
    keys = list(groups)[:2]
    sd = allv.std()
    if sd == 0:
        raise ZeroVarianceError("causal_effect undefined: outcome is constant")
    if covariate is None:
        ace = float(groups[keys[0]].mean() - groups[keys[1]].mean())
        details = f"treatment={keys[0]!r} control={keys[1]!r}"
    else:
        ace, strata = _stratified_ace(g, y, covariate, keys, shift)
        details = (f"treatment={keys[0]!r} control={keys[1]!r} "
                   f"stratified on {covariate.name!r} ({strata} strata)")
    return MetricResult("causal_effect",
                        {"ace": _in_outcome_units("causal_effect", "ace", ace,
                                                  shift),
                         "ace_std": ace / float(sd)},
                        allv.size, details)


def _in_outcome_units(metric_id: str, key: str, value: float,
                      shift: int) -> float:
    """``value``, computed on the outcome times 2**shift, in the outcome's
    own units; NumericRangeError if it exceeds float64 there."""
    try:
        value = math.ldexp(value, -shift)
    except OverflowError:
        value = math.inf
    if math.isinf(value):
        raise NumericRangeError(
            f"{metric_id}: {key} exceeds float64 in the outcome's units")
    return value


def _stratified_ace(g: Column, y: Column, cov: Column, keys, shift: int):
    treated, ys, strata, arm = _two_largest(g, y, cov, keys, shift)
    if cov.kind is Kind.NUMERICAL:  # strata are the distinct values, by str
        strata = Column(cov.name, strata).categories().data
    parts = split_by_code(strata[arm] * 2 + ~treated, ys)
    total = 0
    acc = 0.0
    used = 0
    for a, b in zip(parts[0::2], parts[1::2]):
        if not a.size or not b.size:
            continue
        size = a.size + b.size
        diff = float(np.mean(a) - np.mean(b))
        acc += size * diff
        total += size
        used += 1
    if total == 0:
        raise SingletonGroupError("causal_effect: no stratum contains both groups")
    return acc / total, used


def _two_largest(g: Column, y: Column, other: Column, keys, shift: int):
    """Of the paired rows, ``other`` and the mask ``arm`` of groups ``keys``;
    on ``arm``, whether a row is in the first group, and y times 2**shift."""
    codes, ys, others = paired(g, y, other)
    treated, control = (g.labels.index(k) for k in keys)
    arm = (codes == treated) | (codes == control)
    return codes[arm] == treated, np.ldexp(ys[arm], shift), others, arm


def pse(g: Column, y: Column, mediator: Column | None = None) -> MetricResult:
    """Path-specific effect via linear mediation on a binary-coded treatment.

    Fits m = a0 + a1*t and y = b0 + b1*t + b2*m by least squares;
    ADE = b1, AIE = a1*b2. The headline value is max(|ADE|, |AIE|) / sd(y).
    Treatments with more than two categories are binarized to the two
    largest groups.
    """
    if mediator is None:
        raise MissingMediatorError("pse requires a mediator column")
    if mediator.kind is not Kind.NUMERICAL:
        raise MissingMediatorError("pse mediator must be numerical")
    groups, _, shift = _checked_groups(g, y, "pse")
    keys = list(groups)[:2]
    t, yv, m, arm = _two_largest(g, y, mediator, keys, shift)
    t = t.astype(float)
    m = in_float_range(m, "pse")[0][arm]
    if t.size < 3 or t.var() == 0:
        raise SingletonGroupError("pse: treatment is constant after binarization")
    sd = yv.std()
    if sd == 0:
        raise ZeroVarianceError("pse undefined: outcome is constant")
    a1 = float(np.cov(t, m, bias=True)[0, 1] / t.var())
    # A mediator that is an exact linear function of the treatment makes
    # the outcome design rank deficient; the whole effect is then routed
    # through the indirect path (ADE = 0) rather than split arbitrarily.
    if m.var() > 0 and abs(np.corrcoef(t, m)[0, 1]) > 1.0 - 1e-12:
        slope = float(np.cov(m, yv, bias=True)[0, 1] / m.var())
        ade = 0.0
        aie = a1 * slope
    else:
        design = np.column_stack([np.ones_like(t), t, m])
        coef, *_ = np.linalg.lstsq(design, yv, rcond=None)
        ade = float(coef[1])
        aie = a1 * float(coef[2])
    raw = max(abs(ade), abs(aie)) / float(sd)
    ade = _in_outcome_units("pse", "ade", ade, shift)
    aie = _in_outcome_units("pse", "aie", aie, shift)
    total = _in_outcome_units("pse", "total", ade + aie, 0)
    return MetricResult("pse",
                        {"ade": ade, "aie": aie, "total": total,
                         "pse": raw}, t.size,
                        f"treatment={keys[0]!r} mediator={mediator.name!r}")
