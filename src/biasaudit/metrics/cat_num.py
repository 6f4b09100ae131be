"""Correlation-bias metrics for a categorical group column vs a numerical one.

Rows where either cell is missing are dropped pairwise. Groups are ordered
by descending size with label order breaking ties, so "the two largest
categories" is deterministic.
"""

from __future__ import annotations

import numpy as np

from ..errors import (
    MissingMediatorError,
    SingletonGroupError,
    ZeroVarianceError,
)
from ..tabular import Column, ColumnView, Kind, split_by_code
from .base import MetricOptions, MetricResult, Scenario, paired


def _result(metric_id, raw, n, details=""):
    return MetricResult(metric_id, Scenario.CAT_NUM, raw, n, details)


def group_values(g: Column, y: Column):
    """Per-group value arrays for paired non-missing rows."""
    codes, ys = paired(g, y)
    labels = g.view.labels
    parts = split_by_code(codes, ys, len(labels))
    ordered = sorted((i for i, part in enumerate(parts) if part.size),
                     key=lambda i: (-parts[i].size, i))  # labels are str-sorted
    return {labels[i]: parts[i] for i in ordered}


def _checked_groups(g: Column, y: Column, metric_id: str):
    groups = group_values(g, y)
    usable = {k: v for k, v in groups.items() if v.size >= 2}
    if len(usable) < 2:
        raise SingletonGroupError(
            f"{metric_id} needs >= 2 categories with >= 2 observations each")
    return usable


def _all_y(groups) -> np.ndarray:
    return np.concatenate(list(groups.values()))


def max_abs_mean(g: Column, y: Column, opts: MetricOptions = MetricOptions()) -> MetricResult:
    """Largest |group mean| of the globally standardized outcome (N value)."""
    groups = _checked_groups(g, y, "max_abs_mean")
    allv = _all_y(groups)
    sd = allv.std()
    if sd == 0:
        raise ZeroVarianceError("max_abs_mean undefined: outcome is constant")
    mean = allv.mean()
    n_value = max(abs(float((v - mean).mean() / sd)) for v in groups.values())
    return _result("max_abs_mean", {"n_value": n_value}, allv.size)


def cohens_d(g: Column, y: Column, opts: MetricOptions = MetricOptions()) -> MetricResult:
    """Largest pairwise Cohen's d with the pooled sample-variance sd."""
    groups = _checked_groups(g, y, "cohens_d").values()
    size = np.array([v.size for v in groups])
    mean = np.array([v.mean() for v in groups])
    squares = np.array([(v.size - 1) * v.var(ddof=1) for v in groups])
    worst = 0.0
    for i in range(len(groups) - 1):  # group i against every later group
        pooled = (squares[i] + squares[i + 1:]) / (size[i] + size[i + 1:] - 2)
        if (pooled == 0).any():
            raise ZeroVarianceError("cohens_d undefined: zero pooled variance")
        worst = max(worst, np.abs((mean[i] - mean[i + 1:]) / np.sqrt(pooled)).max())
    return _result("cohens_d", {"d": float(worst)}, int(size.sum()))


def standardized_difference(g: Column, y: Column,
                            opts: MetricOptions = MetricOptions()) -> MetricResult:
    """Largest pairwise mean gap scaled by 1.4826 * MAD of all outcomes."""
    groups = _checked_groups(g, y, "standardized_difference")
    allv = _all_y(groups)
    med = np.median(allv)
    mad = float(np.median(np.abs(allv - med)))
    if mad == 0:
        raise ZeroVarianceError("standardized_difference undefined: MAD is zero")
    means = [v.mean() for v in groups.values()]
    gap = float(max(means) - min(means))  # the largest pairwise gap
    return _result("standardized_difference", {"sd": gap / (1.4826 * mad)},
                   allv.size)


def causal_effect(g: Column, y: Column, opts: MetricOptions = MetricOptions()) -> MetricResult:
    """Average causal effect of the two largest categories on the outcome.

    Without a covariate this is the raw mean difference (largest minus
    second-largest group); with one, stratum mean differences are averaged
    weighted by stratum size. Also reported scaled by the outcome sd.
    """
    groups = _checked_groups(g, y, "causal_effect")
    keys = list(groups)[:2]
    allv = _all_y(groups)
    sd = allv.std()
    if sd == 0:
        raise ZeroVarianceError("causal_effect undefined: outcome is constant")
    if opts.covariate is None:
        ace = float(groups[keys[0]].mean() - groups[keys[1]].mean())
        details = f"treatment={keys[0]!r} control={keys[1]!r}"
    else:
        ace, strata = _stratified_ace(g, y, opts.covariate, keys)
        details = (f"treatment={keys[0]!r} control={keys[1]!r} "
                   f"stratified on {opts.covariate.name!r} ({strata} strata)")
    return _result("causal_effect", {"ace": ace, "ace_std": ace / float(sd)},
                   allv.size, details)


def _stratified_ace(g: Column, y: Column, cov: Column, keys):
    codes, ys, strata = paired(g, y, cov)
    treated, control = (g.view.labels.index(k) for k in keys)
    if cov.kind is Kind.NUMERICAL:  # strata are the distinct values, by str
        strata = ColumnView.encode(Kind.CATEGORICAL, strata.tolist()).data
    arm = (codes == treated) | (codes == control)
    parts = split_by_code(strata[arm] * 2 + (codes[arm] == control), ys[arm])
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


def pse(g: Column, y: Column, opts: MetricOptions = MetricOptions()) -> MetricResult:
    """Path-specific effect via linear mediation on a binary-coded treatment.

    Fits m = a0 + a1*t and y = b0 + b1*t + b2*m by least squares;
    ADE = b1, AIE = a1*b2. The headline value is max(|ADE|, |AIE|) / sd(y).
    Treatments with more than two categories are binarized to the two
    largest groups.
    """
    if opts.mediator is None:
        raise MissingMediatorError("pse requires opts.mediator")
    med = opts.mediator
    if med.kind is not Kind.NUMERICAL:
        raise MissingMediatorError("pse mediator must be numerical")
    groups = _checked_groups(g, y, "pse")
    keys = list(groups)[:2]
    codes, yv, m = paired(g, y, med)
    treated, control = (g.view.labels.index(k) for k in keys)
    arm = (codes == treated) | (codes == control)
    t = (codes[arm] == treated).astype(float)
    m = m[arm]
    yv = yv[arm]
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
    return _result("pse",
                   {"ade": ade, "aie": aie, "total": ade + aie, "pse": raw},
                   t.size, f"treatment={keys[0]!r} mediator={med.name!r}")


METRICS = {
    "max_abs_mean": max_abs_mean,
    "cohens_d": cohens_d,
    "standardized_difference": standardized_difference,
    "causal_effect": causal_effect,
    "pse": pse,
}
