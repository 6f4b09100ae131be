"""Severity mapping: raw metric values -> the five bias levels.

Every metric's spec in :data:`biasaudit.metrics.METRICS` designates one raw
scalar and a transform that makes "higher means more biased" true, after
which the level is determined by the four strictly increasing cut-points a
:class:`ThresholdTable` holds for the metric. Ties at a cut-point map to the
lower level (strict comparison).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import (
    CalibrationError,
    NumericRangeError,
    SchemaError,
    UnknownMetricError,
)
from .metrics import METRICS, MetricResult

LEVEL_LABELS = {
    1: "most balanced",
    2: "balanced",
    3: "moderately biased",
    4: "biased",
    5: "most biased",
}

_TRANSFORMS = {
    "identity": lambda v: v,
    "abs": abs,
    "one_minus": lambda v: 1.0 - v,
}


@dataclass(frozen=True)
class BiasLevel:
    value: int
    label: str

    @classmethod
    def of(cls, value: int) -> "BiasLevel":
        if value not in LEVEL_LABELS:
            raise ValueError(f"bias level must be 1..5, got {value}")
        return cls(value, LEVEL_LABELS[value])


@dataclass(frozen=True)
class ThresholdTable:
    bands: dict  # metric_id -> 4 strictly increasing cut-points
    version: str = "default-v1"

    def cuts(self, metric_id: str) -> tuple:
        try:
            return self.bands[metric_id]
        except KeyError:
            raise UnknownMetricError(
                f"no threshold band for metric {metric_id!r}") from None

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "bands": {
                mid: {"raw_key": METRICS[mid].raw_key,
                      "transform": METRICS[mid].transform, "cuts": list(cuts)}
                for mid, cuts in sorted(self.bands.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ThresholdTable":
        """Parse :meth:`to_json` output; a malformed table, one without a
        band for every metric, a band for an id that is not a metric, or a
        band that grades another raw value than its metric's ``raw_key``
        under its ``transform`` raises :class:`SchemaError`."""
        try:
            payload = json.loads(text)
            graded, bands = {}, {}
            for mid, b in payload["bands"].items():
                graded[mid] = (b["raw_key"], b["transform"])
                bands[mid] = _checked_band(b["transform"],
                                           tuple(map(float, b["cuts"])))
            version = payload.get("version", "unversioned")
        except KeyError as exc:
            raise SchemaError(f"threshold table: missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise SchemaError(f"threshold table: {exc}") from exc
        unknown = sorted(set(bands) - set(METRICS))
        if unknown:
            raise SchemaError(f"threshold table: bands for unknown metrics {unknown}")
        for mid, (raw_key, transform) in graded.items():
            spec = METRICS[mid]
            if (raw_key, transform) != (spec.raw_key, spec.transform):
                raise SchemaError(
                    f"threshold table: {mid} band must grade {spec.raw_key!r} "
                    f"with {spec.transform!r}, got {raw_key!r} with "
                    f"{transform!r}")
        missing = [m for m in METRICS if m not in bands]
        if missing:
            raise SchemaError(f"threshold table: no band for {missing}")
        return cls(bands=bands, version=version)


def _checked_band(transform: str, cuts: tuple) -> tuple:
    """``cuts`` if ``transform`` is known and they are 4 strictly increasing
    reals, else a ValueError."""
    if transform not in _TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}")
    if len(cuts) != 4 or any(a >= b for a, b in zip(cuts, cuts[1:])):
        raise ValueError(f"cut-points must be 4 strictly increasing reals: {cuts}")
    return cuts


def graded_value(result: MetricResult) -> float:
    """The value a metric's level is read from: its spec's ``raw_key``
    under its ``transform``, so that higher means more biased. A NaN value
    has no level and raises NumericRangeError."""
    spec = METRICS[result.metric_id]
    value = _TRANSFORMS[spec.transform](result.raw[spec.raw_key])
    if math.isnan(value):
        raise NumericRangeError(f"{result.metric_id}: {spec.raw_key} is NaN, "
                                f"which has no bias level")
    return value


def map_to_level(result: MetricResult, table: ThresholdTable) -> BiasLevel:
    cuts = table.cuts(result.metric_id)
    return BiasLevel.of(_level(graded_value(result), cuts))


def _level(value: float, cuts) -> int:
    """5 for an infinite value, else 1 plus the number of cuts below it."""
    if math.isinf(value):
        return 5
    return 1 + sum(1 for c in cuts if c < value)


# The max/min-ratio cuts (1.5, 3, 10, 100) anchor the published thresholds
# for that metric; the rest are engineering defaults meant to be refined by
# calibrate() against the synthetic suites.
_D_FAMILY = (0.1, 0.25, 0.5, 1.0)
_TVD_FAMILY = (0.05, 0.1, 0.2, 0.35)

DEFAULT_CUTS = {
    "shannon_balance": (0.1, 0.25, 0.5, 0.75),
    "max_min_ratio": (1.5, 3.0, 10.0, 100.0),
    "entropy": (0.1, 0.25, 0.5, 0.75),
    "gini": (0.1, 0.25, 0.5, 0.75),
    "relative_risk": _D_FAMILY,
    "skewness": (0.5, 1.0, 2.0, 3.0),
    "kurtosis": (1.0, 2.0, 4.0, 7.0),
    "outlier": (0.005, 0.01, 0.03, 0.05),
    "cohens_d_mad": _D_FAMILY,
    "quantile_deviation": (0.05, 0.1, 0.2, 0.35),
    "cramers_v": (0.1, 0.25, 0.45, 0.65),
    "elift": (1.1, 1.5, 2.0, 3.0),
    "statistical_parity": _TVD_FAMILY,
    "lipschitz": _TVD_FAMILY,
    "total_variation": _TVD_FAMILY,
    "max_abs_mean": _D_FAMILY,
    "cohens_d": _D_FAMILY,
    "standardized_difference": _D_FAMILY,
    "causal_effect": _D_FAMILY,
    "pse": _D_FAMILY,
    "pearson": (0.1, 0.3, 0.5, 0.7),
    "nmi": (0.05, 0.15, 0.3, 0.5),
    "hgr_approximation": (0.1, 0.25, 0.45, 0.65),
    "wasserstein": _D_FAMILY,
    "hsic": (0.05, 0.15, 0.3, 0.5),
}

DEFAULT_TABLE = ThresholdTable(bands=DEFAULT_CUTS, version="default-v1")


@dataclass(frozen=True)
class MetricCalibration:
    metric_id: str
    accuracy_before: float
    accuracy_after: float
    separable: bool
    cases: int


@dataclass(frozen=True)
class CalibrationReport:
    per_metric: dict  # metric_id -> MetricCalibration

    @property
    def inseparable(self) -> list:
        return sorted(m for m, c in self.per_metric.items() if not c.separable)

    def to_markdown(self) -> str:
        lines = ["# Calibration report", "",
                 "| metric | cases | before | after | separable |",
                 "|---|---|---|---|---|"]
        for mid in sorted(self.per_metric):
            c = self.per_metric[mid]
            lines.append(f"| {mid} | {c.cases} | {c.accuracy_before:.3f} "
                         f"| {c.accuracy_after:.3f} | {'yes' if c.separable else 'NO'} |")
        if self.inseparable:
            lines += ["", "Inseparable metrics: " + ", ".join(self.inseparable)]
        return "\n".join(lines) + "\n"


MIN_CALIBRATION_ACCURACY = 0.9


def calibrate(samples: dict, initial: ThresholdTable):
    """Fit cut-points from per-level raw samples.

    ``samples`` maps metric_id -> {level: [transformed values]}. Each metric
    must cover all five levels with >= 3 replicates each. Cut-points are
    placed at the best 1-D split between adjacent level populations; a
    metric whose resulting accuracy falls below 90% is flagged inseparable
    (reported, not fatal) and keeps its initial band. Accuracy never
    decreases: the initial cuts win when they classify the suite better.

    Returns ``(table, report)``.
    """
    new_bands = dict(initial.bands)
    per_metric = {}
    for metric_id, by_level in sorted(samples.items()):
        initial_cuts = initial.cuts(metric_id)
        _check_coverage(metric_id, by_level)
        before = _suite_accuracy(by_level, initial_cuts)
        cuts = _fit_cuts(by_level)
        after = before
        if cuts is not None:
            fitted = _suite_accuracy(by_level, cuts)
            if fitted > before:
                new_bands[metric_id] = cuts
                after = fitted
        cases = sum(len(v) for v in by_level.values())
        per_metric[metric_id] = MetricCalibration(
            metric_id, before, after, after >= MIN_CALIBRATION_ACCURACY, cases)
    return (ThresholdTable(bands=new_bands, version="calibrated-v1"),
            CalibrationReport(per_metric=per_metric))


def _check_coverage(metric_id, by_level):
    missing = [lv for lv in range(1, 6) if len(by_level.get(lv, [])) < 3]
    if missing:
        raise CalibrationError(
            f"{metric_id}: calibration suite needs >= 3 replicates for "
            f"every level; missing/short levels {missing}")


def _fit_cuts(by_level):
    """Four strictly increasing cuts via best-split between adjacent levels."""
    cuts = []
    for boundary in range(1, 5):
        lo = sorted(v for lv in range(1, boundary + 1) for v in by_level[lv])
        hi = sorted(v for lv in range(boundary + 1, 6) for v in by_level[lv])
        cuts.append(_best_split(lo, hi))
    # Enforce strict monotonicity; overlapping populations can collapse cuts.
    eps = 1e-12
    for i in range(1, 4):
        if cuts[i] <= cuts[i - 1]:
            span = max(abs(cuts[i - 1]), 1.0)
            cuts[i] = cuts[i - 1] + eps * span + eps
    if any(not math.isfinite(c) for c in cuts):
        return None
    return tuple(cuts)


def _best_split(lo, hi):
    """Threshold minimizing misclassification of lo (<= t) vs hi (> t)."""
    if max(lo) < min(hi):
        return (max(lo) + min(hi)) / 2.0
    candidates = sorted(set(lo) | set(hi))
    best_t, best_err = candidates[0], float("inf")
    for i, t in enumerate(candidates):
        err = sum(1 for v in lo if v > t) + sum(1 for v in hi if v <= t)
        if err < best_err:
            best_t, best_err = t, err
    return best_t


def _suite_accuracy(by_level, cuts):
    total = correct = 0
    for level, values in by_level.items():
        for v in values:
            total += 1
            correct += _level(v, cuts) == level
    return correct / total if total else 0.0
