"""Severity mapping: raw metric values -> the five bias levels.

Every metric designates one raw scalar and a transform that makes "higher
means more biased" true, after which the level is determined by four
strictly increasing cut-points. Ties at a cut-point map to the lower level
(strict comparison).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import CalibrationError, SchemaError, UnknownMetricError
from .metrics import ALL_METRIC_IDS, MetricResult

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
class MetricBand:
    raw_key: str
    transform: str  # identity | abs | one_minus
    cuts: tuple

    def __post_init__(self):
        if self.transform not in _TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")
        if len(self.cuts) != 4 or any(a >= b for a, b in zip(self.cuts, self.cuts[1:])):
            raise ValueError(f"cut-points must be 4 strictly increasing reals: {self.cuts}")

    def transformed(self, raw: dict) -> float:
        return _TRANSFORMS[self.transform](raw[self.raw_key])


@dataclass(frozen=True)
class ThresholdTable:
    bands: dict  # metric_id -> MetricBand
    version: str = "default-v1"

    def band(self, metric_id: str) -> MetricBand:
        try:
            return self.bands[metric_id]
        except KeyError:
            raise UnknownMetricError(
                f"no threshold band for metric {metric_id!r}") from None

    def to_json(self) -> str:
        payload = {
            "version": self.version,
            "bands": {
                mid: {"raw_key": b.raw_key, "transform": b.transform,
                      "cuts": list(b.cuts)}
                for mid, b in sorted(self.bands.items())
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ThresholdTable":
        """Parse :meth:`to_json` output; a malformed table, one without a
        band for every metric, a band for an id that is not a metric, or a
        band that grades another raw value than the default band raises
        :class:`SchemaError`."""
        try:
            payload = json.loads(text)
            bands = {
                mid: MetricBand(b["raw_key"], b["transform"],
                                tuple(map(float, b["cuts"])))
                for mid, b in payload["bands"].items()
            }
            version = payload.get("version", "unversioned")
        except KeyError as exc:
            raise SchemaError(f"threshold table: missing field {exc}") from exc
        except (AttributeError, TypeError, ValueError) as exc:
            raise SchemaError(f"threshold table: {exc}") from exc
        unknown = sorted(set(bands) - set(ALL_METRIC_IDS))
        if unknown:
            raise SchemaError(f"threshold table: bands for unknown metrics {unknown}")
        for mid, band in bands.items():
            default = DEFAULT_BANDS[mid]
            if (band.raw_key, band.transform) != (default.raw_key, default.transform):
                raise SchemaError(
                    f"threshold table: {mid} band must grade {default.raw_key!r} "
                    f"with {default.transform!r}, got {band.raw_key!r} with "
                    f"{band.transform!r}")
        missing = [m for m in ALL_METRIC_IDS if m not in bands]
        if missing:
            raise SchemaError(f"threshold table: no band for {missing}")
        return cls(bands=bands, version=version)


def map_to_level(metric_id: str, result: MetricResult,
                 table: ThresholdTable) -> BiasLevel:
    band = table.band(metric_id)
    return BiasLevel.of(_level(band.transformed(result.raw), band.cuts))


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

DEFAULT_BANDS = {
    "shannon_balance": MetricBand("balance", "one_minus", (0.1, 0.25, 0.5, 0.75)),
    "max_min_ratio": MetricBand("ratio", "identity", (1.5, 3.0, 10.0, 100.0)),
    "entropy": MetricBand("H_norm", "one_minus", (0.1, 0.25, 0.5, 0.75)),
    "gini": MetricBand("G_norm", "one_minus", (0.1, 0.25, 0.5, 0.75)),
    "relative_risk": MetricBand("max_abs_deviation", "identity", _D_FAMILY),
    "skewness": MetricBand("g1", "abs", (0.5, 1.0, 2.0, 3.0)),
    "kurtosis": MetricBand("g2", "abs", (1.0, 2.0, 4.0, 7.0)),
    "outlier": MetricBand("fraction", "identity", (0.005, 0.01, 0.03, 0.05)),
    "cohens_d_mad": MetricBand("d", "abs", _D_FAMILY),
    "quantile_deviation": MetricBand("deviation", "identity", (0.05, 0.1, 0.2, 0.35)),
    "cramers_v": MetricBand("v", "identity", (0.1, 0.25, 0.45, 0.65)),
    "elift": MetricBand("max_elift", "identity", (1.1, 1.5, 2.0, 3.0)),
    "statistical_parity": MetricBand("max_delta", "identity", _TVD_FAMILY),
    "lipschitz": MetricBand("lipschitz", "identity", _TVD_FAMILY),
    "total_variation": MetricBand("tvd", "identity", _TVD_FAMILY),
    "max_abs_mean": MetricBand("n_value", "identity", _D_FAMILY),
    "cohens_d": MetricBand("d", "identity", _D_FAMILY),
    "standardized_difference": MetricBand("sd", "identity", _D_FAMILY),
    "causal_effect": MetricBand("ace_std", "abs", _D_FAMILY),
    "pse": MetricBand("pse", "identity", _D_FAMILY),
    "pearson": MetricBand("r", "abs", (0.1, 0.3, 0.5, 0.7)),
    "nmi": MetricBand("nmi", "identity", (0.05, 0.15, 0.3, 0.5)),
    "hgr_approximation": MetricBand("hgr", "identity", (0.1, 0.25, 0.45, 0.65)),
    "wasserstein": MetricBand("w2", "identity", _D_FAMILY),
    "hsic": MetricBand("nhsic", "identity", (0.05, 0.15, 0.3, 0.5)),
}

DEFAULT_TABLE = ThresholdTable(bands=DEFAULT_BANDS, version="default-v1")


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
        band = initial.band(metric_id)
        _check_coverage(metric_id, by_level)
        before = _suite_accuracy(by_level, band.cuts)
        cuts = _fit_cuts(by_level)
        after = before
        if cuts is not None:
            fitted = _suite_accuracy(by_level, cuts)
            if fitted > before:
                new_bands[metric_id] = MetricBand(band.raw_key, band.transform, cuts)
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
