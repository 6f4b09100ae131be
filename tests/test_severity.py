"""Severity levels, default threshold bands, and calibration fitting."""

import math

import pytest

from biasaudit.errors import CalibrationError, UnknownMetricError
from biasaudit.metrics import ALL_METRIC_IDS, MetricResult, Scenario
from biasaudit.severity import (
    DEFAULT_TABLE,
    LEVEL_LABELS,
    BiasLevel,
    ThresholdTable,
    calibrate,
    map_to_level,
)


def result(metric_id, raw, scenario=Scenario.CAT_DIST, n=100):
    return MetricResult(metric_id, scenario, raw, n)


class TestLevels:
    def test_labels(self):
        assert LEVEL_LABELS[1] == "most balanced"
        assert LEVEL_LABELS[5] == "most biased"
        assert len(LEVEL_LABELS) == 5

    def test_of_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BiasLevel.of(0)
        with pytest.raises(ValueError):
            BiasLevel.of(6)


class TestMapToLevel:
    def test_uniform_balance_is_level_one(self):
        lvl = map_to_level("shannon_balance",
                           result("shannon_balance", {"balance": 1.0}),
                           DEFAULT_TABLE)
        assert lvl.value == 1

    def test_ratio_published_bands(self):
        # the published max/min-ratio scale: >100 extreme, >10 significant
        cases = [(150.0, 5), (100.5, 5), (100.0, 4), (50.0, 4), (10.0, 3),
                 (5.0, 3), (3.0, 2), (2.0, 2), (1.5, 1), (1.0, 1)]
        for ratio, want in cases:
            lvl = map_to_level("max_min_ratio",
                               result("max_min_ratio", {"ratio": ratio}),
                               DEFAULT_TABLE)
            assert lvl.value == want, f"ratio {ratio}"

    def test_infinite_value_is_level_five(self):
        lvl = map_to_level("max_min_ratio",
                           result("max_min_ratio", {"ratio": math.inf}),
                           DEFAULT_TABLE)
        assert lvl.value == 5

    def test_cut_tie_maps_to_lower_level(self):
        for i, cut in enumerate(DEFAULT_TABLE.cuts("pearson"), start=1):
            lvl = map_to_level("pearson", result("pearson", {"r": cut}),
                               DEFAULT_TABLE)
            assert lvl.value == i

    def test_abs_transform(self):
        lvl = map_to_level("pearson", result("pearson", {"r": -0.9}),
                           DEFAULT_TABLE)
        assert lvl.value == 5

    def test_unknown_metric(self):
        with pytest.raises(UnknownMetricError):
            DEFAULT_TABLE.cuts("nope")

    def test_every_metric_has_a_band(self):
        for metric_id in ALL_METRIC_IDS:
            cuts = DEFAULT_TABLE.cuts(metric_id)
            assert len(cuts) == 4
            assert list(cuts) == sorted(cuts)


class TestThresholdTableSerialization:
    def test_round_trip(self):
        text = DEFAULT_TABLE.to_json()
        back = ThresholdTable.from_json(text)
        assert back.version == DEFAULT_TABLE.version
        for metric_id in ALL_METRIC_IDS:
            assert back.cuts(metric_id) == DEFAULT_TABLE.cuts(metric_id)


def monotone_samples(centers, spread=0.01, reps=4):
    """Five well-separated level populations around the given centers."""
    return {level: [c + spread * (i - reps / 2) for i in range(reps)]
            for level, c in zip(range(1, 6), centers)}


class TestCalibrate:
    def test_monotone_suite_separates(self):
        samples = {"shannon_balance": monotone_samples([0.05, 0.2, 0.4, 0.6, 0.8])}
        table, report = calibrate(samples, DEFAULT_TABLE)
        cuts = table.cuts("shannon_balance")
        assert list(cuts) == sorted(cuts)
        assert report.per_metric["shannon_balance"].accuracy_after >= 0.9
        assert "shannon_balance" not in report.inseparable

    def test_single_level_coverage_failure(self):
        samples = {"pearson": {3: [0.1, 0.2, 0.3]}}
        with pytest.raises(CalibrationError):
            calibrate(samples, DEFAULT_TABLE)

    def test_already_perfect_suite_preserved(self):
        # values sitting comfortably inside each default level
        samples = {"pearson": monotone_samples([0.05, 0.2, 0.4, 0.6, 0.85],
                                               spread=0.002)}
        table, report = calibrate(samples, DEFAULT_TABLE)
        assert report.per_metric["pearson"].accuracy_after == 1.0
        before = report.per_metric["pearson"].accuracy_before
        assert before == 1.0
        # accuracy is preserved even if the cuts moved
        assert report.per_metric["pearson"].accuracy_after >= before

    def test_improve_or_preserve(self):
        # overlapping populations: fitted accuracy never drops below initial
        samples = {"nmi": {lv: [0.1 * lv + 0.05 * (i % 3) for i in range(4)]
                           for lv in range(1, 6)}}
        _, report = calibrate(samples, DEFAULT_TABLE)
        c = report.per_metric["nmi"]
        assert c.accuracy_after >= c.accuracy_before

    def test_inseparable_flagged_not_fatal(self):
        # identical populations at every level cannot be split
        samples = {"wasserstein": {lv: [0.5, 0.5, 0.5, 0.5]
                                   for lv in range(1, 6)}}
        table, report = calibrate(samples, DEFAULT_TABLE)
        assert report.inseparable == ["wasserstein"]
        # the initial band survives
        assert table.cuts("wasserstein") == DEFAULT_TABLE.cuts("wasserstein")
