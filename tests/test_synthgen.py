"""Synthetic generators: null behavior, strength targets, graded suites."""

import pytest

from biasaudit.errors import InvalidSpecError
from biasaudit.metrics import Scenario, run_metric
from biasaudit.synthgen import (
    GRADE_SIZES,
    LEVEL_STRENGTHS,
    SynthSpec,
    collect_calibration_samples,
    generate,
    grade_suite,
)


class TestSpecValidation:
    def test_strength_range(self):
        with pytest.raises(InvalidSpecError):
            SynthSpec(Scenario.CAT_DIST, n=100, strength=1.5)
        with pytest.raises(InvalidSpecError):
            SynthSpec(Scenario.CAT_DIST, n=100, strength=-0.1)

    def test_minimum_size(self):
        with pytest.raises(InvalidSpecError):
            SynthSpec(Scenario.CAT_DIST, n=5, strength=0.5)


class TestNullBehavior:
    def test_cat_dist_null_balance(self):
        t = generate(SynthSpec(Scenario.CAT_DIST, n=10000, strength=0.0, k=4))
        r = run_metric("shannon_balance", t.columns)
        assert r.raw["balance"] == pytest.approx(1.0, abs=0.01)

    def test_cat_cat_null_association(self):
        t = generate(SynthSpec(Scenario.CAT_CAT, n=10000, strength=0.0, k=3))
        r = run_metric("cramers_v", t.columns)
        assert r.raw["v"] == pytest.approx(0.0, abs=0.05)

    def test_num_num_null_correlation(self):
        t = generate(SynthSpec(Scenario.NUM_NUM, n=10000, strength=0.0))
        r = run_metric("pearson", t.columns)
        assert r.raw["r"] == pytest.approx(0.0, abs=0.05)

    def test_cat_num_null_effect(self):
        t = generate(SynthSpec(Scenario.CAT_NUM, n=10000, strength=0.0))
        r = run_metric("causal_effect", t.columns)
        assert r.raw["ace"] == pytest.approx(0.0, abs=0.1)


class TestStrengthTargets:
    def test_num_num_correlation_tracks_strength(self):
        t = generate(SynthSpec(Scenario.NUM_NUM, n=10000, strength=0.9, seed=1))
        r = run_metric("pearson", t.columns)
        assert r.raw["r"] == pytest.approx(0.9, abs=0.02)

    def test_cat_num_effect_size_tracks_strength(self):
        t = generate(SynthSpec(Scenario.CAT_NUM, n=10000, strength=0.25, seed=1))
        r = run_metric("cohens_d", t.columns)
        assert r.raw["d"] == pytest.approx(0.5, abs=0.05)


class TestDeterminism:
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_same_seed_same_table(self, scenario):
        spec = SynthSpec(scenario, n=200, strength=0.6, k=3, seed=11)
        a = generate(spec)
        b = generate(spec)
        for ca, cb in zip(a.columns, b.columns):
            assert ca.cells() == cb.cells()


class TestGradeSuite:
    def test_fifteen_specs_per_scenario(self):
        suite = grade_suite(Scenario.CAT_DIST, levels=range(1, 6))
        assert len(suite) == 15
        assert sorted({s.n for s, _ in suite}) == sorted(GRADE_SIZES)

    def test_empty_levels(self):
        assert grade_suite(Scenario.CAT_DIST, levels=[]) == []

    def test_strengths_increase_with_level(self):
        suite = grade_suite(Scenario.NUM_DIST, levels=range(1, 6))
        by_level = {}
        for spec, level in suite:
            by_level[level] = spec.strength
        strengths = [by_level[lv] for lv in sorted(by_level)]
        assert strengths == sorted(strengths)
        assert strengths == [LEVEL_STRENGTHS[lv] for lv in range(1, 6)]


class TestCalibrationSamples:
    def test_mediation_metric_dropped_without_mediator(self):
        suite = grade_suite(Scenario.CAT_NUM, levels=range(1, 6))
        samples = collect_calibration_samples(suite)
        assert "pse" not in samples
        assert "cohens_d" in samples

    def test_samples_cover_all_levels(self):
        suite = grade_suite(Scenario.CAT_DIST, levels=range(1, 6))
        samples = collect_calibration_samples(suite)
        for metric_id, by_level in samples.items():
            assert sorted(by_level) == [1, 2, 3, 4, 5], metric_id
            assert all(len(v) == 3 for v in by_level.values())
