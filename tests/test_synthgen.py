"""Synthetic generators: null behavior, strength targets, graded suites,
pinned output and memory."""

import hashlib
import io
import statistics
import tracemalloc

import numpy as np
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
    normal_quantiles,
)
from biasaudit.tabular import write_table


class TestSpecValidation:
    def test_strength_range(self):
        with pytest.raises(InvalidSpecError):
            SynthSpec(Scenario.CAT_DIST, n=100, strength=1.5)
        with pytest.raises(InvalidSpecError):
            SynthSpec(Scenario.CAT_DIST, n=100, strength=-0.1)

    def test_minimum_size(self):
        with pytest.raises(InvalidSpecError):
            SynthSpec(Scenario.CAT_DIST, n=5, strength=0.5)

    def test_negative_seed(self):
        with pytest.raises(InvalidSpecError, match="seed must be >= 0, got -1"):
            SynthSpec(Scenario.CAT_DIST, n=100, strength=0.5, seed=-1)


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


# The sha256 of each spec's CSV text, with the spec spelt out as the test
# id. The first two cat_dist tables leave labels out (c3-c11; c11), and
# num_dist at strength 0 is the plain normal.
PINNED = [
    (SynthSpec(Scenario.CAT_DIST, 10, 1.0, 12, 0),
     "synth-cat_dist-s1.0-n10-k12-seed0",
     "9b83a0a451d63e9ffdbdb987d734232452d423555aa6e0ee816d0e3ce83db656"),
    (SynthSpec(Scenario.CAT_DIST, 15, 0.2, 12, 0),
     "synth-cat_dist-s0.2-n15-k12-seed0",
     "fbd4342f20638972faf915362434c88b5ca3155d1798598797b64f6b24ecaa98"),
    (SynthSpec(Scenario.CAT_DIST, 500, 0.6, 4, 3),
     "synth-cat_dist-s0.6-n500-k4-seed3",
     "b2856ef893da1d73fb1a8dfdce62743cc2903f18e46dc332b1b9ccbfe5a07394"),
    (SynthSpec(Scenario.NUM_DIST, 37, 0.0, 2, 1),
     "synth-num_dist-s0.0-n37-k2-seed1",
     "603c4aa836d5e0966a572c17515ce84c24f6f1e403f5c78660dbb1a0a71dcb07"),
    (SynthSpec(Scenario.NUM_DIST, 500, 0.6, 2, 3),
     "synth-num_dist-s0.6-n500-k2-seed3",
     "b6a5e53e1893b038e3c8f215412de6644199901ab1f6af98e88387454cbe8cd2"),
    (SynthSpec(Scenario.CAT_CAT, 500, 0.6, 3, 3),
     "synth-cat_cat-s0.6-n500-k3-seed3",
     "e9c1e8991a67779f3713cc7ffb651b2d7abd4e99d0da252076b0752b763806d8"),
    (SynthSpec(Scenario.CAT_NUM, 500, 0.6, 2, 3),
     "synth-cat_num-s0.6-n500-k2-seed3",
     "7d3be4c3f4391f1f70cd7a36c3b26d6105e7835c0401d0ca2bee2fd7d4c5a9e5"),
    (SynthSpec(Scenario.NUM_NUM, 500, 0.6, 2, 3),
     "synth-num_num-s0.6-n500-k2-seed3",
     "b7310bfd97eb7519360e8776d8d1bd8dc1b0d96188a648a6ff9ade7c58b2c936"),
]


@pytest.mark.parametrize("spec, digest", [(s, d) for s, _, d in PINNED],
                         ids=[name for _, name, _ in PINNED])
def test_pinned_output(spec, digest):
    table = generate(spec)
    buf = io.StringIO()
    write_table(table, buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


def test_labels_in_use_sorted_by_str():
    column = generate(PINNED[1][0]).columns[0]
    assert column.labels == ("c0", "c1", "c10", *(f"c{i}" for i in range(2, 10)))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestNormalQuantiles:
    """num_dist's quantiles are statistics.NormalDist().inv_cdf's, bit for
    bit, so vectorising them moves no table."""
    inv_cdf = staticmethod(statistics.NormalDist().inv_cdf)

    def same_bits(self, p):
        expected = [self.inv_cdf(v) for v in p.tolist()]
        np.testing.assert_array_equal(_bits(normal_quantiles(p)),
                                      _bits(expected))

    def test_every_grid_from_10_to_3000_rows(self):
        grids = [(np.arange(n) + 0.5) / n for n in range(10, 3001)]
        self.same_bits(np.concatenate(grids))

    @pytest.mark.parametrize("n", [*GRADE_SIZES, 200_000])
    def test_suite_sizes(self, n):
        self.same_bits((np.arange(n) + 0.5) / n)

    def test_random_p_and_far_tails(self):
        rng = np.random.default_rng(5)
        tails = 10.0 ** -rng.uniform(0, 300, 20_000)
        p = np.concatenate([rng.random(100_000), tails, 1.0 - tails,
                            [1e-300, 0.075, 0.925, 0.5, 1 - 2 ** -53]])
        self.same_bits(p[(p > 0) & (p < 1)])


# A 10^5-row column takes 0.76 MiB as float64 or intp codes; num_dist also
# holds a Python float per tail row while it computes its normal quantiles.
@pytest.mark.parametrize("scenario, peak_mb", [
    (Scenario.CAT_DIST, 5), (Scenario.NUM_DIST, 6), (Scenario.CAT_CAT, 5),
    (Scenario.CAT_NUM, 5), (Scenario.NUM_NUM, 5)])
def test_generate_memory(scenario, peak_mb):
    generate(SynthSpec(scenario, 100, 0.5, 4))  # first-use imports
    tracemalloc.start()
    try:
        table = generate(SynthSpec(scenario, 100_000, 0.5, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.row_count == 100_000
    assert peak / 2 ** 20 <= peak_mb


class TestGradeSuite:
    def test_fifteen_specs_per_scenario(self):
        suite = grade_suite(Scenario.CAT_DIST, levels=range(1, 6))
        assert len(suite) == 15
        assert sorted({s.n for s, _ in suite}) == sorted(GRADE_SIZES)

    def test_empty_levels(self):
        assert grade_suite(Scenario.CAT_DIST, levels=[]) == []

    def test_base_seed_floor_names_the_value_given(self):
        suite = grade_suite(Scenario.CAT_DIST, levels=range(1, 6),
                            base_seed=-1000)
        assert min(s.seed for s, _ in suite) == 0
        with pytest.raises(InvalidSpecError,
                           match="seed must be >= -1000, got -1001"):
            grade_suite(Scenario.CAT_DIST, levels=range(1, 6),
                        base_seed=-1001)

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
