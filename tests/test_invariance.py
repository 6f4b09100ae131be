"""Invariance battery: permutation, relabeling, and affine-scaling checks."""

from biasaudit.metrics import ALL_METRIC_IDS

import invariance_suite


def test_battery_counts_to_one_thousand():
    assert invariance_suite.TOTAL_TRIALS == 1000
    assert len(invariance_suite.RELABEL_METRICS) == 15
    assert len(invariance_suite.AFFINE_METRICS) == 15
    assert set(invariance_suite.RELABEL_METRICS) <= set(ALL_METRIC_IDS)
    assert set(invariance_suite.AFFINE_METRICS) <= set(ALL_METRIC_IDS)


def test_no_violations_across_all_trials():
    total, violations = invariance_suite.run_battery()
    assert total == 1000
    assert violations == [], violations[:10]


def test_monotone_maps_keep_the_rank_based_metrics():
    total, violations = invariance_suite.run_monotone()
    assert total == (len(invariance_suite.MONOTONE_TOL)
                     * invariance_suite.MONOTONE_TRIALS)
    assert violations == [], violations[:10]


def test_second_tier_at_the_sizes_that_change_path():
    total, violations = invariance_suite.run_large()
    assert total == 165  # 55 metric-property pairs x 3 sizes
    assert violations == [], violations[:10]
