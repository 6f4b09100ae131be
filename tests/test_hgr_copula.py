"""hgr_approximation on the binned empirical copula."""

import numpy as np
import pytest

from biasaudit.metrics import num_num
from biasaudit.metrics.num_num import hgr_approximation
from biasaudit.tabular import Column


def pair(n, strength, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = strength * x + np.sqrt(1.0 - strength ** 2) * rng.standard_normal(n)
    return x, y


def run(x, y):
    return hgr_approximation(Column("x", x.copy()), Column("y", y.copy())).raw


def test_one_far_outlier_keeps_the_value():
    # A lattice spanning the standardized values evenly put the other rows
    # of x into one or two cells and read 0.034 where the clean rows read
    # 0.412.
    x, y = pair(3000, 0.45)
    clean = run(x, y)["hgr"]
    x[0] = 1000.0
    assert run(x, y)["hgr"] == pytest.approx(clean, abs=0.01)


@pytest.mark.parametrize("tied", [False, True])
def test_row_order_does_not_move_the_value(tied):
    x, y = pair(10_000, 0.3)
    if tied:
        x, y = np.round(3 * x), np.round(3 * y)
    order = np.random.default_rng(1).permutation(x.size)
    whole, shuffled = run(x, y), run(x[order], y[order])
    for key in ("hgr", "chi2_divergence"):
        assert shuffled[key] == pytest.approx(whole[key], abs=1e-12)


def test_blocks_sum_to_the_one_block_lattice(monkeypatch):
    # Blocks of 700 rows split the 3000 into five, the last one ragged.
    x, y = pair(3000, 0.45)
    whole = run(x, y)
    monkeypatch.setattr(num_num, "_BIN_BLOCK", 700)
    blocked = run(x, y)
    for key in ("hgr", "chi2_divergence"):
        assert blocked[key] == pytest.approx(whole[key], abs=1e-12)


@pytest.mark.parametrize("n", [300, 1000, 5000, 20_000])
def test_increasing_maps_keep_the_value(n):
    # A KDE on standardized values moved by up to 0.30 under these maps.
    x, y = pair(n, 0.45, seed=n)
    assert run(np.exp(2.0 * x), y ** 3)["hgr"] == pytest.approx(
        run(x, y)["hgr"], abs=1e-3)
