"""hsic above HSIC_MAX_N: the linearly binned estimator over every row."""

import numpy as np
import pytest

from biasaudit.metrics import num_num
from biasaudit.metrics.num_num import HSIC_GRID, HSIC_MAX_N, hsic
from biasaudit.tabular import Column
from invariance_suite import AFFINE_TOL

# Just above HSIC_MAX_N, and small enough for the exact reference below.
N = 3000


def pair(n, strength, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = strength * x + np.sqrt(1.0 - strength ** 2) * rng.standard_normal(n)
    return x, y


def run(x, y):
    return hsic(Column("x", x), Column("y", y))


def exact(monkeypatch, x, y):
    """The exact Gram path on all rows; test_metrics_oracle holds that path
    to oracles.hsic at 1e-9, which is too slow to run at this n."""
    with monkeypatch.context() as patch:
        patch.setattr(num_num, "HSIC_MAX_N", x.size)
        result = run(x, y)
    assert result.details == f"gram_n={x.size}"
    return result.raw["nhsic"]


def test_row_order_does_not_move_the_value():
    x, y = pair(10_000, 0.3)
    order = np.random.default_rng(1).permutation(x.size)
    assert (run(x[order], y[order]).raw["nhsic"]
            == pytest.approx(run(x, y).raw["nhsic"], abs=1e-12))


@pytest.mark.parametrize("strength", [0.05, 0.45, 0.95])
def test_close_to_the_exact_value_of_the_same_rows(monkeypatch, strength):
    assert N > HSIC_MAX_N
    x, y = pair(N, strength)
    binned = run(x, y)
    assert binned.n == N
    assert binned.details == f"grid={HSIC_GRID}"
    assert abs(binned.raw["nhsic"] - exact(monkeypatch, x, y)) <= 0.01


def test_one_far_outlier_keeps_the_bulk_resolved(monkeypatch):
    # A grid spanning [min, max] evenly would put the other rows of x into
    # one or two cells and read about 0.01.
    x, y = pair(N, 0.45)
    x[0] = 1000.0
    binned = run(x, y).raw["nhsic"]
    assert abs(binned - exact(monkeypatch, x, y)) <= 0.01


def test_blocks_sum_to_the_one_block_lattice(monkeypatch):
    # Blocks of 700 rows split the 3000 into five, the last one ragged.
    x, y = pair(N, 0.45)
    whole = run(x, y).raw
    monkeypatch.setattr(num_num, "_BIN_BLOCK", 700)
    blocked = run(x, y).raw
    for key in ("hsic", "nhsic"):
        assert blocked[key] == pytest.approx(whole[key], rel=1e-12, abs=0)


def test_affine_rescaling_keeps_the_value():
    x, y = pair(5000, 0.45)
    reference = run(x, y).raw["nhsic"]
    assert run(3.7 * x - 12.0, y).raw["nhsic"] == pytest.approx(
        reference, abs=AFFINE_TOL)
    assert run(x, 0.02 * y + 5.0).raw["nhsic"] == pytest.approx(
        reference, abs=AFFINE_TOL)
