"""hsic: the linearly binned estimator over every row, against an exact
V-statistic of the same rows."""

import numpy as np
import pytest

from biasaudit.errors import NumericRangeError
from biasaudit.metrics import num_num
from biasaudit.metrics.num_num import HSIC_GRID, hsic
from biasaudit.tabular import Column
from invariance_suite import AFFINE_TOL

# Far above HSIC_GRID // 2, where rows fall between lattice points, and
# small enough for the n x n reference below.
N = 1000


def pair(n, strength, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = strength * x + np.sqrt(1.0 - strength ** 2) * rng.standard_normal(n)
    return x, y


def run(x, y):
    return hsic(Column("x", x), Column("y", y))


def exact(x, y):
    """nHSIC from the n x n centered Gram matrices, each bandwidth the
    np.median of the positive squared distances over pairs i < j, as in
    oracles.hsic (which test_metrics_oracle runs at n <= 12)."""
    def centered_gram(v):
        d2 = np.square(np.subtract.outer(v, v))
        k = np.exp(d2 / (-2.0 * np.median(d2[np.triu(d2 > 0, k=1)])))
        return k - k.mean(axis=0) - k.mean(axis=1)[:, None] + k.mean()

    kc, lc = centered_gram(x), centered_gram(y)
    nh = (kc * lc).sum() / np.sqrt((kc * kc).sum() * (lc * lc).sum())
    return max(0.0, min(1.0, float(nh)))


def test_every_row_a_lattice_point_gives_the_exact_value():
    # Rounded values tie often, and an even number of distinct-value pairs
    # puts the median between two pairs: the bandwidth must take np.median's
    # midpoint there, not the lower of the two.
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(4, HSIC_GRID // 2 + 1))
        x = np.round(rng.standard_normal(n), 1)
        y = np.round(0.5 * x + rng.standard_normal(n), 1)
        if x.std() == 0 or y.std() == 0:
            continue
        assert run(x, y).raw["nhsic"] == pytest.approx(exact(x, y), abs=1e-12)


def test_row_order_does_not_move_the_value():
    x, y = pair(10_000, 0.3)
    order = np.random.default_rng(1).permutation(x.size)
    assert (run(x[order], y[order]).raw["nhsic"]
            == pytest.approx(run(x, y).raw["nhsic"], abs=1e-12))


@pytest.mark.parametrize("strength", [0.05, 0.45, 0.95])
def test_close_to_the_exact_value_of_the_same_rows(strength):
    x, y = pair(N, strength)
    binned = run(x, y)
    assert binned.n == N
    assert binned.details == f"grid={HSIC_GRID}"
    assert abs(binned.raw["nhsic"] - exact(x, y)) <= 0.01


def test_one_far_outlier_keeps_the_bulk_resolved():
    # A grid spanning [min, max] evenly would put the other rows of x into
    # one or two cells and read about 0.01.
    x, y = pair(N, 0.45)
    x[0] = 1000.0
    assert abs(run(x, y).raw["nhsic"] - exact(x, y)) <= 0.01


def test_a_nan_kernel_term_is_an_error_not_level_one():
    # Scaled into float range, the other rows lie near 1e-165, where the
    # squared lattice differences underflow and the bandwidth is zero. This
    # used to read hsic NaN and nhsic 0.0, the most balanced level.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2000)
    y = x + 0.3 * rng.standard_normal(2000)
    x[0] = 1e165
    with pytest.raises(NumericRangeError, match="^hsic: "):
        run(x, y)


def test_blocks_sum_to_the_one_block_lattice(monkeypatch):
    # Blocks of 700 rows split 3000 rows into five, the last one ragged.
    x, y = pair(3000, 0.45)
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
