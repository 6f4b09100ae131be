"""The kernel metrics allocate a bounded amount of memory at large n."""

import tracemalloc

import numpy as np
import pytest

from biasaudit.metrics.num_num import hgr_approximation, hsic
from biasaudit.tabular import Column, Kind


def _pair(n):
    rng = np.random.default_rng(0)
    x = rng.normal(size=n)
    y = 0.5 * x + rng.normal(size=n)
    return (Column.of("x", Kind.NUMERICAL, tuple(x.tolist())),
            Column.of("y", Kind.NUMERICAL, tuple(y.tolist())))


# hgr, and hsic above HSIC_MAX_N, bin rows in blocks onto a fixed lattice,
# so their peak is a few copies of the columns (the paired columns and one
# sorted copy for the knots, 2.9 MiB for hgr at 100_000 rows), with no
# lattice * n or n x n buffer.
@pytest.mark.parametrize("metric, n, limit_mb", [
    (hgr_approximation, 100_000, 4),
    (hsic, 10_000, 120),
    (hsic, 100_000, 8),
])
def test_peak_allocation(metric, n, limit_mb):
    x, y = _pair(n)
    tracemalloc.start()
    try:
        metric(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 <= limit_mb
