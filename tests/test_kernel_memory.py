"""The kernel metrics allocate a bounded amount of memory at large n."""

import tracemalloc

import numpy as np
# np.unique imports numpy.ma on its first call; importing it here keeps that
# one-time import out of the first traced metric's peak.
import numpy.ma  # noqa: F401
import pytest

from biasaudit.metrics.num_num import hgr_approximation, hsic
from biasaudit.tabular import Column, Kind


def _pair(n):
    rng = np.random.default_rng(0)
    x = rng.normal(size=n)
    y = 0.5 * x + rng.normal(size=n)
    return (Column.of("x", Kind.NUMERICAL, tuple(x.tolist())),
            Column.of("y", Kind.NUMERICAL, tuple(y.tolist())))


# hgr and hsic bin rows in blocks onto a fixed lattice at every n, so their
# peak is a few copies of the columns (each column's int32 sort order, which
# stays shared while the columns live, and each row's lattice coordinate on
# each axis: 3.5 MiB for hgr at 100_000 rows), with no lattice * n or n x n
# buffer; one 2000 x 2000 float64 array alone is 30.5 MiB.
@pytest.mark.parametrize("metric, n, limit_mb", [
    (hgr_approximation, 100_000, 4),
    (hsic, 2_000, 2),
    (hsic, 10_000, 2),
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
