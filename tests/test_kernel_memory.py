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
    return (Column("x", Kind.NUMERICAL, tuple(x.tolist())),
            Column("y", Kind.NUMERICAL, tuple(y.tolist())))


# hgr's KDE lattice is built in blocks of points, so its peak does not grow
# with kde_grid * n; hsic's three 2048 x 2048 Gram-size buffers take 96 MiB.
@pytest.mark.parametrize("metric, n, limit_mb", [
    (hgr_approximation, 100_000, 32),
    (hsic, 10_000, 120),
])
def test_peak_allocation(metric, n, limit_mb):
    x, y = _pair(n)
    x.view, y.view  # encode the columns outside the measured call
    tracemalloc.start()
    try:
        metric(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2 ** 20 <= limit_mb
