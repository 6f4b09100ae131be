"""load_table holds one block of raw text at a time, so a loaded table costs
its column arrays plus a small constant."""

import tracemalloc

import numpy as np
import pytest

from biasaudit.tabular import load_table

N = 100_000


def _write_csv(path, header, rows):
    path.write_text(",".join(header) + "\n" + "".join(
        ",".join(row) + "\n" for row in rows), encoding="utf-8")


def _floats(rng, n):
    return [(repr(a), repr(b)) for a, b in rng.normal(size=(n, 2)).tolist()]


def _labels(rng, n):
    return [(f"a{a}", f"b{b}") for a, b in rng.integers(0, 4, size=(n, 2)).tolist()]


# Two float columns take 1.5 MiB as float64, two categorical ones 1.5 MiB
# as intp codes.
@pytest.mark.parametrize("cells, peak_mb, retained_mb", [
    (_floats, 6, 2),
    (_labels, 6, None),
])
def test_load_memory(tmp_path, cells, peak_mb, retained_mb):
    rng = np.random.default_rng(0)
    small, big = tmp_path / "small.csv", tmp_path / "big.csv"
    _write_csv(small, ["x", "y"], cells(rng, 100))
    _write_csv(big, ["x", "y"], cells(rng, N))
    load_table(small)  # first-use imports happen outside the measured call
    tracemalloc.start()
    try:
        table = load_table(big)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.row_count == N
    assert peak / 2 ** 20 <= peak_mb
    if retained_mb is not None:
        assert retained / 2 ** 20 <= retained_mb
