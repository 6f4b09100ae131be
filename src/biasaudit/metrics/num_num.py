"""Correlation-bias metrics for two numerical columns.

Rows where either cell is missing are dropped pairwise. nmi discretizes each
axis into equal-frequency (quantile-edge) bins, so a strictly increasing map
of either input leaves it unchanged. hgr_approximation works on the
empirical copula, each axis placed through quantile knots: such a map leaves
it unchanged up to ``COPULA_KNOTS`` rows and, above that, moves it only by
the change in interpolation between knots (within 1e-3 in the tests).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import (
    ConstantColumnError,
    InsufficientSamplesError,
    NumericRangeError,
)
from ..tabular import Column, readonly, shared
from .base import MetricResult, in_float_range, paired

# Equal-frequency bins per axis for nmi and hgr_approximation, the side of
# hgr_approximation's lattice over the empirical copula, and the number of
# order statistics that place each axis on that lattice.
BINS = 10
KDE_GRID = 64
COPULA_KNOTS = 257
# hsic has one estimator at every n: every row linearly binned onto a
# lattice of at most HSIC_GRID points per axis. Up to HSIC_GRID // 2 rows
# every row is a lattice point and the value is exact; above that it is
# within 0.01 of the exact value.
HSIC_GRID = 128
# The hgr and hsic lattices are filled this many rows at a time, so
# their buffers are O(block) rather than O(n).
_BIN_BLOCK = 16384


def _checked(x: Column, y: Column, metric_id: str,
             need_variance: bool = True, min_n: int | None = None):
    cols = (x, y)
    xs, ys = shared(cols, "paired",
                    lambda: tuple(readonly(v) for v in paired(x, y)))
    # Binning metrics need enough points to fill their bins; the moment
    # and rank based metrics only need a handful.
    need = max(8, BINS) if min_n is None else min_n
    if xs.size < need:
        raise InsufficientSamplesError(
            f"{metric_id} needs n >= {need}, got {xs.size}")
    xs = shared(cols, "x in range", _in_range, xs, metric_id)
    ys = shared(cols, "y in range", _in_range, ys, metric_id)
    if need_variance and shared(cols, "constant",
                                lambda: xs.std() == 0 or ys.std() == 0):
        raise ConstantColumnError(f"{metric_id} undefined for a constant column")
    return xs, ys


def _in_range(v: np.ndarray, metric_id: str) -> np.ndarray:
    return readonly(in_float_range(v, metric_id)[0])


def _order(x: Column, y: Column, axis: int, v: np.ndarray) -> np.ndarray:
    """The row indices that sort v, the checked values of axis 0 (x) or 1
    (y), shared; int32, half the size of intp, below 2^31 rows."""
    def compute():
        order = np.argsort(v)
        return readonly(order.astype(np.int32) if v.size < 2 ** 31 else order)
    return shared((x, y), f"order {axis}", compute)


def pearson(x: Column, y: Column) -> MetricResult:
    xs, ys = _checked(x, y, "pearson", min_n=3)
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    r = float((dx * dy).sum() / math.sqrt((dx ** 2).sum() * (dy ** 2).sum()))
    return MetricResult("pearson", {"r": max(-1.0, min(1.0, r))}, xs.size)


def _equal_frequency_bins(v: np.ndarray, order: np.ndarray,
                          bins: int) -> np.ndarray:
    """Bin indices from quantile edges, with ``order`` the indices that sort
    v; ties always share a bin. A value's bin is the number of edges at or
    below it, so over v in increasing order the bins are runs."""
    dtype = np.min_scalar_type(bins)
    b = np.empty(v.size, dtype=dtype)
    b[order] = np.repeat(np.arange(bins, dtype=dtype),
                         _run_lengths(v[order], bins))
    return b


def _run_lengths(ordered: np.ndarray, bins: int) -> np.ndarray:
    """How many of the increasing values fall in each equal-frequency bin."""
    edges = np.quantile(ordered, np.arange(1, bins) / bins)
    starts = np.searchsorted(ordered, edges, side="left")
    return np.diff(starts, prepend=0, append=ordered.size)


def _joint_hist(bx: np.ndarray, by: np.ndarray, bins: int) -> np.ndarray:
    cell = np.multiply(bx, bins, dtype=np.intp)
    cell += by
    counts = np.bincount(cell, minlength=bins * bins)
    return counts.reshape(bins, bins) / bx.size


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def nmi(x: Column, y: Column) -> MetricResult:
    """Normalized mutual information I / sqrt(H(X) H(Y)) over binned data."""
    xs, ys = _checked(x, y, "nmi", need_variance=False)
    bx = _equal_frequency_bins(xs, _order(x, y, 0, xs), BINS)
    by = _equal_frequency_bins(ys, _order(x, y, 1, ys), BINS)
    joint = _joint_hist(bx, by, BINS)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    hx, hy = _entropy(px), _entropy(py)
    mi = hx + hy - _entropy(joint.ravel())
    if hx == 0 or hy == 0:
        value = 0.0
    else:
        value = max(0.0, min(1.0, mi / math.sqrt(hx * hy)))
    return MetricResult("nmi", {"nmi": value, "mi": max(0.0, mi)}, xs.size,
                        f"bins={BINS}")


def hgr_approximation(x: Column, y: Column) -> MetricResult:
    """Maximal-correlation estimate on the empirical copula.

    Renyi's maximal correlation is invariant under any bijection of each
    axis, so the estimate works on ranks. Each axis is mapped onto a uniform
    ``KDE_GRID`` lattice over (0, 1) through ``COPULA_KNOTS`` of its order
    statistics, evenly spaced in rank, and linearly between them (see
    ``_copula_axis``); every row is linearly binned onto that lattice, and
    the joint is smoothed with a Gaussian kernel at Scott's bandwidth for
    U(0, 1) data, n^(-1/6) / sqrt(12). The smoothed joint is aggregated into
    equal-probability bins and normalized cell-wise as
    Q_ij = p_ij / sqrt(p_i. * p_.j); the estimate is the second-largest
    singular value of Q. The chi-square divergence sum(Q^2) - 1 is reported
    alongside.

    Ties: a value held by several knots sits at the midpoint of their
    lattice coordinates, so tied rows map to one point in the middle of the
    ranks they span. The value depends only on the sorted columns, so row
    order moves it by rounding only. Up to ``COPULA_KNOTS`` rows every row
    is a knot, and a strictly increasing map of either axis leaves the value
    unchanged; above that, rows between knots are placed linearly in value,
    and the tests hold such a map to within 1e-3. Time is O(n log n) and
    memory O(n), with no O(n * KDE_GRID) buffer.
    """
    xs, ys = _checked(x, y, "hgr_approximation")
    ox, oy = _order(x, y, 0, xs), _order(x, y, 1, ys)
    lattice = _linear_binned_joint(
        _positions(xs, ox, *_copula_axis(xs, ox, KDE_GRID)),
        _positions(ys, oy, *_copula_axis(ys, oy, KDE_GRID)),
        (KDE_GRID, KDE_GRID)) / xs.size
    joint = _aggregate_lattice(_smoothed(lattice, xs.size), BINS)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    keep_r = px > 0
    keep_c = py > 0
    q = joint[np.ix_(keep_r, keep_c)] / np.sqrt(
        np.outer(px[keep_r], py[keep_c]))
    sv = np.linalg.svd(q, compute_uv=False)
    hgr = float(sv[1]) if sv.size > 1 else 0.0
    chi2 = float((q ** 2).sum() - 1.0)
    return MetricResult("hgr_approximation",
                        {"hgr": max(0.0, min(1.0, hgr)),
                         "chi2_divergence": max(0.0, chi2)},
                        xs.size, f"bins={BINS} grid={KDE_GRID}")


def _copula_axis(v: np.ndarray, order: np.ndarray, grid: int):
    """Knots of v and their coordinates on a ``grid``-point lattice over
    (0, 1): the order statistics at ``COPULA_KNOTS`` evenly spaced ranks,
    from the minimum at 0 to the maximum at grid - 1, with ``order`` the
    indices that sort v. Knots that share a value are merged at the
    midpoint of their coordinates."""
    ranks = np.rint(np.linspace(0, v.size - 1, COPULA_KNOTS)).astype(np.intp)
    at = np.linspace(0, grid - 1, COPULA_KNOTS)
    knots, first, count = np.unique(v[order[ranks]], return_index=True,
                                    return_counts=True)
    return knots, (at[first] + at[first + count - 1]) / 2


def _smoothed(joint: np.ndarray, n: int) -> np.ndarray:
    """K joint K' normalized to sum 1, with K the Gaussian kernel between
    lattice points at Scott's bandwidth for n points of U(0, 1) data, in
    lattice steps."""
    grid = joint.shape[0]
    h = n ** (-1.0 / 6.0) / math.sqrt(12.0) * (grid - 1)
    steps = np.arange(grid)
    k = np.exp(-0.5 * np.square(np.subtract.outer(steps, steps) / h))
    density = k @ joint @ k
    return density / density.sum()


def _aggregate_lattice(density: np.ndarray, bins: int) -> np.ndarray:
    """Group lattice cells into bins of roughly equal marginal probability."""
    def starts(marginal):
        cum = np.cumsum(marginal)
        idx = np.searchsorted(cum, np.arange(1, bins) / bins * cum[-1])
        return np.unique(np.concatenate(
            ([0], np.clip(idx + 1, 1, marginal.size - 1))))

    rows = np.add.reduceat(density, starts(density.sum(axis=1)), axis=0)
    return np.add.reduceat(rows, starts(density.sum(axis=0)), axis=1)


def wasserstein(x: Column, y: Column) -> MetricResult:
    """W2 distance between the standardized marginal distributions."""
    xs, ys = _checked(x, y, "wasserstein", min_n=3)
    d = _sorted_standardized(xs, _order(x, y, 0, xs))
    d -= _sorted_standardized(ys, _order(x, y, 1, ys))
    w2 = float(np.sqrt(np.mean(np.square(d, out=d))))
    return MetricResult("wasserstein", {"w2": w2}, xs.size)


def _sorted_standardized(v: np.ndarray, order: np.ndarray) -> np.ndarray:
    """(v - mean) / sd in increasing order, with ``order`` the indices that
    sort v; standardizing is monotone, so it keeps that order."""
    mean, sd = v.mean(), v.std()
    z = v[order]
    z -= mean
    z /= sd
    return z


def hsic(x: Column, y: Column) -> MetricResult:
    """Normalized HSIC with RBF kernels and median-heuristic bandwidths.

    nHSIC = HSIC(x, y) / sqrt(HSIC(x, x) * HSIC(y, y)), from every row
    linearly binned onto an ``HSIC_GRID`` lattice (see ``_binned_hsic_terms``)
    in O(n log n + HSIC_GRID^3) time and O(n) memory. Up to
    ``HSIC_GRID // 2`` rows every row is a lattice point, and the value is
    the exact V-statistic of the rows; above that the tests hold it within
    0.01 of it. The value does not depend on row order beyond rounding.
    """
    xs, ys = _checked(x, y, "hsic", min_n=4)
    n = xs.size
    # A zero bandwidth makes the terms NaN, which the check below reports.
    with np.errstate(divide="ignore", invalid="ignore"):
        hxy, hxx, hyy = _binned_hsic_terms(xs, _order(x, y, 0, xs), ys,
                                           _order(x, y, 1, ys), HSIC_GRID)
    norm = math.sqrt(hxx * hyy)
    if not (math.isfinite(norm) and math.isfinite(hxy)):
        raise NumericRangeError(
            "hsic: the kernel terms are not finite: the median-heuristic "
            "bandwidth underflows to zero when one value lies too many "
            "orders of magnitude from the rest")
    nh = max(0.0, min(1.0, hxy / norm)) if norm > 0 else 0.0
    return MetricResult("hsic",
                        {"hsic": n * n * hxy / (n - 1) ** 2, "nhsic": nh}, n,
                        f"grid={HSIC_GRID}")


def _binned_hsic_terms(xs: np.ndarray, ox: np.ndarray, ys: np.ndarray,
                       oy: np.ndarray, grid: int):
    """HSIC(x, y), HSIC(x, x) and HSIC(y, y), each divided by n^2, from the
    linearly binned joint distribution (Wand, JCGS 1994); ox and oy are the
    indices that sort xs and ys.

    With p the binned joint and px, py its marginals, Kc and Lc are the
    lattice Gram matrices centered with px and py, and the three terms are
    sum((Kc p Lc) * p), px' (Kc * Kc) px and py' (Lc * Lc) py.
    """
    gx = _lattice(xs, ox, grid)
    gy = _lattice(ys, oy, grid)
    counts = _linear_binned_joint(
        _positions(xs, ox, gx, np.arange(gx.size, dtype=float)),
        _positions(ys, oy, gy, np.arange(gy.size, dtype=float)),
        (gx.size, gy.size))
    joint = counts / xs.size
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    kc = _centered_lattice_gram(gx, px, counts.sum(axis=1))
    lc = _centered_lattice_gram(gy, py, counts.sum(axis=0))
    hxy = float(((kc @ joint @ lc) * joint).sum())
    hxx = float(px @ (kc * kc) @ px)
    hyy = float(py @ (lc * lc) @ py)
    return hxy, hxx, hyy


def _lattice(v: np.ndarray, order: np.ndarray, grid: int) -> np.ndarray:
    """At most ``grid`` increasing points spanning [v.min(), v.max()]: half
    evenly spaced and half at evenly spaced order statistics of v, with
    ``order`` the indices that sort v. These keep the cells narrow where
    the rows are, so that one far outlier cannot leave the bulk of v in a
    few cells."""
    half = grid // 2
    ranks = np.linspace(0, v.size - 1, half).astype(np.intp)
    return np.unique(np.concatenate([
        np.linspace(v.min(), v.max(), half), v[order[ranks]]]))


def _positions(v: np.ndarray, order: np.ndarray, knots: np.ndarray,
               at: np.ndarray) -> np.ndarray:
    """Each value's lattice coordinate: knots[k] lies at at[k], and a value
    between two knots lies linearly between their coordinates. The values
    are placed in increasing order, where ``np.interp`` finds each one's
    knots fastest, a block at a time, and put back in row order."""
    t = np.empty(v.size)
    for start in range(0, v.size, _BIN_BLOCK):
        rows = order[start:start + _BIN_BLOCK]
        t[rows] = np.interp(v[rows], knots, at)
    return t


def _linear_binned_joint(tx: np.ndarray, ty: np.ndarray,
                         shape) -> np.ndarray:
    """Joint weights on a lattice of the given shape, summing to the row
    count, from each row's lattice coordinates tx and ty. Each row splits
    its weight of 1 bilinearly over the four lattice points around it."""
    rows, cols = shape
    cells = rows * cols
    joint = np.zeros(cells)
    for start in range(0, tx.size, _BIN_BLOCK):
        block = slice(start, start + _BIN_BLOCK)
        cell, fx = _locate(tx[block], rows)
        iy, fy = _locate(ty[block], cols)
        cell *= cols
        cell += iy
        ex = 1.0 - fx
        ey = 1.0 - fy
        joint += np.bincount(cell, ex * ey, cells)
        joint += np.bincount(cell + 1, ex * fy, cells)
        joint += np.bincount(cell + cols, fx * ey, cells)
        joint += np.bincount(cell + cols + 1, fx * fy, cells)
    return joint.reshape(rows, cols)


def _locate(t: np.ndarray, size: int):
    """Index of the cell of a ``size``-point lattice holding each lattice
    coordinate t, and how far across that cell it lies (0 at its left
    point, 1 at its right)."""
    i = t.astype(np.intp)
    np.minimum(i, size - 2, out=i)
    return i, t - i


def _centered_lattice_gram(points: np.ndarray, p: np.ndarray,
                           rows: np.ndarray) -> np.ndarray:
    """RBF Gram matrix over the lattice points, centered with their weights
    p: K - (Kp)1' - 1(Kp)' + p'Kp. The bandwidth is the median heuristic on
    the binned data, by np.median's rule: the weighted median squared
    distance over pairs of distinct points a < b, a pair weighing
    rows[a] * rows[b], and the midpoint to the next weighted pair where the
    weight below a pair is exactly half. When every row is a lattice point
    the weights are whole row counts, so that comparison is exact."""
    d2 = np.square(np.subtract.outer(points, points))
    upper = np.triu(np.ones(d2.shape, dtype=bool), 1)
    pair_d2 = d2[upper]
    order = np.argsort(pair_d2)
    weight = np.outer(rows, rows)[upper][order]
    cum = np.cumsum(weight)
    half = 0.5 * cum[-1]
    mid = np.searchsorted(cum, half)
    sigma2 = pair_d2[order[mid]]
    if cum[mid] == half:
        above = mid + 1 + np.flatnonzero(weight[mid + 1:])[0]
        sigma2 = (sigma2 + pair_d2[order[above]]) / 2
    k = np.exp(d2 / (-2.0 * sigma2))
    kp = k @ p
    return k - kp[:, None] - kp[None, :] + p @ kp
