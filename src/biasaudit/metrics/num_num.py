"""Correlation-bias metrics for two numerical columns.

Rows where either cell is missing are dropped pairwise. Discretization for
the information-theoretic metrics uses equal-frequency (quantile-edge)
bins, which keeps them invariant under monotone rescaling of the inputs.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConstantColumnError, InsufficientSamplesError
from ..tabular import Column
from .base import MetricOptions, MetricResult, Scenario, paired

# HSIC Gram matrices are O(n^2); larger inputs are deterministically
# subsampled down to this many rows.
HSIC_MAX_N = 2048
# The KDE lattice sums the weights of this many points at a time, so its
# buffers are O(kde_grid * block) rather than O(kde_grid * n).
_KDE_BLOCK = 4096
# Gaussian KDE weights with an exponent at or below this are exactly 0.
_EXP_FLOOR = -300.0


def _result(metric_id, raw, n, details=""):
    return MetricResult(metric_id, Scenario.NUM_NUM, raw, n, details)


def _checked(x: Column, y: Column, opts: MetricOptions, metric_id: str,
             need_variance: bool = True, min_n: int | None = None):
    xs, ys = paired(x, y)
    # Binning metrics need enough points to fill their bins; the moment
    # and rank based metrics only need a handful.
    need = max(8, opts.bins) if min_n is None else min_n
    if xs.size < need:
        raise InsufficientSamplesError(
            f"{metric_id} needs n >= {need}, got {xs.size}")
    if need_variance and (xs.std() == 0 or ys.std() == 0):
        raise ConstantColumnError(f"{metric_id} undefined for a constant column")
    return xs, ys


def pearson(x: Column, y: Column, opts: MetricOptions = MetricOptions()) -> MetricResult:
    xs, ys = _checked(x, y, opts, "pearson", min_n=3)
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    r = float((dx * dy).sum() / math.sqrt((dx ** 2).sum() * (dy ** 2).sum()))
    return _result("pearson", {"r": max(-1.0, min(1.0, r))}, xs.size)


def _equal_frequency_bins(v: np.ndarray, bins: int) -> np.ndarray:
    """Bin indices from quantile edges; ties always share a bin."""
    edges = np.quantile(v, np.arange(1, bins) / bins)
    return np.searchsorted(edges, v, side="right")


def _joint_hist(bx: np.ndarray, by: np.ndarray, bins: int) -> np.ndarray:
    counts = np.bincount(bx * bins + by, minlength=bins * bins)
    return counts.reshape(bins, bins) / bx.size


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def nmi(x: Column, y: Column, opts: MetricOptions = MetricOptions()) -> MetricResult:
    """Normalized mutual information I / sqrt(H(X) H(Y)) over binned data."""
    xs, ys = _checked(x, y, opts, "nmi", need_variance=False)
    bx = _equal_frequency_bins(xs, opts.bins)
    by = _equal_frequency_bins(ys, opts.bins)
    joint = _joint_hist(bx, by, opts.bins)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    hx, hy = _entropy(px), _entropy(py)
    mi = hx + hy - _entropy(joint.ravel())
    if hx == 0 or hy == 0:
        value = 0.0
    else:
        value = max(0.0, min(1.0, mi / math.sqrt(hx * hy)))
    return _result("nmi", {"nmi": value, "mi": max(0.0, mi)}, xs.size,
                   f"bins={opts.bins}")


def hgr_approximation(x: Column, y: Column,
                      opts: MetricOptions = MetricOptions()) -> MetricResult:
    """Maximal-correlation estimate from the normalized joint distribution.

    The joint density is smoothed by a Gaussian KDE on a kde_grid lattice,
    aggregated into equal-probability bins, and normalized cell-wise as
    Q_ij = p_ij / sqrt(p_i. * p_.j); the estimate is the second-largest
    singular value of Q. The chi-square divergence sum(Q^2) - 1 is reported
    alongside. The lattice sums the Gaussian weights of blocks of points,
    so memory is O(kde_grid * block) at any n, and a weight whose exponent
    is at or below -300 counts as exactly 0 (it is at most 5e-131 of its
    point's peak and would otherwise put exp and the matrix product on the
    slow subnormal path).
    """
    xs, ys = _checked(x, y, opts, "hgr_approximation")
    density = _kde_lattice(xs, ys, opts.kde_grid)
    joint = _aggregate_lattice(density, opts.bins)
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    keep_r = px > 0
    keep_c = py > 0
    q = joint[np.ix_(keep_r, keep_c)] / np.sqrt(
        np.outer(px[keep_r], py[keep_c]))
    sv = np.linalg.svd(q, compute_uv=False)
    hgr = float(sv[1]) if sv.size > 1 else 0.0
    chi2 = float((q ** 2).sum() - 1.0)
    return _result("hgr_approximation",
                   {"hgr": max(0.0, min(1.0, hgr)), "chi2_divergence": max(0.0, chi2)},
                   xs.size, f"bins={opts.bins} grid={opts.kde_grid}")


def _kde_lattice(xs: np.ndarray, ys: np.ndarray, grid: int) -> np.ndarray:
    """Product-Gaussian KDE evaluated on a grid x grid lattice."""
    xs = (xs - xs.mean()) / xs.std()
    ys = (ys - ys.mean()) / ys.std()
    h = xs.size ** (-1.0 / 6.0)  # Scott's rule for d=2 on unit-sd data
    gx = np.linspace(xs.min() - 3 * h, xs.max() + 3 * h, grid)
    gy = np.linspace(ys.min() - 3 * h, ys.max() + 3 * h, grid)
    density = np.zeros((grid, grid))
    for start in range(0, xs.size, _KDE_BLOCK):
        block = slice(start, start + _KDE_BLOCK)
        ax = _gauss_weights(gx, xs[block], h)
        ay = _gauss_weights(gy, ys[block], h)
        density += ax @ ay.T
    return density / density.sum()


def _gauss_weights(lattice: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """exp(-0.5 * ((lattice - v) / h) ** 2), exactly 0 where the exponent is
    at or below _EXP_FLOOR. The exponent is clipped and the result masked
    because exp(where=...) runs its masked loop per run of kept weights and
    is no faster than exp on subnormals."""
    z = np.subtract.outer(lattice, v)
    z /= h
    np.square(z, out=z)
    z *= -0.5
    keep = z > _EXP_FLOOR
    np.maximum(z, _EXP_FLOOR, out=z)
    np.exp(z, out=z)
    z *= keep
    return z


def _aggregate_lattice(density: np.ndarray, bins: int) -> np.ndarray:
    """Group lattice cells into bins of roughly equal marginal probability."""
    def cuts(marginal):
        cum = np.cumsum(marginal)
        idx = np.searchsorted(cum, np.arange(1, bins) / bins * cum[-1])
        return np.unique(np.clip(idx + 1, 1, marginal.size - 1))

    rows = np.split(np.arange(density.shape[0]), cuts(density.sum(axis=1)))
    cols = np.split(np.arange(density.shape[1]), cuts(density.sum(axis=0)))
    out = np.zeros((len(rows), len(cols)))
    for i, ri in enumerate(rows):
        for j, cj in enumerate(cols):
            out[i, j] = density[np.ix_(ri, cj)].sum()
    return out


def wasserstein(x: Column, y: Column, opts: MetricOptions = MetricOptions()) -> MetricResult:
    """W2 distance between the standardized marginal distributions."""
    xs, ys = _checked(x, y, opts, "wasserstein", min_n=3)
    xs = np.sort((xs - xs.mean()) / xs.std())
    ys = np.sort((ys - ys.mean()) / ys.std())
    w2 = float(np.sqrt(np.mean((xs - ys) ** 2)))
    return _result("wasserstein", {"w2": w2}, xs.size)


def hsic(x: Column, y: Column, opts: MetricOptions = MetricOptions()) -> MetricResult:
    """Normalized HSIC with RBF kernels and median-heuristic bandwidths.

    nHSIC = HSIC(x, y) / sqrt(HSIC(x, x) * HSIC(y, y)). Inputs longer than
    ``HSIC_MAX_N`` are deterministically subsampled (evenly spaced rows)
    before the O(n^2) Gram matrices are formed. Each centered Gram matrix
    is built in place in one n x n buffer, and one more buffer holds the
    three elementwise products in turn, so the peak is three n x n arrays.
    """
    xs, ys = _checked(x, y, opts, "hsic", min_n=4)
    n_full = xs.size
    if n_full > HSIC_MAX_N:
        idx = np.linspace(0, n_full - 1, HSIC_MAX_N).astype(int)
        xs, ys = xs[idx], ys[idx]
    kc = _centered_rbf_gram(xs)
    lc = _centered_rbf_gram(ys)
    prod = np.multiply(kc, lc)
    hxy = float(prod.sum())
    hxx = float(np.multiply(kc, kc, out=prod).sum())
    hyy = float(np.multiply(lc, lc, out=prod).sum())
    n = xs.size
    norm = math.sqrt(hxx * hyy)
    nh = max(0.0, min(1.0, hxy / norm)) if norm > 0 else 0.0
    return _result("hsic",
                   {"hsic": hxy / (n - 1) ** 2, "nhsic": nh},
                   n_full,
                   f"gram_n={n}" + (" (subsampled)" if n < n_full else ""))


def _centered_rbf_gram(v: np.ndarray) -> np.ndarray:
    """Double-centered RBF Gram matrix, bandwidth the median positive
    squared distance over pairs i < j."""
    g = np.subtract.outer(v, v)
    np.square(g, out=g)
    positive = g[np.triu(g > 0, k=1)]
    sigma2 = (float(np.median(positive, overwrite_input=True))
              if positive.size else 1.0)
    np.negative(g, out=g)
    g /= 2.0 * sigma2
    np.exp(g, out=g)
    row = g.mean(axis=0, keepdims=True)
    col = g.mean(axis=1, keepdims=True)
    grand = g.mean()
    g -= row
    g -= col
    g += grand
    return g


METRICS = {
    "pearson": pearson,
    "nmi": nmi,
    "hgr_approximation": hgr_approximation,
    "wasserstein": wasserstein,
    "hsic": hsic,
}
