"""Distribution-bias metrics for a single numerical column.

Moments are population moments about the mean; quantiles use linear
interpolation (numpy's default, type 7). The third and fourth powers of
the deviations are products, not numpy's ``pow``: each step that reaches
g1 or g2 is one IEEE 754 multiply, divide or square root, so the moments
read the same bits whichever SIMD kernels numpy dispatches to on an
x86-64 host (``tests/test_cpu_dispatch.py``).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConstantColumnError, DegenerateIQRError, InsufficientSamplesError
from ..tabular import Column, readonly, shared
from .base import MetricResult, in_float_range, paired

# Points farther than this many population sd from the mean are outliers.
Z_CUTOFF = 3.0


def _values(col: Column, metric_id: str) -> np.ndarray:
    """The column's non-missing values in float range, shared."""
    return shared((col,), "values", _checked_values, col, metric_id)


def _checked_values(col: Column, metric_id: str) -> np.ndarray:
    (x,) = paired(col)
    if x.size < 3:
        raise InsufficientSamplesError(f"{metric_id} needs n >= 3, got {x.size}")
    return readonly(in_float_range(x, metric_id)[0])


def _deviations(col: Column, x: np.ndarray):
    """d = x - mean and the second central moment mean(d^2), shared."""
    def compute():
        d = readonly(x - x.mean())
        return d, np.mean(d ** 2)
    return shared((col,), "deviations", compute)


def _sorted(col: Column, x: np.ndarray) -> np.ndarray:
    """x in increasing order, shared; the median and the quantiles are
    order statistics, so they read the same from it."""
    return shared((col,), "sorted", lambda: readonly(np.sort(x)))


def skewness(col: Column) -> MetricResult:
    x = _values(col, "skewness")
    d, m2 = _deviations(col, x)
    if m2 == 0:
        raise ConstantColumnError("skewness undefined for a constant column")
    cube = d * d
    cube *= d
    g1 = np.mean(cube) / (m2 * math.sqrt(m2))
    return MetricResult("skewness", {"g1": float(g1)}, x.size)


def kurtosis(col: Column) -> MetricResult:
    """Excess kurtosis m4 / m2^2 - 3."""
    x = _values(col, "kurtosis")
    d, m2 = _deviations(col, x)
    if m2 == 0:
        raise ConstantColumnError("kurtosis undefined for a constant column")
    fourth = d * d
    fourth *= fourth
    g2 = np.mean(fourth) / (m2 * m2) - 3.0
    return MetricResult("kurtosis", {"g2": float(g2)}, x.size)


def outlier(col: Column) -> MetricResult:
    """Fraction of points farther than ``Z_CUTOFF`` population sd from the mean."""
    x = _values(col, "outlier")
    d, m2 = _deviations(col, x)
    sd = math.sqrt(m2)
    if sd == 0:
        raise ConstantColumnError("outlier fraction undefined for a constant column")
    frac = float(np.mean(np.abs(d) / sd > Z_CUTOFF))
    return MetricResult("outlier", {"fraction": frac}, x.size,
                        f"z_cutoff={Z_CUTOFF}")


def cohens_d_mad(col: Column) -> MetricResult:
    """Mean-median gap scaled by 1.4826 * MAD (robust asymmetry measure)."""
    x = _values(col, "cohens_d_mad")
    s = _sorted(col, x)
    med = float(np.mean(s[(x.size - 1) // 2:x.size // 2 + 1]))
    mad = float(np.median(np.abs(x - med)))
    if mad == 0:
        raise ConstantColumnError("cohens_d_mad undefined: MAD is zero")
    d = (float(x.mean()) - med) / (1.4826 * mad)
    return MetricResult("cohens_d_mad", {"d": d}, x.size)


def quantile_deviation(col: Column) -> MetricResult:
    """|QD - 0.5| where QD = (Q3 - Q2) / (Q3 - Q1)."""
    x = _values(col, "quantile_deviation")
    q1, q2, q3 = np.quantile(_sorted(col, x), [0.25, 0.5, 0.75])
    if q3 <= q1:
        raise DegenerateIQRError("quantile_deviation undefined: IQR is zero")
    qd = (q3 - q2) / (q3 - q1)
    return MetricResult("quantile_deviation",
                        {"qd": float(qd), "deviation": float(abs(qd - 0.5))},
                        x.size)
