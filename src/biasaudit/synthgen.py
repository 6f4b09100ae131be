"""Deterministic synthetic datasets with a single bias-strength knob.

Each scenario interpolates from its null (balanced / independent) at
strength 0 to a strongly biased construction at strength 1. Generation
uses numpy's default (PCG64) generator seeded from the spec, so a table is
reproducible from its spec alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, MetricError
from .metrics import SCENARIO_METRICS, Scenario, run_metric
from .severity import ThresholdTable, calibrate, graded_value
from .tabular import Column, Table, categorical

# Geometric decay of category weights reaches 1 - _CAT_DECAY at full
# strength (cat_dist); the numeric-shape knob reaches _NUM_SHAPE at full
# strength (num_dist).
_CAT_DECAY = 0.7
_NUM_SHAPE = 1.1

# Strength assigned to each intended severity level in graded suites.
LEVEL_STRENGTHS = {1: 0.05, 2: 0.2, 3: 0.45, 4: 0.7, 5: 0.95}
GRADE_SIZES = (500, 5000, 20000)


@dataclass(frozen=True)
class SynthSpec:
    scenario: Scenario
    n: int
    strength: float
    k: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.n < 10:
            raise InvalidSpecError(f"n must be >= 10, got {self.n}")
        if self.k < 2:
            raise InvalidSpecError(f"k must be >= 2, got {self.k}")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.strength <= 1.0:
            raise InvalidSpecError(
                f"strength must be in [0, 1], got {self.strength}")


def generate(spec: SynthSpec) -> Table:
    rng = np.random.default_rng(spec.seed)
    builder = {
        Scenario.CAT_DIST: _gen_cat_dist,
        Scenario.NUM_DIST: _gen_num_dist,
        Scenario.CAT_CAT: _gen_cat_cat,
        Scenario.CAT_NUM: _gen_cat_num,
        Scenario.NUM_NUM: _gen_num_num,
    }[spec.scenario]
    return Table(builder(spec, rng))


def _largest_remainder_counts(probs, n):
    """Integer counts summing to n that best match the target proportions."""
    raw = probs * n
    counts = np.floor(raw).astype(int)
    short = n - counts.sum()
    order = np.argsort(-(raw - counts))
    counts[order[:short]] += 1
    return counts


def _gen_cat_dist(spec, rng):
    # Category proportions decay geometrically with the strength knob.
    # Counts are stratified (largest-remainder rounding, then shuffled) so
    # the realized imbalance tracks the knob closely even at small n.
    g = 1.0 - _CAT_DECAY * spec.strength
    weights = np.array([g ** i for i in range(spec.k)])
    counts = _largest_remainder_counts(weights / weights.sum(), spec.n)
    codes = np.repeat(np.arange(spec.k), counts)
    rng.shuffle(codes)
    return (categorical("category", codes, [f"c{i}" for i in range(spec.k)]),)


# Wichura's AS241 (Appl. Statist. 1988) rational approximations of the
# normal quantile, numerator and denominator with the highest power first:
# for |p - 0.5| <= 0.425, then for the tails with r = sqrt(-log(min(p, 1 - p)))
# at most 5 and above 5. These are the coefficients and the Horner order of
# ``statistics.NormalDist.inv_cdf``.
_AS241_CENTRAL = (
    (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4,
     6.72657_70927_00870_0853e+4, 4.59219_53931_54987_1457e+4,
     1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
     1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
    (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4,
     3.93078_95800_09271_0610e+4, 2.12137_94301_58659_5867e+4,
     5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
     4.23133_30701_60091_1252e+1, 1.0))
_AS241_NEAR = (
    (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2,
     2.41780_72517_74506_11770e-1, 1.27045_82524_52368_38258e+0,
     3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
     4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
    (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4,
     1.51986_66563_61645_71966e-2, 1.48103_97642_74800_74590e-1,
     6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
     2.05319_16266_37758_82187e+0, 1.0))
_AS241_FAR = (
    (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5,
     1.24266_09473_88078_43860e-3, 2.65321_89526_57612_30930e-2,
     2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
     5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
    (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7,
     1.84631_83175_10054_68180e-5, 7.86869_13114_56132_59100e-4,
     1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
     5.99832_20655_58879_37690e-1, 1.0))


def _horner(coefficients, r: np.ndarray) -> np.ndarray:
    acc = np.full_like(r, coefficients[0])
    for c in coefficients[1:]:
        acc *= r
        acc += c
    return acc


def normal_quantiles(p: np.ndarray) -> np.ndarray:
    """``statistics.NormalDist().inv_cdf`` of each p in (0, 1), bit for bit:
    the same arithmetic in the same order, with ``math.log`` in the tails,
    where ``np.log`` differs from it in the last bit of a few values."""
    q = p - 0.5
    r = 0.180625 - q * q
    num, den = _AS241_CENTRAL
    # Evaluated everywhere (its denominator stays above 0.002), then the
    # tail cells are replaced.
    z = _horner(num, r) * q / _horner(den, r)
    tail = np.flatnonzero(np.abs(q) > 0.425)
    qt = q[tail]
    r = np.where(qt <= 0.0, p[tail], 1.0 - p[tail])
    r = np.sqrt(-np.array(list(map(math.log, r.tolist()))))
    x = np.empty_like(r)
    near = r <= 5.0
    for cell, coefficients, shift in ((near, _AS241_NEAR, 1.6),
                                      (~near, _AS241_FAR, 5.0)):
        num, den = coefficients
        rc = r[cell] - shift
        x[cell] = _horner(num, rc) / _horner(den, rc)
    z[tail] = np.where(qt < 0.0, -x, x)
    return z


def _gen_num_dist(spec, rng):
    # Shifted log-normal shape: x = (exp(d z) - 1) / d with z standard
    # normal, symmetric at d = 0 and increasingly right-skewed and
    # heavy-tailed as the strength knob rises. Stratified quantile sampling
    # (shuffled) keeps the realized shape close to the target at any n.
    d = _NUM_SHAPE * spec.strength
    z = normal_quantiles((np.arange(spec.n) + 0.5) / spec.n)
    x = z if d < 1e-12 else (np.exp(d * z) - 1.0) / d
    # Plant a few explicit outliers at +-4 sd; the shape's own tail
    # fraction saturates at high strength, so without these the outlier
    # rate would not grow monotonically with the knob.
    planted = int(round(spec.n * 0.01 * spec.strength ** 2))
    if planted:
        amp = 4.0 * float(np.std(x))
        central = _nearest_to_median(x, planted)
        x[central] = amp
        x[central[1::2]] = -amp
    rng.shuffle(x)
    return (Column("value", x),)


def _nearest_to_median(x: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` rows of a strictly increasing ``x`` nearest its median,
    nearest first and a tie to the lower row, as a stable sort orders them
    on every host (numpy's default sort may not). They lie within ``k`` rows
    of the middle one, so only those are sorted."""
    lo = max(x.size // 2 - k, 0)
    near = np.abs(x[lo:x.size // 2 + k + 1] - np.median(x))
    return lo + np.argsort(near, kind="stable")[:k]


def _gen_cat_cat(spec, rng):
    s = spec.strength
    k = spec.k
    probs = np.full((k, k), (1.0 - s) / (k * k))
    probs[np.diag_indices(k)] += s / k
    flat = probs.ravel()
    draws = rng.choice(k * k, size=spec.n, p=flat / flat.sum())
    return (categorical("group_a", draws // k, [f"a{i}" for i in range(k)]),
            categorical("group_b", draws % k, [f"b{i}" for i in range(k)]))


def _gen_cat_num(spec, rng):
    gap = 2.0 * spec.strength  # standardized mean gap d = 2s
    group = rng.integers(0, 2, size=spec.n)
    y = rng.standard_normal(spec.n) + gap * group
    return categorical("group", group, ["g0", "g1"]), Column("value", y)


def _gen_num_num(spec, rng):
    rho = spec.strength
    x = rng.standard_normal(spec.n)
    eps = rng.standard_normal(spec.n)
    y = rho * x + math.sqrt(1.0 - rho * rho) * eps
    return Column("x", x), Column("y", y)


def grade_suite(scenario: Scenario, levels, base_seed: int = 7):
    """(spec, intended level) pairs: one spec per level per suite size.

    cat_dist and cat_cat columns get four categories each; cat_num always
    has two groups. Each spec's seed is ``base_seed + 1000 * level + i``,
    so ``base_seed`` must be at least -1000."""
    if base_seed < -1000:
        raise InvalidSpecError(f"seed must be >= -1000, got {base_seed}")
    suite = []
    for level in levels:
        strength = LEVEL_STRENGTHS[level]
        for i, n in enumerate(GRADE_SIZES):
            seed = base_seed + 1000 * level + i
            suite.append((SynthSpec(scenario=scenario, n=n, strength=strength,
                                    k=4, seed=seed), level))
    return suite


def collect_calibration_samples(suite) -> dict:
    """Evaluate the scenario metrics over a graded suite.

    Returns metric_id -> {level: [graded values]} suitable for
    :func:`biasaudit.severity.calibrate`. Metrics that error on every suite
    case (e.g. a mediation metric with no mediator column) are dropped.
    """
    samples: dict = {}
    for spec, level in suite:
        table = generate(spec)
        cols = table.columns
        for metric_id in SCENARIO_METRICS[spec.scenario]:
            try:
                value = graded_value(run_metric(metric_id, cols))
            except MetricError:
                continue
            samples.setdefault(metric_id, {}).setdefault(level, []).append(
                value)
    return samples


def calibrate_scenarios(scenarios, initial: ThresholdTable, base_seed: int = 7):
    """End-to-end calibration across graded suites for the given scenarios."""
    samples: dict = {}
    for scenario in scenarios:
        suite = grade_suite(scenario, levels=range(1, 6), base_seed=base_seed)
        samples.update(collect_calibration_samples(suite))
    return calibrate(samples, initial)
