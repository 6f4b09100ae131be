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


def _gen_num_dist(spec, rng):
    # Shifted log-normal shape: x = (exp(d z) - 1) / d with z standard
    # normal, symmetric at d = 0 and increasingly right-skewed and
    # heavy-tailed as the strength knob rises. Stratified quantile sampling
    # (shuffled) keeps the realized shape close to the target at any n.
    from statistics import NormalDist
    d = _NUM_SHAPE * spec.strength
    inv = NormalDist().inv_cdf
    u = (np.arange(spec.n) + 0.5) / spec.n
    z = np.array([inv(p) for p in u])
    x = z if d < 1e-12 else (np.exp(d * z) - 1.0) / d
    # Plant a few explicit outliers at +-4 sd; the shape's own tail
    # fraction saturates at high strength, so without these the outlier
    # rate would not grow monotonically with the knob.
    planted = int(round(spec.n * 0.01 * spec.strength ** 2))
    if planted:
        amp = 4.0 * float(np.std(x))
        central = np.argsort(np.abs(x - np.median(x)))[:planted]
        x[central] = amp
        x[central[1::2]] = -amp
    rng.shuffle(x)
    return (Column("value", x),)


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
