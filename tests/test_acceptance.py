"""End-to-end acceptance gate.

Nine checks covering the full pipeline: metric correctness against
independent references, closed-form anchors, the published ratio severity
scale, calibration quality, benchmark self-consistency, run determinism,
the process judge, the invariance battery, and offline operation.
"""

import json
import math
import os
import socket
import time

import pytest

import invariance_suite
import test_metrics_oracle as oracle_suite
from biasaudit.bench import (
    DIMENSIONS,
    EndResultRecord,
    HeuristicJudge,
    TaskSpec,
    run_benchmark,
    score_end_results,
)
from biasaudit.cli import main
from biasaudit.errors import MetricError
from biasaudit.metrics import (
    ALL_METRIC_IDS,
    BiasType,
    Scenario,
    num_num,
    run_metric,
)
from biasaudit.orchestrator import RulePlanner, SessionLog, build_registry
from biasaudit.severity import DEFAULT_TABLE, map_to_level
from biasaudit.synthgen import (
    LEVEL_STRENGTHS,
    SynthSpec,
    calibrate_scenarios,
    generate,
)
from biasaudit.tabular import Column, Kind, save_table


def cat(values, name="c"):
    return Column.of(name, Kind.CATEGORICAL, tuple(values))


def num(values, name="x"):
    return Column.of(name, Kind.NUMERICAL, tuple(float(v) for v in values))


class TestMetricReferenceAgreement:
    """1: all 25 metrics match brute-force references on random inputs."""

    def test_twenty_instances_per_metric_within_1e9(self, monkeypatch):
        monkeypatch.setattr(num_num, "BINS", oracle_suite.BINS)
        monkeypatch.setattr(num_num, "KDE_GRID", oracle_suite.KDE_GRID)
        start = time.monotonic()
        import random
        for metric_id in ALL_METRIC_IDS:
            rng = random.Random(hash(metric_id) % (2 ** 31))
            checked = attempts = 0
            while checked < 20:
                attempts += 1
                assert attempts < 500
                cols, args, extra = oracle_suite.gen_instance(metric_id, rng)
                try:
                    result = run_metric(metric_id, cols, **extra)
                except MetricError:
                    continue
                expected = oracle_suite.ORACLES[metric_id](*args)
                for key, want in expected.items():
                    got = result.raw[key]
                    if math.isinf(want):
                        assert math.isinf(got), f"{metric_id}.{key}"
                    else:
                        assert got == pytest.approx(want, abs=1e-9), \
                            f"{metric_id}.{key}"
                checked += 1
        assert time.monotonic() - start < 10.0


class TestClosedFormAnchors:
    """2: hand-derivable values reproduce to 1e-6."""

    def test_uniform_balance_is_one(self):
        r = run_metric("shannon_balance", [cat(["a", "b", "c", "d"] * 10)])
        assert r.raw["balance"] == pytest.approx(1.0, abs=1e-6)

    def test_cramers_v_half(self):
        g = cat(["a"] * 40 + ["b"] * 40, "g")
        o = cat(["x"] * 30 + ["y"] * 10 + ["x"] * 10 + ["y"] * 30, "o")
        r = run_metric("cramers_v", [g, o])
        assert r.raw["v"] == pytest.approx(0.5, abs=1e-6)

    def test_pearson_point_eight(self):
        r = run_metric("pearson", [num([1, 2, 3, 4], "x"),
                                   num([1, 3, 2, 4], "y")])
        assert r.raw["r"] == pytest.approx(0.8, abs=1e-6)

    def test_parity_z_statistic(self):
        g = cat(["a"] * 100 + ["b"] * 100, "g")
        o = cat(["pos"] * 70 + ["neg"] * 30 + ["pos"] * 50 + ["neg"] * 50, "o")
        r = run_metric("statistical_parity", [g, o])
        assert r.raw["max_z"] == pytest.approx(2.886751345948129, abs=1e-6)

    def test_s_avg_seventy_five(self):
        records = [EndResultRecord("a", 3, 3), EndResultRecord("b", 2, 4)]
        out = score_end_results(records)
        assert out["s_avg"] == pytest.approx(75.0, abs=1e-6)


class TestRatioSeverityScale:
    """3: the published max/min-ratio bands under the default table."""

    def level_of(self, ratio):
        from biasaudit.metrics import MetricResult
        result = MetricResult("max_min_ratio", {"ratio": ratio}, 100)
        return map_to_level(result, DEFAULT_TABLE).value

    def test_above_hundred_is_five(self):
        for ratio in (100.001, 150.0, 1e6, math.inf):
            assert self.level_of(ratio) == 5

    def test_ten_to_hundred_is_four(self):
        for ratio in (10.001, 50.0, 100.0):
            assert self.level_of(ratio) == 4


class TestCalibrationQuality:
    """4: calibrated thresholds classify the graded suites at >= 90%."""

    def test_all_scenarios_within_five_minutes(self):
        start = time.monotonic()
        table, report = calibrate_scenarios(list(Scenario), DEFAULT_TABLE)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0
        for metric_id, c in report.per_metric.items():
            if metric_id == "wasserstein":
                # both marginals are standard normal at every strength, so
                # this metric cannot separate the graded suites by design
                assert not c.separable
                continue
            assert c.accuracy_after >= 0.9, (metric_id, c.accuracy_after)
            assert c.separable, metric_id


def synthetic_taskset(tmp_path):
    """25 tasks: every scenario at every graded strength level."""
    features = {
        Scenario.CAT_DIST: ("category",),
        Scenario.NUM_DIST: ("value",),
        Scenario.CAT_CAT: ("group_a", "group_b"),
        Scenario.CAT_NUM: ("group", "value"),
        Scenario.NUM_NUM: ("x", "y"),
    }
    bias_types = {
        Scenario.CAT_DIST: BiasType.DISTRIBUTION,
        Scenario.NUM_DIST: BiasType.DISTRIBUTION,
        Scenario.CAT_CAT: BiasType.CORRELATION,
        Scenario.CAT_NUM: BiasType.CORRELATION,
        Scenario.NUM_NUM: BiasType.CORRELATION,
    }
    tasks = []
    for scenario in Scenario:
        for level in range(1, 6):
            spec = SynthSpec(scenario, n=500,
                             strength=LEVEL_STRENGTHS[level],
                             seed=100 * level)
            path = tmp_path / f"{scenario.value}_{level}.csv"
            save_table(generate(spec), path)
            tasks.append(TaskSpec(
                id=f"{scenario.value}-{level}", dataset=str(path),
                question=f"Audit {scenario.value} at level {level}.",
                bias_type=bias_types[scenario],
                features=features[scenario]))
    return tasks


class TestBenchmarkSelfConsistency:
    """5: the rule agent reproduces the oracle; perturbations score linearly."""

    def test_s_avg_hundred_on_synthetic_taskset(self, tmp_path):
        tasks = synthetic_taskset(tmp_path)
        report = run_benchmark(tasks, RulePlanner, build_registry())
        assert report.overall["n"] == 25
        assert report.overall["s_avg"] == pytest.approx(100.0)
        assert not report.failures
        self.records = report.records
        # perturbing k of n predictions by one level costs 25k/n points
        for k in (1, 5, 10):
            perturbed = [
                EndResultRecord(r.task_id,
                                r.truth - 1 if i < k and r.truth > 1
                                else (r.truth + 1 if i < k else r.truth),
                                r.truth)
                for i, r in enumerate(report.records)
            ]
            out = score_end_results(perturbed)
            assert out["s_avg"] == pytest.approx(100.0 - 25.0 * k / 25.0)


class TestDeterminism:
    """6: repeated offline runs produce byte-identical artifacts."""

    def test_detect_trees_identical(self, tmp_path):
        csv = tmp_path / "cat.csv"
        csv.write_text("\n".join(["group"] + ["a"] * 30 + ["b"] * 10) + "\n",
                       encoding="utf-8")
        trees = []
        for label in ("one", "two"):
            out = tmp_path / label
            assert main(["detect", str(csv), "--features", "group",
                         "--bias-type", "distribution",
                         "--out", str(out)]) == 0
            tree = {}
            for name in sorted(os.listdir(out)):
                with open(out / name, "rb") as fh:
                    tree[name] = fh.read()
            trees.append(tree)
        assert trees[0] == trees[1]

    def test_bench_rows_structure(self, tmp_path, capsys):
        from importlib import resources
        taskset = resources.files("biasaudit.data").joinpath(
            "sample_taskset.json")
        assert main(["bench", str(taskset)]) == 0
        stdout = capsys.readouterr().out
        for label in ("Distribution", "Correlation", "Implication", "Overall"):
            assert f"| {label} |" in stdout


class TestProcessJudge:
    """7: heuristic rubric separates empty and clean sessions."""

    def test_no_tool_log_caps_tooling(self):
        log = SessionLog.from_jsonl(
            '{"seq": 0, "stage": "user_input", "actor": "user", '
            '"action": "task", "payload": {}, "wall_ms": 0}\n')
        scores = HeuristicJudge().score(log)
        assert scores.scores["Tooling"] <= 40

    def test_clean_session_scores_all_dimensions_high(self, tmp_path):
        from biasaudit.orchestrator import TaskContext, run_session
        csv = tmp_path / "cat.csv"
        csv.write_text("\n".join(["group"] + ["a"] * 30 + ["b"] * 10) + "\n",
                       encoding="utf-8")
        context = TaskContext(question="Is group balanced?", dataset=str(csv),
                              features=("group",),
                              bias_type=BiasType.DISTRIBUTION)
        _, log = run_session(context, RulePlanner(), build_registry())
        scores = HeuristicJudge().score(log)
        for dim in DIMENSIONS:
            assert scores.scores[dim] >= 75, dim


class TestInvarianceBattery:
    """8: 1000 randomized transformation trials with zero violations."""

    def test_zero_violations(self):
        total, violations = invariance_suite.run_battery()
        assert total == 1000
        assert violations == [], violations[:10]


class TestOfflineOperation:
    """9: the whole suite runs with sockets refusing to connect."""

    def test_network_is_refused(self):
        with pytest.raises(RuntimeError):
            socket.create_connection(("127.0.0.1", 80), timeout=1)

    def test_detect_completes_without_network(self, tmp_path):
        csv = tmp_path / "cat.csv"
        csv.write_text("\n".join(["group"] + ["a"] * 20 + ["b"] * 20) + "\n",
                       encoding="utf-8")
        assert main(["detect", str(csv), "--features", "group",
                     "--bias-type", "distribution"]) == 0
