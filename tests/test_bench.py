"""Benchmark harness: tasksets, oracle, level scoring, process rubric."""

import dataclasses
import functools
import gc
import json
import os
import re
import weakref
from collections import Counter
from importlib import resources

import pytest

from biasaudit import bench, metrics, orchestrator
from biasaudit.bench import (
    DIMENSIONS,
    BenchmarkReport,
    EndResultRecord,
    HeuristicJudge,
    ProcessScores,
    TaskSpec,
    ground_truth,
    load_taskset,
    rating_label,
    run_benchmark,
    score_end_results,
    score_process,
)
from biasaudit.errors import (
    AllMetricsFailedError,
    EmptyRecordsError,
    MalformedLogError,
    SchemaError,
)
from biasaudit.metrics import SCENARIO_METRICS, BiasType, Scenario, classify_scenario
from biasaudit.orchestrator import RulePlanner, SessionLog, build_registry, run_session, TaskContext
from biasaudit.synthgen import SynthSpec, generate
from biasaudit.tabular import load_table, save_table


@pytest.fixture(scope="module")
def registry():
    return build_registry()


def task(task_id="T-1", dataset="d.csv", bias_type=BiasType.DISTRIBUTION,
         features=("a",)):
    return TaskSpec(id=task_id, dataset=dataset, question="q",
                    bias_type=bias_type, features=features)


class TestTaskSpec:
    def test_distribution_needs_one_feature(self):
        with pytest.raises(SchemaError):
            task(bias_type=BiasType.DISTRIBUTION, features=("a", "b"))

    def test_correlation_needs_two_features(self):
        with pytest.raises(SchemaError):
            task(bias_type=BiasType.CORRELATION, features=("a",))

    def test_implication_allows_one_or_two(self):
        task(bias_type=BiasType.UNSTATED, features=("a",))
        task(bias_type=BiasType.UNSTATED, features=("a", "b"))
        with pytest.raises(SchemaError):
            task(bias_type=BiasType.UNSTATED, features=("a", "b", "c"))

    def test_type_labels(self):
        assert task(bias_type=BiasType.UNSTATED).type_label == "Implication"
        assert task().type_label == "Distribution"


class TestLoadTaskset:
    def test_bundled_sample_taskset(self):
        path = resources.files("biasaudit.data").joinpath("sample_taskset.json")
        tasks = load_taskset(str(path))
        assert len(tasks) == 15
        labels = [t.type_label for t in tasks]
        assert labels.count("Distribution") == 6
        assert labels.count("Correlation") == 6
        assert labels.count("Implication") == 3
        for t in tasks:
            assert os.path.isabs(t.dataset) and os.path.exists(t.dataset)

    def test_empty_file_is_empty_taskset(self, tmp_path):
        path = tmp_path / "tasks.json"
        path.write_text("", encoding="utf-8")
        assert load_taskset(path) == []

    def test_duplicate_ids_rejected(self, tmp_path):
        rec = {"id": "T-1", "dataset": "d.csv", "question": "q",
               "bias_type": "distribution", "features": ["a"]}
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps([rec, rec]), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_taskset(path)

    @pytest.mark.parametrize("task_id", [
        "../escape", ["x"], "", ".", "..", "a/b", 7])
    def test_id_that_is_not_a_file_name_rejected(self, tmp_path, task_id):
        rec = {"id": task_id, "dataset": "d.csv", "question": "q",
               "bias_type": "distribution", "features": ["a"]}
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps([rec]), encoding="utf-8")
        with pytest.raises(SchemaError, match="entry 0: id"):
            load_taskset(path)

    @pytest.mark.parametrize("field, value", [
        ("question", None), ("question", 3), ("dataset", 3),
        ("dataset", None), ("dataset", ["d.csv"])])
    def test_text_field_that_is_not_a_string_rejected(self, tmp_path, field,
                                                       value):
        rec = {"id": "T-1", "dataset": "d.csv", "question": "q",
               "bias_type": "distribution", "features": ["a"], field: value}
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps([rec]), encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(
                f"taskset entry 0: {field} must be a string, got {value!r}")):
            load_taskset(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "tasks.json"
        path.write_text(json.dumps([{"id": "T-1"}]), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_taskset(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "tasks.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_taskset(path)


def synth_csv(tmp_path, scenario, strength, name, n=2000, seed=7):
    table = generate(SynthSpec(scenario, n=n, strength=strength, seed=seed))
    path = tmp_path / name
    save_table(table, path)
    return str(path)


class TestGroundTruth:
    def test_uniform_distribution_is_level_one(self, tmp_path):
        path = synth_csv(tmp_path, Scenario.CAT_DIST, 0.0, "u.csv")
        truth = ground_truth(task(dataset=path, features=("category",)))
        assert truth.y == 1

    def test_strong_group_gap_is_level_five(self, tmp_path):
        path = synth_csv(tmp_path, Scenario.CAT_NUM, 0.95, "g.csv")
        truth = ground_truth(task(dataset=path,
                                  bias_type=BiasType.CORRELATION,
                                  features=("group", "value")))
        assert truth.y == 5

    def test_max_rule(self, tmp_path):
        path = synth_csv(tmp_path, Scenario.NUM_NUM, 0.45, "c.csv")
        truth = ground_truth(task(dataset=path,
                                  bias_type=BiasType.CORRELATION,
                                  features=("x", "y")))
        assert truth.y == max(truth.oracle_levels.values())
        assert truth.oracle_levels


class TestScoreEndResults:
    def rec(self, predicted, truth, task_id="T"):
        return EndResultRecord(task_id=task_id, predicted=predicted,
                               truth=truth)

    def test_perfect_agreement(self):
        out = score_end_results([self.rec(3, 3), self.rec(5, 5)])
        assert out["s_avg"] == 100.0 and out["mae"] == 0.0 and out["n"] == 2

    def test_partial_agreement(self):
        out = score_end_results([self.rec(3, 3), self.rec(2, 4)])
        assert out["s_avg"] == pytest.approx(75.0)
        assert out["mae"] == pytest.approx(1.0)

    def test_maximal_disagreement(self):
        out = score_end_results([self.rec(1, 5)])
        assert out["s_avg"] == 0.0 and out["mae"] == 4.0

    def test_empty_records_rejected(self):
        with pytest.raises(EmptyRecordsError):
            score_end_results([])


class TestRatingBands:
    def test_band_edges(self):
        assert rating_label(95) == "Excellent"
        assert rating_label(90) == "Excellent"
        assert rating_label(75) == "Proficient"
        assert rating_label(60) == "Adequate"
        assert rating_label(40) == "Mediocre"
        assert rating_label(39) == "Unsatisfactory"


def clean_log(registry, tmp_path):
    path = tmp_path / "cat.csv"
    rows = ["group"] + ["a"] * 30 + ["b"] * 10 + ["c"] * 5
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    context = TaskContext(question="Is group balanced?", dataset=str(path),
                          features=("group",),
                          bias_type=BiasType.DISTRIBUTION)
    _, log = run_session(context, RulePlanner(), registry)
    return log


class TestHeuristicJudge:
    def test_clean_session_scores_high(self, registry, tmp_path):
        scores = HeuristicJudge().score(clean_log(registry, tmp_path))
        for dim in DIMENSIONS:
            assert scores.scores[dim] >= 75, dim

    def test_no_tool_log_caps_tooling(self):
        log = SessionLog.from_jsonl(
            '{"seq": 0, "stage": "user_input", "actor": "user", '
            '"action": "task", "payload": {}, "wall_ms": 0}\n'
            '{"seq": 1, "stage": "user_input", "actor": "primary", '
            '"action": "finish", "payload": {"complete": false}, "wall_ms": 0}\n')
        scores = HeuristicJudge().score(log)
        assert scores.scores["Tooling"] <= 40

    def test_empty_log_rejected(self):
        with pytest.raises(MalformedLogError):
            HeuristicJudge().score(SessionLog())

    def test_non_contiguous_seq_rejected(self):
        log = SessionLog.from_jsonl(
            '{"seq": 0, "stage": "user_input", "actor": "user", '
            '"action": "task", "payload": {}, "wall_ms": 0}\n'
            '{"seq": 5, "stage": "user_input", "actor": "primary", '
            '"action": "finish", "payload": {}, "wall_ms": 0}\n')
        with pytest.raises(MalformedLogError):
            HeuristicJudge().score(log)

    def test_deterministic(self, registry, tmp_path):
        log = clean_log(registry, tmp_path)
        a = HeuristicJudge().score(log)
        b = HeuristicJudge().score(log)
        assert a.scores == b.scores and a.evidence == b.evidence

    def test_score_process_markdown(self, registry, tmp_path):
        scores, markdown = score_process(clean_log(registry, tmp_path))
        assert isinstance(scores, ProcessScores)
        for dim in DIMENSIONS:
            assert dim in markdown


class TestProcessScores:
    def test_missing_dimension_rejected(self):
        scores = {dim: 80 for dim in DIMENSIONS[:-1]}
        with pytest.raises(ValueError):
            ProcessScores(scores=scores, evidence={})

    def test_out_of_range_rejected(self):
        scores = {dim: 80 for dim in DIMENSIONS}
        scores["Tooling"] = 120
        with pytest.raises(ValueError):
            ProcessScores(scores=scores, evidence={})


def small_taskset(tmp_path):
    cat = synth_csv(tmp_path, Scenario.CAT_DIST, 0.7, "cat.csv")
    num_num = synth_csv(tmp_path, Scenario.NUM_NUM, 0.7, "nn.csv")
    cat_num = synth_csv(tmp_path, Scenario.CAT_NUM, 0.7, "cn.csv")
    return [
        task("T-d", dataset=cat, features=("category",)),
        task("T-c", dataset=num_num, bias_type=BiasType.CORRELATION,
             features=("x", "y")),
        task("T-i", dataset=cat_num, bias_type=BiasType.UNSTATED,
             features=("group", "value")),
    ]


class TestRunBenchmark:
    def test_rule_planner_matches_oracle(self, registry, tmp_path):
        out = tmp_path / "bench"
        report = run_benchmark(small_taskset(tmp_path), RulePlanner, registry,
                               out_dir=str(out))
        assert report.overall["n"] == 3
        assert report.overall["s_avg"] == 100.0
        assert set(report.rows) == {"Distribution", "Correlation", "Implication"}
        assert (out / "benchmark.md").exists()
        assert (out / "results.json").exists()
        assert (out / "T-d.log.jsonl").exists()
        assert (out / "T-d" / "report.md").exists()
        md = report.to_markdown()
        for label in ("Distribution", "Correlation", "Implication", "Overall"):
            assert f"| {label} |" in md

    def test_parallel_jobs_agree(self, registry, tmp_path):
        tasks = small_taskset(tmp_path)
        serial = run_benchmark(tasks, RulePlanner, registry, jobs=1)
        parallel = run_benchmark(tasks, RulePlanner, registry, jobs=3)
        assert serial.overall == parallel.overall

    def test_empty_taskset_rejected(self, registry):
        with pytest.raises(EmptyRecordsError):
            run_benchmark([], RulePlanner, registry)

    def test_one_failing_task_is_reported(self, registry, tmp_path):
        tasks = small_taskset(tmp_path)
        tasks.append(task("T-bad", dataset=tasks[0].dataset,
                          features=("no_such_column",)))
        tasks.append(task("T-absent", dataset=str(tmp_path / "absent.csv")))
        out = tmp_path / "out"
        report = run_benchmark(tasks, RulePlanner, registry, out_dir=str(out))
        assert report.overall["n"] == 3
        assert [f[0] for f in report.failures] == ["T-bad", "T-absent"]
        assert report.failures[1][1].startswith(
            "TableError: [Errno 2] No such file or directory")
        assert isinstance(report, BenchmarkReport)
        # A failed session leaves its log, which ends in the failed call.
        for task_id, tool in (("T-bad", "extract_single_column"),
                              ("T-absent", "load_csv_file")):
            log = SessionLog.from_jsonl(
                (out / f"{task_id}.log.jsonl").read_text(encoding="utf-8"))
            assert log.events[-1].payload["tool"] == tool
            assert not log.events[-1].payload["ok"]


def counted(monkeypatch, modules, name):
    """Count the calls to ``name`` through each module's binding."""
    calls = []
    for module in modules:
        real = getattr(module, name)

        def wrapper(*args, _real=real, **kwargs):
            calls.append(args[0])
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return calls


def counted_metric_runs(monkeypatch):
    """Count each metric's runs and raises by (metric_id, column names)."""
    runs, raised = Counter(), Counter()

    def counting(metric_id, fn):
        @functools.wraps(fn)
        def wrapper(*cols, **inputs):
            key = (metric_id, tuple(c.name for c in cols))
            try:
                result = fn(*cols, **inputs)
            except Exception:
                raised[key] += 1
                raise
            runs[key] += 1
            return result
        return wrapper

    for metric_id, spec in metrics.METRICS.items():
        monkeypatch.setitem(metrics.METRICS, metric_id, dataclasses.replace(
            spec, fn=counting(metric_id, spec.fn)))
    return runs, raised


SHIPPED_TASKSET = str(resources.files("biasaudit.data")
                      .joinpath("sample_taskset.json"))


class TestRunScopedSharing:
    """One run_benchmark call loads each dataset once; every oracle reads
    the drop_row cut and metric results the run's sessions keep, so each
    metric runs once per (dataset, features); failures are not shared."""

    def test_shipped_taskset_loads_each_dataset_once(self, registry,
                                                      monkeypatch):
        tasks = load_taskset(SHIPPED_TASKSET)
        loads = counted(monkeypatch, (bench, orchestrator), "load_table")
        oracles = counted(monkeypatch, (bench,), "ground_truth")
        report = run_benchmark(tasks, RulePlanner, registry)
        assert report.overall["s_avg"] == 100.0 and not report.failures
        assert sorted(loads) == sorted({t.dataset for t in tasks})
        assert oracles == tasks

    def test_shipped_taskset_runs_each_metric_once_per_feature_set(
            self, registry, monkeypatch):
        # Sessions and oracles on the same (dataset, features) read one kept
        # result; a metric that raises (pse: no task names a mediator) is
        # not kept, so its session and its oracle each run it.
        tasks = load_taskset(SHIPPED_TASKSET)
        runs, raised = counted_metric_runs(monkeypatch)
        report = run_benchmark(tasks, RulePlanner, registry)
        assert report.overall["s_avg"] == 100.0 and not report.failures
        table = load_table(tasks[0].dataset)
        feature_sets = {t.features for t in tasks}
        assert {t.dataset for t in tasks} == {tasks[0].dataset}
        assert len(feature_sets) < len(tasks)
        expected = sum(len(SCENARIO_METRICS[classify_scenario(
            [table.column(f) for f in features])]) for features in feature_sets)
        assert len(runs) + len(raised) == expected
        assert set(runs.values()) == {1}
        assert {m for m, _ in raised} == {"pse"}
        assert set(raised.values()) == {2}

    def test_nothing_outlives_the_run(self, registry, monkeypatch):
        # gender has missing cells, so drop_row cuts new columns, on which
        # the sessions and the oracles keep their results.
        tasks = [t for t in load_taskset(SHIPPED_TASKSET)
                 if t.features == ("gender",)]
        refs = []

        def keep_refs(name, pick=lambda value: value):
            real = getattr(bench, name)

            def wrapper(*args, **kwargs):
                value = real(*args, **kwargs)
                refs.append(weakref.ref(pick(value)))
                return value
            monkeypatch.setattr(bench, name, wrapper)

        def cut_column(cleaned):
            assert cleaned.rows_dropped
            return cleaned.table.columns[0]

        keep_refs("load_table")
        keep_refs("run_metric")
        keep_refs("clean_missing", cut_column)
        assert len(run_benchmark(tasks, RulePlanner, registry).records) == 2
        # One load; each of the two oracles grades five metrics on one cut.
        assert len(refs) == 1 + 2 * 5 + 2
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)

    def test_same_dataset_and_features_share_one_oracle(self, registry,
                                                         tmp_path,
                                                         monkeypatch):
        path = synth_csv(tmp_path, Scenario.CAT_NUM, 0.7, "cn.csv")
        tasks = [task(task_id, dataset=path, bias_type=BiasType.CORRELATION,
                      features=("group", "value"))
                 for task_id in ("T-1", "T-2")]
        oracles = counted(monkeypatch, (bench,), "ground_truth")
        runs, raised = counted_metric_runs(monkeypatch)
        report = run_benchmark(tasks, RulePlanner, registry)
        first, second = report.records
        assert (first.task_id, second.task_id) == ("T-1", "T-2")
        assert first.oracle_levels == second.oracle_levels
        assert first.truth == second.truth
        assert oracles == tasks
        # Both sessions and both oracles read the first session's results;
        # only pse, which raises without a mediator, runs each time.
        features = ("group", "value")
        assert runs == {(m, features): 1 for m in SCENARIO_METRICS[
            Scenario.CAT_NUM] if m != "pse"}
        assert raised == {("pse", features): 4}
        assert ground_truth(tasks[1]) == ground_truth(tasks[0])

    def test_failed_oracle_names_each_task(self, registry, tmp_path,
                                           monkeypatch):
        # Every oracle metric on the "category" column fails; the sessions,
        # which run their metrics through the orchestrator, still complete.
        real = bench.run_metric

        def run_metric(metric_id, cols):
            if cols[0].name == "category":
                raise SchemaError(f"{metric_id} fails")
            return real(metric_id, cols)
        monkeypatch.setattr(bench, "run_metric", run_metric)
        cat = synth_csv(tmp_path, Scenario.CAT_DIST, 0.7, "cat.csv")
        num_num = synth_csv(tmp_path, Scenario.NUM_NUM, 0.7, "nn.csv")
        tasks = [task(task_id, dataset=cat, features=("category",))
                 for task_id in ("T-1", "T-2")]
        tasks.append(task("T-ok", dataset=num_num,
                          bias_type=BiasType.CORRELATION, features=("x", "y")))
        report = run_benchmark(tasks, RulePlanner, registry)
        assert [r.task_id for r in report.records] == ["T-ok"]
        assert [f[0] for f in report.failures] == ["T-1", "T-2"]
        for task_id, error in report.failures:
            assert error.startswith(f"AllMetricsFailedError: task {task_id}: "
                                    f"every scenario metric failed")

    def test_missing_dataset_fails_each_of_its_tasks(self, registry,
                                                     tmp_path):
        absent = str(tmp_path / "absent.csv")
        tasks = [task("T-1", dataset=absent), task("T-2", dataset=absent),
                 small_taskset(tmp_path)[0]]
        report = run_benchmark(tasks, RulePlanner, registry)
        assert [r.task_id for r in report.records] == ["T-d"]
        assert [f[0] for f in report.failures] == ["T-1", "T-2"]
        first, second = (error for _, error in report.failures)
        assert first == second
        assert first.startswith(
            "TableError: [Errno 2] No such file or directory")
