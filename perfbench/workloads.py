"""The four benchmark workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns. A workload makes its inputs from the seed in
``setup``, runs untimed reference computations in ``prepare_checks``, and
runs whole passes over its inputs in ``run_pass``, returning one
:class:`OpResult` per operation. Every pass records enough to check the
outputs afterwards: completion, levels against the oracle and sha256 digests
of the output files.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field

from biasaudit import bench, orchestrator, synthgen
from biasaudit.errors import MetricError
from biasaudit.metrics import SCENARIO_METRICS, BiasType, Scenario, run_metric
from biasaudit.orchestrator import RulePlanner, SessionLog, TaskContext
from biasaudit.severity import DEFAULT_TABLE
from biasaudit.tabular import load_table, save_table

import tracing
from spec import ROWS


@dataclass
class OpResult:
    key: str                # input file, task id or "calibration"
    seconds: float
    rows: int               # input rows audited by the operation
    ok: bool
    error: str = ""
    digests: dict = field(default_factory=dict)   # output name -> sha256
    # Level agreement with the reference: ``agreed`` out of ``compared``
    # (operation, metric) pairs, with partial credit where the scoring gives it.
    agreed: float = 0.0
    compared: int = 0


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class _Window:
    """Registry and planner factory for one window, traced or not."""

    def __init__(self, tracer):
        self.tracer = tracer
        registry = orchestrator.build_registry()
        self.registry = (registry if tracer is None
                         else tracing.traced_registry(tracer, registry))

    def planner_factory(self):
        if self.tracer is None:
            return RulePlanner
        return tracing.traced_planner_factory(self.tracer, RulePlanner)

    def next_op(self):
        if self.tracer is not None:
            self.tracer.op += 1


# --------------------------------------------------------------------------
# detect-cat / detect-num
# --------------------------------------------------------------------------

_FEATURES = {
    Scenario.CAT_DIST: ("category",),
    Scenario.NUM_DIST: ("value",),
    Scenario.CAT_CAT: ("group_a", "group_b"),
    Scenario.CAT_NUM: ("group", "value"),
    Scenario.NUM_NUM: ("x", "y"),
}


class DetectWorkload:
    """One RulePlanner detect session per CSV, as ``biasaudit detect --out``."""

    exact_levels = True  # every level must equal bench.ground_truth

    def __init__(self, scenarios, seed: int, rows: int, work_dir: str):
        self.seed = seed
        self.rows = rows
        self.inputs = []
        for scenario in scenarios:
            features = _FEATURES[scenario]
            bias_type = (BiasType.DISTRIBUTION if len(features) == 1
                         else BiasType.CORRELATION)
            path = os.path.join(work_dir, f"{scenario.value}.csv")
            self.inputs.append({
                "scenario": scenario, "path": path,
                "out_dir": os.path.join(work_dir, f"out_{scenario.value}"),
                "task": TaskContext(
                    question=f"Audit {', '.join(features)} for bias.",
                    dataset=path, features=features, bias_type=bias_type),
            })
        self.truth = {}

    def setup(self):
        for inp in self.inputs:
            spec = synthgen.SynthSpec(scenario=inp["scenario"], n=self.rows,
                                      strength=0.5, k=4, seed=self.seed)
            save_table(synthgen.generate(spec), inp["path"])
            os.makedirs(inp["out_dir"], exist_ok=True)

    def prepare_checks(self):
        for inp in self.inputs:
            task = inp["task"]
            spec = bench.TaskSpec(id=inp["scenario"].value,
                                  dataset=task.dataset, question=task.question,
                                  bias_type=task.bias_type,
                                  features=task.features)
            self.truth[inp["scenario"]] = bench.ground_truth(spec).oracle_levels

    def run_pass(self, tracer=None) -> list:
        window = _Window(tracer)
        results = []
        for inp in self.inputs:
            gc.collect()
            window.next_op()
            key = inp["scenario"].value
            out_dir = inp["out_dir"]
            start = time.perf_counter()
            try:
                report, log = orchestrator.run_session(
                    inp["task"], window.planner_factory()(), window.registry,
                    out_dir=out_dir)
                with open(os.path.join(out_dir, "session.log.jsonl"), "w",
                          encoding="utf-8") as fh:
                    fh.write(log.to_jsonl())
            except Exception as exc:  # a failed operation, counted below
                results.append(OpResult(key, time.perf_counter() - start,
                                        self.rows, False,
                                        f"{type(exc).__name__}: {exc}"))
                continue
            seconds = time.perf_counter() - start
            ok = report.complete and bool(report.findings)
            result = OpResult(key, seconds, self.rows, ok,
                              "" if ok else "incomplete report")
            if ok:
                result.digests[key] = _sha256_file(
                    os.path.join(out_dir, "findings.json"))
                levels = {f.metric_id: f.level.value for f in report.findings}
                truth = self.truth.get(inp["scenario"])
                if truth is not None:
                    ids = set(truth) | set(levels)
                    result.compared = len(ids)
                    result.agreed = sum(1 for m in ids
                                        if levels.get(m) == truth.get(m))
            results.append(result)
        return results

    def summary(self) -> dict:
        return {}


# --------------------------------------------------------------------------
# bench-sample
# --------------------------------------------------------------------------

def sample_taskset_path() -> str:
    return os.path.join(os.path.dirname(bench.__file__), "data",
                        "sample_taskset.json")


class BenchSampleWorkload:
    """``bench.run_benchmark(jobs=1)`` plus process scoring of every log."""

    exact_levels = True  # S_avg must be 100

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.out_dir = os.path.join(work_dir, "bench_out")
        self.tasks = []
        self.rows = {}

    def setup(self):
        tasks = bench.load_taskset(sample_taskset_path())
        random.Random(self.seed).shuffle(tasks)
        self.tasks = tasks
        self.rows = {path: load_table(path).row_count
                     for path in {t.dataset for t in tasks}}

    def prepare_checks(self):
        pass

    def run_pass(self, tracer=None) -> list:
        window = _Window(tracer)
        planners = window.planner_factory()
        starts = []

        def planner_factory():
            # run_benchmark asks for one planner per task, at the start of
            # the task; the gaps between these calls time each task.
            window.next_op()
            starts.append(time.perf_counter())
            return planners()

        gc.collect()
        start = time.perf_counter()
        try:
            report = bench.run_benchmark(self.tasks, planner_factory,
                                         window.registry, out_dir=self.out_dir,
                                         jobs=1)
        except Exception as exc:  # every task failed; counted by the caller
            seconds = (time.perf_counter() - start) / len(self.tasks)
            return [OpResult(t.id, seconds, self.rows[t.dataset], False,
                             f"{type(exc).__name__}: {exc}")
                    for t in self.tasks]
        starts.append(time.perf_counter())
        failed = dict(report.failures)
        truth = {r.task_id: r for r in report.records}
        process = {}
        for task_id in truth:
            with open(os.path.join(self.out_dir, f"{task_id}.log.jsonl"),
                      encoding="utf-8") as fh:
                log = SessionLog.from_jsonl(fh.read())
            scores, _ = bench.score_process(log)
            process[task_id] = scores.to_record()

        results = []
        for task, start, end in zip(self.tasks, starts, starts[1:]):
            record = truth.get(task.id)
            ok = record is not None
            result = OpResult(task.id, end - start, self.rows[task.dataset],
                              ok, failed.get(task.id, ""))
            if ok:
                result.digests[task.id] = _sha256_file(
                    os.path.join(self.out_dir, task.id, "findings.json"))
                result.digests[f"{task.id}/process"] = _sha256_text(
                    json.dumps(process[task.id], sort_keys=True))
                # The S_avg score of one task, as a share of 100.
                result.compared = 1
                result.agreed = 1.0 - abs(record.predicted - record.truth) / 4.0
            results.append(result)
        return results

    def summary(self) -> dict:
        return {}


# --------------------------------------------------------------------------
# calibrate
# --------------------------------------------------------------------------

class CalibrateWorkload:
    """One full ``synthgen.calibrate_scenarios`` pass per operation."""

    # Suite accuracy below 1 is a property of the metrics, not a defect.
    exact_levels = False

    def __init__(self, seed: int, scenarios=tuple(Scenario)):
        self.seed = seed
        self.scenarios = list(scenarios)
        # Every graded suite has one table per level and per suite size.
        self.rows = len(self.scenarios) * len(synthgen.LEVEL_STRENGTHS) * sum(
            synthgen.GRADE_SIZES)
        self.last_report = None
        self.expected = set()

    def setup(self):
        pass

    def prepare_checks(self):
        # A metric that returns a value on one suite case has samples, so
        # the calibration report must cover it.
        for scenario in self.scenarios:
            spec, _ = synthgen.grade_suite(scenario, levels=(1,),
                                           base_seed=self.seed)[0]
            cols = synthgen.generate(spec).columns
            for metric_id in SCENARIO_METRICS[scenario]:
                try:
                    run_metric(metric_id, cols)
                except MetricError:
                    continue
                self.expected.add(metric_id)

    def run_pass(self, tracer=None) -> list:
        gc.collect()
        if tracer is not None:
            tracer.op += 1
        start = time.perf_counter()
        try:
            table, report = synthgen.calibrate_scenarios(
                self.scenarios, DEFAULT_TABLE, base_seed=self.seed)
        except Exception as exc:  # a failed operation, counted by the caller
            return [OpResult("calibration", time.perf_counter() - start,
                             self.rows, False, f"{type(exc).__name__}: {exc}")]
        seconds = time.perf_counter() - start
        missing = sorted(self.expected - set(report.per_metric))
        ok = bool(report.per_metric) and not missing
        result = OpResult("calibration", seconds, self.rows, ok,
                          f"not calibrated: {missing}" if missing else "")
        result.digests["thresholds.json"] = _sha256_text(table.to_json())
        # Suite cases whose calibrated level equals the intended level.
        result.compared = sum(c.cases for c in report.per_metric.values())
        result.agreed = round(sum(c.accuracy_after * c.cases
                                  for c in report.per_metric.values()))
        self.last_report = report
        return [result]

    def summary(self) -> dict:
        report = self.last_report
        if report is None:
            return {}
        calibrated = len(report.per_metric)
        return {
            "separable_frac": (calibrated - len(report.inseparable)) / calibrated,
            "inseparable": report.inseparable,
            "calibrated_metrics": calibrated,
        }


def make(name: str, seed: int, work_dir: str, tiny: bool = False):
    """Build a workload by name; ``tiny`` shrinks inputs for the smoke test."""
    rows = 2000 if tiny else None
    if name == "detect-cat":
        return DetectWorkload((Scenario.CAT_DIST, Scenario.CAT_CAT,
                               Scenario.CAT_NUM), seed, rows or ROWS, work_dir)
    if name == "detect-num":
        return DetectWorkload((Scenario.NUM_DIST, Scenario.NUM_NUM), seed,
                              rows or ROWS, work_dir)
    if name == "bench-sample":
        return BenchSampleWorkload(seed, work_dir)
    if name == "calibrate":
        return CalibrateWorkload(
            seed, (Scenario.CAT_DIST,) if tiny else tuple(Scenario))
    raise ValueError(f"unknown workload {name!r}")

