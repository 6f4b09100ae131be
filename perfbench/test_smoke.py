"""Tiny-input smoke test of every benchmark workload, untraced and traced.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spec


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_workload_tiny(workload, trace):
    record = run.run_workload(workload, seed=3, seconds=0, trace=trace,
                              tiny=True, min_passes=1)
    failed = [c for c in record["checks"] if not c["passed"]]
    assert record["correct"], failed
    line = run.contract_line(record)
    assert line["attempted"] >= 1 and line["failed"] == 0
    metrics = line["metrics"]
    if trace:
        assert list(metrics) == list(spec.PER_LAYER)
    else:
        assert list(metrics) == list(spec.END_TO_END)
        assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert record["digests"]
    json.dumps(line)


def test_traced_detect_session_accounting():
    record = run.run_workload("detect-cat", seed=5, seconds=0, trace=True,
                              tiny=True, min_passes=1)
    layers = record["per_layer"]
    tools = sum(layers[f"orchestrator.tool.{t}.s"] for t in spec.TOOL_SPANS)
    assert tools + layers["orchestrator.loop_self.s"] == pytest.approx(
        layers["orchestrator.session.s"])
    assert layers["orchestrator.loop_self.s"] > 0
    assert layers["tabular.load_table.calls"] == 1
    assert layers["methodlib.builtin_library.calls"] == 1


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bench-sample",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
