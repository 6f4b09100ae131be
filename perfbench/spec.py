"""What the benchmark measures, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single source of the
workload names, metric names, units and bounds. The layer names the tracer
records (tool spans, error classes, allocation-traced metrics) are read off
the per-layer metric names, so adding one there is enough to record it.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)

RUN_SECONDS = MANIFEST["run_seconds"]
WORKLOADS = {w["name"]: w["why"] for w in MANIFEST["workloads"]}
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}

# Input rows of every detect CSV; passes a measured window holds at least.
ROWS = 200_000
MIN_PASSES = 3


def _between(prefix: str, suffix: str = "") -> tuple:
    """The X of every per-layer name ``prefix + X + suffix``."""
    return tuple(n[len(prefix):len(n) - len(suffix)] for n in PER_LAYER
                 if n.startswith(prefix) and n.endswith(suffix))


# Tools the rule planner invokes. The 25 detection tools are summed into one
# "detection" span; metrics.<metric_id>.s breaks that sum down per metric.
TOOL_SPANS = _between("orchestrator.tool.", ".s")
# Metrics whose peak traced allocation is recorded with tracemalloc.
ALLOC_TRACED_METRICS = _between("metrics.", ".peak_alloc_mb")
# Error classes counted by name; any other class is counted as "other".
METRIC_ERROR_CLASSES = tuple(
    c for c in _between("metrics.errors.") if c != "other")
TOOL_ERROR_CLASSES = tuple(
    c for c in _between("orchestrator.tool_errors.") if c != "other")
