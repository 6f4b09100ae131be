"""Benchmark of the biasaudit engine: end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload detect-cat --seed 1 --seconds 15 --trace 0

One run of one workload sets up once in its fresh process (inputs made from
the seed plus one untimed warm-up pass; ``setup_s`` is that time, cold-start
cost included), computes the references its checks need, then runs whole
passes until ``--seconds`` have elapsed and at least ``spec.MIN_PASSES``
passes are done. With ``--trace 0`` it reports the end-to-end metrics of
that window. With ``--trace 1`` it runs an untraced window and then a traced
window by the same rule, and reports the per-layer metrics of the traced one
together with the tracing overhead (difference of the two windows'
``op_s.p50``).

The program is imported from ``src/`` of the checkout the command runs in;
without it the command fails before measuring anything. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full results record
(environment, digests, checks, every operation's time), which is also
written under ``perfbench/_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = spec.ROOT
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")


def use_checkout_program() -> None:
    """Import biasaudit from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "biasaudit", "orchestrator.py")):
        raise SystemExit(f"error: no program source at {SRC}/biasaudit")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def environment() -> dict:
    import numpy
    return {"commit": _commit(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def _commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _measure(workload, seconds: float, min_passes: int, tracer=None):
    """Whole passes until ``seconds`` have elapsed and ``min_passes`` are
    done; (one list of results per pass, wall seconds)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(tracer))
        wall = time.perf_counter() - start
        if wall >= seconds and len(passes) >= min_passes:
            return passes, wall


def _op_seconds(results) -> dict:
    """Every operation's seconds, by input (file, task or calibration)."""
    by_key: dict = {}
    for r in results:
        by_key.setdefault(r.key, []).append(r.seconds)
    return by_key


def _p50(passes) -> float:
    """Median over passes of a pass's mean seconds per operation.

    Inputs of one workload differ in cost, so a median over the pooled
    operations would pick one input's time; a pass holds every input once.
    """
    return statistics.median(sum(r.seconds for r in p) / len(p)
                             for p in passes)


def _end_to_end(passes, wall: float, setup_s: float) -> dict:
    done = [r for p in passes for r in p if r.ok]
    op_seconds = sum(r.seconds for r in done)
    compared = sum(r.compared for r in done)
    return {
        "setup_s": setup_s,
        "op_s.p50": _p50(passes),
        "tasks_per_s": len(done) / wall,
        "rows_per_s": sum(r.rows for r in done) / op_seconds if op_seconds else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "level_agreement": (sum(r.agreed for r in done) / compared
                            if compared else 0.0),
    }


def _timing_summary(results) -> dict:
    """Sample count and, when at least ten samples lie beyond it, p90."""
    times = sorted(r.seconds for r in results)
    out = {"samples": len(times)}
    if len(times) >= 100:
        out["p90"] = statistics.quantiles(times, n=10)[8]
    return out


def _checks(results, exact_levels: bool, trace_problems=()) -> list:
    """(name, passed, detail) for every correctness check of a run."""
    failed = [f"{r.key}: {r.error}" for r in results if not r.ok]
    digests: dict = {}
    for r in results:
        for name, digest in r.digests.items():
            digests.setdefault(name, set()).add(digest)
    unstable = sorted(n for n, d in digests.items() if len(d) > 1)
    done = [r for r in results if r.ok]
    disagree = sorted({r.key for r in done
                       if exact_levels and r.agreed != r.compared})
    return [
        ("every operation completed", not failed, failed[:5]),
        ("outputs identical across passes", not unstable, unstable),
        ("levels equal the reference", not disagree, disagree),
        ("trace spans nest", not trace_problems, list(trace_problems)[:5]),
    ]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, min_passes: int = spec.MIN_PASSES) -> dict:
    """Run one workload in this process and return its results record."""
    use_checkout_program()
    import tracing
    import workloads

    work_dir = os.path.join(WORK, f"{name}-seed{seed}-pid{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = workloads.make(name, seed, work_dir, tiny=tiny)
        start = time.perf_counter()
        workload.setup()
        workload.run_pass()              # untimed warm-up pass
        setup_s = time.perf_counter() - start
        workload.prepare_checks()

        passes, wall = _measure(workload, seconds, min_passes)
        results = [r for p in passes for r in p]
        record = {"end_to_end": _end_to_end(passes, wall, setup_s),
                  "timing": _timing_summary(results)}
        all_results = list(results)
        problems = []
        if trace:
            tracer = tracing.Tracer()
            peak_alloc: dict = {}
            with tracing.installed(tracer, peak_alloc):
                traced_passes, _ = _measure(workload, seconds, min_passes,
                                            tracer)
            traced = [r for p in traced_passes for r in p]
            all_results += traced
            problems = tracing.check_nesting(tracer.spans)
            layers = tracing.layer_metrics(tracer.spans, len(traced), peak_alloc)
            layers["trace.overhead_s"] = _p50(traced_passes) - _p50(passes)
            record["per_layer"] = layers
            record["traced_op_seconds"] = _op_seconds(traced)
        checks = _checks(all_results, workload.exact_levels, problems)
        record.update(workload.summary())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for r in all_results if not r.ok)
    record.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "why": spec.WORKLOADS[name], "rows_per_op": sorted(
            {r.rows for r in all_results}),
        "env": environment(), "op_seconds": _op_seconds(results),
        "attempted": len(all_results), "failed": failed,
        "failed_frac": failed / len(all_results),
        "digests": {n: sorted({r.digests[n] for r in all_results
                               if n in r.digests})
                    for n in sorted({n for r in all_results for n in r.digests})},
        "checks": [{"check": c, "passed": ok, "detail": d}
                   for c, ok, d in checks],
    })
    record["correct"] = all(ok for _, ok, _ in checks)
    return record


def contract_line(record: dict) -> dict:
    """The benchmark's last output line: metrics named in BENCHMARK.json."""
    values, units = ((record["per_layer"], spec.PER_LAYER) if record["trace"]
                     else (record["end_to_end"], spec.END_TO_END))
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def _print_table(record: dict, line: dict) -> None:
    print(f"# {record['workload']}  seed={record['seed']}  "
          f"trace={int(record['trace'])}  {record['why']}")
    for name, m in line["metrics"].items():
        print(f"  {name:<46} {m['value']:>16.6g} {m['unit']}")
    extras = {"op_s.p90": record["timing"].get("p90"),
              "failed_frac": record["failed_frac"],
              "separable_frac": record.get("separable_frac")}
    for name, value in extras.items():
        if value is not None:
            print(f"  {name:<46} {value:>16.6g}")
    if "inseparable" in record:
        print(f"  inseparable: {', '.join(record['inseparable']) or 'none'}")
    for c in record["checks"]:
        print(f"  check {'ok  ' if c['passed'] else 'FAIL'} {c['check']}"
              + ("" if c["passed"] else f": {c['detail']}"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    line = contract_line(record)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results", f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    _print_table(record, line)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(line), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
