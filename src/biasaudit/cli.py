"""Command-line surface for the bias-audit engine.

Exit codes: 0 on success (complete report), 2 when a run finishes but the
report is incomplete, 1 on any error. Offline mode (the default) never
touches the network; chat mode needs a config file naming the endpoint and
an API-key environment variable (the key itself is never stored).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import bench as benchmod
from . import methodlib, synthgen
from .errors import BiasAuditError, EndOfInputError
from .metrics import BiasType, MetricOptions, Scenario
from .orchestrator import (
    ChatConfig,
    ChatPlanner,
    RulePlanner,
    TaskContext,
    build_registry,
    run_session,
)
from .severity import DEFAULT_TABLE, ThresholdTable
from .tabular import load_table, save_table


@dataclass(frozen=True)
class Config:
    mode: str = "offline"          # offline | chat
    base_url: str = ""
    model: str = ""
    key_env: str = "BIASAUDIT_API_KEY"
    timeout_s: float = 30.0
    thresholds_path: str | None = None
    library_path: str | None = None
    out_dir: str | None = None

    def __post_init__(self):
        if self.mode not in ("offline", "chat"):
            raise BiasAuditError(f"unknown mode {self.mode!r}")
        if self.mode == "chat" and not (self.base_url and self.model):
            raise BiasAuditError("chat mode requires base_url and model")


def load_config(path) -> Config:
    if path is None:
        path = os.environ.get("BIASAUDIT_CONFIG")
    if path is None:
        return Config()
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return Config(**{k: raw[k] for k in raw
                     if k in Config.__dataclass_fields__})


def _thresholds(config: Config) -> ThresholdTable:
    if config.thresholds_path:
        with open(config.thresholds_path, encoding="utf-8") as fh:
            return ThresholdTable.from_json(fh.read())
    return DEFAULT_TABLE


def _library(config: Config):
    if config.library_path:
        return methodlib.load_library(config.library_path)
    return methodlib.builtin_library()


def _planner(config: Config):
    if config.mode == "chat":
        return ChatPlanner(ChatConfig(base_url=config.base_url,
                                      model=config.model,
                                      key_env=config.key_env,
                                      timeout_s=config.timeout_s))
    return RulePlanner()


def _task_from_args(args) -> TaskContext:
    bias_type = {None: BiasType.UNSTATED,
                 "distribution": BiasType.DISTRIBUTION,
                 "correlation": BiasType.CORRELATION,
                 "implication": BiasType.UNSTATED}[args.bias_type]
    question = getattr(args, "question", None) or (
        f"Audit feature(s) {', '.join(args.features)} of {args.dataset} "
        f"for bias.")
    return TaskContext(question=question, dataset=args.dataset,
                       features=tuple(args.features), bias_type=bias_type)


def _run_detect_session(args, config, out_dir, interactive=False,
                        followups=()):
    task = _task_from_args(args)
    if interactive or followups:
        task = TaskContext(question=task.question, dataset=task.dataset,
                           features=task.features, bias_type=task.bias_type,
                           followups=tuple(followups),
                           interactive=interactive)
    report, log = run_session(
        task, _planner(config), build_registry(),
        budget=args.budget, thresholds=_thresholds(config),
        opts=MetricOptions(seed=args.seed), out_dir=out_dir,
        library=_library(config))
    if out_dir is not None:
        with open(os.path.join(out_dir, "session.log.jsonl"), "w",
                  encoding="utf-8") as fh:
            fh.write(log.to_jsonl())
    return report


def cmd_detect(args, config: Config) -> int:
    out_dir = args.out or config.out_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    report = _run_detect_session(args, config, out_dir)
    print(report.to_markdown())
    return 0 if report.complete and report.findings else 2


def cmd_repl(args, config: Config) -> int:
    out_dir = args.out or config.out_dir
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    report = _run_detect_session(args, config, out_dir)
    print(report.to_markdown())
    revisions = 1
    while True:
        try:
            line = input("follow-up (blank or 'quit' to stop)> ")
        except EOFError:
            break
        if not line.strip() or line.strip().lower() in ("q", "quit", "exit"):
            break
        args.question = line.strip()
        try:
            report = _run_detect_session(args, config, out_dir)
        except EndOfInputError:
            break
        print(report.to_markdown())
        revisions += 1
    print(f"{revisions} report(s) produced", file=sys.stderr)
    return 0


def cmd_bench(args, config: Config) -> int:
    tasks = benchmod.load_taskset(args.taskset)
    report = benchmod.run_benchmark(
        tasks, lambda: _planner(config), build_registry(),
        thresholds=_thresholds(config), opts=MetricOptions(seed=args.seed),
        out_dir=args.out or config.out_dir, jobs=args.jobs)
    print(report.to_markdown())
    return 0 if not report.failures else 2


def cmd_calibrate(args, config: Config) -> int:
    scenarios = ([Scenario(args.scenario)] if args.scenario
                 else list(Scenario))
    table, report = synthgen.calibrate_scenarios(
        scenarios, _thresholds(config), opts=MetricOptions(seed=args.seed),
        base_seed=args.seed or 7)
    print(report.to_markdown())
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "thresholds.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(table.to_json())
        with open(os.path.join(args.out, "calibration.md"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.to_markdown())
    return 0


def cmd_methods(args, config: Config) -> int:
    library = _library(config)
    if args.action == "list":
        for method_id, intention in methodlib.list_intentions(library):
            print(f"{method_id}\t{intention}")
        return 0
    if args.action == "show":
        entry = methodlib.get_method_by_id(library, args.id)
        print(json.dumps(entry.to_record(), indent=2))
        return 0
    # search
    query = methodlib.RetrievalQuery(scenario=Scenario(args.scenario),
                                     free_text=args.query or "",
                                     top_k=args.top_k)
    for entry in methodlib.retrieve(library, query):
        print(f"{entry.id}\t{entry.intention}")
    return 0


def cmd_synth(args, config: Config) -> int:
    spec = synthgen.SynthSpec(scenario=Scenario(args.scenario), n=args.n,
                              strength=args.strength, k=args.k,
                              seed=args.seed)
    table = synthgen.generate(spec)
    if args.out:
        save_table(table, args.out)
        print(args.out, file=sys.stderr)
    else:
        from .tabular import serialize_table
        print(serialize_table(table), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasaudit",
        description="Bias audit for tabular data: detect, visualize, report.")
    parser.add_argument("--config", default=None,
                        help="path to a JSON config file")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run one detection session")
    detect.add_argument("dataset")
    detect.add_argument("--features", nargs="+", required=True)
    detect.add_argument("--bias-type", dest="bias_type", default=None,
                        choices=["distribution", "correlation", "implication"])
    detect.add_argument("--question", default=None)
    detect.add_argument("--budget", type=int, default=64)
    detect.add_argument("--out", default=None)

    repl = sub.add_parser("repl", help="interactive detect-and-refine loop")
    repl.add_argument("dataset")
    repl.add_argument("--features", nargs="+", required=True)
    repl.add_argument("--bias-type", dest="bias_type", default=None,
                      choices=["distribution", "correlation", "implication"])
    repl.add_argument("--question", default=None)
    repl.add_argument("--budget", type=int, default=64)
    repl.add_argument("--out", default=None)

    bench = sub.add_parser("bench", help="run a benchmark taskset")
    bench.add_argument("taskset")
    bench.add_argument("--out", default=None)
    bench.add_argument("--jobs", type=int, default=1)

    calibrate = sub.add_parser("calibrate",
                               help="fit severity thresholds on synthetic suites")
    calibrate.add_argument("--scenario", default=None,
                           choices=[s.value for s in Scenario])
    calibrate.add_argument("--out", default=None)

    methods = sub.add_parser("methods", help="browse the method library")
    methods_sub = methods.add_subparsers(dest="action", required=True)
    methods_sub.add_parser("list")
    show = methods_sub.add_parser("show")
    show.add_argument("id")
    search = methods_sub.add_parser("search")
    search.add_argument("--scenario", required=True,
                        choices=[s.value for s in Scenario])
    search.add_argument("--query", default="")
    search.add_argument("--top-k", dest="top_k", type=int, default=5)

    synth = sub.add_parser("synth", help="generate a synthetic table")
    synth.add_argument("--scenario", required=True,
                       choices=[s.value for s in Scenario])
    synth.add_argument("--n", type=int, default=1000)
    synth.add_argument("--strength", type=float, default=0.5)
    synth.add_argument("--k", type=int, default=4)
    synth.add_argument("--out", default=None)
    return parser


_COMMANDS = {
    "detect": cmd_detect,
    "repl": cmd_repl,
    "bench": cmd_bench,
    "calibrate": cmd_calibrate,
    "methods": cmd_methods,
    "synth": cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except BiasAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
