"""Command-line surface for the bias-audit engine.

Exit codes: 0 on success (complete report), 2 when a run finishes but the
report is incomplete, 1 on any error. Offline mode (the default) never
touches the network; a config naming ``base_url`` and ``model`` turns chat
mode on, with the API key read from an environment variable, never stored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import bench as benchmod
from . import methodlib, synthgen
from .errors import BiasAuditError, EndOfInputError, SchemaError
from .metrics import BiasType, Scenario
from .orchestrator import (
    ChatConfig,
    ChatPlanner,
    RulePlanner,
    TaskContext,
    build_registry,
    run_session,
)
from .severity import DEFAULT_TABLE, ThresholdTable
from .tabular import save_table, write_table


@dataclass(frozen=True)
class Config:
    base_url: str = ""             # chat mode when non-empty, else offline
    model: str = ""
    key_env: str = "BIASAUDIT_API_KEY"
    timeout_s: float = 30.0
    thresholds_path: str | None = None
    library_path: str | None = None

    def __post_init__(self):
        for key in ("base_url", "model", "key_env", "thresholds_path",
                    "library_path"):
            value = getattr(self, key)
            nullable = key.endswith("_path")
            if not (isinstance(value, str) or (nullable and value is None)):
                raise BiasAuditError(
                    f"config {key} must be a string{' or null' * nullable}, "
                    f"got {value!r}")
        if isinstance(self.timeout_s, bool) or \
                not isinstance(self.timeout_s, (int, float)):
            raise BiasAuditError(
                f"config timeout_s must be a number, got {self.timeout_s!r}")
        if not 0 < self.timeout_s < float("inf"):  # NaN fails too
            raise BiasAuditError(f"config timeout_s must be finite and > 0, "
                                 f"got {self.timeout_s!r}")
        if self.base_url and not self.model:
            raise BiasAuditError("chat mode requires base_url and model")


def load_config(path) -> Config:
    if path is None:
        path = os.environ.get("BIASAUDIT_CONFIG")
    if path is None:
        return Config()
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise BiasAuditError(f"config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise BiasAuditError(f"config {path}: expected a JSON object")
    unknown = sorted(set(raw) - set(Config.__dataclass_fields__))
    if unknown:
        raise BiasAuditError(f"config {path}: unknown key(s) {unknown}")
    config = Config(**raw)
    unread = [key for key in ("model", "key_env", "timeout_s") if key in raw]
    if unread and not config.base_url:
        raise BiasAuditError(f"config {path}: no base_url, so chat mode is "
                             f"off and {unread} would be ignored")
    return config


def _thresholds(config: Config) -> ThresholdTable:
    if config.thresholds_path:
        try:
            with open(config.thresholds_path, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"threshold table {config.thresholds_path}: {exc}") from exc
        return ThresholdTable.from_json(text)
    return DEFAULT_TABLE


def _library(config: Config):
    if config.library_path:
        return methodlib.load_library(config.library_path)
    return methodlib.builtin_library()


def _planner(config: Config):
    if config.base_url:
        return ChatPlanner(ChatConfig(base_url=config.base_url,
                                      model=config.model,
                                      key_env=config.key_env,
                                      timeout_s=config.timeout_s))
    return RulePlanner()


def _task_from_args(args) -> TaskContext:
    bias_type = benchmod._BIAS_TYPE_IN.get(args.bias_type, BiasType.UNSTATED)
    benchmod.check_feature_count("--features", bias_type, args.features)
    question = args.question or (
        f"Audit feature(s) {', '.join(args.features)} of {args.dataset} "
        f"for bias.")
    return TaskContext(question=question, dataset=args.dataset,
                       features=tuple(args.features), bias_type=bias_type,
                       interactive=args.command == "repl")


def _run_detect_session(args, config):
    log_path = None
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        log_path = os.path.join(args.out, "session.log.jsonl")
    return run_session(
        _task_from_args(args), _planner(config), build_registry(),
        budget=args.budget, thresholds=_thresholds(config), out_dir=args.out,
        library=_library(config), log_path=log_path)[0]


def cmd_detect(args, config: Config) -> int:
    report = _run_detect_session(args, config)
    print(report.to_markdown())
    return 0 if report.complete and report.findings else 2


def cmd_repl(args, config: Config) -> int:
    report = _run_detect_session(args, config)
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
            report = _run_detect_session(args, config)
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
        thresholds=_thresholds(config), out_dir=args.out, jobs=args.jobs,
        library=_library(config))
    print(report.to_markdown())
    return 0 if not report.failures else 2


def cmd_calibrate(args, config: Config) -> int:
    scenarios = ([Scenario(args.scenario)] if args.scenario
                 else list(Scenario))
    table, report = synthgen.calibrate_scenarios(
        scenarios, _thresholds(config), base_seed=args.seed)
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
    try:
        query = methodlib.RetrievalQuery(scenario=Scenario(args.scenario),
                                         free_text=args.query or "",
                                         top_k=args.top_k)
    except ValueError as exc:
        raise BiasAuditError(f"--top-k: {exc}") from exc
    for entry in methodlib.retrieve(library, query):
        print(f"{entry.id}\t{entry.intention}")
    return 0


# The scenarios whose generator draws categories; only they take --k.
_K_SCENARIOS = (Scenario.CAT_DIST, Scenario.CAT_CAT)


def cmd_synth(args, config: Config) -> int:
    scenario = Scenario(args.scenario)
    if args.k is not None and scenario not in _K_SCENARIOS:
        raise BiasAuditError(f"--k applies only to cat_dist and cat_cat, "
                             f"not {scenario.value}")
    spec = synthgen.SynthSpec(scenario=scenario, n=args.n,
                              strength=args.strength,
                              k=4 if args.k is None else args.k,
                              seed=args.seed)
    table = synthgen.generate(spec)
    if args.out:
        save_table(table, args.out)
        print(args.out, file=sys.stderr)
    else:
        write_table(table, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biasaudit",
        description="Bias audit for tabular data: detect, visualize, report.")
    parser.add_argument("--config", default=None,
                        help="path to a JSON config file")
    sub = parser.add_subparsers(dest="command", required=True)

    session = argparse.ArgumentParser(add_help=False)
    session.add_argument("dataset")
    session.add_argument("--features", nargs="+", required=True)
    session.add_argument("--bias-type", dest="bias_type", default=None,
                         choices=list(benchmod._BIAS_TYPE_IN))
    session.add_argument("--question", default=None)
    session.add_argument("--budget", type=int, default=64)
    session.add_argument("--out", default=None)
    sub.add_parser("detect", parents=[session],
                   help="run one detection session")
    sub.add_parser("repl", parents=[session],
                   help="interactive detect-and-refine loop")

    bench = sub.add_parser("bench", help="run a benchmark taskset")
    bench.add_argument("taskset")
    bench.add_argument("--out", default=None)
    bench.add_argument("--jobs", type=int, default=1)

    calibrate = sub.add_parser("calibrate",
                               help="fit severity thresholds on synthetic suites")
    calibrate.add_argument("--scenario", default=None,
                           choices=[s.value for s in Scenario])
    calibrate.add_argument("--seed", type=int, default=7)
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
    synth.add_argument("--k", type=int, default=None,
                       help="categories per column (cat_dist, cat_cat; "
                            "default 4)")
    synth.add_argument("--seed", type=int, default=0)
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
        code = _COMMANDS[args.command](args, config)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``), which is not an error
        # to report. Point stdout at devnull so the flush at exit cannot
        # fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except BiasAuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
