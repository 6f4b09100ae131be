"""Single-column audit of the bundled sample dataset.

Runs the full five-stage workflow with the deterministic rule planner on
the gender column and prints the resulting markdown report. Pass an output
directory as the first argument to also get the SVG chart and JSON findings.
"""

import sys
from importlib import resources

from biasaudit.metrics import BiasType
from biasaudit.orchestrator import RulePlanner, TaskContext, build_registry, run_session


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else None
    dataset = str(resources.files("biasaudit.data").joinpath("sample.csv"))
    task = TaskContext(
        question="Is the gender column balanced?",
        dataset=dataset,
        features=("gender",),
        bias_type=BiasType.DISTRIBUTION,
    )
    report, log = run_session(task, RulePlanner(), build_registry(),
                              out_dir=out_dir)
    print(report.to_markdown())
    print(f"[{len(log.events)} log events, "
          f"headline level {report.headline.value}]", file=sys.stderr)


if __name__ == "__main__":
    main()
