"""Two-feature correlation audit: does score depend on gender?

Same workflow as the single-column demo, but the two features classify
the task as a categorical/numerical scenario, so the group-difference
metrics (Cohen's d, causal effect, and friends) run and the chart is a
per-group box plot.
"""

import sys
from importlib import resources

from biasaudit.metrics import BiasType
from biasaudit.orchestrator import RulePlanner, TaskContext, build_registry, run_session


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else None
    dataset = str(resources.files("biasaudit.data").joinpath("sample.csv"))
    task = TaskContext(
        question="Does the score differ across gender groups?",
        dataset=dataset,
        features=("gender", "score"),
        bias_type=BiasType.CORRELATION,
    )
    report, _log = run_session(task, RulePlanner(), build_registry(),
                               out_dir=out_dir)
    print(report.to_markdown())


if __name__ == "__main__":
    main()
