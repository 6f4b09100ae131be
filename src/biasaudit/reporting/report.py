"""Detection-report assembly: findings table, headline level, recommendations."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from ..errors import NoFindingsError
from ..metrics import MetricResult, Scenario
from ..severity import BiasLevel, LEVEL_LABELS


def sig4(v) -> str:
    """Numeric rendering contract: 4 significant digits."""
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return f"{v:.4g}"


@dataclass(frozen=True)
class Finding:
    metric_id: str
    raw: dict
    level: BiasLevel
    n: int
    details: str = ""

    @classmethod
    def from_result(cls, result: MetricResult, level: BiasLevel) -> "Finding":
        return cls(metric_id=result.metric_id, raw=result.raw, level=level,
                   n=result.n, details=result.details)


# Recommendation text keyed by (scenario, headline level band).
_RECOMMENDATIONS = {
    Scenario.CAT_DIST: {
        3: ["Consider re-weighting or stratified sampling to even out the "
            "category frequencies before downstream modeling."],
        4: ["Collect additional observations for the under-represented "
            "categories, or down-sample the dominant ones.",
            "Report per-category support alongside any aggregate statistic."],
        5: ["The column is dominated by very few categories; treat any "
            "model trained on it as unreliable for the rare groups.",
            "Rebalance by targeted data collection before reuse."],
    },
    Scenario.NUM_DIST: {
        3: ["Inspect the distribution shape; a transformation (log, rank) "
            "may reduce the asymmetry."],
        4: ["Screen and document outliers; consider robust statistics "
            "(median, MAD) for downstream summaries."],
        5: ["The distribution is heavily skewed or outlier-laden; clean or "
            "winsorize before analysis and re-run the audit."],
    },
    Scenario.CAT_CAT: {
        3: ["Review whether the association between the two features is "
            "expected; stratify analyses by the group feature."],
        4: ["Audit decision rules that consume the outcome feature for "
            "disparate treatment across groups.",
            "Consider re-sampling so group/outcome rates align."],
        5: ["The two features are strongly associated; any model using the "
            "outcome will likely proxy for the group attribute.",
            "Apply bias mitigation (re-weighting, decoupled thresholds) and "
            "re-audit."],
    },
    Scenario.CAT_NUM: {
        3: ["Compare group means with confidence intervals before acting "
            "on the observed gap."],
        4: ["Investigate causes of the group gap; adjust for legitimate "
            "covariates and re-estimate the effect."],
        5: ["Groups differ substantially on the outcome; treat raw scores "
            "as incomparable across groups until adjusted."],
    },
    Scenario.NUM_NUM: {
        3: ["Check whether the dependence is expected; avoid using both "
            "features as if independent."],
        4: ["The features carry largely overlapping information; consider "
            "dropping or decorrelating one of them."],
        5: ["The features are strongly dependent; one may act as a proxy "
            "for the other in any downstream model."],
    },
}

_NO_ACTION = "no action required"
_MILD = "No strong bias detected; monitor the feature(s) in future data refreshes."


def recommendations_for(scenario: Scenario, headline: int) -> list:
    if headline <= 1:
        return [_NO_ACTION]
    if headline == 2:
        return [_MILD]
    return list(_RECOMMENDATIONS[scenario][headline])


@dataclass(frozen=True)
class ReportDocument:
    task_summary: str
    scenario: Scenario | None  # None: the run never classified the features
    findings: tuple
    charts: tuple  # chart file names
    recommendations: tuple
    method_citations: tuple = ()
    complete: bool = True
    errors: tuple = ()

    @property
    def headline(self):
        """Max finding level, or None for an empty incomplete report."""
        if not self.findings:
            return None
        level = max(f.level.value for f in self.findings)
        return BiasLevel(level, LEVEL_LABELS[level])

    def to_markdown(self) -> str:
        head = self.headline
        headline_text = (f"{head.value} ({head.label})" if head
                         else "undetermined")
        scenario_text = self.scenario.value if self.scenario else "undetermined"
        lines = [
            "# Bias detection report",
            "",
            f"**Task:** {self.task_summary}",
            "",
            f"**Scenario:** {scenario_text}",
            "",
            f"**Overall bias level:** {headline_text}"
            + ("" if self.complete else " (INCOMPLETE RUN)"),
            "",
            "## Findings",
            "",
            "| metric | value(s) | n | level | label |",
            "|---|---|---|---|---|",
        ]
        for f in self.findings:
            raw = ", ".join(f"{k}={sig4(v)}" for k, v in f.raw.items())
            lines.append(f"| {f.metric_id} | {raw} | {f.n} "
                         f"| {f.level.value} | {f.level.label} |")
        if self.errors:
            lines += ["", "## Metric errors", ""]
            lines += [f"- {e}" for e in self.errors]
        if self.charts:
            lines += ["", "## Charts", ""]
            lines += [f"![{c}]({c})" for c in self.charts]
        lines += ["", "## Recommendations", ""]
        lines += [f"- {r}" for r in self.recommendations]
        if self.method_citations:
            lines += ["", "## Method references", ""]
            lines += [f"- {m}" for m in self.method_citations]
        return "\n".join(lines) + "\n"

    def to_record(self) -> dict:
        return {
            "task_summary": self.task_summary,
            "scenario": self.scenario.value if self.scenario else None,
            "headline_level": self.headline.value if self.headline else None,
            "headline_label": self.headline.label if self.headline else None,
            "complete": self.complete,
            "findings": [
                {"metric_id": f.metric_id,
                 "raw": {k: ("inf" if isinstance(v, float) and math.isinf(v)
                             else float(sig4(v)))
                         for k, v in f.raw.items()},
                 "n": f.n, "level": f.level.value, "label": f.level.label}
                for f in self.findings
            ],
            "charts": list(self.charts),
            "recommendations": list(self.recommendations),
            "method_citations": list(self.method_citations),
            "errors": list(self.errors),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), indent=2, sort_keys=True) + "\n"


def assemble_report(task_summary: str, scenario: Scenario, findings,
                    charts=(), method_citations=(), errors=()) -> ReportDocument:
    """Build the report model; recommendations come from the fixed rule table."""
    findings = tuple(findings)
    if not findings:
        raise NoFindingsError("cannot assemble a report without findings")
    headline = max(f.level.value for f in findings)
    recs = recommendations_for(scenario, headline)
    return ReportDocument(
        task_summary=task_summary,
        scenario=scenario,
        findings=findings,
        charts=tuple(charts),
        recommendations=tuple(recs),
        method_citations=tuple(method_citations),
        errors=tuple(errors),
    )
