"""The demos run as scripts and write the files their docstrings name."""

import json
import pathlib
import runpy
import sys

import pytest

from biasaudit.severity import ThresholdTable

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def charts_and_findings(out):
    findings = json.loads((out / "findings.json").read_text(encoding="utf-8"))
    assert findings["complete"]
    assert (out / "report.md").is_file()
    assert [p.suffix for p in out.glob("chart_*")] == [".svg"]


def thresholds(out):
    ThresholdTable.from_json(out.read_text(encoding="utf-8"))


def benchmark(out):
    results = json.loads((out / "results.json").read_text(encoding="utf-8"))
    assert results["overall"]["s_avg"] == 100.0
    assert (out / "benchmark.md").is_file()
    assert len(list(out.glob("T-*.log.jsonl"))) == results["overall"]["n"]


@pytest.mark.parametrize("demo, check", [
    ("audit_single_column", charts_and_findings),
    ("audit_two_features", charts_and_findings),
    ("calibrate_thresholds", thresholds),
    ("run_benchmark", benchmark),
])
def test_demo_writes_its_files(demo, check, tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    script = str(DEMOS / f"{demo}.py")
    monkeypatch.setattr(sys, "argv", [script, str(out)])
    runpy.run_path(script, run_name="__main__")
    assert capsys.readouterr().out.startswith("# ")
    check(out)
