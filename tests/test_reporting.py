"""SVG chart renderers and the detection-report document."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biasaudit.errors import ArityMismatchError, EmptyDataError, NoFindingsError
from biasaudit.metrics import Scenario
from biasaudit.reporting import (
    ChartKind,
    ChartSpec,
    Finding,
    ReportDocument,
    assemble_report,
    recommendations_for,
    render_chart,
    sig4,
)
from biasaudit.severity import BiasLevel


def labeled_rects(markup):
    return re.findall(r'<rect [^>]*data-label="([^"]*)"', markup)


def spec(kind, **data):
    return ChartSpec(kind=kind, data=data, title="t")


class TestBarFamily:
    def test_bar_two_categories_two_rects(self):
        markup = render_chart(spec(ChartKind.BAR, series={"a": 3, "b": 1}))
        assert labeled_rects(markup) == ["a", "b"]

    def test_bar_sorted_by_label(self):
        markup = render_chart(spec(ChartKind.BAR, series={"z": 1, "a": 2, "m": 3}))
        assert labeled_rects(markup) == ["a", "m", "z"]

    def test_horizontal_bar(self):
        markup = render_chart(
            spec(ChartKind.HORIZONTAL_BAR, series={"a": 3, "b": 1}))
        assert labeled_rects(markup) == ["a", "b"]

    def test_empty_series_rejected(self):
        for kind in (ChartKind.BAR, ChartKind.PIE, ChartKind.HORIZONTAL_BAR,
                     ChartKind.TREEMAP, ChartKind.HEATMAP):
            with pytest.raises(EmptyDataError):
                render_chart(spec(kind, series={}))

    def test_negative_values_rejected(self):
        with pytest.raises(ArityMismatchError):
            render_chart(spec(ChartKind.BAR, series={"a": -1}))


class TestPie:
    def test_single_category_is_full_circle(self):
        markup = render_chart(spec(ChartKind.PIE, series={"only": 7}))
        circles = re.findall(r'<circle [^>]*data-label="([^"]*)"', markup)
        assert circles == ["only"]
        assert "<path" not in markup

    def test_wedges_carry_labels(self):
        markup = render_chart(spec(ChartKind.PIE, series={"a": 3, "b": 1}))
        wedges = re.findall(r'<path [^>]*data-label="([^"]*)"', markup)
        assert sorted(wedges) == ["a", "b"]

    def test_all_zero_rejected(self):
        with pytest.raises(EmptyDataError):
            render_chart(spec(ChartKind.PIE, series={"a": 0, "b": 0}))


class TestTreemapAndHeatmap:
    def test_treemap_covers_positive_items(self):
        markup = render_chart(
            spec(ChartKind.TREEMAP, series={"a": 6, "b": 3, "c": 1, "d": 0}))
        assert sorted(labeled_rects(markup)) == ["a", "b", "c"]

    def test_heatmap_one_cell_per_category(self):
        markup = render_chart(spec(ChartKind.HEATMAP, series={"a": 4, "b": 1}))
        assert labeled_rects(markup) == ["a", "b"]


class TestCorrelationHeatmap:
    def test_cell_grid(self):
        markup = render_chart(ChartSpec(
            ChartKind.CORRELATION_HEATMAP,
            {"labels": ["x", "y"], "matrix": [[1.0, 0.5], [0.5, 1.0]]}))
        assert len(labeled_rects(markup)) == 4
        assert 'data-label="x/y"' in markup

    def test_non_square_rejected(self):
        with pytest.raises(ArityMismatchError):
            render_chart(ChartSpec(
                ChartKind.CORRELATION_HEATMAP,
                {"labels": ["x", "y"], "matrix": [[1.0, 0.5]]}))

    def test_out_of_range_rejected(self):
        with pytest.raises(ArityMismatchError):
            render_chart(ChartSpec(
                ChartKind.CORRELATION_HEATMAP,
                {"labels": ["x"], "matrix": [[1.5]]}))

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataError):
            render_chart(ChartSpec(ChartKind.CORRELATION_HEATMAP,
                                   {"labels": [], "matrix": []}))


class TestTwoLevelBars:
    def test_stacked_bar_labels(self):
        markup = render_chart(spec(
            ChartKind.STACKED_BAR,
            groups={"g1": {"yes": 3, "no": 1}, "g2": {"yes": 2, "no": 2}}))
        labels = labeled_rects(markup)
        assert set(labels) == {"g1/yes", "g1/no", "g2/yes", "g2/no"}

    def test_grouped_bar_labels(self):
        markup = render_chart(spec(
            ChartKind.GROUPED_BAR,
            groups={"g1": {"yes": 3}, "g2": {"yes": 2}}))
        assert set(labeled_rects(markup)) == {"g1/yes", "g2/yes"}

    def test_empty_groups_rejected(self):
        with pytest.raises(EmptyDataError):
            render_chart(spec(ChartKind.STACKED_BAR, groups={}))


class TestBox:
    def test_one_box_per_group(self):
        markup = render_chart(spec(
            ChartKind.BOX, groups={"a": [1.0, 2.0, 3.0], "b": [2.0, 4.0]}))
        assert labeled_rects(markup) == ["a", "b"]

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyDataError):
            render_chart(spec(ChartKind.BOX, groups={"a": []}))

    def test_no_groups_rejected(self):
        with pytest.raises(EmptyDataError):
            render_chart(spec(ChartKind.BOX, groups={}))

    def test_array_groups_render_as_lists(self):
        # Unsorted, with -0.0/0.0 ties whose order can reach a quantile's sign.
        groups = {"a": [3.0, -0.0, 0.0, -1.5, 0.0, -0.0, 2.25],
                  "b": [0.0, -0.0, 0.0, -0.0], "c": [5, 1, 4]}
        arrays = {k: np.array(v, dtype=float) for k, v in groups.items()}
        assert (render_chart(spec(ChartKind.BOX, groups=arrays))
                == render_chart(spec(ChartKind.BOX, groups=groups)))


BOX_VALUE = st.one_of(st.sampled_from([-0.0, 0.0, 1.5, -2.0]),
                      st.floats(-1e6, 1e6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(BOX_VALUE, min_size=1, max_size=12), min_size=1,
                max_size=4), st.randoms(use_true_random=False))
def test_box_markup_does_not_depend_on_row_order(groups, rng):
    # Duplicates, -0.0/0.0 ties and one-row groups included.
    ordered = {f"g{i}": v for i, v in enumerate(groups)}
    shuffled = {k: rng.sample(v, len(v)) for k, v in ordered.items()}
    assert (render_chart(spec(ChartKind.BOX, groups=shuffled))
            == render_chart(spec(ChartKind.BOX, groups=ordered)))


class TestRenderDeterminism:
    def test_same_spec_same_bytes(self, tmp_path):
        s = spec(ChartKind.BAR, series={"a": 3, "b": 1})
        p1 = tmp_path / "one.svg"
        p2 = tmp_path / "two.svg"
        render_chart(s, p1)
        render_chart(s, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_volatile_content(self):
        markup = render_chart(spec(ChartKind.PIE, series={"a": 1, "b": 2}))
        assert "id=" not in markup
        assert markup.startswith("<svg ")
        assert markup.endswith("</svg>\n")


def finding(metric_id, level, raw=None, n=50):
    return Finding(metric_id=metric_id, raw=raw or {"v": 0.5},
                   level=BiasLevel.of(level), n=n)


class TestSig4:
    def test_four_significant_digits(self):
        assert sig4(0.123456) == "0.1235"
        assert sig4(12345.6) == "1.235e+04"
        assert sig4(2.0) == "2"
        assert sig4(float("inf")) == "inf"


class TestReportDocument:
    def test_headline_is_max_level(self):
        levels = [2, 3, 3, 4, 2]
        doc = assemble_report(
            "audit", Scenario.CAT_DIST,
            [finding(f"m{i}", lv) for i, lv in enumerate(levels)])
        assert doc.headline.value == 4
        assert doc.headline.label == "biased"

    def test_level_one_means_no_action(self):
        doc = assemble_report("audit", Scenario.CAT_DIST, [finding("m", 1)])
        assert doc.recommendations == ("no action required",)

    def test_recommendations_escalate(self):
        for scenario in Scenario:
            for headline in (3, 4, 5):
                recs = recommendations_for(scenario, headline)
                assert recs and all(isinstance(r, str) for r in recs)

    def test_zero_findings_rejected(self):
        with pytest.raises(NoFindingsError):
            assemble_report("audit", Scenario.CAT_DIST, [])

    def test_markdown_contains_table_and_sections(self):
        doc = assemble_report(
            "audit", Scenario.NUM_NUM, [finding("pearson", 5, {"r": 0.9})],
            charts=("c.svg",), method_citations=("A-0-1: a method",))
        md = doc.to_markdown()
        assert "| pearson | r=0.9 | 50 | 5 | most biased |" in md
        assert "![c.svg](c.svg)" in md
        assert "## Recommendations" in md
        assert "A-0-1: a method" in md

    def test_incomplete_empty_report_renders(self):
        doc = ReportDocument(
            task_summary="audit", scenario=Scenario.CAT_DIST, findings=(),
            charts=(), recommendations=(), complete=False)
        assert doc.headline is None
        md = doc.to_markdown()
        assert "undetermined" in md
        assert "(INCOMPLETE RUN)" in md
        rec = doc.to_record()
        assert rec["headline_level"] is None
        assert rec["complete"] is False

    def test_record_renders_infinity(self):
        doc = assemble_report(
            "audit", Scenario.CAT_DIST,
            [finding("max_min_ratio", 5, {"ratio": float("inf")})])
        rec = doc.to_record()
        assert rec["findings"][0]["raw"]["ratio"] == "inf"
