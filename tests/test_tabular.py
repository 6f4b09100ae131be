"""Loading, type inference, and preprocessing of delimited tables."""

import io
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import reference_writer

from biasaudit import tabular
from biasaudit.errors import (
    AllRowsDroppedError,
    ConstantColumnError,
    DuplicateHeaderError,
    EmptyFileError,
    NonNumericalTargetError,
    RaggedRowError,
    TableError,
    UnknownColumnError,
)
from biasaudit.tabular import (
    AggregateFn,
    CleaningMode,
    Column,
    Kind,
    NormalizeMode,
    Table,
    clean_missing,
    extract_columns,
    group_and_aggregate,
    list_features,
    load_table,
    normalize_or_standardize,
    save_table,
    write_table,
)


def table_of(cols):
    """The table of ``(name, kind, cells)`` triples."""
    return Table(tuple(Column.of(*col) for col in cols))


def write(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestListFeatures:
    def test_header_echo(self, tmp_path):
        assert list_features(write(tmp_path, "a,b,c\n1,2,3\n")) == ["a", "b", "c"]

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(DuplicateHeaderError):
            list_features(write(tmp_path, "a,a\n1,2\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFileError):
            list_features(write(tmp_path, ""))

    @pytest.mark.parametrize("read", [list_features, load_table])
    @pytest.mark.parametrize("name,message", [
        ("absent.csv", "No such file or directory"), ("", "Is a directory")])
    def test_unopenable_path_is_a_table_error(self, tmp_path, read, name,
                                              message):
        # The text is the OS error's, so the CLI's error line is unchanged.
        path = tmp_path / name
        with pytest.raises(TableError, match=message) as info:
            read(path)
        assert str(info.value) == str(info.value.__cause__)


def kind_of(tmp_path, cells) -> Kind:
    """The kind ``load_table`` gives a one-column CSV of ``cells``."""
    return load_table(write(tmp_path, "\n".join(["x", *cells, ""]))).column("x").kind


class TestInferKind:
    def test_mixed_tokens_below_threshold(self, tmp_path):
        assert kind_of(tmp_path, ["1", "2", "x"]) is Kind.CATEGORICAL

    def test_all_reals(self, tmp_path):
        assert kind_of(tmp_path, ["1.5", "2.5"]) is Kind.NUMERICAL

    def test_binary_integer_code(self, tmp_path):
        assert kind_of(tmp_path, ["0", "1", "0", "1"] * 50) is Kind.CATEGORICAL

    def test_many_distinct_reals(self, tmp_path):
        assert kind_of(tmp_path, [f"{i}.25" for i in range(100)]) is Kind.NUMERICAL

    def test_mostly_numeric_with_junk(self, tmp_path):
        vals = [f"{i}.5" for i in range(96)] + ["junk"] * 4
        assert kind_of(tmp_path, vals) is Kind.NUMERICAL


class TestLoadTable:
    def test_junk_cells_marked_missing(self, tmp_path):
        rows = "\n".join(f"{i}.5" for i in range(96)) + "\njunk\njunk\njunk\njunk\n"
        t = load_table(write(tmp_path, "x\n" + rows))
        col = t.column("x")
        assert col.kind is Kind.NUMERICAL
        assert col.cells().count(None) == 4

    def test_zero_data_rows(self, tmp_path):
        t = load_table(write(tmp_path, "a,b\n"))
        assert t.row_count == 0
        assert all(c.kind is Kind.CATEGORICAL for c in t.columns)

    def test_ragged_row_reports_row_number(self, tmp_path):
        with pytest.raises(RaggedRowError) as exc:
            load_table(write(tmp_path, "a,b\n1,2\n3\n"))
        assert "row 3" in str(exc.value)

    def test_na_tokens_become_missing(self, tmp_path):
        t = load_table(write(tmp_path, "g\nx\nNA\ny\n?\n"))
        assert t.column("g").cells().count(None) == 2

    def test_roundtrip(self, tmp_path):
        t = table_of([("g", "categorical", ("a", None, "b")),
                           ("x", "numerical", (1.5, 2.0, None))])
        p = tmp_path / "rt.csv"
        save_table(t, p)
        back = load_table(p)
        assert back.column("g").cells() == ("a", None, "b")
        assert back.column("x").cells() == (1.5, 2.0, None)

    def test_save_table_writes_the_serialized_text(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tabular, "_CSV_BLOCK", 2)  # rows span blocks
        t = table_of([
            ("g", "categorical", ("a,b", None, 'say "hi"', "two\nlines", "plain")),
            ("x", "numerical", (-0.0, 2.0, None, 1.5, 1e20)),
        ])
        p = tmp_path / "s.csv"
        save_table(t, p)
        buf = io.StringIO()
        write_table(t, buf)
        assert p.read_bytes() == buf.getvalue().encode("utf-8")

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.one_of(st.just(math.nan),
                              st.floats(allow_nan=False, allow_infinity=False)),
                    max_size=30))
    def test_roundtrip_keeps_every_finite_float(self, tmp_path_factory, cells):
        # 0.5 keeps the column numerical; -0.0 is pinned on its own below.
        data = np.array([0.5, *cells])
        p = tmp_path_factory.mktemp("rt") / "x.csv"
        save_table(Table((Column("x", data),)), p)
        back = load_table(p).column("x").data
        assert np.array_equal(np.isnan(back), np.isnan(data))
        expected = np.where(data == 0, 0.0, data)  # -0.0 reads back as 0.0
        present = ~np.isnan(data)
        assert back[present].view(np.int64).tolist() == \
            expected[present].view(np.int64).tolist()

    def test_negative_zero_reads_back_as_zero(self, tmp_path):
        p = tmp_path / "z.csv"
        save_table(Table((Column("x", np.array([-0.0, 0.5])),)), p)
        assert p.read_text(encoding="utf-8") == "x\n0\n0.5\n"
        assert math.copysign(1.0, load_table(p).column("x").data[0]) == 1.0


class TestExtract:
    def test_single_column(self):
        t = table_of([("a", "categorical", ("x", "y")),
                           ("b", "numerical", (1.0, 2.0))])
        sub = extract_columns(t, ["a"])
        assert sub.column_names == ["a"]
        assert sub.row_count == 2

    def test_unknown_column(self):
        t = table_of([("a", "categorical", ("x",))])
        with pytest.raises(UnknownColumnError):
            extract_columns(t, ["nope"])


class TestCleanMissing:
    def test_noop(self):
        t = table_of([("x", "numerical", (1.0, 2.0))])
        res = clean_missing(t, ["x"])
        assert res.cells_changed == 0 and res.rows_dropped == 0
        assert res.table.column("x").cells() == (1.0, 2.0)

    def test_fill_median(self):
        t = table_of([("x", "numerical", (1.0, 2.0, None, 4.0))])
        res = clean_missing(t, ["x"], CleaningMode.FILL_MEDIAN)
        assert res.table.column("x").cells() == (1.0, 2.0, 2.0, 4.0)
        assert res.cells_changed == 1

    def test_drop_row(self):
        t = table_of([("x", "numerical", (1.0, None, 3.0)),
                           ("g", "categorical", ("a", "b", "c"))])
        res = clean_missing(t, ["x"])
        assert res.rows_dropped == 1
        assert res.table.column("g").cells() == ("a", "c")

    def test_all_rows_dropped(self):
        t = table_of([("x", "numerical", (None, None))])
        with pytest.raises(AllRowsDroppedError):
            clean_missing(t, ["x"])

    def test_fill_median_on_categorical(self):
        t = table_of([("g", "categorical", ("a", None))])
        with pytest.raises(NonNumericalTargetError):
            clean_missing(t, ["g"], CleaningMode.FILL_MEDIAN)


class TestNormalize:
    def test_normalize_unit_range(self):
        t = table_of([("x", "numerical", (0.0, 5.0, 10.0))])
        out = normalize_or_standardize(t, "x", NormalizeMode.NORMALIZE)
        assert out.column("x").cells() == (0.0, 0.5, 1.0)

    def test_standardize_population_sd(self):
        t = table_of([("x", "numerical", (2.0, 4.0, 6.0))])
        out = normalize_or_standardize(t, "x", NormalizeMode.STANDARDIZE)
        got = out.column("x").cells()
        assert got[1] == 0.0
        assert got[0] == pytest.approx(-1.224744871391589, abs=1e-12)
        assert got[2] == pytest.approx(1.224744871391589, abs=1e-12)

    def test_constant_column(self):
        t = table_of([("x", "numerical", (3.0, 3.0))])
        with pytest.raises(ConstantColumnError):
            normalize_or_standardize(t, "x", NormalizeMode.STANDARDIZE)


class TestGroupAggregate:
    def test_mean(self):
        t = table_of([("g", "categorical", ("a", "a", "b")),
                           ("x", "numerical", (1.0, 3.0, 5.0))])
        out = group_and_aggregate(t, "g", "x", AggregateFn.MEAN)
        assert out.columns[0].cells() == ("a", "b")
        assert out.columns[1].cells() == (2.0, 5.0)

    def test_count_ignores_target_kind(self):
        t = table_of([("g", "categorical", ("a", "a", "b")),
                           ("o", "categorical", ("x", "y", "z"))])
        out = group_and_aggregate(t, "g", "o", AggregateFn.COUNT)
        assert out.columns[1].cells() == (2.0, 1.0)

    def test_single_group(self):
        t = table_of([("g", "categorical", ("a", "a")),
                           ("x", "numerical", (1.0, 2.0))])
        out = group_and_aggregate(t, "g", "x", AggregateFn.SUM)
        assert out.row_count == 1

    def test_numerical_groups_in_str_order(self):
        t = table_of([("g", "numerical", (2.0, 10.0, 2.0, 1.5)),
                      ("x", "numerical", (1.0, 2.0, 3.0, 4.0))])
        out = group_and_aggregate(t, "g", "x", AggregateFn.SUM)
        assert out.columns[0].cells() == (1.5, 10.0, 2.0)
        assert out.columns[1].cells() == (4.0, 2.0, 4.0)


class TestColumnView:
    def test_categorical_codes_in_label_order(self):
        col = table_of([("g", "categorical", ("b", None, "a", "b"))]).columns[0]
        assert col.labels == ("a", "b")
        assert col.data.tolist() == [1, -1, 0, 1]
        assert col.present.tolist() == [True, False, True, True]

    def test_categorical_keeps_used_labels_in_str_order(self):
        col = tabular.categorical("g", np.array([3, -1, 0, 2, 3]), ["b", 10, None, 2])
        assert col.labels == (2, "b")
        assert col.data.tolist() == [0, -1, 1, -1, 0]

    def test_numerical_missing_is_nan(self):
        col = table_of([("x", "numerical", (1.5, None))]).columns[0]
        assert col.data[0] == 1.5
        assert col.present.tolist() == [True, False]

    def test_built_once_and_not_carried_to_copies(self):
        col = table_of([("g", "categorical", ("a", "b"))]).columns[0]
        assert col.data is col.data
        copy = col.subset(np.array([False, True]))
        assert copy.labels == ("b",) and col.labels == ("a", "b")

    def test_view_is_the_only_storage(self):
        assert [f.name for f in fields(Column)] == ["name", "data", "labels"]

    def test_view_data_is_read_only(self, tmp_path):
        t = load_table(write(tmp_path, "g,x\na,1.5\nb,2.5\n"))
        for name in t.column_names:
            with pytest.raises(ValueError):
                t.column(name).data[0] = 0

    def test_drop_row_keeps_columns_without_missing_cells(self, tmp_path):
        t = load_table(write(tmp_path, "g,x\na,1.5\nb,2.5\n"))
        cleaned = clean_missing(t, ["g", "x"]).table
        assert all(a is b for a, b in zip(cleaned.columns, t.columns))


# Texts that csv must quote (or, for a lone "\r" on 3.11, must not), texts
# with surrounding spaces, and the empty text.
WRITER_TEXT = st.one_of(
    st.sampled_from(["", " ", " a ", "a,b", 'say "hi"', "two\nlines", "\r",
                     "cr\r", "\r\n", '"', ","]),
    st.text(st.sampled_from(',"\n\r \taé'), max_size=6))
# NaN, ±0.0, ±inf, whole numbers up to 1e300, subnormals and any float.
WRITER_NUMBER = st.one_of(
    st.sampled_from([math.nan, -0.0, 0.0, math.inf, -math.inf, 1e20, 1e300,
                     -1e300, 5e-324, -1e-310]),
    st.integers(-10 ** 300, 10 ** 300).map(float),
    st.floats(width=64))


@st.composite
def writer_tables(draw):
    """A table of 1-3 columns and 0-9 rows: numerical columns of
    ``WRITER_NUMBER``, categorical ones of text or float labels or None."""
    width = draw(st.integers(1, 3))
    rows = draw(st.integers(0, 9))
    names = draw(st.lists(WRITER_TEXT, min_size=width, max_size=width,
                          unique=True))
    label = st.one_of(st.none(), WRITER_TEXT, WRITER_NUMBER)
    cols = []
    for name in names:
        kind = draw(st.sampled_from(["numerical", "categorical"]))
        cells = WRITER_NUMBER if kind == "numerical" else label
        cols.append(Column.of(name, kind, draw(st.lists(
            cells, min_size=rows, max_size=rows))))
    return Table(tuple(cols))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(writer_tables(), st.integers(1, 4))
@example(table_of([("", "numerical", (math.nan, -0.0, 1e300))]), 2)
@example(table_of([("g", "categorical", ("", None, "\r", " a "))]), 3)
@example(table_of([("", "categorical", ())]), 1)
@example(Table(()), 1)
def test_write_table_writes_the_reference_bytes(table, block):
    # A block of 1-4 rows makes most tables' rows span blocks.
    out, ref = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tabular, "_CSV_BLOCK", block)
        write_table(table, out)
        reference_writer.write_rows(table, ref)
    assert out.getvalue() == ref.getvalue()


# NaN, signed zeros, values whose str order is not their numeric order,
# integers above 2^53 and subnormals, mixed with arbitrary floats.
NUMERIC_CELL = st.one_of(
    st.sampled_from([math.nan, -0.0, 0.0, 10.0, 2.0, 2.0 ** 53 + 2,
                     -(2.0 ** 60), 5e-324, 1e-310, -1e-310]),
    st.floats(width=64))


@settings(max_examples=300, deadline=None)
@given(st.lists(NUMERIC_CELL, max_size=40))
@example([-0.0, 0.0, math.nan, -0.0])
@example([0.0, -0.0, math.nan, 0.0])
@example([10.0, 2.0, 2.0, 10.0])
@example([])
def test_numerical_categories_match_the_per_cell_reference(cells):
    cats = Column("x", np.array(cells, dtype=float)).categories()
    codes, labels = oracles.categories(cells)
    assert cats.data.tolist() == codes
    assert list(map(repr, cats.labels)) == list(map(repr, labels))


@settings(max_examples=300, deadline=None)
@given(st.lists(NUMERIC_CELL, min_size=1, max_size=40))
@example([10.0, 2.0, 2.0, 10.0, math.nan])  # a tie: "10.0" sorts before "2.0"
@example([-0.0, 0.0, 5.0, 5.0, math.nan])  # -0.0 seen first, tied with 5.0
@example([0.0, -0.0, -0.0, 1e-310, 1e-310, 1e-310])  # +0.0 first, tied
@example([math.nan, math.nan])
def test_numerical_fill_mode_is_the_mode_of_its_categories(cells):
    col = Column("x", np.array(cells, dtype=float))
    table = Table((col,))
    if not col.present.any():
        with pytest.raises(AllRowsDroppedError):
            clean_missing(table, ["x"], CleaningMode.FILL_MODE)
        return
    cats = col.categories()
    mode = cats.labels[int(np.bincount(cats.data[cats.present]).argmax())]
    filled = clean_missing(table, ["x"], CleaningMode.FILL_MODE).table.column("x")
    assert filled.data.tobytes() == np.where(col.present, col.data, mode).tobytes()
