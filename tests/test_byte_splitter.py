"""The numpy byte splitter loads every block it accepts exactly as the
csv.reader path does, hands the rest of the file to that path at the first
block it cannot split, and serves the unquoted files the program writes and
ships."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from biasaudit import synthgen, tabular
from biasaudit.metrics import Scenario
from biasaudit.tabular import load_table, save_table
from splitters import load_by

SAMPLE = os.path.join(os.path.dirname(tabular.__file__), "data", "sample.csv")

# Rows that put a cell in a late block at the default block size.
LATE = "".join(f"{i}.5,g{i % 3}\n" for i in range(2 * 4096 + 10))

# (id, file bytes, whether no block is handed to csv.reader)
CASES = [
    ("lf", b"g,x\na,1.5\nb,2.5\na,NA\n", True),
    ("crlf", b"g,x\r\na,1.5\r\nb,\r\n", True),
    ("no-final-newline", b"g,x\na,1.5\nb,2.5", True),
    ("crlf-no-final-newline", b"g,x\r\na,1.5\r\nb,2.5", True),
    ("header-only", b"g,x\n", True),
    ("header-without-newline", b"g,x", True),
    ("empty-cells", b"a,b,c\n,,\n1,,x\n", True),
    ("bom", "\ufeffg,x\na,1\nb,2\n".encode(), True),
    ("non-ascii-labels", "g,x\nü,1\nñ,2\n日本,3\n".encode(), True),
    ("unicode-digits", "x\n١٢\n3.5\n\xa04.5\n".encode(), True),
    ("unicode-digits-mixed", "x\n1.5\n١٢\nfoo\n".encode(), True),
    ("overflow", b"x\n1e400\n-1e999\n2.5\n", True),
    ("late-rows", b"x,g\n" + LATE.encode(), True),
    ("blank-line-1-column", b"x\n1\n\n2\n", False),
    ("blank-crlf-line-1-column", b"x\r\n1\r\n\r\n2\r\n", False),
    ("blank-last-line-1-column", b"x\n1\n2\n\n", False),
    ("blank-line-2-columns", b"g,x\na,1\n\nb,2\n", False),
    ("short-row", b"g,x\na,1\nb\n", False),
    ("long-row", b"g,x\na,1\nb,2,3\n", False),
    ("ragged-late-block", b"x,g\n" + LATE.encode() + b"1.5\n", False),
    ("ragged-compensated", b"g,x\na,1,2\nb\n", False),
    ("quote-in-header", b'"g",x\na,1\n', False),
    ("quoted-comma", b'g,x\n"a,b",1\nc,2\n', False),
    ("bare-cr-in-header", b"g,x\rh\na,1\n", False),
    ("bare-cr-in-body", b"g,x\na,1\rb,2\n", False),
    ("bare-cr-in-1-column", b"x\na\rb\nc\n", False),
    # csv.reader ends a line at a lone "\r" too; at the end of the file no
    # line follows it.
    ("cr-at-end-of-file", b"g,x\na,1\r", True),
    ("nul", b"g,x\na\x00,1\nb,2\n", False),
    # csv.reader reads every header, so its errors come before any block.
    ("invalid-utf8-header", b"g\xff,x\na,1\n", True),
    ("invalid-utf8-last-block", b"x,g\n" + LATE.encode() + b"1.5,\xff\n", False),
    ("empty-file", b"", True),
    ("blank-header", b"\na,1\n", True),
    ("duplicate-header", b"g,g\na,1\n", True),
    # A column with one cell far longer than its others is split as str.
    ("long-cell", b"g\n" + b"a\n" * 100 + b"b" * 5000 + b"\n", True),
    ("long-label-in-a-late-block", b"x,g\n" + LATE.encode() + b"1.5," + b"h" * 5000
     + b"\n", True),
    ("long-number", b"x,g\n" + b"1.5,a\n" * 100 + b"2." + b"5" * 5000 + b",b\n", True),
    ("long-non-ascii-cell", "g,x\n".encode() + b"a,1\n" * 100
     + ("ü" * 3000 + ",2\n").encode(), True),
    # csv.reader's default field size limit is 131072 characters.
    ("cell-at-csv-field-limit", b"g\n" + b"b" * 131072 + b"\n", False),
    ("cell-over-csv-field-limit", b"g\n" + b"b" * 131073 + b"\n", False),
    ("header-at-csv-field-limit", b"g" * 131072 + b",x\na,1\n", True),
    ("header-over-csv-field-limit", b"g" * 131073 + b"\na\n", True),
]


def _outcome(load):
    try:
        table = load()
    except Exception as exc:  # every error type, compared by type and text
        return (type(exc).__name__, str(exc))
    return [(c.name, c.kind.value, c.labels, repr(c.cells())) for c in table.columns]


@pytest.mark.parametrize("raw, by_bytes", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_byte_splitter_matches_the_csv_path(tmp_path, raw, by_bytes):
    path = tmp_path / "t.csv"
    path.write_bytes(raw)
    by_csv = _outcome(lambda: load_by(path, "csv"))
    assert _outcome(lambda: load_table(path)) == by_csv
    by_splitter = _outcome(lambda: load_by(path, "bytes"))
    assert by_splitter == (by_csv if by_bytes else ("_Unsplittable", ""))


def test_ragged_row_in_a_late_block_names_its_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"x,g\n" + LATE.encode() + b"1.5\n")
    with pytest.raises(tabular.RaggedRowError, match=f"row {2 * 4096 + 12} has 1 fields"):
        load_table(path)


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_ragged_row_after_a_hand_off_names_its_row(tmp_path, end):
    # The quote's block goes to csv.reader, which counts on from row 8204.
    path = tmp_path / "t.csv"
    path.write_bytes(("x,g\n" + LATE + '1.5,"q"\n' + "2.5,a\n" * 8000
                      + "3.5\n").replace("\n", end).encode())
    with pytest.raises(tabular.RaggedRowError,
                       match=f"row {2 * 4096 + 12 + 8001} has 1 fields"):
        load_table(path)


def test_a_late_quote_hands_off_only_its_block(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_bytes(b"x,g\n" + LATE.encode() + b'1.5,"q"\n')
    split, rows = [], []
    real_split, real_reader = tabular._split_block, tabular.csv.reader

    def split_block(raw, width):
        split.append(raw.count(b"\n"))
        return real_split(raw, width)

    def reader(*args, **kwargs):
        for row in real_reader(*args, **kwargs):
            rows.append(row)
            yield row

    monkeypatch.setattr(tabular, "_split_block", split_block)
    monkeypatch.setattr(tabular.csv, "reader", reader)
    table = load_table(path)
    assert table.row_count == 2 * 4096 + 11
    # numpy splits each block once and refuses the last, whose 11 rows
    # csv.reader reads after the header.
    assert split == [4096, 4096, 11]
    assert rows == [["x", "g"]] + [row.split(",") for row in LATE.split()[8192:]] \
        + [["1.5", "q"]]


# Rows that each send their block to csv.reader.
DEFECTS = [
    '1.5,"a,b"\n',  # quoted comma
    '1.5,"a""b"\n',  # doubled quote
    '1.5,"a\nb"\n',  # newline inside quotes
    '"2.5",c\n',  # a quoted number
    "1.5\n",  # short row
    "1.5,a,b\n",  # long row
    "1.5,a\rb\n",  # lone "\r"
    "1.5,a\0\n",  # NUL
    "1.5,\udcff\n",  # invalid UTF-8: the lone byte 0xff
]


@st.composite
def late_defects(draw, block):
    """A file whose first defect sits in a block after the first."""
    def plain(n):
        return [f"{draw(st.sampled_from(['1.5', '-2', 'NA', '0.25', '']))},"
                f"{draw(st.sampled_from(['a', 'b', '7', 'ü']))}\n" for _ in range(n)]

    rows = [f"{i}.5,g{i % 3}\n" for i in range(draw(st.integers(block, 2 * block + 5)))]
    for _ in range(draw(st.integers(1, 3))):
        rows += [draw(st.sampled_from(DEFECTS))] + plain(draw(st.integers(0, 5)))
    text = "x,g\n" + "".join(rows).replace("\n", draw(st.sampled_from(["\n", "\r\n"])))
    if draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")
    return text.encode("utf-8", "surrogateescape")


@pytest.mark.parametrize("block, examples", [(3, 150), (4096, 15)])
def test_a_late_defect_loads_as_the_csv_path(tmp_path, block, examples):
    path = tmp_path / "t.csv"

    @settings(max_examples=examples, derandomize=True, deadline=None)
    @given(late_defects(block))
    def check(raw):
        path.write_bytes(raw)
        by_csv = _outcome(lambda: load_by(path, "csv"))
        assert _outcome(lambda: load_table(path)) == by_csv
        if isinstance(by_csv, list):
            expected = oracles.load_columns(path, tabular.NA_TOKENS)
            assert [(name, kind, cells) for name, kind, _, cells in by_csv] \
                == [(name, kind, repr(cells)) for name, kind, cells in expected]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tabular, "_CSV_BLOCK", block)
        check()


def test_late_categorical_columns_share_one_reread(tmp_path, monkeypatch):
    # Both label columns read as floats in the first block and as words
    # after it, so their texts are read again: in one pass for both.
    rows = [f"{i}.5,3.5,2.5\n" if i < 4096 else f"{i}.5,a{i % 3},b{i % 2}\n"
            for i in range(2 * 4096 + 10)]
    path = tmp_path / "t.csv"
    path.write_text("x,g,h\n" + "".join(rows))
    expected = _outcome(lambda: load_by(path, "csv"))
    passes = []
    blocks = tabular._blocks

    def counted(*args):
        passes.append(args)
        return blocks(*args)

    monkeypatch.setattr(tabular, "_blocks", counted)
    got = _outcome(lambda: load_table(path))
    assert len(passes) == 2
    assert got == expected
    assert [kind for _, kind, _, _ in got] == [
        "numerical", "categorical", "categorical"]


def test_unicode_digits_parse_as_float_does(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes("x\n١٢\n3.5\n\xa04.5\n".encode())
    col = load_table(path).column("x")
    assert (col.kind.value, col.cells()) == ("numerical", (12.0, 3.5, 4.5))


def test_unquoted_files_never_reach_csv_reader(tmp_path, monkeypatch):
    synth = tmp_path / "cat_num.csv"
    save_table(synthgen.generate(synthgen.SynthSpec(
        scenario=Scenario.CAT_NUM, n=10_000, strength=0.5, k=4, seed=1)), synth)
    with open(SAMPLE, "rb") as fh:
        sample = fh.read()
    # The shipped sample has CRLF ends and missing cells; save_table writes LF.
    assert b"\r\n" in sample and b",," in sample and b",NA" in sample
    assert b"\r" not in synth.read_bytes()
    paths = (SAMPLE, synth)
    expected = [_outcome(lambda: load_by(p, "csv")) for p in paths]

    def refuse(*args, **kwargs):
        raise AssertionError("csv.reader read a block of an unquoted file")

    monkeypatch.setattr(tabular, "_csv_blocks", refuse)
    assert [_outcome(lambda: load_table(p)) for p in paths] == expected


@pytest.mark.parametrize("width", [8, 9])
def test_distinct_texts_of_short_and_long_cells(width):
    texts = ["a", "ab", "ü", "a" * width, "b" * (width - 1) + "a", "a"]
    keys, inverse = tabular._distinct(tabular.np.array([t.encode() for t in texts]))
    assert sorted(keys) == sorted(set(texts))
    assert [keys[i] for i in inverse] == texts


def test_a_long_cell_makes_only_its_column_str():
    labels, values = tabular._split_block(b"a,1\n" * 100 + b"b" * 5000 + b",2\n", 2)
    assert labels.dtype == object and labels[-1] == "b" * 5000
    assert values.dtype == "S1" and values[-1] == b"2"
