"""load_table agrees with the two-pass reference loader on random CSVs."""

import csv
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from biasaudit import tabular
from biasaudit.tabular import NA_TOKENS, load_table
from splitters import load_by

PADDING = st.sampled_from(["", "", " ", "  ", "\t"])
NON_FINITE = ["inf", "-inf", "nan", "NaN", "Infinity", "1e400", "-1e999"]
ODD_TEXTS = ["junk", "x", "a b", "N.A.", "0x10", "1,5", "-0", "1_000"]


def _real(v):
    return repr(round(v, 3))


@st.composite
def column(draw, rows):
    """Cells of one column: reals, small integer codes or words, with a few
    odd cells (na tokens, non-finite numbers, junk) placed at random rows,
    so the parse fraction lands near the 95% threshold."""
    style = draw(st.sampled_from(["real", "code", "word"]))
    if style == "real":
        base = st.floats(-1e4, 1e4).map(_real)
    elif style == "code":
        # 1..12 distinct codes straddles the 10-distinct integer-code rule.
        base = st.integers(0, draw(st.integers(0, 11))).map(str)
    else:
        base = st.sampled_from(["a", "b", "c", " a", "B"])
    odd = st.sampled_from(draw(st.sampled_from(
        [sorted(NA_TOKENS), NON_FINITE, ODD_TEXTS,
         sorted(NA_TOKENS) + NON_FINITE + ODD_TEXTS])))
    n_odd = draw(st.integers(0, max(1, rows // 10)))
    odd_rows = set(draw(st.permutations(range(rows)))[:n_odd])
    return [draw(PADDING) + draw(odd if i in odd_rows else base) + draw(PADDING)
            for i in range(rows)]


@st.composite
def csv_table(draw):
    rows = draw(st.integers(0, 45))
    return [draw(column(rows)) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=300, deadline=None)
@given(csv_table())
# Exactly 95% of present cells parse: numerical. Missing cells do not count.
@example([["1.5"] * 19 + ["junk"]])
@example([["1.5"] * 19 + ["inf", ""]])
# Ten distinct integer codes stay categorical, eleven do not.
@example([[str(i % 10) for i in range(30)], [str(i % 11) for i in range(30)]])
# With small blocks (see below): junk and a blank cell in later blocks of a
# numeric column; "1" and "1.0" in different blocks of an integer code; a
# column whose first blocks parse as floats but which is categorical.
@example([[f"{i}.5" if i not in (10, 20) else ("junk" if i == 10 else "")
           for i in range(24)]])
@example([["1", "0", "1", "0", "1.0", "0", "2"]])
@example([["1.5", "2.5", "3.5", "4.5", "5.5", "6.5", "a", "b"],
          ["0", "1", "0", "1", "0", "1", "0", "1"]])
def test_load_table_matches_reference(cols):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"c{i}" for i in range(len(cols))])
            writer.writerows(zip(*cols))
        with open(path, "rb") as fh:
            quoted = b'"' in fh.read()
        by_bytes, by_csv = _load_both(path)
        loaded = load_table(path)
        expected = oracles.load_columns(path, NA_TOKENS)
    # csv.writer quotes only a cell that holds ",": only such a file, or a
    # one-column file with an empty cell, hands a block to csv.reader.
    assert (by_bytes is None) == quoted
    for table in (loaded, by_bytes, by_csv):
        if table is not None:
            got = [(c.name, c.kind.value, c.cells()) for c in table.columns]
            # repr tells -0.0 from 0.0 and 1 from 1.0.
            assert repr(got) == repr(expected)


def _load_both(path):
    """The table by the byte splitter (None if it cannot split every block)
    and by csv.reader."""
    try:
        by_bytes = load_by(path, "bytes")
    except tabular._Unsplittable:
        by_bytes = None
    return by_bytes, load_by(path, "csv")


def test_load_table_matches_reference_across_blocks(monkeypatch):
    # Every case above, read three rows at a time by csv.reader and in
    # blocks of about eight bytes by the byte splitter, so cases span blocks.
    monkeypatch.setattr(tabular, "_CSV_BLOCK", 3)
    monkeypatch.setattr(tabular, "_LINE_BYTES", 8)
    test_load_table_matches_reference()


def test_long_numeric_column_with_odd_cells_matches_reference(tmp_path):
    # Long enough that the odd cells sit in different parse blocks.
    cells = [_real(i * 0.37) for i in range(3000)]
    cells[10], cells[1500], cells[2500] = "inf", "junk", "NA"
    path = tmp_path / "t.csv"
    path.write_text("x\n" + "\n".join(cells) + "\n", encoding="utf-8")
    col = load_table(path).column("x")
    ((_, kind, expected),) = oracles.load_columns(path, NA_TOKENS)
    assert (col.kind.value, repr(col.cells())) == (kind, repr(expected))
    assert kind == "numerical" and col.cells().count(None) == 3
