"""load_table agrees with the two-pass reference loader on random CSVs."""

import csv
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from biasaudit.tabular import DEFAULT_NA_TOKENS, load_table

PADDING = st.sampled_from(["", "", " ", "  ", "\t"])
NON_FINITE = ["inf", "-inf", "nan", "NaN", "Infinity", "1e400", "-1e999"]
ODD_TEXTS = ["junk", "x", "a b", "N.A.", "0x10", "1,5", "-0", "1_000"]
# Extra na tokens, two of which parse as numbers.
CUSTOM_NA = ["-999", "nan", "missing"]


def _real(v):
    return repr(round(v, 3))


@st.composite
def column(draw, rows, na_tokens):
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
        [sorted(na_tokens), NON_FINITE, ODD_TEXTS,
         sorted(na_tokens) + NON_FINITE + ODD_TEXTS])))
    n_odd = draw(st.integers(0, max(1, rows // 10)))
    odd_rows = set(draw(st.permutations(range(rows)))[:n_odd])
    return [draw(PADDING) + draw(odd if i in odd_rows else base) + draw(PADDING)
            for i in range(rows)]


@st.composite
def csv_table(draw):
    na_tokens = DEFAULT_NA_TOKENS
    if draw(st.booleans()):
        na_tokens = na_tokens | frozenset(
            draw(st.lists(st.sampled_from(CUSTOM_NA), min_size=1, unique=True)))
    rows = draw(st.integers(0, 45))
    cols = [draw(column(rows, na_tokens)) for _ in range(draw(st.integers(1, 3)))]
    return na_tokens, cols


@settings(max_examples=300, deadline=None)
@given(csv_table())
# Exactly 95% of present cells parse: numerical. Missing cells do not count.
@example((DEFAULT_NA_TOKENS, [["1.5"] * 19 + ["junk"]]))
@example((DEFAULT_NA_TOKENS, [["1.5"] * 19 + ["inf", ""]]))
# Ten distinct integer codes stay categorical, eleven do not.
@example((DEFAULT_NA_TOKENS, [[str(i % 10) for i in range(30)],
                              [str(i % 11) for i in range(30)]]))
# An na token that parses as a number, in a column that otherwise parses.
@example((DEFAULT_NA_TOKENS | {"-999"}, [["1.5", " -999", "2.5"]]))
def test_load_table_matches_reference(case):
    na_tokens, cols = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"c{i}" for i in range(len(cols))])
            writer.writerows(zip(*cols))
        table = load_table(path, na_tokens=na_tokens)
        expected = oracles.load_columns(path, na_tokens)
    got = [(c.name, c.kind.value, c.values) for c in table.columns]
    # repr tells -0.0 from 0.0 and 1 from 1.0.
    assert repr(got) == repr(expected)


def test_long_numeric_column_with_odd_cells_matches_reference(tmp_path):
    # Long enough that the odd cells sit in different parse blocks.
    cells = [_real(i * 0.37) for i in range(3000)]
    cells[10], cells[1500], cells[2500] = "inf", "junk", "NA"
    path = tmp_path / "t.csv"
    path.write_text("x\n" + "\n".join(cells) + "\n", encoding="utf-8")
    col = load_table(path).column("x")
    ((_, kind, expected),) = oracles.load_columns(path, DEFAULT_NA_TOKENS)
    assert (col.kind.value, repr(col.values)) == (kind, repr(expected))
    assert kind == "numerical" and col.values.count(None) == 3
