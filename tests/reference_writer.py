"""The plain way to write a table as CSV: ``csv.writer`` row by row, each
cell formatted by Python. ``tabular.write_table`` must write the same
bytes."""

import csv
import math

from biasaudit import tabular


def write_rows(table: tabular.Table, fh) -> None:
    """Write ``table`` as CSV, missing cells empty, with ``csv.writer``."""
    csv.writer(fh, lineterminator="\n").writerows(_rows(table))


def _rows(table: tabular.Table):
    """The header, then each row's cells formatted for CSV."""
    yield table.column_names
    # A categorical column's texts by code; code -1 reads the trailing "".
    texts = [None if c.labels is None else [*map(_format_cell, c.labels), ""]
             for c in table.columns]
    for start in range(0, table.row_count, tabular._CSV_BLOCK):
        parts = [c.data[start:start + tabular._CSV_BLOCK].tolist()
                 for c in table.columns]
        yield from zip(*(map(_format_cell if t is None else t.__getitem__, part)
                         for part, t in zip(parts, texts)))


def _format_cell(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return repr(v) if not v.is_integer() else str(int(v))
    return str(v)
