"""Column-oriented in-memory tables: loading, typing, and preprocessing.

A :class:`Table` is immutable after construction; every operation returns a
new table. Each :class:`Column` is one read-only numpy array: float64
with NaN for missing, or int codes with -1 for missing into labels sorted
by ``str``. Its kind follows from its labels: it is categorical iff it has
them. Cleaning, the metrics and the charts share the array, and
:func:`load_table` parses each block of CSV rows straight into it.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from enum import Enum
from itertools import count, filterfalse, islice
from typing import Sequence, TextIO

import numpy as np

from .errors import (
    AllRowsDroppedError,
    ConstantColumnError,
    DuplicateHeaderError,
    EmptyFileError,
    NonNumericalTargetError,
    ParseError,
    RaggedRowError,
    UnknownColumnError,
)

# A cell whose stripped text is one of these is missing.
NA_TOKENS = frozenset({"", "NA", "N/A", "?", "null"})

# Numeric-parse fraction above which a column is considered numerical,
# unless it looks like an integer code with few distinct values.
NUMERIC_PARSE_THRESHOLD = 0.95
INTEGER_CODE_MAX_DISTINCT = 10
# CSV rows are read, parsed and written this many at a time.
_CSV_BLOCK = 4096


class Kind(str, Enum):
    CATEGORICAL = "categorical"
    NUMERICAL = "numerical"


class CleaningMode(str, Enum):
    DROP_ROW = "drop_row"
    FILL_MODE = "fill_mode"
    FILL_MEDIAN = "fill_median"


@dataclass(frozen=True, eq=False)
class Column:
    """A named column stored as one read-only array.

    Numerical: ``data`` is float64, NaN for missing, and ``labels`` is None.
    Categorical: ``data`` holds intp codes into ``labels`` (the labels
    present, sorted by ``str``), -1 for missing. The kind follows from the
    labels, and since ``data`` is read-only, tables can share columns.
    """

    name: str
    data: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        self.data.flags.writeable = False

    @classmethod
    def of(cls, name: str, kind: Kind | str, cells: Sequence) -> Column:
        """The column of a cell sequence of the given kind (``None`` missing)."""
        if Kind(kind) is Kind.NUMERICAL:
            return cls(name, np.array(cells, dtype=np.float64))
        index = {label: code for code, label in enumerate(dict.fromkeys(cells))}
        codes = np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=len(cells))
        return categorical(name, codes, list(index))

    @property
    def kind(self) -> Kind:
        return Kind.NUMERICAL if self.labels is None else Kind.CATEGORICAL

    @property
    def present(self) -> np.ndarray:
        return ~np.isnan(self.data) if self.labels is None else self.data >= 0

    def cells(self) -> tuple:
        """The cells as Python values, ``None`` for missing."""
        if self.labels is None:
            return tuple(None if math.isnan(v) else v for v in self.data.tolist())
        return tuple(map((self.labels + (None,)).__getitem__, self.data.tolist()))

    def categories(self) -> Column:
        """This column as categories: a numerical column's labels are its
        distinct values, each as first seen."""
        if self.labels is not None:
            return self
        return Column.of(self.name, Kind.CATEGORICAL, self.cells())

    def subset(self, rows: np.ndarray) -> Column:
        """The rows picked by a boolean mask; a categorical column keeps the
        labels still present."""
        if self.labels is None:
            return Column(self.name, self.data[rows])
        return categorical(self.name, self.data[rows], self.labels)


def categorical(name: str, codes: np.ndarray, labels: Sequence) -> Column:
    """The categorical column of int ``codes`` into ``labels``. It keeps the
    labels some code uses, re-coded in ``str`` order; code -1 and a ``None``
    label are missing."""
    used = np.bincount(codes[codes >= 0], minlength=len(labels)).tolist()
    order = sorted((i for i, label in enumerate(labels)
                    if used[i] and label is not None),
                   key=lambda i: str(labels[i]))
    rank = np.full(len(labels) + 1, -1, dtype=np.intp)
    rank[np.array(order, dtype=np.intp)] = np.arange(len(order))
    return Column(name, rank[codes], tuple(labels[i] for i in order))


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DuplicateHeaderError(f"duplicate column names in {names}")
        lengths = {len(c.data) for c in self.columns}
        if len(lengths) > 1:
            raise RaggedRowError(f"columns have unequal lengths: {sorted(lengths)}")

    @property
    def row_count(self) -> int:
        if not self.columns:
            return 0
        return len(self.columns[0].data)

    @property
    def column_names(self) -> list:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise UnknownColumnError(f"unknown column {name!r}; have {self.column_names}")


@dataclass(frozen=True)
class CleaningResult:
    table: Table
    cells_changed: int
    rows_dropped: int


def _parse(text: str) -> float:
    """The value of a text, NaN if it does not parse."""
    try:
        return float(text)
    except ValueError:
        return math.nan


class _ColumnParser:
    """One column of raw text, added a block at a time.

    A cell is missing if its stripped text is in ``NA_TOKENS``; a present
    cell is numeric if it parses as a finite real. A block whose cells all
    parse is kept as float64 (non-finite values missing), unless every value
    so far is one of a few integers: a possible integer code, whose labels
    are its texts. Every other block is kept as codes into one dict of the
    column's distinct texts, each checked and parsed once, by :meth:`kind`.
    """

    def __init__(self):
        # Off when a categorical column's texts are read again.
        self.parse_floats = True
        self.texts: dict = {}
        self.parts: list = []
        self.present = self.numeric = 0  # cells of the float blocks
        # The float blocks' distinct values, None once not a small code.
        self.small_ints: set | None = set()

    def add(self, cells: Sequence[str]) -> None:
        try:
            block = np.array(cells, dtype=np.float64) if self.parse_floats else None
        except ValueError:
            block = None
        if block is not None:
            finite = np.isfinite(block)
            if self.small_ints is not None:
                numbers = set(block[finite].tolist()) | self.small_ints
                self.small_ints = numbers if len(numbers) <= INTEGER_CODE_MAX_DISTINCT \
                    and all(map(float.is_integer, numbers)) else None
            if self.small_ints is None:
                block[~finite] = np.nan
                self.parts.append(block)
                self.present += block.size
                self.numeric += int(np.count_nonzero(finite))
                return
        texts = self.texts
        fresh = list(filterfalse(texts.__contains__, dict.fromkeys(cells)))
        texts.update(zip(fresh, count(len(texts))))
        self.parts.append(np.fromiter(map(texts.__getitem__, cells), dtype=np.intp,
                                      count=len(cells)))

    def kind(self) -> Kind:
        """The kind of every cell added.

        Numerical iff >= 95% of non-missing cells parse as finite reals and
        the parsed values are not a small integer code (<= 10 distinct
        all-integer values), so demographic codes like ``sex in {0, 1}``
        stay categorical.
        """
        self.missing = [text.strip() in NA_TOKENS for text in self.texts]
        cells = ["nan" if m else text for text, m in zip(self.texts, self.missing)]
        try:
            self.value = np.array(cells, dtype=np.float64)
        except ValueError:
            self.value = np.array(list(map(_parse, cells)), dtype=np.float64)
        finite = np.isfinite(self.value)
        self.value[~finite] = np.nan  # per distinct text, NaN unless numeric
        counts = sum((np.bincount(part, minlength=len(cells))
                      for part in self.parts if part.dtype == np.intp),
                     np.zeros(len(cells), dtype=np.intp))
        present = self.present + int(counts[~np.array(self.missing, dtype=bool)].sum())
        numeric = self.numeric + int(counts[finite].sum())
        if not present or numeric / present < NUMERIC_PARSE_THRESHOLD:
            return Kind.CATEGORICAL
        numbers = set(self.value[finite].tolist())
        if self.small_ints is not None and len(numbers) <= INTEGER_CODE_MAX_DISTINCT \
                and all(map(float.is_integer, numbers)):
            return Kind.CATEGORICAL
        return Kind.NUMERICAL

    def column(self, name: str, reread) -> Column:
        """The finished column. A categorical column some of whose blocks
        were kept as floats is built again from the blocks of text that
        ``reread()`` yields."""
        if self.kind() is Kind.NUMERICAL:
            return Column(name, np.concatenate([np.empty(0), *(
                part if part.dtype == np.float64 else self.value[part]
                for part in self.parts)]))
        if any(part.dtype == np.float64 for part in self.parts):
            again = _ColumnParser()
            again.parse_floats = False
            for cells in reread():
                again.add(cells)
            return again.column(name, reread)
        labels = [None if m else text for text, m in zip(self.texts, self.missing)]
        codes = np.concatenate([np.empty(0, dtype=np.intp), *self.parts])
        return categorical(name, codes, labels)


def present_rows(cols: Sequence[Column], n: int) -> np.ndarray:
    """Mask of the ``n`` rows where none of ``cols`` is missing."""
    keep = np.ones(n, dtype=bool)
    for c in cols:
        if len(c.data) != n:
            raise RaggedRowError(f"column {c.name!r} has {len(c.data)} rows, not {n}")
        keep &= c.present
    return keep


def split_by_code(codes: np.ndarray, values: np.ndarray, k: int = 0) -> list:
    """``values`` split by code into parts 0, 1, ... (at least ``k``), each
    in row order."""
    sizes = np.bincount(codes, minlength=k)
    return np.split(values[np.argsort(codes, kind="stable")],
                    np.cumsum(sizes)[:-1])


def _unreadable(path, exc) -> ParseError:
    return ParseError(f"{path}: cannot read as UTF-8 CSV: {exc}")


def list_features(path) -> list:
    """Return the header names of a CSV file, in file order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFileError(f"{path}: no header row") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise _unreadable(path, exc) from exc
    if not header or all(h.strip() == "" for h in header):
        raise EmptyFileError(f"{path}: empty header row")
    if len(set(header)) != len(header):
        raise DuplicateHeaderError(f"{path}: duplicate header names {header}")
    return header


def _csv_blocks(path, width: int):
    """The rows after the header in blocks of at most ``_CSV_BLOCK``; a row
    of another width raises :class:`RaggedRowError`."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        rownum = 2
        while block := list(islice(reader, _CSV_BLOCK)):
            if set(map(len, block)) != {width}:
                bad = next(i for i, row in enumerate(block) if len(row) != width)
                raise RaggedRowError(
                    f"{path}: row {rownum + bad} has {len(block[bad])} fields, "
                    f"expected {width}")
            yield block
            rownum += len(block)


def load_table(path) -> Table:
    """Load a CSV file into a typed :class:`Table`.

    Column kinds are inferred by :meth:`_ColumnParser.kind`; cells of a
    numerical column that do not parse are marked missing, as are
    ``NA_TOKENS`` anywhere. Only one block of raw text is alive at a time.
    """
    header = list_features(path)
    parsers = [_ColumnParser() for _ in header]
    try:
        for block in _csv_blocks(path, len(header)):
            for parser, cells in zip(parsers, zip(*block)):
                parser.add(cells)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise _unreadable(path, exc) from exc
    columns = []
    for i, name in enumerate(header):
        columns.append(parsers[i].column(name, lambda i=i: (
            [row[i] for row in block] for block in _csv_blocks(path, len(header)))))
        parsers[i] = None
    return Table(name=str(path), columns=tuple(columns))


def save_table(table: Table, path) -> None:
    """Write a table to a CSV file with :func:`write_table`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_table(table, fh)


def write_table(table: Table, fh: TextIO) -> None:
    """Write a table as CSV (missing cells empty), a block of rows at a time."""
    csv.writer(fh, lineterminator="\n").writerows(_csv_rows(table))


def _csv_rows(table: Table):
    """The header, then each row's cells formatted for CSV."""
    yield table.column_names
    # A categorical column's texts by code; code -1 reads the trailing "".
    texts = [None if c.labels is None else [*map(_format_cell, c.labels), ""]
             for c in table.columns]
    for start in range(0, table.row_count, _CSV_BLOCK):
        parts = [c.data[start:start + _CSV_BLOCK].tolist() for c in table.columns]
        yield from zip(*(map(_format_cell if t is None else t.__getitem__, part)
                         for part, t in zip(parts, texts)))


def _format_cell(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return repr(v) if not v.is_integer() else str(int(v))
    return str(v)


def extract_columns(table: Table, names: Sequence[str]) -> Table:
    """Project the table onto 1 or 2 named columns, preserving order and kinds."""
    cols = tuple(table.column(n) for n in names)
    return Table(name=table.name, columns=cols)


def clean_missing(table: Table, columns: Sequence[str],
                  mode: CleaningMode = CleaningMode.DROP_ROW) -> CleaningResult:
    """Remove or fill missing values in the named columns."""
    targets = [table.column(n) for n in columns]
    if mode is CleaningMode.DROP_ROW:
        keep = present_rows(targets, table.row_count)
        if table.row_count > 0 and not keep.any():
            raise AllRowsDroppedError(
                f"cleaning {list(columns)} with drop_row removed every row")
        dropped = table.row_count - int(keep.sum())
        new_cols = table.columns if not dropped else tuple(
            c.subset(keep) for c in table.columns)
        return CleaningResult(Table(table.name, new_cols), 0, dropped)

    changed = 0
    new_cols = []
    target_names = set(columns)
    for c in table.columns:
        if c.name not in target_names:
            new_cols.append(c)
            continue
        present = c.present
        if not present.any():
            raise AllRowsDroppedError(f"column {c.name!r} has no non-missing values")
        if mode is CleaningMode.FILL_MEDIAN:
            if c.kind is not Kind.NUMERICAL:
                raise NonNumericalTargetError(
                    f"fill_median requires a numerical column, got {c.name!r}")
            fill = statistics.median(c.data[present].tolist())
        else:  # FILL_MODE: the most frequent value, ties to the first label
            cats = c.categories()
            fill = int(np.bincount(cats.data[cats.present]).argmax())
            if c.labels is None:
                fill = cats.labels[fill]
        changed += len(present) - int(present.sum())
        new_cols.append(Column(c.name, np.where(present, c.data, fill), c.labels))
    return CleaningResult(Table(table.name, tuple(new_cols)), changed, 0)


class NormalizeMode(str, Enum):
    NORMALIZE = "normalize"
    STANDARDIZE = "standardize"


def normalize_or_standardize(table: Table, column: str,
                             mode: NormalizeMode) -> Table:
    """Rescale a numerical column to [0, 1] or to zero mean / unit sd.

    Standardization uses the population standard deviation.
    """
    col = table.column(column)
    if col.kind is not Kind.NUMERICAL:
        raise NonNumericalTargetError(f"{column!r} is not numerical")
    data = col.data
    present = data[col.present]
    if np.unique(present).size < 2:
        raise ConstantColumnError(f"{column!r} has fewer than 2 distinct values")
    if mode is NormalizeMode.NORMALIZE:
        # Of tied extremes (-0.0 and 0.0) take the first in row order: the sign
        # of lo can reach the result.
        lo, hi = present[present.argmin()], present[present.argmax()]
        scale = hi - lo
        if scale == 0:
            raise ConstantColumnError(f"{column!r} is constant")
        new = (data - lo) / scale
    else:
        # Python sums in row order, so the result does not depend on numpy's
        # pairwise summation.
        cells = present.tolist()
        mean = sum(cells) / len(cells)
        var = sum((v - mean) ** 2 for v in cells) / len(cells)
        if var == 0:
            raise ConstantColumnError(f"{column!r} has zero variance")
        new = (data - mean) / math.sqrt(var)
    new_cols = tuple(Column(column, new) if c.name == column else c
                     for c in table.columns)
    return Table(table.name, new_cols)


class AggregateFn(str, Enum):
    MEAN = "mean"
    COUNT = "count"
    SUM = "sum"
    MEDIAN = "median"


def group_and_aggregate(table: Table, by: str, target: str,
                        fn: AggregateFn) -> Table:
    """Aggregate ``target`` per group of ``by``; groups in ascending order."""
    by_col = table.column(by)
    target_col = table.column(target)
    if fn is not AggregateFn.COUNT and target_col.kind is not Kind.NUMERICAL:
        raise NonNumericalTargetError(
            f"{fn.value} requires a numerical target, got {target!r}")
    groups = by_col.categories()
    keys = groups.labels
    sizes = np.bincount(groups.data[groups.present], minlength=len(keys))
    keep = groups.present & target_col.present
    parts = split_by_code(groups.data[keep], target_col.data[keep], len(keys))
    out = []
    for size, part in zip(sizes.tolist(), parts):
        vals = part.tolist()
        if fn is AggregateFn.COUNT:
            out.append(float(size))
        elif not vals:
            out.append(None)
        elif fn is AggregateFn.MEAN:
            out.append(sum(vals) / len(vals))
        elif fn is AggregateFn.SUM:
            out.append(float(sum(vals)))
        else:
            out.append(float(statistics.median(vals)))
    return Table(
        name=f"{table.name}:{by}-{fn.value}({target})",
        columns=(
            Column.of(by, by_col.kind, keys),
            Column.of(f"{fn.value}_{target}", Kind.NUMERICAL, out),
        ))
