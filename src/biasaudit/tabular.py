"""Column-oriented in-memory tables: loading, typing, and preprocessing.

A :class:`Table` is immutable after construction; every operation returns a
new table. Cells are ``str`` (categorical), ``float`` (numerical), or ``None``
(missing). Each :class:`Column` also encodes its cells once, on first use,
into a numpy :class:`ColumnView` that cleaning, the metrics and the charts
share; :func:`load_table` parses each cell once.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import compress, islice
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    AllRowsDroppedError,
    ConstantColumnError,
    DuplicateHeaderError,
    EmptyFileError,
    NonNumericalTargetError,
    RaggedRowError,
    UnknownColumnError,
)

DEFAULT_NA_TOKENS = frozenset({"", "NA", "N/A", "?", "null"})

# Numeric-parse fraction above which a column is considered numerical,
# unless it looks like an integer code with few distinct values.
NUMERIC_PARSE_THRESHOLD = 0.95
INTEGER_CODE_MAX_DISTINCT = 10


class Kind(str, Enum):
    CATEGORICAL = "categorical"
    NUMERICAL = "numerical"


class CleaningMode(str, Enum):
    DROP_ROW = "drop_row"
    FILL_MODE = "fill_mode"
    FILL_MEDIAN = "fill_median"


@dataclass(frozen=True, eq=False)
class ColumnView:
    """Numerical: ``data`` is float64, NaN for missing, and ``labels`` is
    None. Categorical: ``data`` holds int codes into ``labels`` (the labels
    present, sorted by ``str``), -1 for missing."""

    data: np.ndarray
    labels: tuple | None = None

    @classmethod
    def encode(cls, kind: Kind, values: Sequence) -> ColumnView:
        """The view of a cell sequence of the given kind (``None`` missing)."""
        if kind is Kind.NUMERICAL:
            return cls(np.array(values, dtype=np.float64))
        index = dict.fromkeys(values)
        index.pop(None, None)
        labels = tuple(sorted(index, key=str))
        index = {label: code for code, label in enumerate(labels)}
        index[None] = -1
        return cls(np.fromiter(map(index.__getitem__, values), dtype=np.intp,
                               count=len(values)), labels)

    @property
    def present(self) -> np.ndarray:
        return ~np.isnan(self.data) if self.labels is None else self.data >= 0


@dataclass(frozen=True)
class Column:
    name: str
    kind: Kind
    values: tuple

    @cached_property
    def view(self) -> ColumnView:
        """The cells encoded once, on first use (copies start without it)."""
        return ColumnView.encode(self.kind, self.values)

    def category_view(self) -> ColumnView:
        """The cells as categories: a numerical column's labels are its
        distinct values."""
        if self.kind is Kind.CATEGORICAL:
            return self.view
        return ColumnView.encode(Kind.CATEGORICAL, self.values)

    def non_missing(self) -> list:
        return [v for v in self.values if v is not None]

    def missing_count(self) -> int:
        return sum(1 for v in self.values if v is None)


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DuplicateHeaderError(f"duplicate column names in {names}")
        lengths = {len(c.values) for c in self.columns}
        if len(lengths) > 1:
            raise RaggedRowError(f"columns have unequal lengths: {sorted(lengths)}")

    @property
    def row_count(self) -> int:
        if not self.columns:
            return 0
        return len(self.columns[0].values)

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


def _try_parse_float(token: str):
    try:
        v = float(token)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def _parses(token: str) -> bool:
    try:
        float(token)
    except (TypeError, ValueError):
        return False
    return True


def _kind_of(present: int, numeric: int, numbers: list) -> Kind:
    """The :func:`infer_kind` rule from the counts of present and of numeric
    cells and the finite values parsed (duplicates allowed)."""
    if not present or numeric / present < NUMERIC_PARSE_THRESHOLD:
        return Kind.CATEGORICAL
    if all(map(float.is_integer, numbers)) and \
            len(set(numbers)) <= INTEGER_CODE_MAX_DISTINCT:
        return Kind.CATEGORICAL
    return Kind.NUMERICAL


def _parse_column(cells: list, na: frozenset):
    """The kind and the cells of one column of raw text, each parsed once.

    A cell is missing if its stripped text is an na token; a present cell
    is numeric if it parses as a finite real. When no na token parses as a
    number and every cell parses, one vectorized parse decides. Otherwise
    each distinct text is checked against the na tokens and parsed once.
    """
    if not any(map(_parses, na)):
        try:
            numbers = np.array(cells, dtype=np.float64).tolist()
        except ValueError:
            numbers = None
        if numbers is not None:
            # A finite sum means every value is finite.
            finite = numbers if math.isfinite(sum(numbers)) else [
                v for v in numbers if math.isfinite(v)]
            if _kind_of(len(cells), len(finite), finite) is Kind.NUMERICAL:
                if len(finite) < len(numbers):
                    numbers = [v if math.isfinite(v) else None for v in numbers]
                return Kind.NUMERICAL, numbers
    counts = Counter(cells)
    parsed = {text: _try_parse_float(text) for text in counts
              if text.strip() not in na}
    numeric = [text for text, v in parsed.items() if v is not None]
    kind = _kind_of(sum(map(counts.__getitem__, parsed)),
                    sum(map(counts.__getitem__, numeric)),
                    list(map(parsed.__getitem__, numeric)))
    # Present texts map to one shared object per distinct text.
    cell_of = parsed if kind is Kind.NUMERICAL else {t: t for t in parsed}
    return kind, list(map(cell_of.get, cells))


def infer_kind(values: Sequence, na_tokens: Iterable[str] = DEFAULT_NA_TOKENS) -> Kind:
    """Decide whether a raw cell sequence is numerical or categorical.

    Numerical iff >= 95% of non-missing cells parse as finite reals and the
    parsed values are not a small integer code (<= 10 distinct all-integer
    values), so demographic codes like ``sex in {0, 1}`` stay categorical.
    """
    cells = [str(v) for v in values if v is not None]
    return _parse_column(cells, frozenset(na_tokens))[0]


def present_rows(cols: Sequence[Column], n: int) -> np.ndarray:
    """Mask of the ``n`` rows where none of ``cols`` is missing."""
    keep = np.ones(n, dtype=bool)
    for c in cols:
        if len(c.values) != n:
            raise RaggedRowError(f"column {c.name!r} has {len(c.values)} rows, not {n}")
        keep &= c.view.present
    return keep


def split_by_code(codes: np.ndarray, values: np.ndarray, k: int = 0) -> list:
    """``values`` split by code into parts 0, 1, ... (at least ``k``), each
    in row order."""
    sizes = np.bincount(codes, minlength=k)
    return np.split(values[np.argsort(codes, kind="stable")],
                    np.cumsum(sizes)[:-1])


def list_features(path) -> list:
    """Return the header names of a CSV file, in file order."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFileError(f"{path}: no header row") from None
    if not header or all(h.strip() == "" for h in header):
        raise EmptyFileError(f"{path}: empty header row")
    if len(set(header)) != len(header):
        raise DuplicateHeaderError(f"{path}: duplicate header names {header}")
    return header


def load_table(path, na_tokens: Iterable[str] = DEFAULT_NA_TOKENS) -> Table:
    """Load a CSV file into a typed :class:`Table`.

    Column kinds are inferred with :func:`infer_kind`; cells of a numerical
    column that do not parse are marked missing, as are na tokens anywhere.
    """
    header = list_features(path)
    na = frozenset(na_tokens)
    raw = [[] for _ in header]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        rownum = 2
        # Blocks of rows move into the columns at once, so at most one block
        # of per-row lists is alive at a time.
        while block := list(islice(reader, 4096)):
            if set(map(len, block)) != {len(header)}:
                bad = next(i for i, row in enumerate(block) if len(row) != len(header))
                raise RaggedRowError(
                    f"{path}: row {rownum + bad} has {len(block[bad])} fields, "
                    f"expected {len(header)}", row=rownum + bad)
            for i, cells in enumerate(raw):
                cells.extend([row[i] for row in block])
            rownum += len(block)
    columns = []
    for cname in header:
        kind, cells = _parse_column(raw.pop(0), na)
        columns.append(Column(cname, kind, tuple(cells)))
    return Table(name=str(path), columns=tuple(columns))


def from_columns(name: str, cols: Sequence[tuple]) -> Table:
    """Build a table from ``(name, kind, values)`` triples."""
    columns = tuple(Column(n, Kind(k), tuple(v)) for n, k, v in cols)
    return Table(name=name, columns=columns)


def save_table(table: Table, path) -> None:
    """Serialize a table back to CSV (missing cells as empty)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(serialize_table(table))


def serialize_table(table: Table) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table.column_names)
    for i in range(table.row_count):
        writer.writerow([_format_cell(c.values[i]) for c in table.columns])
    return buf.getvalue()


def _format_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
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
            replace(c, values=tuple(compress(c.values, keep.tolist())))
            for c in table.columns)
        return CleaningResult(Table(table.name, new_cols), 0, dropped)

    changed = 0
    new_cols = []
    target_names = set(columns)
    for c in table.columns:
        if c.name not in target_names:
            new_cols.append(c)
            continue
        present = c.non_missing()
        if not present:
            raise AllRowsDroppedError(f"column {c.name!r} has no non-missing values")
        if mode is CleaningMode.FILL_MEDIAN:
            if c.kind is not Kind.NUMERICAL:
                raise NonNumericalTargetError(
                    f"fill_median requires a numerical column, got {c.name!r}")
            fill = statistics.median(present)
        else:  # FILL_MODE: the most frequent value, ties to the first label
            view = c.category_view()
            fill = view.labels[int(np.bincount(view.data[view.present]).argmax())]
        filled = tuple(fill if v is None else v for v in c.values)
        changed += c.missing_count()
        new_cols.append(replace(c, values=filled))
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
    present = col.non_missing()
    if len(set(present)) < 2:
        raise ConstantColumnError(f"{column!r} has fewer than 2 distinct values")
    if mode is NormalizeMode.NORMALIZE:
        lo, hi = min(present), max(present)
        scale = hi - lo
        if scale == 0:
            raise ConstantColumnError(f"{column!r} is constant")
        new = tuple(None if v is None else (v - lo) / scale for v in col.values)
    else:
        mean = sum(present) / len(present)
        var = sum((v - mean) ** 2 for v in present) / len(present)
        if var == 0:
            raise ConstantColumnError(f"{column!r} has zero variance")
        sd = math.sqrt(var)
        new = tuple(None if v is None else (v - mean) / sd for v in col.values)
    new_cols = tuple(replace(c, values=new) if c.name == column else c
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
    view = by_col.category_view()
    keys = view.labels
    sizes = np.bincount(view.data[view.present], minlength=len(keys))
    keep = view.present & target_col.view.present
    parts = split_by_code(view.data[keep], target_col.view.data[keep], len(keys))
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
            replace(by_col, values=tuple(keys)),
            Column(name=f"{fn.value}_{target}", kind=Kind.NUMERICAL,
                   values=tuple(out)),
        ))
