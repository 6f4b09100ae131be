"""Column-oriented in-memory tables: loading, typing, and preprocessing.

A :class:`Table` is immutable after construction; every operation returns a
new table. Each :class:`Column` is one read-only numpy array: float64
with NaN for missing, or int codes with -1 for missing into labels sorted
by ``str``. Its kind follows from its labels: it is categorical iff it has
them. Cleaning, the metrics and the charts share the array, and
:func:`load_table` parses each block of CSV rows straight into it: the
whole lines of one read of about 64 KiB. numpy splits each block from its
raw bytes, each column into one fixed-width bytes array with no Python
object per cell (a column whose block has one far longer cell is kept as str
instead), until a block it cannot split exactly as ``csv.reader`` would;
``csv.reader`` reads the rest from there, 4096 rows at a time. A numeric
block with missing cells is parsed by the same numpy cast as one without.

:func:`write_table` writes the bytes ``csv.writer`` would, one block of
4096 rows per write: each column's block becomes a list of texts at once,
floats by ``repr`` and labels by indexing the column's texts, which
``csv.writer`` quotes once per distinct label and header name.

:func:`shared` keeps a value computed from an ordered set of columns for as
long as those columns live, and no longer: the metrics keep their first
steps and results there, and :func:`clean_missing` its drop_row cut.
"""

from __future__ import annotations

import csv
import io
import math
import weakref
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Sequence, TextIO

import numpy as np

from .errors import (
    AllRowsDroppedError,
    ConstantColumnError,
    DuplicateHeaderError,
    EmptyFileError,
    NonNumericalTargetError,
    NumericRangeError,
    ParseError,
    RaggedRowError,
    TableError,
    UnknownColumnError,
)

# A cell whose stripped text is one of these is missing.
NA_TOKENS = frozenset({"", "NA", "N/A", "?", "null"})

# Numeric-parse fraction above which a column is considered numerical,
# unless it looks like an integer code with few distinct values.
NUMERIC_PARSE_THRESHOLD = 0.95
INTEGER_CODE_MAX_DISTINCT = 10
# csv.reader reads and parses, and write_table writes, this many rows at a
# time.
_CSV_BLOCK = 4096
# The byte splitter reads whole lines of about this many bytes at a time.
_LINE_BYTES = 64 * 1024


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
        present = self.present
        values = self.data[present]
        # The first index of each value, so -0.0 or 0.0 keeps its first sign.
        _, first, inverse = np.unique(values, return_index=True,
                                      return_inverse=True)
        codes = np.full(self.data.size, -1, dtype=np.intp)
        codes[present] = inverse
        return categorical(self.name, codes, values[first].tolist())

    def subset(self, rows: np.ndarray) -> Column:
        """The rows picked by a boolean mask; a categorical column keeps the
        labels still present."""
        if self.labels is None:
            return Column(self.name, self.data[rows])
        return categorical(self.name, self.data[rows], self.labels)


# Column -> (its steps, the next column -> ...): the steps of an ordered set
# of columns sit under the last, each column held weakly.
_MEMO = weakref.WeakKeyDictionary()


def shared(cols: Sequence[Column], step, compute, *args):
    """``compute(*args)``, the named step for this ordered set of columns,
    computed the first time and kept while every one of them lives.

    The value must not refer to the columns themselves, or it keeps them
    alive. A step that raises is not kept, so each caller still raises its
    own error. Two threads may compute the same step twice, with equal
    results."""
    children = _MEMO
    for c in cols:
        node = children.get(c)
        if node is None:
            node = children.setdefault(c, ({}, weakref.WeakKeyDictionary()))
        steps, children = node
    try:
        return steps[step]
    except KeyError:
        value = steps[step] = compute(*args)
        return value


def readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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

    A block is one numpy array of the column's cells: fixed-width UTF-8
    bytes (``S``) from the byte splitter, or ``str`` objects from
    ``csv.reader`` and from the byte splitter's long-celled columns. A cell
    is missing if :func:`_missing` says so; a present cell is numeric if it
    parses as a finite real. A block whose present cells all parse is kept
    as float64 (missing and non-finite values NaN), unless every value so
    far is one of a few integers: a possible integer code, whose labels are
    its texts. Every other block is kept as codes into one dict of the
    column's distinct texts, each decoded, checked and parsed once, by
    :meth:`kind`.
    """

    def __init__(self, parse_floats: bool = True):
        # Off when a categorical column's texts are read again.
        self.parse_floats = parse_floats
        self.texts: dict = {}
        self.parts: list = []
        self.present = self.numeric = 0  # cells of the float blocks
        # The float blocks' distinct values, None once not a small code.
        self.small_ints: set | None = set()

    def add(self, cells: np.ndarray) -> None:
        block = None
        if self.parse_floats:
            # numpy parses bytes and str as float() does, but rejects the
            # bytes of non-ASCII digits and spaces: such a block takes the
            # text path, where kind() parses the decoded text.
            try:
                block, present = _floats(cells)
            except ValueError:
                pass
        if block is not None:
            finite = np.isfinite(block)
            if self.small_ints is not None:
                numbers = set(block[finite].tolist()) | self.small_ints
                self.small_ints = numbers if _small_code(numbers) else None
            if self.small_ints is None:
                block[~finite] = np.nan
                self.parts.append(block)
                self.present += present
                self.numeric += int(np.count_nonzero(finite))
                return
        keys, inverse = _distinct(cells)
        texts = self.texts
        codes = [texts.setdefault(key, len(texts)) for key in keys]
        self.parts.append(np.array(codes, dtype=np.intp)[inverse])

    def kind(self) -> Kind:
        """The kind of every cell added.

        Numerical iff >= 95% of non-missing cells parse as finite reals and
        the parsed values are not a small integer code (<= 10 distinct
        all-integer values), so demographic codes like ``sex in {0, 1}``
        stay categorical.
        """
        texts = np.array(list(self.texts), dtype=object)
        self.missing = _missing(texts)
        self.value = np.array(list(map(_parse, texts)), dtype=np.float64)
        finite = np.isfinite(self.value)
        self.value[~finite] = np.nan  # per distinct text, NaN unless numeric
        counts = sum((np.bincount(part, minlength=texts.size)
                      for part in self.parts if part.dtype == np.intp),
                     np.zeros(texts.size, dtype=np.intp))
        present = self.present + int(counts[~self.missing].sum())
        numeric = self.numeric + int(counts[finite].sum())
        if not present or numeric / present < NUMERIC_PARSE_THRESHOLD:
            return Kind.CATEGORICAL
        if self.small_ints is not None and _small_code(set(self.value[finite].tolist())):
            return Kind.CATEGORICAL
        return Kind.NUMERICAL

    def column(self, name: str) -> Column | None:
        """The finished column, or None for a categorical column some of
        whose blocks were kept as floats: its texts must be read again."""
        if self.kind() is Kind.NUMERICAL:
            return Column(name, np.concatenate([np.empty(0), *(
                part if part.dtype == np.float64 else self.value[part]
                for part in self.parts)]))
        if any(part.dtype == np.float64 for part in self.parts):
            return None
        labels = [None if m else text for text, m in zip(self.texts, self.missing)]
        codes = np.concatenate([np.empty(0, dtype=np.intp), *self.parts])
        return categorical(name, codes, labels)


def _missing(cells: np.ndarray) -> np.ndarray:
    """Whether each cell is missing: its stripped text is in ``NA_TOKENS``.

    ``S`` cells are stripped as bytes are, of the six ASCII spaces
    ``bytes.strip`` knows. One with other space around a token, such as
    U+00A0 or U+001C, reads as present, and parses as no number either, so
    its block takes the text path."""
    if cells.dtype == object:  # str
        return np.array([t.strip() in NA_TOKENS for t in cells.tolist()], dtype=bool)
    return np.isin(np.char.strip(cells), [token.encode() for token in NA_TOKENS])


def _floats(cells: np.ndarray) -> tuple:
    """A block's cells as float64, NaN where missing, and how many are
    present; ValueError if a present cell does not parse. Only a block the
    plain cast refuses is checked for missing cells."""
    try:
        return cells.astype(np.float64), cells.size
    except ValueError:
        # A block of words fails on its first cell: raise before every
        # cell is checked.
        if not _missing(cells[:1]).all():
            cells[:1].astype(np.float64)
        present = ~_missing(cells)
    block = np.full(cells.size, np.nan)
    block[present] = cells[present].astype(np.float64)
    return block, int(np.count_nonzero(present))


def _small_code(numbers: set) -> bool:
    """Whether ``numbers`` may be an integer code: a few integers."""
    return len(numbers) <= INTEGER_CODE_MAX_DISTINCT and all(map(float.is_integer, numbers))


def _distinct(cells: np.ndarray) -> tuple:
    """The distinct texts of a block, as str, and each cell's index into
    them."""
    if cells.dtype == object:  # str
        texts = cells.tolist()
        index = {text: i for i, text in enumerate(dict.fromkeys(texts))}
        return list(index), np.fromiter(map(index.__getitem__, texts),
                                        dtype=np.intp, count=cells.size)
    if cells.itemsize <= 8:
        # Sorting a text's NUL-padded bytes read as one integer is faster
        # than sorting the bytes, and as exact: cells hold no NUL.
        distinct, inverse = np.unique(cells.astype("S8").view(np.uint64),
                                      return_inverse=True)
        distinct = distinct.view("S8")
    else:
        distinct, inverse = np.unique(cells, return_inverse=True)
    # The byte splitter's cells hold no newline, so one decode serves all.
    return b"\n".join(distinct.tolist()).decode().split("\n"), inverse


def present_rows(cols: Sequence[Column], n: int) -> np.ndarray:
    """Mask of the ``n`` rows where none of ``cols`` is missing."""
    keep = np.ones(n, dtype=bool)
    for c in cols:
        if len(c.data) != n:
            raise RaggedRowError(f"column {c.name!r} has {len(c.data)} rows, not {n}")
        keep &= c.present
    return keep


def split_by_code(codes: np.ndarray, values: np.ndarray, k: int = 0) -> list:
    """``values`` split by code into parts 0, 1, ... (at least ``k``, and
    none if there are no codes and ``k`` is 0), each in row order."""
    sizes = np.bincount(codes, minlength=k)
    # numpy sorts integers of up to 16 bits stably by radix, in linear time.
    order = np.argsort(codes.astype(np.min_scalar_type(sizes.size)),
                       kind="stable")
    return np.split(values[order], np.cumsum(sizes)[:-1])[:sizes.size]


def _unreadable(path, exc) -> ParseError:
    if isinstance(exc, UnicodeDecodeError):
        # Its position counts from the start of the decoder's last read.
        bad = " ".join(map("0x{:02x}".format, exc.object[exc.start:exc.end]))
        exc = f"'{exc.encoding}' codec can't decode {bad}: {exc.reason}"
    return ParseError(f"{path}: cannot read as UTF-8 CSV: {exc}")


def _checked_header(path, header: list) -> list:
    if not header or all(h.strip() == "" for h in header):
        raise EmptyFileError(f"{path}: empty header row")
    if len(set(header)) != len(header):
        raise DuplicateHeaderError(f"{path}: duplicate header names {header}")
    return header


def list_features(path) -> list:
    """Return the header names of a CSV file, in file order."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh))
    except StopIteration:
        raise EmptyFileError(f"{path}: no header row") from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise _unreadable(path, exc) from exc
    except OSError as exc:
        raise TableError(str(exc)) from exc
    return _checked_header(path, header)


def _csv_blocks(path, rows, width: int, rownum: int):
    """Each column's cells in blocks of at most ``_CSV_BLOCK`` rows of the
    ``csv.reader`` ``rows``, the first of them row ``rownum`` of the file;
    a row of another width raises :class:`RaggedRowError`."""
    while block := list(islice(rows, _CSV_BLOCK)):
        if set(map(len, block)) != {width}:
            bad = next(i for i, row in enumerate(block) if len(row) != width)
            raise RaggedRowError(
                f"{path}: row {rownum + bad} has {len(block[bad])} fields, "
                f"expected {width}")
        yield [np.array(cells, dtype=object) for cells in zip(*block)]
        rownum += len(block)


class _Unsplittable(Exception):
    """The byte splitter cannot split this file as ``csv.reader`` does."""


def _check_plain(raw: bytes) -> None:
    """Raise :class:`_Unsplittable` if ``raw`` holds a quote or a NUL, or is
    not valid UTF-8."""
    if b'"' in raw or b"\0" in raw:
        raise _Unsplittable
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            raise _Unsplittable from None


def _line_blocks(fh):
    """The rest of a binary file in blocks of whole lines, each from one
    read of about ``_LINE_BYTES``; every block ends in a newline."""
    rest, size = b"", _LINE_BYTES
    # At the end of the file, a last line without a newline gets one.
    while more := fh.read(size) or (rest and b"\n"):
        buf = rest + more
        cut = buf.rfind(b"\n") + 1
        if cut:
            yield buf[:cut]
        rest = buf[cut:]
        # A line longer than one read doubles the next.
        size = _LINE_BYTES if cut else 2 * size


# A column whose fixed-width cells would take more than this many bytes per
# byte of its text and delimiters (one long cell among short ones) is kept
# as str instead.
_MAX_WIDENING = 8


def _split_block(raw: bytes, width: int) -> list:
    """Each column's cells in ``raw``, whole lines of ``width`` fields, as
    one fixed-width ``S`` array of their bytes, or of ``str`` for a column
    with a cell far longer than its others."""
    _check_plain(raw)
    a = np.frombuffer(raw, dtype=np.uint8)
    newline = a == 10
    ends = np.flatnonzero(newline | (a == 44))  # "\n" and ","
    rows = int(np.count_nonzero(newline))
    if ends.size != rows * width:
        raise _Unsplittable
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # (width, rows) views: column j is row j.
    starts = starts.reshape(rows, width).T
    ends = ends.reshape(rows, width).T
    # Each row ends at a newline, so each has width - 1 commas.
    if not newline[ends[-1]].all():
        raise _Unsplittable
    lengths = np.ascontiguousarray(ends - starts)
    cr = a[ends[-1] - 1] == 13
    if b"\r" in raw and np.count_nonzero(a == 13) != np.count_nonzero(cr):
        raise _Unsplittable  # a "\r" that is no line end's
    lengths[-1] -= cr
    if width == 1 and not lengths.all():
        raise _Unsplittable  # csv.reader reads a blank line as no fields
    widest = lengths.max(axis=1, initial=1)
    if widest.max() >= csv.field_size_limit():
        raise _Unsplittable  # csv.reader's error
    fixed = rows * widest <= _MAX_WIDENING * (lengths.sum(axis=1) + rows)
    shortest = lengths.min(axis=1).tolist()
    most = int(widest.max(initial=1, where=fixed))
    padded = np.concatenate([a, np.zeros(most, dtype=np.uint8)])
    # most bytes of 0xff, then most of 0: the window at most - n masks all
    # but the first n bytes.
    keep = np.repeat(np.array([255, 0], dtype=np.uint8), most)
    columns = []
    for j, w in enumerate(widest.tolist()):
        if not fixed[j]:
            columns.append(np.array([raw[i:i + n].decode() for i, n in zip(
                starts[j].tolist(), lengths[j].tolist())], dtype=object))
            continue
        cells = _windows(padded, w)[starts[j]]
        if shortest[j] < w:  # zero what follows a shorter cell
            tail = cells.view(np.uint8)
            tail &= _windows(keep, w)[most - lengths[j]].view(np.uint8)
        columns.append(cells)
    return columns


def _windows(buf: np.ndarray, w: int) -> np.ndarray:
    """The ``S{w}`` view of ``buf`` whose item i is ``buf[i:i + w]``."""
    return np.ndarray((buf.size - w + 1,), dtype=f"S{w}", buffer=buf, strides=(1,))


def _blocks(path, width: int):
    """Each column's cells in blocks after the header. numpy splits the
    file's bytes, one ``_line_blocks`` block at a time, up to the first block
    it cannot split as ``csv.reader`` would, and ``csv.reader`` reads the
    rest from that block's first byte, ``_CSV_BLOCK`` rows at a time."""
    with open(path, "rb") as fh:
        line = fh.readline()
        start, rownum = 0, 2
        # Unless csv.reader's header is the first line, it reads every row.
        if b'"' not in line and line.count(b"\r") == line.endswith(b"\r\n"):
            start = len(line)
            for raw in _line_blocks(fh):
                try:
                    block = _split_block(raw, width)
                except _Unsplittable:
                    break
                yield block
                start += len(raw)
                rownum += len(block[0])
            else:
                return
        # Every row before start is one line with no quote: none is open.
        fh.seek(start)
        with io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
            rows = csv.reader(text)
            if not start:
                next(rows)  # the header
            yield from _csv_blocks(path, rows, width, rownum)


def load_table(path) -> Table:
    """Load a CSV file into a typed :class:`Table`.

    Column kinds are inferred by :meth:`_ColumnParser.kind`; cells of a
    numerical column that do not parse are marked missing, as are
    ``NA_TOKENS`` anywhere, which in a numeric block the float cast reads
    as NaN. numpy splits the rows from the file's bytes, the whole lines of
    one read of about ``_LINE_BYTES`` at a time, up to the first block with
    a quote, NUL or bare ``\r``, invalid UTF-8 or a row not of the header's
    width; ``csv.reader`` reads the header and the rest from that block's
    first byte, ``_CSV_BLOCK`` rows at a time, and words every error. So
    only about one block of raw text is alive at once. A file that cannot
    be opened or read raises :class:`TableError` with the OS error's text.
    """
    header = list_features(path)
    parsers = [_ColumnParser() for _ in header]
    try:
        # numpy warns when a text overflows to inf, as "1e400" does.
        with np.errstate(over="ignore"):
            for block in _blocks(path, len(header)):
                for parser, cells in zip(parsers, block):
                    parser.add(cells)
        columns = []
        for i, name in enumerate(header):
            columns.append(parsers[i].column(name))
            parsers[i] = None
        # One more pass reads the texts of every categorical column some of
        # whose blocks were kept as floats.
        again = {i: _ColumnParser(parse_floats=False)
                 for i, c in enumerate(columns) if c is None}
        if again:
            for block in _blocks(path, len(header)):
                for i, parser in again.items():
                    parser.add(block[i])
            for i, parser in again.items():
                columns[i] = parser.column(header[i])
    except (UnicodeDecodeError, csv.Error) as exc:
        raise _unreadable(path, exc) from exc
    except OSError as exc:
        raise TableError(str(exc)) from exc
    return Table(tuple(columns))


def save_table(table: Table, path) -> None:
    """Write a table to a CSV file with :func:`write_table`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_table(table, fh)


def write_table(table: Table, fh: TextIO) -> None:
    """Write a table as CSV, the bytes ``csv.writer(fh, lineterminator="\\n")``
    writes, with one ``fh.write`` for the header and one per block of
    ``_CSV_BLOCK`` rows.

    A numerical cell is its ``repr``, a finite whole number as an int, and
    empty if missing. A categorical column's cells index a list of texts
    built once: each label's, quoted by ``csv.writer`` itself, and an empty
    one for code -1; the header names are quoted the same way. In a
    one-column table a row whose one field is empty (a missing cell, an
    empty label or name) is written ``""``, as csv writes such a row. So the
    text of at most one block is alive at once.
    """
    empty = '""' if len(table.columns) == 1 else ""
    fh.write(",".join(_quoted(table.column_names, empty)) + "\n")
    # A categorical column's texts by code; code -1 reads the trailing one.
    texts = [None if c.labels is None
             else [*_quoted(map(_format_cell, c.labels), empty), empty]
             for c in table.columns]
    for start in range(0, table.row_count, _CSV_BLOCK):
        parts = [c.data[start:start + _CSV_BLOCK] for c in table.columns]
        cols = [_number_texts(part, empty) if t is None
                else list(map(t.__getitem__, part.tolist()))
                for part, t in zip(parts, texts)]
        fh.write("\n".join(map(",".join, zip(*cols))) + "\n")


def _quoted(texts, empty: str) -> list:
    """Each text as ``csv.writer`` writes it as one field of a row of
    several; a field written empty is ``empty``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    quoted = []
    for text in texts:
        writer.writerow((text, ""))  # the field, then ",\n"
        quoted.append(buf.getvalue()[:-2] or empty)
        buf.seek(0)
        buf.truncate()
    return quoted


def _number_texts(part: np.ndarray, empty: str) -> list:
    """:func:`_format_cell` of each float of a block, but ``empty`` for NaN:
    ``repr``, mended at the few cells that are NaN or finite and whole."""
    texts = list(map(repr, part.tolist()))
    odd = np.isnan(part) | (np.trunc(part) == part) & np.isfinite(part)
    for i, v in zip(np.flatnonzero(odd).tolist(), part[odd].tolist()):
        texts[i] = empty if math.isnan(v) else str(int(v))
    return texts


def _format_cell(v) -> str:
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        return repr(v) if not v.is_integer() else str(int(v))
    return str(v)


def extract_columns(table: Table, names: Sequence[str]) -> Table:
    """Project the table onto 1 or 2 named columns, preserving order and kinds."""
    cols = tuple(table.column(n) for n in names)
    return Table(cols)


def clean_missing(table: Table, columns: Sequence[str],
                  mode: CleaningMode = CleaningMode.DROP_ROW) -> CleaningResult:
    """Remove or fill missing values in the named columns.

    drop_row keeps its cut of the table's columns while they live, so two
    cleanings of the same columns return the same cut ``Column`` objects,
    and the metrics keep their results on them. A cut that drops nothing is
    the table's own columns."""
    targets = [table.column(n) for n in columns]
    if mode is CleaningMode.DROP_ROW:
        keep = present_rows(targets, table.row_count)
        if table.row_count > 0 and not keep.any():
            raise AllRowsDroppedError(
                f"cleaning {list(columns)} with drop_row removed every row")
        dropped = table.row_count - int(keep.sum())
        new_cols = table.columns
        if dropped:
            where = sorted({table.columns.index(c) for c in targets})
            new_cols = shared(new_cols, f"drop rows missing in {where}",
                              lambda: tuple(c.subset(keep) for c in table.columns))
        return CleaningResult(Table(new_cols), 0, dropped)

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
            fill = _median(c.data[present])
        elif c.labels is None:
            # FILL_MODE: the most frequent value, of ties the first by str;
            # a zero has the sign it has where first seen.
            values = c.data[present]
            _, first, counts = np.unique(values, return_index=True, return_counts=True)
            fill = min(values[first[counts == counts.max()]].tolist(), key=str)
        else:  # FILL_MODE: the most frequent label, ties to the first
            fill = int(np.bincount(c.data[present]).argmax())
        changed += len(present) - int(present.sum())
        new_cols.append(Column(c.name, np.where(present, c.data, fill), c.labels))
    return CleaningResult(Table(tuple(new_cols)), changed, 0)


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
        lo, hi = present[[present.argmin(), present.argmax()]].tolist()
        scale = hi - lo
        if math.isinf(scale):
            raise NumericRangeError(
                f"normalize: the range of {column!r} exceeds float64")
        new = (data - lo) / scale
    else:
        # Row-order sums, as Python 3.11 adds floats; squares by the C
        # library's pow, as ** takes them (np.square may differ in the last bit).
        with np.errstate(over="ignore"):
            mean = np.cumsum(present)[-1] / present.size
            var = np.cumsum(np.float_power(present - mean, 2))[-1] / present.size
        if not math.isfinite(var):
            raise NumericRangeError(
                f"standardize: the variance of {column!r} exceeds float64")
        if var == 0:
            raise ConstantColumnError(f"{column!r} has zero variance")
        new = (data - mean) / math.sqrt(var)
    return Table(tuple(Column(column, new) if c.name == column else c
                       for c in table.columns))


class AggregateFn(str, Enum):
    MEAN = "mean"
    COUNT = "count"
    SUM = "sum"
    MEDIAN = "median"


def group_and_aggregate(table: Table, by: str, target: str,
                        fn: AggregateFn) -> Table:
    """Aggregate ``target`` per group of ``by``, one row per group in ``str``
    order of its label or value, so a numerical ``by`` of 2.0, 10.0 and 1.5
    gives groups 1.5, 10.0, 2.0."""
    by_col = table.column(by)
    target_col = table.column(target)
    if fn is not AggregateFn.COUNT and target_col.kind is not Kind.NUMERICAL:
        raise NonNumericalTargetError(
            f"{fn.value} requires a numerical target, got {target!r}")
    groups = by_col.categories()
    keys = groups.labels
    keep = groups.present & (target_col.present | (fn is AggregateFn.COUNT))
    codes, values = groups.data[keep], target_col.data[keep]
    sizes = np.bincount(codes, minlength=len(keys))
    if fn is AggregateFn.MEDIAN:
        out = np.array([_median(part) if part.size else np.nan
                        for part in split_by_code(codes, values, len(keys))])
    else:
        # Each group's rows, or its values added in row order from 0.0 as
        # Python 3.11 sums them.
        out = np.bincount(codes, None if fn is AggregateFn.COUNT else values,
                          len(keys)).astype(np.float64)
        if np.isinf(out).any():
            raise NumericRangeError(f"group_and_aggregate: a sum of "
                                    f"{target!r} by {by!r} exceeds float64")
        if fn is AggregateFn.MEAN:
            out /= np.maximum(sizes, 1)
    out[sizes == 0] = np.nan
    return Table((Column.of(by, by_col.kind, keys),
                  Column(f"{fn.value}_{target}", out)))


def _median(v: np.ndarray) -> float:
    """``statistics.median`` of a non-empty array, bit for bit where finite:
    its stable sort keeps tied zeros in row order, so the k-th has its sign."""
    i, j = (v.size - 1) // 2, v.size // 2
    middle = np.partition(v, (i, j))[[i, j]]
    zero = middle == 0
    middle[zero] = v[v == 0][np.array((i, j))[zero] - np.count_nonzero(v < 0)]
    lo, hi = middle.tolist()
    mid = (lo + hi) / 2
    return mid if math.isfinite(mid) else lo / 2 + hi / 2
