"""Rectangular numeric datasets: CSV ingestion, standardization, summaries."""

import csv
import hashlib
import io
import itertools
import math
import re
import warnings
from typing import NamedTuple

import numpy as np

from .errors import DataWarning, OutOfRange, ParseError, TooFewRows, ZeroVariance
from .files import open_output
from .record import FrozenRecord

SD_FLOOR = 1e-12
WRITE_BLOCK_CELLS = 8192  # values write_csv formats per string
_LINE_END = re.compile(r"\r\n|\r|\n")  # where a file opened with newline="" ends a line


class VariableSummary(NamedTuple):
    name: str
    mean: float
    sd: float
    minimum: float
    maximum: float
    flag_zero_variance: bool


class Dataset(FrozenRecord):
    """Immutable named-column numeric data, one row per observation.

    `dropped` counts the rows load_csv dropped and `digest` is the sha256 of
    the file it parsed (None for data built in memory); equality reads
    neither, and compares the rows by value.
    """

    _fields = ("variables", "rows", "dropped", "digest")
    # numpy defers to __eq__/__ne__ below, so comparing with an array is a bool
    __array_ufunc__ = None

    def __init__(self, variables, rows, dropped=0, digest=None):
        names = tuple(str(v) for v in variables)
        if len(set(names)) != len(names) or any(not v for v in names):
            raise ParseError("variable names must be unique and nonempty")
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(names):
            raise ParseError("rows must be a 2-D block with one column per variable")
        if not np.all(np.isfinite(rows)):
            raise ParseError("all observations must be finite")
        if rows.shape[0] < 3:
            raise TooFewRows(f"need at least 3 rows, got {rows.shape[0]}")
        rows = rows.copy()
        rows.flags.writeable = False
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "rows", rows)  # (n, k) float64
        object.__setattr__(self, "dropped", dropped)
        object.__setattr__(self, "digest", digest)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.variables == other.variables and np.array_equal(self.rows, other.rows)

    @property
    def n(self):
        return self.rows.shape[0]

    @property
    def k(self):
        return self.rows.shape[1]

    def column(self, name):
        try:
            idx = self.variables.index(name)
        except ValueError:
            raise KeyError(name) from None
        return self.rows[:, idx]


def load_csv(path):
    """Read a dataset from a header-first CSV file.

    The file is read once, as bytes: their sha256 becomes the Dataset's
    `digest`, and they are decoded as UTF-8 in one call (a decoding error
    names its byte offset in the file).  The header is
    read with the csv module from the text's first lines, split as in a
    file opened with newline="" (line endings untranslated).  A clean
    body (k finite numbers on every non-blank line, no quotes) is parsed in
    C by one np.loadtxt call; its values equal those of float() on each
    cell.  That result is kept only if np.loadtxt raised nothing, returned
    k columns of finite values, and returned one row per non-blank line.
    Any other body goes through the per-row loop, because only it knows
    which rows to drop: rows with missing, unparseable or non-finite cells
    are dropped (listwise deletion), and the count is attached to the
    result and reported as a DataWarning.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.sha256(raw).hexdigest()
    text = raw.decode("utf-8")
    del raw
    header, start, header_lines = _read_header(text, path)
    names = [h.strip() for h in header]
    if not names:
        raise ParseError(f"{path}: line 1: empty header, no column names")
    if any(not n for n in names):
        raise ParseError(f"{path}: blank column name in header")
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ParseError(f"{path}: duplicate column names {dupes}")
    body = text[start:]
    del text  # the parse below runs measurably slower with a second copy alive
    kept = _parse_clean(body, len(names))
    dropped = 0
    if kept is None:
        kept, dropped = _parse_listwise(body, len(names), path, header_lines)
    if len(kept) < 3:
        raise TooFewRows(
            f"{path}: only {len(kept)} usable rows after dropping {dropped}"
        )
    if dropped:
        warnings.warn(
            f"{path}: dropped {dropped} rows with missing or unparseable cells",
            DataWarning,
            stacklevel=2,
        )
    return Dataset(tuple(names), np.asarray(kept, dtype=np.float64), dropped=dropped,
                   digest=digest)


def _read_header(text, path):
    """(cells, body offset, lines read) of the first CSV record in text.

    The csv module gets text's lines with their ends, split at CR LF, CR or
    LF as a file opened with newline="" gives them, and only as many as
    the record takes.
    """
    end = 0

    def lines():
        nonlocal end
        stops = itertools.chain((m.end() for m in _LINE_END.finditer(text)), [len(text)])
        for stop in stops:
            if stop > end:
                line, end = text[end:stop], stop
                yield line

    reader = csv.reader(lines())
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    return header, end, reader.line_num


def _parse_clean(body, k):
    """The (n, k) block of a body with nothing to drop, or None.

    Lines end at CR LF, CR or LF, as for the csv module reading a file
    opened with newline="".  The row count is checked against the
    non-blank lines, so no line the csv module reads as a row can be
    skipped here unnoticed.  np.loadtxt strips the separators \\x1c-\\x1f
    from a cell as whitespace and float() does not, so a body holding one
    is left to the loop.
    """
    if any(sep in body for sep in "\x1c\x1d\x1e\x1f"):
        return None
    if "\r" in body:  # a scan is far cheaper than a replace that finds nothing
        body = body.replace("\r\n", "\n").replace("\r", "\n")
    lines = body.split("\n")
    nonblank = len(lines) - lines.count("")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        return None
    if rows.shape != (nonblank, k) or not np.isfinite(rows).all():
        return None
    return rows


def _parse_listwise(body, k, path, header_lines):
    """Rows of k finite cells, and the count of other non-blank rows.

    A csv.Error (such as a cell past the csv module's field limit) becomes
    a ParseError naming the file line, counted after the header's lines.
    """
    kept, dropped = [], 0
    reader = csv.reader(io.StringIO(body, newline=""))
    try:
        for cells in reader:
            if not cells:
                continue  # blank line
            if len(cells) != k:
                dropped += 1
                continue
            try:
                row = [float(c) for c in cells]
            except ValueError:
                dropped += 1
                continue
            if not all(math.isfinite(v) for v in row):
                dropped += 1
                continue
            kept.append(row)
    except csv.Error as exc:
        line = header_lines + reader.line_num
        raise ParseError(f"{path}: line {line}: {exc}") from None
    return kept, dropped


def write_csv(d, path):
    """Write a dataset in the same CSV dialect load_csv reads.

    The header goes through csv.writer, which quotes names as needed.  The
    body is the bytes csv.writer would write for the float rows: every
    value as its repr, comma-separated, one row per line.  It is formatted
    in blocks of whole rows, about WRITE_BLOCK_CELLS values each, as
    repr(block.tolist()); besides its outer brackets, that list repr
    differs from CSV only in its "], [" row breaks and ", " separators,
    which no float repr holds.  Bounding a block by values keeps the copy
    small whatever the number of columns.
    """
    step = max(1, WRITE_BLOCK_CELLS // d.k)
    with open_output(path) as fh:
        csv.writer(fh, lineterminator="\n").writerow(d.variables)
        for start in range(0, d.n, step):
            block = repr(d.rows[start:start + step].tolist())
            fh.write(block[2:-2].replace("], [", "\n").replace(", ", ",") + "\n")


def column_sds(d):
    """Sample standard deviations (n-1 denominator), one per column."""
    return d.rows.std(axis=0, ddof=1)


def standardize(d):
    """Rescale every column to mean 0, sd 1 (n-1 denominator)."""
    return Dataset(d.variables, _z_scores(d), dropped=d.dropped)


def _z_scores(d):
    """standardize's (n, k) block, without building a checked Dataset.

    Raises ZeroVariance for a constant column and OutOfRange for one whose
    mean or sd overflows float64; numpy's overflow warnings stay silent.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        means = d.rows.mean(axis=0)
        sds = column_sds(d)
    for name, mean, sd in zip(d.variables, means, sds):
        if not (math.isfinite(mean) and math.isfinite(sd)):
            raise OutOfRange(f"variable {name!r}: mean or sd overflows float64")
        if sd < SD_FLOOR:
            raise ZeroVariance(name)
    return (d.rows - means) / sds


def summarize(d):
    """One VariableSummary per column, in declaration order."""
    sds = column_sds(d)
    out = []
    for j, name in enumerate(d.variables):
        col = d.rows[:, j]
        out.append(
            VariableSummary(
                name=name,
                mean=float(col.mean()),
                sd=float(sds[j]),
                minimum=float(col.min()),
                maximum=float(col.max()),
                flag_zero_variance=bool(sds[j] < SD_FLOOR),
            )
        )
    return out
