"""Rectangular numeric datasets: CSV ingestion, standardization, summaries.

A Dataset owns its standardization: the column sds, the z-scores and their
correlations z'z / (n - 1) are each computed on first read and kept, and
pearson_matrix, summarize and screening's distances, VIFs and model fit
take them from it.  The sds and z-scores come from one centered pass,
with the bits of rows.std(axis=0, ddof=1) and (rows - means) / sds.  Two
screening statistics scale on their own terms: ks_normality standardizes
its own sorted copy of a column, whose bits the study's screen pins (the
Dataset's z-scores move D in the last digits), and residual_diagnostics
scales each residual by that residual's own sd.
"""

import csv
import functools
import io
import itertools
import math
import re
import warnings
from typing import NamedTuple

import numpy as np

from .correlation import _variable_names
from .errors import DataWarning, OutOfRange, ParseError, TooFewRows, ZeroVariance
from .files import csv_text, read_input, write_outputs
from .numeric import readonly_array
from .record import FrozenRecord

SD_FLOOR = 1e-12
# Values csv_pieces formats per run, each as its repr (see there for
# how, and for which values go through repr itself).  A run makes ~100
# numpy calls and holds up to ~14 temporaries of this length.  Writing 8e5
# normal draws (2-vCPU Xeon, one process, alternating) took 167 ms at
# 8192, 160 ms at 16384, 174 ms at 65536, 193 ms at 4096 and 296 ms at
# 1024; a run's peak traced memory is 0.9 MB at 8192 and doubles with the
# run, against 0.5 MB for the repr(run.tolist()) it replaced.
WRITE_BLOCK_CELLS = 8192
_TIE_MARGIN = 1e-9  # units of the 17th significant digit; see csv_pieces
_LINE_END = re.compile(r"\r\n|\r|\n")  # where a file opened with newline="" ends a line


class VariableSummary(NamedTuple):
    name: str
    mean: float
    sd: float
    minimum: float
    maximum: float


class Dataset(FrozenRecord):
    """Immutable named-column numeric data, one row per observation.

    `digest` is the sha256 of the file load_csv parsed (None for data built
    in memory); equality does not read it, and compares the rows by value.
    `_sds`, `_z` and `_r` are the standardization the raw-data readers
    take (see the module docstring), built on first read and kept (`_sds`
    and `_z` from one `_standardized` pass, whose centered block becomes
    z): they take no part in equality, repr, copy or pickle.
    """

    _fields = ("variables", "rows", "digest")
    # numpy defers to __eq__/__ne__ below, so comparing with an array is a bool
    __array_ufunc__ = None

    def __init__(self, variables, rows, digest=None):
        names = _variable_names(variables)
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
        object.__setattr__(self, "digest", digest)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.variables == other.variables and np.array_equal(self.rows, other.rows)

    def __reduce__(self):
        return self.__class__, (self.variables, self.rows, self.digest)

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

    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def _standardized(self):
        """(means, sds, z): the column means and sds and the z-scores, or
        None for z when a column is constant or overflows; numpy's overflow
        warnings stay silent.

        One pass over x = rows - means gives both: the sds are
        sqrt(sum(x * x) / (n - 1)), the operations rows.std(axis=0, ddof=1)
        runs, so their bits are its bits, and z is x / sds, divided in
        place, as (rows - means) / sds.
        """
        means = self.rows.mean(axis=0)
        x = self.rows - means
        sds = np.sqrt(np.add.reduce(x * x, axis=0) / (self.n - 1))
        sds.flags.writeable = False
        # finite sds mean finite sums of squares, so finite means and x
        if not (np.isfinite(sds).all() and (sds >= SD_FLOOR).all()):
            return means, sds, None
        z = np.divide(x, sds, out=x)
        z.flags.writeable = False
        return means, sds, z

    @functools.cached_property
    def _sds(self):
        """Sample standard deviations (n-1 denominator), one per column,
        read-only."""
        return self._standardized[1]

    @functools.cached_property
    def _z(self):
        """The read-only (n, k) block of every column at mean 0, sd 1.

        Raises ZeroVariance for a constant column and OutOfRange for one
        whose mean or sd overflows float64.
        """
        means, sds, z = self._standardized
        if z is None:
            for name, mean, sd in zip(self.variables, means, sds):
                if not (math.isfinite(mean) and math.isfinite(sd)):
                    raise OutOfRange(f"variable {name!r}: mean or sd overflows float64")
                if sd < SD_FLOOR:
                    raise ZeroVariance(name)
        return z

    @functools.cached_property
    def _r(self):
        """The (k, k) correlations z'z / (n - 1) of `_z`, read-only."""
        return readonly_array((self._z.T @ self._z) / (self.n - 1))


def load_csv(path):
    """Read a dataset from a header-first CSV file.

    The file is read once, by files.read_input: the sha256 of its bytes
    becomes the Dataset's `digest`.  The header is read with the csv module
    from the text's first lines, split as in a file opened with newline=""
    (line endings untranslated).  A clean body (k finite numbers on every
    non-blank line, no quotes) is parsed in C by one np.loadtxt call; its
    values equal those of float() on each cell.  That result is kept only
    if np.loadtxt raised nothing, returned k columns of finite values, and
    returned one row per non-blank line.  Any other body goes through the per-row loop, because
    only it knows which rows to drop: rows with missing, unparseable or
    non-finite cells are dropped (listwise deletion), and the count is
    reported as a DataWarning.
    """
    text, digest = read_input(path)
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
    return Dataset(tuple(names), np.asarray(kept, dtype=np.float64), digest=digest)


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
    """Write a dataset in the same CSV dialect load_csv reads."""
    write_outputs([(path, csv_pieces(d.variables, [d.rows]))])


def csv_pieces(variables, blocks):
    """The CSV text of a header and the rows of each (rows, k) block, in pieces.

    The header goes through csv.writer, which quotes names as needed.  The
    body is the bytes csv.writer would write for the float rows: every
    value as its repr, comma-separated, one row per line, so the bytes do
    not depend on how the rows are split into blocks.  Each block is
    formatted in runs of whole rows, about WRITE_BLOCK_CELLS values each,
    so the temporaries stay small whatever the number of columns, and each
    run's text is one piece.  `blocks` may be a generator: only one block is
    held at a time.

    A run is formatted by numpy, not by one repr call per value.  repr
    writes the shortest digit string that reads back as the same double,
    the nearest one when several are that short (Steele & White 1990;
    Gay 1990), in fixed notation for 1e-4 <= |a| < 1e16.  For |a| in
    [1e-4, 1e14) the decimal exponent e comes from log10, and y = |a| *
    10^(16 - e), which lies in [1e16, 1e17), is formed exactly as a
    double-double (Dekker's product; 10^s is an exact double for s <= 22).
    Rounding y to an integer (ties to even, as repr breaks them) gives the
    17-digit candidate, and rounding y to a multiple of 10 or 100 the 16-
    and 15-digit ones.  A candidate reads back as a iff it lies within half
    an ulp of a, scaled alike, so the shortest candidate within that bound
    is repr's digits.  Their ASCII comes from a table of the four digits of
    0..9999 into a fixed-width byte matrix, whose NUL padding one
    bytes.translate drops.

    A value goes through repr itself when this cannot prove the answer:
    |a| < 1e-4 or >= 1e14 (zero, subnormals, exponent notation, and the
    integral fixed forms such as "123456789012345.0"), inf or nan; a y
    within 1e-12 relatively of 1e16 or 1e17, where log10 may be off by one;
    a 14-digit or shorter candidate within half an ulp (this covers every
    exact power of two in range, the one case where the interval is not
    symmetric); a y within _TIE_MARGIN (1e-9 units of the 17th digit) of a
    tie between two 16-digit candidates; and a 15- or 16-digit candidate
    within _TIE_MARGIN of the half-ulp bound.  The arithmetic behind those
    distances errs by less than 1e-13 of that unit.  About 0.7% of normal
    draws go through repr.
    """
    step = max(1, WRITE_BLOCK_CELLS // len(variables))
    yield csv_text([variables])
    for rows in blocks:
        for start in range(0, len(rows), step):
            yield _csv_lines(rows[start:start + step])


def _dekker_split(a):
    """(hi, lo) with hi + lo == a and each half of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _format_tables():
    """The tables the CSV formatter reads, built on first use.

    10^s for s = 0..22 (each an exact double) and its Dekker halves; the
    four digits of each of 0..9999 as one word, each digit followed by a
    NUL, and again with trailing zeros dropped, for a value's last four
    digits; the word before a value's second digit, per exponent e = -5..14
    and sign (index 2*(e+5) + negative): sign, "0." and -1-e zeros when
    e < 0, a "0" to which the first digit is added, and the point when
    e = 0; and the byte of the point, per e.
    """
    powers = np.array([float(10 ** s) for s in range(23)])
    digits = np.arange(10 ** 4, dtype=np.int16)[:, None] // np.int16([1000, 100, 10, 1]) % 10
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    quads = np.zeros((2, 10 ** 4, 8), np.uint8)
    quads[:, :, ::2] = digits + ord("0")
    quads[1, :, ::2][trailing] = 0
    heads, points = [], []
    for e in range(-5, 15):
        prefix = ("0." + "0" * (-1 - e))[:5] if e < 0 else ""
        for sign in ("\0", "-"):
            heads.append((sign + prefix.ljust(5, "\0") + "0" + "." * (e == 0)).ljust(8, "\0"))
        points.append(2 if e < 0 else 7 + 2 * e)
    quads, tails = quads.view("<i8")[..., 0]
    heads = np.frombuffer("".join(heads).encode("ascii"), "<i8")
    return (powers, *_dekker_split(powers), quads, tails, heads, np.array(points))


def _shortest_digits(values):
    """(e, digits, slow) per value: repr's significant digits of |value|.

    `e` is the decimal exponent, `digits` the int64 of the digits padded
    with zeros to 17, and `slow` marks the values this cannot prove (see
    csv_pieces); their e lies in -5..14 and their digits below 1e18,
    but neither means anything.
    """
    powers = _format_tables()[0]
    x = np.abs(values)
    inside = (x >= 1e-4) & (x < 1e14)
    x[~inside] = 1.0
    e = np.floor(np.log10(x)).astype(np.intp)
    y, err = _times_power_of_ten(x, 16 - e)
    half_ulp = np.ldexp(powers[16 - e], np.frexp(x)[1] - 54)  # exact, scaled alike
    slow = ~inside | (y < 1e16 * (1 + 1e-12)) | (y > 1e17 * (1 - 1e-12))
    # y >= 2^53 is an even integer, so rounding err half to even rounds
    # y + err half to even: n is the 17-digit candidate
    whole = np.rint(err)
    frac = err - whole  # exact: x * 10^s == n + frac
    n = y.astype(np.int64) + whole.astype(np.int64)
    del x, inside, y, err, whole  # a quarter of the peak memory of this call
    slow |= _nearest(n, frac, 1000)[1] < half_ulp + _TIE_MARGIN
    at15, d15, _ = _nearest(n, frac, 100)  # a 15-digit tie is never within half an ulp
    at16, d16, tie16 = _nearest(n, frac, 10)
    slow |= (tie16 | (np.abs(d15 - half_ulp) <= _TIE_MARGIN)
             | (np.abs(d16 - half_ulp) <= _TIE_MARGIN))
    digits = np.where(d15 < half_ulp, at15, np.where(d16 < half_ulp, at16, n))
    return e, digits, slow


def _times_power_of_ten(x, s):
    """(y, err) with y + err == x * 10^s exactly (Dekker's product), s in 0..22."""
    powers, p_hi, p_lo = _format_tables()[:3]
    y = x * powers[s]
    x_hi, x_lo = _dekker_split(x)
    p_hi, p_lo = p_hi[s], p_lo[s]
    return y, ((x_hi * p_hi - y) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo


def _nearest(n, frac, unit):
    """(m, d, tie) for y = n + frac: the multiple m of unit nearest to y,
    the distance d from y to it, and whether y is within _TIE_MARGIN of
    halfway between two multiples."""
    q = n // unit  # numpy's n // c is faster than n % c
    t = (n - unit * q) + frac
    return (unit * (q + (t > unit / 2)), np.minimum(np.abs(t), unit - t),
            np.abs(t - unit / 2) <= _TIE_MARGIN)


def _csv_lines(rows):
    """The CSV lines of a (rows, k) float64 block, each value as its repr."""
    return _cells(rows).tobytes().translate(None, b"\0").decode("ascii")


def _cells(rows):
    """The NUL-padded ASCII of _csv_lines, one row of 40 bytes per value.

    A value's five little-endian int64 words hold the head word
    (_format_tables) plus the first digit; then digits 2..17, each
    followed by a NUL or, after digit e+1, the point; and the comma or
    newline as the last byte.  A value repr writes itself takes the first
    39 bytes.
    """
    quads, tails, heads, points = _format_tables()[3:]
    r, k = rows.shape
    values = rows.ravel()
    e, digits, slow = _shortest_digits(values)
    top = digits // 10 ** 8
    low = digits - top * 10 ** 8
    lead = top // 10 ** 8
    top -= lead * 10 ** 8
    cells = np.empty((r, k, 5), np.dtype("<i8"))
    cells[..., 0] = (heads[2 * e + 10 + np.signbit(values)] + (lead << 48)).reshape(r, k)
    quad = top // 10 ** 4
    cells[..., 1] = quads[quad].reshape(r, k)
    cells[..., 2] = quads[top - quad * 10 ** 4].reshape(r, k)
    quad = low // 10 ** 4
    cells[..., 3] = quads[quad].reshape(r, k)
    cells[..., 4] = tails[low - quad * 10 ** 4].reshape(r, k)
    cells[..., 4] += np.array([ord(",") << 56] * (k - 1) + [ord("\n") << 56])
    text = cells.view(np.uint8).reshape(r * k, 40)
    text.reshape(-1)[np.arange(0, 40 * r * k, 40) + points[e + 5]] = ord(".")
    by_repr = np.flatnonzero(slow)
    if len(by_repr):
        reprs = "".join([repr(v).ljust(39, "\0") for v in values[by_repr].tolist()])
        text[by_repr, :39] = np.frombuffer(reprs.encode("ascii"), np.uint8).reshape(-1, 39)
    return text


@np.errstate(over="ignore", invalid="ignore")
def summarize(d):
    """One VariableSummary per column, in declaration order.

    A constant column has sd 0; an overflowing one, an infinite or nan mean
    or sd.  Neither raises, and numpy's overflow warnings stay silent.
    """
    return [VariableSummary(name, float(col.mean()), float(sd), float(col.min()),
                            float(col.max()))
            for name, col, sd in zip(d.variables, d.rows.T, d._sds)]
