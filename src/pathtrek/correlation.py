"""Pearson correlation matrices with significance and strength labels.

CorrelationMatrix alone decides what a correlation table is: its names,
its cells and its n.  pearson_matrix builds one from the block
z'z / (n - 1) that a Dataset computes once and keeps.
"""

import csv
import enum
import io
import math
import numbers
import warnings
from functools import cached_property

from . import numeric
from .errors import (
    AsymmetryTooLarge,
    DataWarning,
    DiagonalNotOne,
    NotSquare,
    OutOfRange,
    ParseError,
    SingularMatrix,
)
from .files import csv_text, read_input
from .record import FrozenRecord

ASYMMETRY_LIMIT = 1e-6
DIAGONAL_LIMIT = 1e-9
# A Cholesky-certified lower bound on the smallest eigenvalue above this
# is far past the rounding of numpy's eigvalsh, so it settles the sign.
PD_MARGIN = 1e-8


class StrengthLabel(enum.Enum):
    """Association-strength buckets over |r| with half-open boundaries."""

    NEGLIGIBLE = "negligible"
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"


def classify_strength(r):
    """Bucket a correlation by magnitude: <0.1, [0.1,0.3), [0.3,0.5), >=0.5."""
    if not math.isfinite(r) or abs(r) > 1.0 + 1e-12:
        raise OutOfRange(f"correlation {r!r} outside [-1, 1]")
    a = abs(r)
    if a < 0.1:
        return StrengthLabel.NEGLIGIBLE
    if a < 0.3:
        return StrengthLabel.SMALL
    if a < 0.5:
        return StrengthLabel.MEDIUM
    return StrengthLabel.LARGE


def correlation_p_value(r, n):
    """Two-sided p for r in [-1, 1] via t = |r| sqrt((n-2)/(1-r^2)), df = n-2 >= 1."""
    denom = 1.0 - r * r
    if denom <= 0.0:
        return 0.0
    return numeric.t_sf_two_sided(abs(r) * math.sqrt((n - 2) / denom), n - 2)


def _check_correlations(r):
    """Reject non-finite cells, off-diagonal |r| > 1 + 1e-12, asymmetry above
    ASYMMETRY_LIMIT and a diagonal off 1 by more than DIAGONAL_LIMIT, in that
    order of precedence; return r averaged across the diagonal, clipped to
    [-1, 1], with a unit diagonal.  One walk over the rows checks each row
    finite, takes its off-diagonal maximum and, over the upper triangle, the
    largest asymmetry and the repaired cells; a cell of a later row may be
    non-finite, but its row raises before any maximum is read."""
    out = [[1.0] * len(r) for _ in r]
    worst = asym = 0.0
    for i, (row, col) in enumerate(zip(r, zip(*r))):
        if not all(map(math.isfinite, row)):
            raise OutOfRange("correlations must be finite")
        worst = max((worst, *map(abs, row[:i] + row[i + 1:])))
        for j, a, b in zip(range(i + 1, len(r)), row[i + 1:], col[i + 1:]):
            asym = abs(a - b) if abs(a - b) > asym else asym
            # the mean m clipped to [-1, 1] as min(1.0, max(-1.0, m)) clips it
            out[i][j] = out[j][i] = 1.0 if (m := (a + b) / 2.0) > 1.0 else -1.0 if m < -1.0 else m
    if worst > 1.0 + 1e-12:
        raise OutOfRange(f"correlation {worst!r} outside [-1, 1]")
    if asym > ASYMMETRY_LIMIT:
        raise AsymmetryTooLarge(f"max asymmetry {asym:.3e} exceeds {ASYMMETRY_LIMIT}")
    if (diag_dev := max(abs(row[i] - 1.0) for i, row in enumerate(r))) > DIAGONAL_LIMIT:
        raise DiagonalNotOne(f"diagonal deviates from 1 by {diag_dev:.3e}")
    return tuple(map(tuple, out))


def _variable_names(variables):
    """variables as a tuple of str; ParseError unless there is at least one,
    none is blank and none is repeated."""
    names = tuple(str(v) for v in variables)
    if not names or not all(names) or len(set(names)) != len(names):
        raise ParseError("variable names must be unique and nonempty")
    return names


def _sample_size(n):
    """n as an int; ValueError unless it is a whole number >= 3 that a
    float can hold (math.isfinite of an int past ~1.8e308 overflows) and at
    most 2**53, so that n - 2, the t tests' df, is an exact float."""
    try:
        whole = (not isinstance(n, bool) and isinstance(n, numbers.Real)
                 and math.isfinite(n) and n == int(n) and n >= 3)
    except OverflowError:
        raise ValueError("sample size must be a whole number >= 3, "
                         "got a number beyond the range of a float") from None
    if not whole:
        raise ValueError(f"sample size must be a whole number >= 3, got {n!r}")
    if n > 2**53:
        raise ValueError(f"sample size must be a whole number >= 3 and at most 2**53, got {n!r}")
    return int(n)


def _square_rows(a, k):
    """a as k tuples of k floats; NotSquare when it has another shape."""
    try:
        rows = numeric.float_rows(a)
    except TypeError:  # not a nested sequence
        rows = None
    if rows is None or len(rows) != k or any(len(row) != k for row in rows):
        raise NotSquare(f"expected {k}x{k} matrices")
    return rows


class CorrelationMatrix(FrozenRecord):
    """Symmetric unit-diagonal correlations with per-cell two-sided p-values.

    Built from (variables, r, n): the variables are at least one name, none
    blank and none repeated; r is a nested sequence or ndarray that
    _check_correlations checks and repairs into `r_rows`, tuples of floats;
    n is the sample size, a whole number >= 3.  `p_rows` follows from r and
    n on first read; `.r` and `.p` are read-only float64 ndarrays of the two.
    Copies and pickles rebuild from (variables, r_rows, n), without them:
    r_rows is already symmetric with a unit diagonal, so its check repairs
    nothing and the rebuilt cells keep their bits.
    """

    _fields = ("variables", "r_rows", "n")

    def __init__(self, variables, r, n):
        names = _variable_names(variables)
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "r_rows", _check_correlations(_square_rows(r, len(names))))
        object.__setattr__(self, "n", _sample_size(n))

    def __reduce__(self):
        return self.__class__, (self.variables, self.r_rows, self.n)

    @cached_property
    def p_rows(self):
        k, r, n = self.k, self.r_rows, self.n
        p = [[1.0] * k for _ in range(k)]
        for a in range(k):
            for b in range(a + 1, k):
                p[a][b] = p[b][a] = correlation_p_value(r[a][b], n)
        return tuple(map(tuple, p))

    @cached_property
    def r(self):
        return numeric.readonly_array(self.r_rows)

    @cached_property
    def p(self):
        return numeric.readonly_array(self.p_rows)

    @property
    def k(self):
        return len(self.variables)

    def index(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(name) from None

    def value(self, a, b):
        return self.r_rows[self.index(a)][self.index(b)]

    def submatrix(self, names):
        idx = [self.index(nm) for nm in names]
        return tuple(tuple(self.r_rows[i][j] for j in idx) for i in idx)

    def pairs(self):
        """Upper-triangle (name_i, name_j) pairs in declaration order."""
        return [
            (self.variables[a], self.variables[b])
            for a in range(self.k)
            for b in range(a + 1, self.k)
        ]


def pearson_matrix(d):
    """Sample Pearson correlations of a dataset, its block z'z / (n - 1)
    handed over as Python floats; CorrelationMatrix repairs the cells."""
    if d.k < 2:
        raise ValueError("need at least 2 variables to correlate")
    return CorrelationMatrix(d.variables, d._r.tolist(), d.n)


def load_correlation_csv(path, n):
    """Read a labeled square correlation matrix; p-values follow from r and n.

    Layout: a header row of names (optionally preceded by a blank corner
    cell), then one row per variable whose first cell repeats the name.  The
    file is read by files.read_input, and its text split into lines as in a
    file opened with newline="".  An error in a row names its line in the
    file, blank lines counted.  The cells are checked and repaired
    by CorrelationMatrix, and its OutOfRange, AsymmetryTooLarge and
    DiagonalNotOne are raised again with the path in front of the message.
    A matrix whose smallest eigenvalue is <= 0 is loaded with a DataWarning
    naming that eigenvalue.  Positive definiteness is first checked without
    numpy: the inverse Cholesky factor W (R^-1 = W^T W) gives 1/|W|_F^2 as a
    lower bound on the smallest eigenvalue.  numpy's eigenvalues decide only
    when the factor fails or that bound is below PD_MARGIN, where a
    successful factor does not rule out an eigenvalue that rounds to <= 0.
    """
    return _parse_correlation_csv(read_input(path)[0], path, n)


def _parse_correlation_csv(text, path, n):
    """load_correlation_csv's matrix from the file's text; path names the file in errors."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = [(reader.line_num, cells) for cells in reader if cells]
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in rows[0][1]]
    body = rows[1:]
    if header and header[0] == "":
        header = header[1:]  # corner cell above the label column
    names = tuple(header)
    k = len(names)
    if not k:
        raise ParseError(f"{path}: line {rows[0][0]}: empty header, no variable names")
    if any(not nm for nm in names) or len(set(names)) != len(names):
        raise ParseError(f"{path}: header names must be unique and nonempty")
    if len(body) != k:
        raise NotSquare(f"{path}: {k} columns but {len(body)} rows")
    r = []
    for i, (line, cells) in enumerate(body):
        if len(cells) != k + 1:
            raise NotSquare(f"{path}: row {line} has {len(cells)} cells, expected {k + 1}")
        label = cells[0].strip()
        if label != names[i]:
            raise ParseError(f"{path}: row label {label!r} does not match header {names[i]!r}")
        try:
            r.append([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise ParseError(f"{path}: row {line}: {exc}") from None
    try:
        corr = CorrelationMatrix(names, r, n)
    except (OutOfRange, AsymmetryTooLarge, DiagonalNotOne) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    try:
        w = numeric.inverse_factor(corr.r_rows)
        inverse_norm2 = sum(x * x for row in w for x in row)
    except SingularMatrix:
        inverse_norm2 = math.inf
    if inverse_norm2 * PD_MARGIN >= 1.0:
        import numpy as np

        lam_min = float(np.linalg.eigvalsh(corr.r_rows)[0])
        if lam_min <= 0.0:
            warnings.warn(
                f"{path}: not positive definite, smallest eigenvalue {lam_min:.3g}; "
                "no sample can have these correlations",
                DataWarning,
                stacklevel=3,  # the caller of load_correlation_csv
            )
    return corr


def correlation_csv(corr):
    """A correlation matrix as CSV text, in the format load_correlation_csv reads."""
    return csv_text([
        ["", *corr.variables],
        *([name, *map(repr, row)] for name, row in zip(corr.variables, corr.r_rows)),
    ])
