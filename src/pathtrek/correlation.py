"""Pearson correlation matrices with significance and strength labels."""

import csv
import enum
import math
import warnings
from dataclasses import dataclass
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

ASYMMETRY_LIMIT = 1e-6
DIAGONAL_LIMIT = 1e-9


class StrengthLabel(enum.Enum):
    """Association-strength buckets over |r| with half-open boundaries."""

    NEGLIGIBLE = "negligible"
    SMALL = "small"
    MEDIUM = "medium"
    LARGE = "large"

    @property
    def rank(self):
        return ("negligible", "small", "medium", "large").index(self.value)


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
    """Two-sided p for a correlation via t = r sqrt((n-2)/(1-r^2)), df = n-2."""
    rr = min(1.0, abs(float(r)))
    if n < 3:
        return 1.0
    denom = 1.0 - rr * rr
    if denom <= 0.0:
        return 0.0
    t = rr * math.sqrt((n - 2) / denom)
    return numeric.t_sf_two_sided(t, n - 2)


def _check_correlations(r, where=""):
    """Reject non-finite cells, asymmetry above ASYMMETRY_LIMIT and a
    diagonal off 1 by more than DIAGONAL_LIMIT; `where` prefixes messages."""
    if not all(math.isfinite(x) for row in r for x in row):
        raise OutOfRange(f"{where}correlations must be finite")
    k = len(r)
    asym = max((abs(r[i][j] - r[j][i]) for i in range(k) for j in range(i + 1, k)),
               default=0.0)
    if asym > ASYMMETRY_LIMIT:
        raise AsymmetryTooLarge(f"{where}max asymmetry {asym:.3e} exceeds {ASYMMETRY_LIMIT}")
    diag_dev = max((abs(r[i][i] - 1.0) for i in range(k)), default=0.0)
    if diag_dev > DIAGONAL_LIMIT:
        raise DiagonalNotOne(f"{where}diagonal deviates from 1 by {diag_dev:.3e}")


def _square_rows(a, k):
    """a as k tuples of k floats; NotSquare when it has another shape."""
    try:
        rows = numeric.float_rows(a)
    except TypeError:  # not a nested sequence
        rows = None
    if rows is None or len(rows) != k or any(len(row) != k for row in rows):
        raise NotSquare(f"expected {k}x{k} matrices")
    return rows


@dataclass(frozen=True, init=False)
class CorrelationMatrix:
    """Symmetric unit-diagonal correlations with per-cell two-sided p-values.

    Built from (variables, r, p, n) with r and p as nested sequences or
    ndarrays.  The cells are kept as tuples of floats, `r_rows` and
    `p_rows`; `.r` and `.p` are read-only float64 ndarrays built from them
    on first access.  Construction rejects non-finite correlations,
    asymmetry above ASYMMETRY_LIMIT and a diagonal off 1 by more than
    DIAGONAL_LIMIT.
    """

    variables: tuple
    r_rows: tuple
    p_rows: tuple
    n: int

    def __init__(self, variables, r, p, n):
        names = tuple(str(v) for v in variables)
        r_rows, p_rows = _square_rows(r, len(names)), _square_rows(p, len(names))
        _check_correlations(r_rows)
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "r_rows", r_rows)
        object.__setattr__(self, "p_rows", p_rows)
        object.__setattr__(self, "n", n)

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

    def p_value(self, a, b):
        return self.p_rows[self.index(a)][self.index(b)]

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


def _p_matrix(r, n):
    k = len(r)
    p = [[1.0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            p[a][b] = p[b][a] = correlation_p_value(r[a][b], n)
    return p


def pearson_matrix(d):
    """Sample Pearson correlations of a dataset, with two-sided p-values."""
    from .data import _z_scores

    if d.k < 2:
        raise ValueError("need at least 2 variables to correlate")
    z = _z_scores(d)
    r = (z.T @ z) / (d.n - 1)
    r = ((r + r.T) / 2.0).clip(-1.0, 1.0).tolist()
    for i in range(d.k):
        r[i][i] = 1.0
    return CorrelationMatrix(d.variables, r, _p_matrix(r, d.n), d.n)


def load_correlation_csv(path, n):
    """Read a labeled square correlation matrix; p-values recomputed from n.

    Layout: a header row of names (optionally preceded by a blank corner
    cell), then one row per variable whose first cell repeats the name.
    Every cell must be finite; asymmetry up to 1e-6 is repaired by
    averaging; diagonals must be 1 within 1e-9.  A matrix whose smallest
    eigenvalue is <= 0 is loaded with a DataWarning naming that eigenvalue.
    Positive definiteness is checked by a Cholesky factor; numpy's
    eigenvalues are computed only when that factor fails.
    """
    if n < 3:
        raise ValueError("sample size must be at least 3")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = [cells for cells in reader if cells]
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [c.strip() for c in rows[0]]
    body = rows[1:]
    if header and header[0] == "":
        header = header[1:]  # corner cell above the label column
    names = tuple(header)
    k = len(names)
    if any(not nm for nm in names) or len(set(names)) != len(names):
        raise ParseError(f"{path}: header names must be unique and nonempty")
    if len(body) != k:
        raise NotSquare(f"{path}: {k} columns but {len(body)} rows")
    r = []
    for i, cells in enumerate(body):
        if len(cells) != k + 1:
            raise NotSquare(f"{path}: row {i + 2} has {len(cells)} cells, expected {k + 1}")
        label = cells[0].strip()
        if label != names[i]:
            raise ParseError(f"{path}: row label {label!r} does not match header {names[i]!r}")
        try:
            r.append([float(c) for c in cells[1:]])
        except ValueError as exc:
            raise ParseError(f"{path}: row {i + 2}: {exc}") from None
    _check_correlations(r, f"{path}: ")
    r = [[1.0 if i == j else (r[i][j] + r[j][i]) / 2.0 for j in range(k)]
         for i in range(k)]
    try:
        numeric.cholesky(r)
    except SingularMatrix:
        import numpy as np

        lam_min = float(np.linalg.eigvalsh(r)[0])
        if lam_min <= 0.0:
            warnings.warn(
                f"{path}: not positive definite, smallest eigenvalue {lam_min:.3g}; "
                "no sample can have these correlations",
                DataWarning,
                stacklevel=2,
            )
    return CorrelationMatrix(names, r, _p_matrix(r, n), int(n))


def write_correlation_csv(corr, path):
    """Write a correlation matrix in the format load_correlation_csv reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([""] + list(corr.variables))
        for i, name in enumerate(corr.variables):
            writer.writerow([name] + [repr(v) for v in corr.r_rows[i]])
