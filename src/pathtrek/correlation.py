"""Pearson correlation matrices with significance and strength labels."""

import csv
import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import numeric
from .data import standardize
from .errors import (
    AsymmetryTooLarge,
    DataWarning,
    DiagonalNotOne,
    NotSquare,
    OutOfRange,
    ParseError,
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
    if not np.isfinite(r).all():
        raise OutOfRange(f"{where}correlations must be finite")
    asym = float(np.max(np.abs(r - r.T), initial=0.0))
    if asym > ASYMMETRY_LIMIT:
        raise AsymmetryTooLarge(f"{where}max asymmetry {asym:.3e} exceeds {ASYMMETRY_LIMIT}")
    diag_dev = float(np.max(np.abs(np.diag(r) - 1.0), initial=0.0))
    if diag_dev > DIAGONAL_LIMIT:
        raise DiagonalNotOne(f"{where}diagonal deviates from 1 by {diag_dev:.3e}")


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric unit-diagonal correlations with per-cell two-sided p-values.

    Construction rejects non-finite correlations, asymmetry above
    ASYMMETRY_LIMIT and a diagonal off 1 by more than DIAGONAL_LIMIT.
    """

    variables: tuple
    r: np.ndarray
    p: np.ndarray
    n: int

    def __post_init__(self):
        names = tuple(str(v) for v in self.variables)
        object.__setattr__(self, "variables", names)
        r = np.array(self.r, dtype=np.float64)
        p = np.array(self.p, dtype=np.float64)
        k = len(names)
        if r.shape != (k, k) or p.shape != (k, k):
            raise NotSquare(f"expected {k}x{k} matrices")
        _check_correlations(r)
        r.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)

    @property
    def k(self):
        return len(self.variables)

    def index(self, name):
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(name) from None

    def value(self, a, b):
        return float(self.r[self.index(a), self.index(b)])

    def p_value(self, a, b):
        return float(self.p[self.index(a), self.index(b)])

    def submatrix(self, names):
        idx = [self.index(nm) for nm in names]
        return self.r[np.ix_(idx, idx)]

    def pairs(self):
        """Upper-triangle (name_i, name_j) pairs in declaration order."""
        return [
            (self.variables[a], self.variables[b])
            for a in range(self.k)
            for b in range(a + 1, self.k)
        ]


def _p_matrix(r, n):
    k = r.shape[0]
    p = np.ones((k, k))
    for a in range(k):
        for b in range(a + 1, k):
            p[a, b] = p[b, a] = correlation_p_value(r[a, b], n)
    return p


def pearson_matrix(d):
    """Sample Pearson correlations of a dataset, with two-sided p-values."""
    if d.k < 2:
        raise ValueError("need at least 2 variables to correlate")
    z = standardize(d).rows
    r = (z.T @ z) / (d.n - 1)
    r = np.clip((r + r.T) / 2.0, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return CorrelationMatrix(d.variables, r, _p_matrix(r, d.n), d.n)


def load_correlation_csv(path, n):
    """Read a labeled square correlation matrix; p-values recomputed from n.

    Layout: a header row of names (optionally preceded by a blank corner
    cell), then one row per variable whose first cell repeats the name.
    Every cell must be finite; asymmetry up to 1e-6 is repaired by
    averaging; diagonals must be 1 within 1e-9.  A matrix whose smallest
    eigenvalue is <= 0 is loaded with a DataWarning naming that eigenvalue.
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
    r = np.zeros((k, k))
    for i, cells in enumerate(body):
        if len(cells) != k + 1:
            raise NotSquare(f"{path}: row {i + 2} has {len(cells)} cells, expected {k + 1}")
        label = cells[0].strip()
        if label != names[i]:
            raise ParseError(f"{path}: row label {label!r} does not match header {names[i]!r}")
        try:
            r[i] = [float(c) for c in cells[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}: row {i + 2}: {exc}") from None
    _check_correlations(r, f"{path}: ")
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
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
            writer.writerow([name] + [repr(float(v)) for v in corr.r[i]])
