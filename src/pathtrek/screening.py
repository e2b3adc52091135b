"""Pre-analysis assumption battery: outliers, normality, multicollinearity,
and residual-plot data.

The Kolmogorov-Smirnov test runs with plug-in (estimated) mean and sd, as
statistical packages conventionally do; that makes its p-values
anti-conservative for the normality question, which every report carries as
a caveat rather than silently correcting.

Every tail the battery reports comes from numeric's array forms, which leave
the elementwise erfc, exp and log to libm, but only where an output can read
it.  KS takes the exact normal CDF only at the sorted scores whose
discrepancy under numpy's closed-form normal_cdf_approx is within KS_MARGIN
of the largest; the point that attains D is always among them.  From
2 * KS_BLOCKS scores on, the closed form itself is taken only at block
knots and inside the blocks whose bound can reach that largest
discrepancy.  The rows are sorted by descending D2 only as far as an output
reads them: the outliers take the chi-squared p over a _head of the rows,
grown until its last p is past the cutoff, `largest` over a head of its
count, and `distances` over all of them.  The tails are elementwise and D
is a max of elementwise differences, so every reported value has the bits
a whole-column evaluation gives.

The standardized block z and its correlations z'z / (n - 1) come from the
Dataset, which computes each once: the distances, the VIF matrix, the
fitted model and the residual points all read the same block.  ks_normality
standardizes its own sorted copy of each column, and the residual points
scale each residual by its own sd.
"""

import math
import numbers
from functools import cached_property

import numpy as np

from . import numeric
from .correlation import CorrelationMatrix
from .data import SD_FLOOR, summarize
from .estimation import fit_standardized
from .errors import (
    SingularCovariance,
    SingularMatrix,
    VariableMissing,
    ZeroVariance,
)
from .record import Record

DEFAULT_OUTLIER_P = 0.001
# At least 2 * numeric.NORMAL_CDF_APPROX_ERROR: the approximate KS discrepancy
# at a point attaining D, and the approximate maximum, are each within that
# error of the exact ones.
KS_MARGIN = 1e-6
# From n = 2 * KS_BLOCKS points, ks_normality bounds the KS discrepancy over
# about KS_BLOCKS blocks before it evaluates any point inside one.
KS_BLOCKS = 2048
P_BLOCK = 64  # rows in the first chi-squared block of the outlier search
P_MARGIN = 1e-6  # relative margin over chisq_sf_array's rounding
VIF_WARN = 5.0
VIF_FLAG = 10.0
KS_CAVEAT = (
    "Kolmogorov-Smirnov run with estimated mean/sd (plug-in); p-values are "
    "anti-conservative for the normality question."
)


def mahalanobis(d):
    """Squared Mahalanobis distance of every row from the column means.

    D2 = z' R^-1 z = |W z|^2 over the standardized rows z and their
    correlation matrix R = L L^T, W = L^-1: the same statistic as the
    covariance form, computed on a matrix free of the data's units.
    p is the chi-squared upper tail at df = k, taken over the whole D2
    column at once.  Raises ZeroVariance for a constant column and
    SingularCovariance for collinear columns.  Returns (row_index, D2, p)
    triples sorted by descending D2, equal D2 in ascending row order.
    """
    _check_rows(d)
    return _triples(*_head(_distances(d._z, d._r, d.variables), d.n), d.k)


def _check_rows(d):
    if d.n <= d.k:
        raise ValueError(f"need n > k, got n={d.n}, k={d.k}")


def _singular(exc, what, names):
    """`exc` raised again, as SingularCovariance, naming the matrix and the
    variable at its failing pivot."""
    return SingularCovariance(f"{what} is not positive definite at variable "
                              f"{names[exc.column]!r}: pivot {exc.pivot:.3e}", exc.column, exc.pivot)


def _distances(z, r, names):
    """mahalanobis's D2 of every row, in row order.

    z is the standardized (n, k) block of the variables `names` and r =
    z'z / (n - 1).  A NaN or negative D2 raises here, as chisq_sf_array
    raises for it.
    """
    try:
        w = np.array(numeric.inverse_factor(r))
    except SingularMatrix as exc:
        raise _singular(exc, "the data's correlation matrix", names) from exc
    d2 = ((z @ w.T) ** 2).sum(axis=1)
    if not (d2 >= 0.0).all():
        numeric.chisq_sf_array(d2, z.shape[1])  # raises its ValueError
    return d2


def _head(d2, count):
    """(rows, D2) of the first `count` rows by descending D2, equal D2 in
    ascending row order: the first `count` of np.argsort(-d2, kind="stable").

    Below the whole column, np.partition finds the count-th smallest -D2;
    every row at or below it, in ascending row order, is stable-sorted, and
    its first `count` are the head.  So a head is a prefix of every longer
    one, and only the rows that can be in it are sorted.
    """
    neg = -d2
    if count >= len(d2):
        rows = np.argsort(neg, kind="stable")
    elif count == 0:
        rows = np.arange(0)
    else:
        last = np.partition(neg, count - 1)[count - 1]  # the head's last -D2
        rows = np.flatnonzero(neg <= last)
        rows = rows[np.argsort(neg[rows], kind="stable")[:count]]
    return rows, d2[rows]


def _triples(rows, d2, df):
    """(row_index, D2, p) triples of parallel row and D2 arrays.

    p is chisq_sf_array over exactly these D2; it is elementwise, so each p
    has the bits it would have in a whole-column call.
    """
    p = numeric.chisq_sf_array(d2, df)
    return list(zip(rows.tolist(), d2.tolist(), p.tolist()))


def _outliers(d2, df, cutoff):
    """(row_index, D2, p) triples of the rows by descending D2 whose p < cutoff.

    p is taken over a growing _head (P_BLOCK rows, then twice as many each
    time, each new row evaluated once) until its last p exceeds
    cutoff * (1 + P_MARGIN).  The chi-squared tail cannot rise as D2 falls,
    and chisq_sf_array's sum of positive terms is good to ~1e-14 relative,
    so no later row can come below cutoff.
    """
    p = d2[:0]
    count = P_BLOCK
    while True:
        rows, ranked = _head(d2, count)
        p = np.concatenate([p, numeric.chisq_sf_array(ranked[len(p):], df)])
        if count >= len(d2) or p[-1] > cutoff * (1.0 + P_MARGIN):
            break
        count *= 2
    i = np.flatnonzero(p < cutoff)
    return list(zip(rows[i].tolist(), ranked[i].tolist(), p[i].tolist()))


def ks_normality(column, alpha=0.05):
    """One-sample KS against a normal with the column's estimated mean/sd.

    D is the two-sided sup discrepancy at the sample points; p comes from
    the asymptotic Kolmogorov tail at sqrt(n)*D.  Verdict is "non-normal"
    when p < alpha, else "normal".  Raises ValueError for fewer than 3
    observations, a non-finite one, or a mean or sd that overflows.  The
    exact normal_cdf_array is taken only at the points whose discrepancy
    under normal_cdf_approx is within KS_MARGIN of the largest, over every
    point below 2 * KS_BLOCKS and over _ks_candidates from there: any
    point attaining D is among them, and D is a max of elementwise
    differences, so it has the bits a whole-column evaluation gives.
    """
    x = np.sort(np.asarray(column, dtype=np.float64))
    n = len(x)
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):  # -inf sorts first, inf and nan last
        raise ValueError("column holds a non-finite value")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, sd = x.mean(), x.std(ddof=1)
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ValueError("column mean or sd overflows float64")
    if sd < SD_FLOOR:
        raise ZeroVariance("(column)")
    z = np.subtract(x, mean, out=x)  # x is np.sort's copy
    z /= sd
    kept = np.arange(n) if n < 2 * KS_BLOCKS else _ks_candidates(z)
    approx = numeric.normal_cdf_approx(z[kept])
    above, below = (kept + 1) / n, kept / n
    gap = np.maximum(above - approx, approx - below)
    near = gap >= gap.max() - KS_MARGIN
    cdf = numeric.normal_cdf_array(z[kept[near]])
    d_stat = float(max((above[near] - cdf).max(), (cdf - below[near]).max()))
    p = numeric.kolmogorov_sf(math.sqrt(n) * d_stat)
    verdict = "non-normal" if p < alpha else "normal"
    return d_stat, p, verdict


def _ks_candidates(z):
    """Indices of the sorted z where the KS discrepancy can attain D.

    z is cut into blocks of B = len(z) // KS_BLOCKS points between knots
    at 0, B, 2B, ... and the last point, and normal_cdf_approx is taken
    only at the knots.  Phi rises along z, so no point of the block s..e
    has a discrepancy above max((e + 1)/n - Phi(z_s), Phi(z_e) - s/n).
    Each approximate Phi is within eps = NORMAL_CDF_APPROX_ERROR of the
    exact one, so a block is kept when that bound, widened by 2 eps,
    reaches the knots' largest approximate discrepancy less eps and
    KS_MARGIN; the block holding a point that attains D always is.
    """
    n = len(z)
    knots = np.append(np.arange(0, n - 1, n // KS_BLOCKS), n - 1)
    approx = numeric.normal_cdf_approx(z[knots])
    best = np.maximum((knots + 1) / n - approx, approx - knots / n).max()
    start, end = knots[:-1], knots[1:]
    bound = np.maximum((end + 1) / n - approx[:-1], approx[1:] - start / n)
    err = numeric.NORMAL_CDF_APPROX_ERROR
    keep = bound + 2.0 * err >= best - err - KS_MARGIN
    inside = np.append(np.repeat(keep, end - start), False)  # s..e-1 of each block
    inside[end[keep]] = True
    return np.flatnonzero(inside)


def vif(corr, predictors):
    """Variance inflation factors: diagonal of the inverted predictor block.

    That diagonal is the squared column norms of W = L^-1 for the block's
    Cholesky factor L.
    """
    for name in predictors:
        if name not in corr.variables:
            raise VariableMissing(name, where="correlation matrix")
    try:
        w = numeric.inverse_factor(corr.submatrix(predictors))
    except SingularMatrix as exc:
        raise _singular(exc, "the predictor block of the correlation matrix", predictors) from exc
    return {name: sum(row[j] * row[j] for row in w)
            for j, name in enumerate(predictors)}


def residual_diagnostics(fitted, d):
    """Per-equation (fitted value, standardized residual) pairs for plotting.

    The residuals are taken on the dataset's own z-scores, so callers may
    pass raw scores.  No verdict is computed; the points are for external
    inspection.
    """
    for v in fitted.model.variables:
        if v not in d.variables:
            raise VariableMissing(v, where="dataset")
    z = d._z
    col = {name: j for j, name in enumerate(d.variables)}
    points = {}
    for y, eq in fitted.equations.items():
        predicted = np.zeros(d.n)
        for parent, b in zip(eq.parents, eq.beta):
            predicted += b * z[:, col[parent]]
        resid = z[:, col[y]] - predicted
        rsd = resid.std(ddof=1)
        scaled = resid / rsd if rsd > SD_FLOOR else np.zeros_like(resid)
        points[y] = list(zip(predicted.tolist(), scaled.tolist()))
    return points


class ScreeningReport(Record):
    """What the battery found.

    `distances` (every row's (row, D2, p), descending D2) is built on first
    read from `_d2`, every row's D2 in row order, with df the dataset's
    column count, and `residual_points` (equation target -> [(fitted,
    std_residual)], {} without a model) by residual_diagnostics over
    `_fitted` and `_data`.  Equality and repr read them as they read the
    other attributes.
    """

    _fields = ("summaries", "outliers", "distances", "normality", "vif",
               "residual_points", "outlier_cutoff", "alpha", "warnings")

    def __init__(self, summaries, outliers, normality, vif, outlier_cutoff, alpha,
                 warnings=None, _d2=None, _fitted=None, _data=None):
        self.summaries = summaries
        self.outliers = outliers  # flagged (row, D2, p), descending D2
        self.normality = normality  # name -> (D, p, verdict)
        self.vif = vif  # name -> VIF over the predictor block
        self.outlier_cutoff = outlier_cutoff
        self.alpha = alpha
        self.warnings = [] if warnings is None else warnings
        self._d2 = _d2  # every row's D2, in row order
        self._fitted = _fitted  # the model residual_points is computed from
        self._data = _data  # the screened Dataset

    @cached_property
    def distances(self):
        return _triples(*_head(self._d2, len(self._d2)), self._data.k)

    @cached_property
    def residual_points(self):
        if self._fitted is None:
            return {}
        return residual_diagnostics(self._fitted, self._data)

    @property
    def residual_counts(self):
        """Equation target -> number of residual points, without the points."""
        if self._fitted is None:
            return {}
        return {y: self._data.n for y in self._fitted.equations}

    def largest(self, count):
        """The first `count` triples of distances, without the others.

        Raises ValueError unless count is a whole number >= 0.
        """
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
            raise ValueError(f"count must be a whole number >= 0, got {count!r}")
        return _triples(*_head(self._d2, int(count)), self._data.k)


def screen(d, model=None, alpha=0.05, outlier_p=DEFAULT_OUTLIER_P):
    """Run the full battery and assemble a ScreeningReport.

    With a model, residual diagnostics are emitted per equation and the VIF
    block is the set of variables serving as a parent anywhere in it;
    without one, the VIF block is every column and residuals are skipped.
    The distances, the VIF matrix and the residual points all read the
    Dataset's one standardized block z and R = z'z / (n - 1), which it
    computes on first read and keeps.  Every check that can raise
    runs here, first that every model variable is a column of `d` (raising
    VariableMissing); the report builds its full distance list and the
    residual points later, when they are first read.
    """
    if model is not None:
        for v in model.variables:
            if v not in d.variables:
                raise VariableMissing(v, where="dataset")
    warnings_list = []
    _check_rows(d)
    # d._z raises ZeroVariance for a constant column and OutOfRange for an
    # overflowing one
    d2 = _distances(d._z, d._r, d.variables)
    summaries = summarize(d)
    outliers = _outliers(d2, d.k, outlier_p)
    if outliers:
        warnings_list.append(
            f"{len(outliers)} outlier rows at Mahalanobis p < {outlier_p}"
        )

    normality = {}
    for name in d.variables:
        dd, p, verdict = ks_normality(d.column(name), alpha=alpha)
        normality[name] = (dd, p, verdict)
        if verdict == "non-normal":
            warnings_list.append(
                f"variable {name} non-normal by KS (D={dd:.3f}, p={p:.4f})"
            )
    warnings_list.append(KS_CAVEAT)

    if model is not None:
        parent_vars = [v for v in d.variables if model.children(v)]
        block = parent_vars if len(parent_vars) >= 2 else list(d.variables)
    else:
        block = list(d.variables)
    # what pearson_matrix(d) gives, also for a lone column, which it refuses
    corr = CorrelationMatrix(d.variables, d._r, d.n)
    vifs = vif(corr, block)
    for name, value in vifs.items():
        if value >= VIF_FLAG:
            warnings_list.append(f"VIF {name} = {value:.2f} >= {VIF_FLAG} (flag)")
        elif value >= VIF_WARN:
            warnings_list.append(f"VIF {name} = {value:.2f} >= {VIF_WARN} (warn)")

    fitted = None
    if model is not None and model.endogenous:
        fitted = fit_standardized(corr, model)

    return ScreeningReport(
        summaries=summaries,
        outliers=outliers,
        normality=normality,
        vif=vifs,
        outlier_cutoff=outlier_p,
        alpha=alpha,
        warnings=warnings_list,
        _d2=d2,
        _fitted=fitted,
        _data=d,
    )
