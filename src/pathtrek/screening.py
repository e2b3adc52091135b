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
of the largest; the point that attains D is always among them.  The
outliers take the chi-squared p only over a head of the rows by descending
D2, grown until its last p is past the cutoff, and `distances` and
`largest` take it over the rows they return.  The tails are elementwise and
D is a max of elementwise differences, so every reported value has the
bits a whole-column evaluation gives.
"""

import math
from functools import cached_property

import numpy as np

from . import numeric
from .correlation import CorrelationMatrix
from .data import _z_scores, summarize
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
    z = _z_scores(d)
    return _triples(*_ranked(z, (z.T @ z) / (d.n - 1)), d.k)


def _check_rows(d):
    if d.n <= d.k:
        raise ValueError(f"need n > k, got n={d.n}, k={d.k}")


def _ranked(z, r):
    """mahalanobis's row indices and D2, by descending D2.

    z is the standardized (n, k) block and r = z'z / (n - 1).  A NaN or
    negative D2 raises here, as chisq_sf_array raises for it.
    """
    try:
        w = np.array(numeric.inverse_factor(r))
    except SingularMatrix as exc:
        raise SingularCovariance(str(exc)) from exc
    d2 = ((z @ w.T) ** 2).sum(axis=1)
    if not (d2 >= 0.0).all():
        numeric.chisq_sf_array(d2, z.shape[1])  # raises its ValueError
    order = np.argsort(-d2, kind="stable")
    return order, d2[order]


def _triples(rows, d2, df):
    """(row_index, D2, p) triples of parallel row and D2 arrays.

    p is chisq_sf_array over exactly these D2; it is elementwise, so each p
    has the bits it would have in a whole-column call.
    """
    p = numeric.chisq_sf_array(d2, df)
    return list(zip(rows.tolist(), d2.tolist(), p.tolist()))


def _outliers(rows, d2, df, cutoff):
    """(row_index, D2, p) triples of the ranked rows whose p < cutoff.

    p is taken over a growing head (P_BLOCK rows, then twice as many each
    time, each new block's rows evaluated once) until its last p exceeds
    cutoff * (1 + P_MARGIN).  The chi-squared tail cannot rise as D2 falls,
    and chisq_sf_array's sum of positive terms is good to ~1e-14 relative,
    so no later row can come below cutoff.
    """
    p = d2[:0]
    count = P_BLOCK
    while True:
        p = np.concatenate([p, numeric.chisq_sf_array(d2[len(p):count], df)])
        if count >= len(d2) or p[-1] > cutoff * (1.0 + P_MARGIN):
            break
        count *= 2
    i = np.flatnonzero(p < cutoff)
    return list(zip(rows[i].tolist(), d2[i].tolist(), p[i].tolist()))


def ks_normality(column, alpha=0.05):
    """One-sample KS against a normal with the column's estimated mean/sd.

    D is the two-sided sup discrepancy at the sample points; p comes from
    the asymptotic Kolmogorov tail at sqrt(n)*D.  Verdict is "non-normal"
    when p < alpha, else "normal".  The exact normal_cdf_array is taken
    only at the points whose discrepancy under normal_cdf_approx is within
    KS_MARGIN of the largest: any point attaining D is among them, and D
    is a max of elementwise differences, so it has the bits a
    whole-column evaluation gives.
    """
    x = np.sort(np.asarray(column, dtype=np.float64))
    n = len(x)
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    sd = x.std(ddof=1)
    if sd < 1e-12:
        raise ZeroVariance("(column)")
    z = (x - x.mean()) / sd
    approx = numeric.normal_cdf_approx(z)
    above = np.arange(1, n + 1) / n
    below = np.arange(0, n) / n
    gap = np.maximum(above - approx, approx - below)
    near = np.flatnonzero(gap >= gap.max() - KS_MARGIN)
    cdf = numeric.normal_cdf_array(z[near])
    d_stat = float(max((above[near] - cdf).max(), (cdf - below[near]).max()))
    p = numeric.kolmogorov_sf(math.sqrt(n) * d_stat)
    verdict = "non-normal" if p < alpha else "normal"
    return d_stat, p, verdict


def vif(corr, predictors):
    """Variance inflation factors: diagonal of the inverted predictor block.

    That diagonal is the squared column norms of W = L^-1 for the block's
    Cholesky factor L.
    """
    for name in predictors:
        if name not in corr.variables:
            raise VariableMissing(name, where="correlation matrix")
    w = numeric.inverse_factor(corr.submatrix(predictors))
    return {name: sum(row[j] * row[j] for row in w)
            for j, name in enumerate(predictors)}


def residual_diagnostics(fitted, d):
    """Per-equation (fitted value, standardized residual) pairs for plotting.

    The dataset is standardized internally, so callers may pass raw scores.
    No verdict is computed; the points are for external inspection.
    """
    for v in fitted.model.variables:
        if v not in d.variables:
            raise VariableMissing(v, where="dataset")
    z = _z_scores(d)
    col = {name: j for j, name in enumerate(d.variables)}
    points = {}
    for y, eq in fitted.equations.items():
        predicted = np.zeros(d.n)
        for parent, b in zip(eq.parents, eq.beta):
            predicted += b * z[:, col[parent]]
        resid = z[:, col[y]] - predicted
        rsd = resid.std(ddof=1)
        scaled = resid / rsd if rsd > 1e-12 else np.zeros_like(resid)
        points[y] = list(zip(predicted.tolist(), scaled.tolist()))
    return points


class ScreeningReport(Record):
    """What the battery found.

    `distances` (every row's (row, D2, p), descending D2) is built on first
    read from the `_ranked` (rows, D2) arrays, with df the dataset's column
    count, and `residual_points` (equation target -> [(fitted,
    std_residual)], {} without a model) by residual_diagnostics over
    `_fitted` and `_data`.  Equality and repr read them as they read the
    other attributes.
    """

    _fields = ("summaries", "outliers", "distances", "normality", "vif",
               "residual_points", "outlier_cutoff", "alpha", "warnings")

    def __init__(self, summaries, outliers, normality, vif, outlier_cutoff, alpha,
                 warnings=None, _ranked=None, _fitted=None, _data=None):
        self.summaries = summaries
        self.outliers = outliers  # flagged (row, D2, p), descending D2
        self.normality = normality  # name -> (D, p, verdict)
        self.vif = vif  # name -> VIF over the predictor block
        self.outlier_cutoff = outlier_cutoff
        self.alpha = alpha
        self.warnings = [] if warnings is None else warnings
        self._ranked = _ranked  # distances' (rows, D2) arrays
        self._fitted = _fitted  # the model residual_points is computed from
        self._data = _data  # the screened Dataset

    @cached_property
    def distances(self):
        return _triples(*self._ranked, self._data.k)

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
        """The first `count` triples of distances, without the others."""
        rows, d2 = self._ranked
        return _triples(rows[:count], d2[:count], self._data.k)


def screen(d, model=None, alpha=0.05, outlier_p=DEFAULT_OUTLIER_P):
    """Run the full battery and assemble a ScreeningReport.

    With a model, residual diagnostics are emitted per equation and the VIF
    block is the set of variables serving as a parent anywhere in it;
    without one, the VIF block is every column and residuals are skipped.
    The standardized block z and R = z'z / (n - 1) are computed once, for
    the distances and the VIF matrix alike.  Every check that can raise
    runs here; the report builds its full distance list and the residual
    points later, when they are first read.
    """
    warnings_list = []
    if d.dropped:
        warnings_list.append(
            f"{d.dropped} rows dropped during load (listwise deletion)"
        )
    _check_rows(d)
    # raises for a constant or overflowing column, so no summary below flags
    # zero variance and summarize meets no overflow
    z = _z_scores(d)
    summaries = summarize(d)
    r = (z.T @ z) / (d.n - 1)
    ranked = _ranked(z, r)
    outliers = _outliers(*ranked, d.k, outlier_p)
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
    # pearson_matrix(d), from the block already computed; a lone column
    # correlates 1 with itself
    corr = CorrelationMatrix(d.variables, r if d.k >= 2 else [[1.0]], d.n)
    vifs = vif(corr, block)
    for name, value in vifs.items():
        if value >= VIF_FLAG:
            warnings_list.append(f"VIF {name} = {value:.2f} >= {VIF_FLAG} (flag)")
        elif value >= VIF_WARN:
            warnings_list.append(f"VIF {name} = {value:.2f} >= {VIF_WARN} (warn)")

    fitted = None
    if model is not None and model.endogenous:
        # checks every model variable against corr, whose variables are the
        # dataset's, so residual_diagnostics cannot raise on a later read
        fitted = fit_standardized(corr, model)

    return ScreeningReport(
        summaries=summaries,
        outliers=outliers,
        normality=normality,
        vif=vifs,
        outlier_cutoff=outlier_p,
        alpha=alpha,
        warnings=warnings_list,
        _ranked=ranked,
        _fitted=fitted,
        _data=d,
    )
