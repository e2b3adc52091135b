"""Pre-analysis assumption battery: outliers, normality, multicollinearity,
and residual-plot data.

The Kolmogorov-Smirnov test runs with plug-in (estimated) mean and sd, as
statistical packages conventionally do; that makes its p-values
anti-conservative for the normality question, which every report carries as
a caveat rather than silently correcting.

The per-row tails (the chi-squared p of every Mahalanobis distance, the
normal CDF at every sorted score of a column) are evaluated over whole
columns by numeric's array forms, which leave the elementwise erfc, exp and
log to libm; the results equal per-value calls bit for bit.
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
    return _triples(_ranked(z, (z.T @ z) / (d.n - 1)))


def _check_rows(d):
    if d.n <= d.k:
        raise ValueError(f"need n > k, got n={d.n}, k={d.k}")


def _ranked(z, r):
    """mahalanobis's row indices, D2 and p as arrays, in its order.

    z is the standardized (n, k) block and r = z'z / (n - 1).
    """
    try:
        w = np.array(numeric.inverse_factor(r))
    except SingularMatrix as exc:
        raise SingularCovariance(str(exc)) from exc
    d2 = ((z @ w.T) ** 2).sum(axis=1)
    p = numeric.chisq_sf_array(d2, z.shape[1])
    order = np.argsort(-d2, kind="stable")
    return order, d2[order], p[order]


def _triples(ranked):
    """(row_index, D2, p) triples of parallel index, D2 and p arrays."""
    return list(zip(*(a.tolist() for a in ranked)))


def ks_normality(column, alpha=0.05):
    """One-sample KS against a normal with the column's estimated mean/sd.

    D is the two-sided sup discrepancy at the sample points; p comes from
    the asymptotic Kolmogorov tail at sqrt(n)*D.  Verdict is "non-normal"
    when p < alpha, else "normal".
    """
    x = np.sort(np.asarray(column, dtype=np.float64))
    n = len(x)
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    sd = x.std(ddof=1)
    if sd < 1e-12:
        raise ZeroVariance("(column)")
    z = (x - x.mean()) / sd
    cdf = numeric.normal_cdf_array(z)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    d_stat = float(max(upper.max(), lower.max()))
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
    read from the ranked arrays `_ranked`, and `residual_points` (equation
    target -> [(fitted, std_residual)], {} without a model) by
    residual_diagnostics over `_fitted` and `_data`.  Equality and repr read
    them as they read the other attributes.
    """

    _fields = ("summaries", "outliers", "distances", "normality", "vif",
               "residual_points", "outlier_cutoff", "alpha", "warnings")

    def __init__(self, summaries, outliers, normality, vif, outlier_cutoff, alpha,
                 warnings=None, _ranked=(), _fitted=None, _data=None):
        self.summaries = summaries
        self.outliers = outliers  # flagged (row, D2, p), descending D2
        self.normality = normality  # name -> (D, p, verdict)
        self.vif = vif  # name -> VIF over the predictor block
        self.outlier_cutoff = outlier_cutoff
        self.alpha = alpha
        self.warnings = [] if warnings is None else warnings
        self._ranked = _ranked  # row index, D2 and p arrays in distances' order
        self._fitted = _fitted  # the model residual_points is computed from
        self._data = _data  # the screened Dataset

    @cached_property
    def distances(self):
        return _triples(self._ranked)

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
        return _triples(a[:count] for a in self._ranked)


def screen(d, model=None, alpha=0.05, outlier_p=DEFAULT_OUTLIER_P):
    """Run the full battery and assemble a ScreeningReport.

    With a model, residual diagnostics are emitted per equation and the VIF
    block is the set of variables serving as a parent anywhere in it;
    without one, the VIF block is every column and residuals are skipped.
    The standardized block z and R = z'z / (n - 1) are computed once, for
    the distances and the VIF matrix alike.  Every check that can raise
    runs here; the report builds only its full distance list and the
    residual points later, when they are first read.
    """
    warnings_list = []
    if d.dropped:
        warnings_list.append(
            f"{d.dropped} rows dropped during load (listwise deletion)"
        )
    summaries = summarize(d)
    for s in summaries:
        if s.flag_zero_variance:
            warnings_list.append(f"variable {s.name} has zero variance")

    _check_rows(d)
    z = _z_scores(d)
    r = (z.T @ z) / (d.n - 1)
    ranked = _ranked(z, r)
    flagged = ranked[2] < outlier_p
    outliers = _triples(a[flagged] for a in ranked)
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
