"""Pre-analysis assumption battery: outliers, normality, multicollinearity,
and residual-plot data.

The Kolmogorov-Smirnov test runs with plug-in (estimated) mean and sd, as
statistical packages conventionally do; that makes its p-values
anti-conservative for the normality question, which every report carries as
a caveat rather than silently correcting.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import numeric
from .correlation import CorrelationMatrix, pearson_matrix
from .data import _z_scores, summarize
from .estimation import fit_standardized
from .errors import (
    SingularCovariance,
    SingularMatrix,
    VariableMissing,
    ZeroVariance,
)

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
    p is the chi-squared upper tail at df = k.  Raises ZeroVariance for a
    constant column and SingularCovariance for collinear columns.  Returns
    (row_index, D2, p) triples sorted by descending D2.
    """
    if d.n <= d.k:
        raise ValueError(f"need n > k, got n={d.n}, k={d.k}")
    z = _z_scores(d)
    try:
        w = np.array(numeric.inverse_factor((z.T @ z) / (d.n - 1)))
    except SingularMatrix as exc:
        raise SingularCovariance(str(exc)) from exc
    d2 = ((z @ w.T) ** 2).sum(axis=1)
    triples = [(i, v, numeric.chisq_sf(v, d.k)) for i, v in enumerate(d2.tolist())]
    triples.sort(key=lambda t: (-t[1], t[0]))
    return triples


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
    cdf = np.array(list(map(numeric.normal_cdf, z.tolist())))
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


@dataclass
class ScreeningReport:
    summaries: list
    outliers: list  # flagged (row, D2, p), descending D2
    distances: list  # all rows, descending D2
    normality: dict  # name -> (D, p, verdict)
    vif: dict  # name -> VIF over the predictor block
    residual_points: dict  # equation target -> [(fitted, std_residual)]
    outlier_cutoff: float
    alpha: float
    warnings: list = field(default_factory=list)


def screen(d, model=None, alpha=0.05, outlier_p=DEFAULT_OUTLIER_P):
    """Run the full battery and assemble a ScreeningReport.

    With a model, residual diagnostics are emitted per equation and the VIF
    block is the set of variables serving as a parent anywhere in it;
    without one, the VIF block is every column and residuals are skipped.
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

    distances = mahalanobis(d)
    flagged = [t for t in distances if t[2] < outlier_p]
    if flagged:
        warnings_list.append(
            f"{len(flagged)} outlier rows at Mahalanobis p < {outlier_p}"
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
    if d.k >= 2:
        corr = pearson_matrix(d)
    else:  # pearson_matrix needs two columns; a lone one correlates 1 with itself
        corr = CorrelationMatrix(d.variables, [[1.0]], [[1.0]], d.n)
    vifs = vif(corr, block)
    for name, value in vifs.items():
        if value >= VIF_FLAG:
            warnings_list.append(f"VIF {name} = {value:.2f} >= {VIF_FLAG} (flag)")
        elif value >= VIF_WARN:
            warnings_list.append(f"VIF {name} = {value:.2f} >= {VIF_WARN} (warn)")

    residual_points = {}
    if model is not None and model.endogenous:
        fitted = fit_standardized(corr, model)
        residual_points = residual_diagnostics(fitted, d)

    return ScreeningReport(
        summaries=summaries,
        outliers=flagged,
        distances=distances,
        normality=normality,
        vif=vifs,
        residual_points=residual_points,
        outlier_cutoff=outlier_p,
        alpha=alpha,
        warnings=warnings_list,
    )

