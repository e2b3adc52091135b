"""Standardized path-coefficient estimation from a correlation matrix.

Each endogenous variable y with parent set P is fit independently by solving
the normal equations R_PP · beta = r_Py, so the whole recursive system is
reproducible from the correlation matrix plus the sample size alone; raw
data never enters.  With W = L⁻¹ for the Cholesky factor R_PP = L Lᵀ,
u = W r_Py, beta = Wᵀ u, R² = |u|² and the disturbance scale is
sqrt(1 - R²).
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

from . import numeric
from .errors import (
    DegreesOfFreedomExhausted,
    SingularMatrix,
    VariableMissing,
)
from .pathspec import topological_order

DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class EquationFit:
    """One endogenous equation: standardized coefficients and inference."""

    target: str
    parents: tuple
    beta: tuple
    r_squared: float
    disturbance: float
    se: Optional[tuple] = None
    t: Optional[tuple] = None
    p: Optional[tuple] = None
    significant: Optional[tuple] = None

    def coefficient(self, parent):
        return self.beta[self.parents.index(parent)]


@dataclass(frozen=True)
class FittedModel:
    model: "PathModel"
    equations: dict  # target -> EquationFit, in causal order
    correlation: "CorrelationMatrix"
    n: int
    alpha: float = DEFAULT_ALPHA

    def equation(self, target):
        return self.equations[target]

    def r_squared(self):
        return {t: eq.r_squared for t, eq in self.equations.items()}

    def annotated_model(self):
        """The model with every arrow carrying its fitted coefficient."""
        coeffs = {}
        for eq in self.equations.values():
            for parent, b in zip(eq.parents, eq.beta):
                coeffs[(parent, eq.target)] = b
        return self.model.with_coefficients(coeffs)

    @property
    def has_inference(self):
        return all(eq.se is not None for eq in self.equations.values())


def fit_standardized(corr, m):
    """Fit every endogenous equation of model `m` against `corr`.

    Equations are independent, estimated in causal order.  Raises
    VariableMissing when the model names a variable absent from the matrix
    and SingularMatrix (tagged with the equation) when a parent block is not
    positive definite.
    """
    equations = {y: _fit_equation(corr, y, m.parents(y)) for y in _endogenous(corr, m)}
    return FittedModel(model=m, equations=equations, correlation=corr, n=corr.n)


def coefficient_inference(fit, alpha=DEFAULT_ALPHA):
    """Populate SE / t / two-sided p per coefficient.

    SE(beta_j) = sqrt((1 - R²) [R_PP⁻¹]_jj / (n - |P| - 1)); the t statistic
    has n - |P| - 1 degrees of freedom.  Raises DegreesOfFreedomExhausted
    when any equation has n <= |P| + 1.
    """
    corr, n = fit.correlation, fit.n
    equations = {
        y: _infer_equation(eq, corr, n, alpha) for y, eq in fit.equations.items()
    }
    return FittedModel(
        model=fit.model,
        equations=equations,
        correlation=corr,
        n=n,
        alpha=alpha,
    )


def _endogenous(corr, m):
    """The endogenous variables of `m` in causal order, checked against `corr`."""
    for v in m.variables:
        if v not in corr.variables:
            raise VariableMissing(v, where="correlation matrix")
    endo = [v for v in topological_order(m) if m.parents(v)]
    if not endo:
        raise ValueError("model has no endogenous variable to estimate")
    return endo


def _fit_equation(corr, y, parents):
    """beta, R² and disturbance of y regressed on `parents`, without inference."""
    rpy = [corr.value(p, y) for p in parents]
    try:
        w = numeric.inverse_factor(corr.submatrix(parents))
    except SingularMatrix as exc:
        raise SingularMatrix(f"equation for {y!r}: {exc}") from exc
    u = [sum(wi * r for wi, r in zip(row, rpy)) for row in w]
    beta = [sum(row[j] * ui for row, ui in zip(w, u)) for j in range(len(u))]
    r2 = sum(ui * ui for ui in u)
    if r2 > 1.0 + 1e-9:
        raise ValueError(
            f"equation for {y!r}: R² = {r2:.6g} exceeds 1; "
            "correlation matrix is not positive definite"
        )
    r2 = min(1.0, r2)
    return EquationFit(
        target=y,
        parents=parents,
        beta=tuple(beta),
        r_squared=r2,
        disturbance=math.sqrt(1.0 - r2),
    )


def _infer_equation(eq, corr, n, alpha):
    """`eq` with SE / t / two-sided p / significance at sample size n."""
    df = n - len(eq.parents) - 1
    if df < 1:
        raise DegreesOfFreedomExhausted(
            f"equation for {eq.target!r}: n={n} with {len(eq.parents)} parents"
        )
    w = numeric.inverse_factor(corr.submatrix(eq.parents))
    resid_var = 1.0 - eq.r_squared
    se, t, p, sig = [], [], [], []
    for j, b in enumerate(eq.beta):
        inv_jj = sum(row[j] * row[j] for row in w)  # [R_PP⁻¹]_jj
        s = math.sqrt(resid_var * inv_jj / df)
        se.append(s)
        tj = b / s if s > 0.0 else math.inf
        t.append(tj)
        pj = numeric.t_sf_two_sided(tj, df) if math.isfinite(tj) else 0.0
        p.append(pj)
        sig.append(pj < alpha)
    return replace(eq, se=tuple(se), t=tuple(t), p=tuple(p), significant=tuple(sig))
