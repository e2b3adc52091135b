"""Standardized path-coefficient estimation from a correlation matrix.

Each endogenous variable y with parent set P is fit independently by solving
the normal equations R_PP · beta = r_Py, so the whole recursive system is
reproducible from the correlation matrix plus the sample size alone; raw
data never enters.  With W = L⁻¹ for the Cholesky factor R_PP = L Lᵀ,
u = W r_Py, beta = Wᵀ u, R² = |u|² and the disturbance scale is
sqrt(1 - R²).  The same W gives [R_PP⁻¹]_jj as the squared norm of column
j, hence the SEs, so one factor per equation serves estimates and inference.
"""

import math
from operator import mul
from typing import NamedTuple, Optional

from . import numeric
from .errors import (
    DegreesOfFreedomExhausted,
    SingularMatrix,
    VariableMissing,
)
from .pathspec import topological_order
from .record import FrozenRecord


class EquationFit(NamedTuple):
    """One endogenous equation: standardized coefficients and inference."""

    target: str
    parents: tuple
    beta: tuple
    r_squared: float
    disturbance: float
    se: Optional[tuple] = None
    t: Optional[tuple] = None
    p: Optional[tuple] = None  # SE, t and p stay None when n <= |P| + 1


class FittedModel(FrozenRecord):
    _fields = ("model", "equations", "correlation")

    def __init__(self, model, equations, correlation):
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "equations", equations)  # target -> EquationFit, in causal order
        object.__setattr__(self, "correlation", correlation)

    @property
    def n(self):
        return self.correlation.n

    def equation(self, target):
        return self.equations[target]

    def r_squared(self):
        return {t: eq.r_squared for t, eq in self.equations.items()}

    def _steps(self):
        """The fit's (variable, parents, beta) steps for `tracing._trace`, in causal order."""
        equations = self.equations
        return [(v, eq.parents, eq.beta) if (eq := equations.get(v)) else (v, (), ())
                for v in topological_order(self.model)]

    def annotated_model(self):
        """The model with every arrow carrying its fitted coefficient."""
        coeffs = {}
        for eq in self.equations.values():
            for parent, b in zip(eq.parents, eq.beta):
                coeffs[(parent, eq.target)] = b
        return self.model.with_coefficients(coeffs)


def fit_standardized(corr, m):
    """Fit every endogenous equation of model `m` against `corr`.

    Equations are independent, estimated in causal order, each with SE / t /
    two-sided p wherever n > |P| + 1.  Raises VariableMissing when the model
    names a variable absent from the matrix and SingularMatrix (tagged with
    the equation) when a parent block is not positive definite.
    """
    return _fit_model(corr, m, {})


def _fit_model(corr, m, fits, inference=True):
    """fit_standardized of `m`, each equation taken from or stored in `fits`.

    `fits` maps (target, parents) to its EquationFit.  Equations are
    independent, so one estimated for another model of the same variables
    is reused as it was, bit for bit; `revise_model` keeps one such dict.
    With inference False every equation is fit for beta, R² and its
    disturbance alone, its SE, t and p left None, and no t tail runs:
    `recovery_check` reads only beta.
    """
    equations = {}
    for y in _endogenous(corr, m):
        key = (y, m.parents(y))
        if key not in fits:  # fit and revise keep the three-argument call
            fits[key] = (_fit_equation(corr, *key) if inference
                         else _fit_equation(corr, *key, False))
        equations[y] = fits[key]
    return FittedModel(m, equations, corr)


def coefficient_inference(fit):
    """`fit` itself, once every equation has inference.

    Raises DegreesOfFreedomExhausted for the first equation with
    n <= |P| + 1, which fit_standardized leaves without SE / t / p.
    """
    for eq in fit.equations.values():
        if eq.p is None:
            raise DegreesOfFreedomExhausted(
                f"equation for {eq.target!r}: n={fit.n} with {len(eq.parents)} parents"
            )
    return fit


def _endogenous(corr, m):
    """The endogenous variables of `m` in causal order, checked against `corr`."""
    present = set(corr.variables)
    if not present.issuperset(m.variables):
        missing = next(v for v in m.variables if v not in present)
        raise VariableMissing(missing, where="correlation matrix")
    endo = [v for v in topological_order(m) if m.parents(v)]
    if not endo:
        raise ValueError("model has no endogenous variable to estimate")
    return endo


def _fit_equation(corr, y, parents, inference=True):
    """y regressed on `parents`: beta, R², disturbance and, when df allows
    and `inference` is true, inference.

    SE(beta_j) = sqrt((1 - R²) [R_PP⁻¹]_jj / df) and t_j = beta_j / SE_j with
    df = n - |P| - 1 degrees of freedom; SE, t and p are None when df < 1.
    Every dot product is a sum over `map(mul, ...)` of its operands in
    order, the zeros above W's diagonal included.
    """
    rpy = [corr.value(p, y) for p in parents]
    try:
        w = numeric.inverse_factor(corr.submatrix(parents))
    except SingularMatrix as exc:
        raise SingularMatrix(f"equation for {y!r}: {exc}") from exc
    columns = list(zip(*w))
    u = [sum(map(mul, row, rpy)) for row in w]
    beta = [sum(map(mul, col, u)) for col in columns]
    r2 = sum(map(mul, u, u))
    if r2 > 1.0 + 1e-9:
        raise ValueError(
            f"equation for {y!r}: R² = {r2:.6g} exceeds 1; "
            "correlation matrix is not positive definite"
        )
    r2 = min(1.0, r2)
    se = t = p = None
    df = corr.n - len(parents) - 1
    if inference and df >= 1:  # [R_PP⁻¹]_jj is the squared norm of column j of W
        se = tuple(math.sqrt((1.0 - r2) * sum(map(mul, col, col)) / df) for col in columns)
        # SE 0 means an exact fit: t is ±inf with beta's sign, or 0 for beta 0
        t = tuple(b / s if s > 0.0 else math.copysign(math.inf, b) if b else 0.0
                  for b, s in zip(beta, se))
        p = tuple(numeric.t_sf_two_sided(tj, df) if math.isfinite(tj) else 0.0 for tj in t)
    return EquationFit(
        target=y,
        parents=parents,
        beta=tuple(beta),
        r_squared=r2,
        disturbance=math.sqrt(1.0 - r2),
        se=se, t=t, p=p,
    )
