"""Synthetic standardized datasets drawn from a coefficient-annotated model.

Used as the Monte Carlo oracle for estimation-recovery checks.  One variate
stream is consumed in a fixed variable-major order (all n draws for the
first variable in causal order, then the next), so output depends only on
(model, n, seed).
"""

import math
from typing import NamedTuple

import numpy as np

from . import rng
from .data import Dataset
from .errors import VariableMissing
from .estimation import fit_standardized
from .correlation import _sample_size, pearson_matrix
from .pathspec import topological_order
from .record import FrozenRecord
from .tracing import implied_matrix


class SimulationSpec(FrozenRecord):
    _fields = ("model", "n", "seed")

    def __init__(self, model, n, seed):
        n = _sample_size(n)
        rng.check_seed(seed)
        if not model.variables:
            raise ValueError("model declares no variables to simulate")
        model.require_annotated()
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", seed)


def simulate_dataset(spec):
    """Draw a standardized dataset of spec.n rows from the annotated model.

    Exogenous columns are standard normal; each endogenous column is
    sum(beta * parent) + sqrt(psi) * z.  Residual variances psi come from
    the implied-correlation recursion, which also rejects coefficient sets
    implying non-positive variance.  Identical spec, identical bytes.
    """
    m = spec.model
    psi = implied_matrix(m).psi
    order = topological_order(m)
    n, k = spec.n, m.k
    z = rng.normal_stream(spec.seed, n * k).reshape(k, n)
    columns = {}
    for pos, v in enumerate(order):
        parents = m.parents(v)
        if not parents:
            columns[v] = z[pos]
        else:
            col = math.sqrt(psi[v]) * z[pos]
            for p in parents:
                col = col + m.coefficient(p, v) * columns[p]
            columns[v] = col
    rows = np.column_stack([columns[v] for v in m.variables])
    return Dataset(m.variables, rows)


class RecoveryReport(NamedTuple):
    spec: SimulationSpec
    tolerance: float
    max_abs_error: float
    errors: dict  # (source, target) -> |beta_hat - beta|

    @property
    def passed(self):
        return self.max_abs_error <= self.tolerance


def recovery_check(spec, tolerance):
    """Simulate, refit on the true topology, and compare coefficients."""
    d = simulate_dataset(spec)
    fit = fit_standardized(pearson_matrix(d), spec.model)
    errors = {}
    for y, eq in fit.equations.items():
        for parent, b_hat in zip(eq.parents, eq.beta):
            truth = spec.model.coefficient(parent, y)
            errors[(parent, y)] = abs(b_hat - truth)
    if not errors:
        raise VariableMissing("(no endogenous equations)", where="recovery check")
    return RecoveryReport(
        spec=spec,
        tolerance=float(tolerance),
        max_abs_error=max(errors.values()),
        errors=errors,
    )
