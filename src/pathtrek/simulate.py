"""Synthetic standardized datasets drawn from a coefficient-annotated model.

Used as the Monte Carlo oracle for estimation-recovery checks.  One variate
stream is consumed in a fixed variable-major order (all n draws for the
first variable in causal order, then the next), so output depends only on
(model, n, seed).  Rows are drawn in blocks, each from its own slices of
that stream, so memory stays bounded whatever n is.
"""

import math
import numbers
from typing import NamedTuple

import numpy as np

from . import rng
from .data import Dataset
from .errors import ParseError
from .estimation import _fit_model
from .correlation import _sample_size, pearson_matrix
from .record import FrozenRecord
from .tracing import _steps, implied_matrix

ROWS_PER_BLOCK = rng.BLOCK // 2  # one stream block of draws per variable


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


def simulate_blocks(spec):
    """The rows of spec's dataset, as (rows, k) float64 blocks of ROWS_PER_BLOCK rows.

    Exogenous columns are standard normal; each endogenous column is
    sum(beta * parent) + sqrt(psi) * z.  Residual variances psi come from
    the implied-correlation recursion, which also rejects coefficient sets
    implying non-positive variance; that check and the causal order run
    before this returns, so a caller has nothing to undo.  The variable at
    causal position pos takes draws pos*n .. pos*n + n-1 of the stream, so
    each block draws only its own slice of those; when one block holds every
    row, all k*n draws come from one call.  Identical spec, identical bytes,
    whatever the block size.
    """
    psi = implied_matrix(spec.model).psi
    equations = [(v, math.sqrt(psi[v]), list(zip(parents, beta)))
                 for v, parents, beta in _steps(spec.model)]
    return _blocks(spec, equations)


def _blocks(spec, equations):
    n, k = spec.n, spec.model.k
    for start in range(0, n, ROWS_PER_BLOCK):
        size = min(ROWS_PER_BLOCK, n - start)
        if size == n:  # one block holds every row: one call for all k*n draws
            z = rng.normal_stream(spec.seed, k * n).reshape(k, n)
        else:
            z = np.stack([rng.normal_stream(spec.seed, size, pos * n + start)
                          for pos in range(k)])
        columns = {}
        for pos, (v, scale, parents) in enumerate(equations):
            if not parents:
                columns[v] = z[pos]
            else:
                col = scale * z[pos]
                for p, beta in parents:
                    col = col + beta * columns[p]
                columns[v] = col
        rows = np.column_stack([columns[v] for v in spec.model.variables])
        if not np.isfinite(rows).all():
            raise ParseError("all observations must be finite")
        yield rows


def simulate_dataset(spec):
    """Draw a standardized dataset of spec.n rows from the annotated model."""
    return Dataset(spec.model.variables, np.concatenate(list(simulate_blocks(spec))))


class RecoveryReport(NamedTuple):
    spec: SimulationSpec
    tolerance: float
    max_abs_error: float
    errors: dict  # (source, target) -> |beta_hat - beta|

    @property
    def passed(self):
        return self.max_abs_error <= self.tolerance


def recovery_check(spec, tolerance):
    """Simulate, refit on the true topology, and compare coefficients.

    The refit is beta only: beta, R² and each disturbance are those of
    fit_standardized on the same table, bit for bit, but no SE, t or t
    tail is computed, as nothing here reads them.  `tolerance` is a finite
    real number >= 0, not a bool or a str; anything else raises ValueError
    before a row is drawn.
    """
    tolerance = _tolerance(tolerance)
    fit = _fit_model(pearson_matrix(simulate_dataset(spec)), spec.model, {}, inference=False)
    errors = {(parent, y): abs(b_hat - spec.model.coefficient(parent, y))
              for y, eq in fit.equations.items() for parent, b_hat in zip(eq.parents, eq.beta)}
    return RecoveryReport(spec, tolerance, max(errors.values()), errors)


def _tolerance(value):
    """value as a float; ValueError unless it is a real number, not a bool,
    that a float holds as finite and >= 0."""
    try:
        if (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and 0.0 <= float(value) < math.inf):
            return float(value)
    except OverflowError:  # an int or Fraction past the range of a float
        pass
    raise ValueError(f"tolerance must be a finite number >= 0, got {value!r}")
