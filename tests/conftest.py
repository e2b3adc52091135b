"""Shared fixtures: the worked five-variable study, its two model
topologies, and dataset constructors with exactly controlled correlations.
"""

import pathlib

import numpy as np
import pytest

from pathtrek.correlation import CorrelationMatrix
from pathtrek.pathspec import parse_model
from pathtrek.tracing import ReproducedMatrix, _steps, _trace, _treks_by_pair

DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "data"

NAMES = ("X1", "X2", "X3", "X4", "Y")

# Observed correlations among motivation, attitude, learning style,
# teaching strategies, and mathematics performance (n = 240).
OBSERVED_R = np.array([
    [1.000, 0.531, 0.514, 0.466, 0.512],
    [0.531, 1.000, 0.420, 0.435, 0.520],
    [0.514, 0.420, 1.000, 0.431, 0.482],
    [0.466, 0.435, 0.431, 1.000, 0.881],
    [0.512, 0.520, 0.482, 0.881, 1.000],
])
N_OBS = 240

INITIAL_MODEL_TEXT = """\
var X1 "Motivation"
var X2 "Attitude Towards Mathematics"
var X3 "Learning Style"
var X4 "Teaching Strategies"
var Y "Mathematics Performance"
path X1 -> X2
path X1 -> X3
path X2 -> X3
path X3 -> X4
path X1 -> Y
path X2 -> Y
path X3 -> Y
path X4 -> Y
"""

REVISED_MODEL_TEXT = """\
var X1 "Motivation"
var X2 "Attitude Towards Mathematics"
var X3 "Learning Style"
var X4 "Teaching Strategies"
var Y "Mathematics Performance"
path X1 -> X2
path X1 -> X3
path X2 -> X3
path X1 -> X4
path X2 -> X4
path X3 -> X4
path X2 -> Y
path X3 -> Y
path X4 -> Y
"""

# Published 3-decimal coefficient sets the worked decompositions were
# calculated from.
INITIAL_PRINTED = {
    ("X1", "X2"): 0.531, ("X1", "X3"): 0.337, ("X2", "X3"): 0.150,
    ("X3", "X4"): 0.209, ("X1", "Y"): 0.047, ("X2", "Y"): 0.130,
    ("X3", "Y"): 0.070, ("X4", "Y"): 0.772,
}
REVISED_PRINTED = {
    ("X1", "X2"): 0.531, ("X1", "X3"): 0.405, ("X2", "X3"): 0.204,
    ("X1", "X4"): 0.239, ("X2", "X4"): 0.216, ("X3", "X4"): 0.217,
    ("X2", "Y"): 0.145, ("X3", "Y"): 0.084, ("X4", "Y"): 0.782,
}


def total_effect_oracle(m):
    """Total effects via the nilpotent Neumann sum of the coefficient matrix.

    Returns (variables, T) where T[target, source] = sum over all directed
    paths of coefficient products, exactly (I-B)⁻¹ - I for a DAG, with
    B[target, source] = beta in declaration order.
    """
    m.require_annotated()
    k = m.k
    b = np.zeros((k, k))
    for a in m.arrows:
        b[m.index(a.target), m.index(a.source)] = a.coefficient
    total = np.zeros((k, k))
    power = np.eye(k)
    for _ in range(k - 1):
        power = power @ b
        total += power
    return m.variables, total


def trek_sum_matrix(m):
    """r_hat as the sum of every pair's treks (Wright's trek rule).

    The oracle for the structural recursion: it enumerates treks, so it
    raises TooManyVariables past tracing.TREK_BUDGET.
    """
    idx = {v: i for i, v in enumerate(m.variables)}
    r_hat = [[1.0 if a == b else 0.0 for b in range(m.k)] for a in range(m.k)]
    for (va, vb), treks in _treks_by_pair(m).items():
        a, b = idx[va], idx[vb]
        r_hat[a][b] = r_hat[b][a] = sum((t.product for t in treks), 0.0)
    return ReproducedMatrix(m.variables, tuple(map(tuple, r_hat)))


def unchecked_trace(m):
    """A fresh trace of annotated `m` without implied_matrix's psi check."""
    return _trace(m.variables, _steps(m))[0]


def exact_corr_scores(target_r, n, seed):
    """Scores whose SAMPLE correlation equals target_r to machine precision.

    Whitens seeded noise against its own sample covariance, then colors it
    with the Cholesky factor of the target matrix.
    """
    from pathtrek import rng

    target_r = np.asarray(target_r, dtype=np.float64)
    k = target_r.shape[0]
    noise = rng.normal_stream(seed, n * k).reshape(n, k)
    centered = noise - noise.mean(axis=0)
    sample_cov = centered.T @ centered / (n - 1)
    white = centered @ np.linalg.inv(np.linalg.cholesky(sample_cov)).T
    return white @ np.linalg.cholesky(target_r).T


@pytest.fixture(scope="session")
def observed_corr():
    return CorrelationMatrix(NAMES, OBSERVED_R, N_OBS)


@pytest.fixture(scope="session")
def initial_model():
    return parse_model(INITIAL_MODEL_TEXT)


@pytest.fixture(scope="session")
def revised_model():
    return parse_model(REVISED_MODEL_TEXT)


@pytest.fixture(scope="session")
def initial_printed(initial_model):
    return initial_model.with_coefficients(INITIAL_PRINTED)


@pytest.fixture(scope="session")
def revised_printed(revised_model):
    return revised_model.with_coefficients(REVISED_PRINTED)


@pytest.fixture(scope="session")
def revised_refit(observed_corr, revised_model):
    from pathtrek.estimation import fit_standardized

    return fit_standardized(observed_corr, revised_model)
