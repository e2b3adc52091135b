"""Standardized estimation against the worked study: coefficients, R²,
inference, and the normal-equation/variance identities.
"""

import math

import numpy as np
import pytest

from pathtrek import estimation, numeric
from pathtrek.correlation import CorrelationMatrix
from pathtrek.errors import (
    DegreesOfFreedomExhausted,
    SingularMatrix,
    VariableMissing,
)
from pathtrek.effects import DEFAULT_ALPHA
from pathtrek.estimation import coefficient_inference, fit_standardized
from pathtrek.pathspec import parse_model

from conftest import NAMES, OBSERVED_R
from test_numeric import random_correlation_block, reference_inverse_factor


def test_single_parent_equals_raw_correlation(revised_refit, observed_corr):
    eq = revised_refit.equation("X2")
    assert eq.parents == ("X1",)
    assert eq.beta[0] == observed_corr.value("X1", "X2") == 0.531
    assert eq.r_squared == pytest.approx(0.531 ** 2, abs=1e-12)


def test_revised_equations_match_published(revised_refit):
    eq3 = revised_refit.equation("X3")
    assert eq3.beta == pytest.approx((0.405, 0.204), abs=1e-3)
    eq4 = revised_refit.equation("X4")
    assert eq4.parents == ("X1", "X2", "X3")
    assert eq4.beta == pytest.approx((0.239, 0.216, 0.217), abs=1e-3)
    eqy = revised_refit.equation("Y")
    assert eqy.parents == ("X2", "X3", "X4")
    assert eqy.beta == pytest.approx((0.145, 0.084, 0.782), abs=1e-3)


def test_revised_r_squared(revised_refit):
    r2 = revised_refit.r_squared()
    assert r2["X2"] == pytest.approx(0.282, abs=1e-3)
    assert r2["X3"] == pytest.approx(0.294, abs=1e-3)
    assert r2["X4"] == pytest.approx(0.299, abs=1e-3)
    assert r2["Y"] == pytest.approx(0.805, abs=1e-3)


def test_disturbance_identity(revised_refit, observed_corr):
    for y, eq in revised_refit.equations.items():
        r_py = [observed_corr.value(p, y) for p in eq.parents]
        explained = sum(b * r for b, r in zip(eq.beta, r_py))
        assert eq.disturbance ** 2 + explained == pytest.approx(1.0, abs=1e-9)


def test_normal_equation_residual(revised_refit, observed_corr):
    for y, eq in revised_refit.equations.items():
        r_pp = observed_corr.submatrix(eq.parents)
        r_py = np.array([observed_corr.value(p, y) for p in eq.parents])
        resid = np.abs(r_pp @ np.array(eq.beta) - r_py).max()
        assert resid <= 1e-10


def test_initial_y_equation(observed_corr, initial_model):
    fit = coefficient_inference(fit_standardized(observed_corr, initial_model))
    eqy = fit.equation("Y")
    assert eqy.parents == ("X1", "X2", "X3", "X4")
    assert eqy.beta == pytest.approx((0.0471, 0.1294, 0.0706, 0.7724), abs=1e-3)
    # only the first predictor is non-significant at 0.05
    assert eqy.p[0] == pytest.approx(0.211, abs=2e-3)
    assert tuple(p < DEFAULT_ALPHA for p in eqy.p) == (False, True, True, True)
    # the X4 equation reduces to the raw correlation
    assert fit.equation("X4").beta[0] == pytest.approx(0.431, abs=1e-12)


def test_inference_matches_direct_formula(revised_refit, observed_corr):
    fit = coefficient_inference(revised_refit)
    n = observed_corr.n
    for y, eq in fit.equations.items():
        inv = np.linalg.inv(observed_corr.submatrix(eq.parents))
        df = n - len(eq.parents) - 1
        for j in range(len(eq.parents)):
            se = np.sqrt((1 - eq.r_squared) * inv[j, j] / df)
            assert eq.se[j] == pytest.approx(se, rel=1e-10)
            assert eq.t[j] == pytest.approx(eq.beta[j] / se, rel=1e-10)
        assert all(0.0 <= p <= 1.0 for p in eq.p)


def test_single_predictor_significance(observed_corr):
    m = parse_model("var X1\nvar X2\npath X1 -> X2\n")
    fit = coefficient_inference(fit_standardized(observed_corr, m))
    assert fit.equation("X2").p[0] < 0.001


def test_degrees_of_freedom_exhausted(revised_model):
    corr = CorrelationMatrix(NAMES, OBSERVED_R, 4)  # df 2, 1, 0, 0 for X2, X3, X4, Y
    fit = fit_standardized(corr, revised_model)
    # estimates without inference where n <= |P| + 1
    assert [eq.p is None for eq in fit.equations.values()] == [False, False, True, True]
    assert fit.equation("X4").se is None and fit.equation("X4").t is None
    with pytest.raises(DegreesOfFreedomExhausted, match="'X4': n=4 with 3 parents"):
        coefficient_inference(fit)


def test_report_refuses_a_fit_without_inference(revised_model):
    from pathtrek.report import Report

    fit = fit_standardized(CorrelationMatrix(NAMES, OBSERVED_R, 4), revised_model)
    with pytest.raises(DegreesOfFreedomExhausted, match="'X4': n=4 with 3 parents"):
        Report(command="fit", fitted=fit)


def test_exact_fit_keeps_the_sign_of_t():
    # R² = 1, so every SE is 0: t is infinite with the sign of beta, and a
    # beta of exactly 0 (C is uncorrelated with everything) gets t 0, p 1
    r = [[1.0, 0.0, 0.0, 0.6], [0.0, 1.0, 0.0, -0.8],
         [0.0, 0.0, 1.0, 0.0], [0.6, -0.8, 0.0, 1.0]]
    corr = CorrelationMatrix(("A", "B", "C", "Y"), r, 100)
    m = parse_model("var A\nvar B\nvar C\nvar Y\n"
                    "path A -> Y\npath B -> Y\npath C -> Y\n")
    fit = fit_standardized(corr, m)
    eq = fit.equation("Y")
    assert eq.r_squared == 1.0 and eq.se == (0.0, 0.0, 0.0)
    assert eq.beta[2] == 0.0
    assert eq.t == (math.inf, -math.inf, 0.0)
    assert eq.p == (0.0, 0.0, 1.0)


def test_one_factorization_per_equation(monkeypatch, observed_corr, initial_model):
    orders = []
    factor = numeric.inverse_factor
    monkeypatch.setattr(numeric, "inverse_factor",
                        lambda a: orders.append(len(a)) or factor(a))
    fit = coefficient_inference(fit_standardized(observed_corr, initial_model))
    assert orders == [len(eq.parents) for eq in fit.equations.values()] == [1, 2, 1, 4]


def test_variable_missing(observed_corr):
    m = parse_model("var X1\nvar Q\npath X1 -> Q\n")
    with pytest.raises(VariableMissing):
        fit_standardized(observed_corr, m)


def test_variable_missing_names_the_first_declared(observed_corr):
    m = parse_model("var R\nvar X1\nvar Q\npath X1 -> Q\npath X1 -> R\n")
    with pytest.raises(VariableMissing, match="^variable 'R' not found in correlation matrix$"):
        fit_standardized(observed_corr, m)


def test_singular_parent_block():
    r = np.array([
        [1.0, 1.0, 0.5],
        [1.0, 1.0, 0.5],
        [0.5, 0.5, 1.0],
    ])
    corr = CorrelationMatrix(("A", "B", "C"), r, 50)
    m = parse_model("var A\nvar B\nvar C\npath A -> C\npath B -> C\n")
    with pytest.raises(SingularMatrix, match="C"):
        fit_standardized(corr, m)


def test_no_endogenous_rejected(observed_corr):
    m = parse_model("var X1\nvar X2\n")
    with pytest.raises(ValueError, match="endogenous"):
        fit_standardized(observed_corr, m)


def test_annotated_model_carries_fit(revised_refit):
    annotated = revised_refit.annotated_model()
    assert annotated.is_annotated
    assert annotated.coefficient("X1", "X2") == 0.531
    assert annotated.coefficient("X4", "Y") == pytest.approx(0.782, abs=1e-3)


def test_r_squared_in_range_random_pd_matrices(revised_model):
    gen = np.random.default_rng(99)
    for _ in range(100):
        w = gen.uniform(-1, 1, (5, 8))
        cov = w @ w.T + np.diag(gen.uniform(0.5, 2.0, 5))
        d = np.sqrt(np.diag(cov))
        r = cov / np.outer(d, d)
        corr = CorrelationMatrix(NAMES, r, 200)
        fit = fit_standardized(corr, revised_model)
        for eq in fit.equations.values():
            assert 0.0 <= eq.r_squared <= 1.0


def test_equations_independent(observed_corr, initial_model):
    # removing one equation's arrow leaves the others bit-identical
    fit_full = fit_standardized(observed_corr, initial_model)
    reduced = initial_model.with_arrows(
        [a for a in initial_model.arrows if (a.source, a.target) != ("X1", "Y")]
    )
    fit_reduced = fit_standardized(observed_corr, reduced)
    for y in ("X2", "X3", "X4"):
        assert fit_full.equation(y).beta == fit_reduced.equation(y).beta


def reference_fit_equation(corr, y, parents):
    """estimation._fit_equation's arithmetic with every dot product a
    generator sum over W's rows, as it was computed before `map(mul, ...)`."""
    rpy = [corr.value(p, y) for p in parents]
    w = reference_inverse_factor(corr.submatrix(parents))
    u = [sum(wi * r for wi, r in zip(row, rpy)) for row in w]
    beta = [sum(row[j] * ui for row, ui in zip(w, u)) for j in range(len(u))]
    r2 = min(1.0, sum(ui * ui for ui in u))
    se = t = p = None
    df = corr.n - len(parents) - 1
    if df >= 1:
        se = tuple(math.sqrt((1.0 - r2) * sum(row[j] * row[j] for row in w) / df)
                   for j in range(len(beta)))
        t = tuple(b / s if s > 0.0 else math.copysign(math.inf, b) if b else 0.0
                  for b, s in zip(beta, se))
        p = tuple(numeric.t_sf_two_sided(tj, df) if math.isfinite(tj) else 0.0 for tj in t)
    return (tuple(beta), r2, math.sqrt(1.0 - r2), se, t, p)


def hex_fields(fields):
    """Each float of an equation's fields as float.hex, tuples kept, None as None."""
    return [None if f is None else tuple(map(float.hex, f)) if isinstance(f, tuple)
            else f.hex() for f in fields]


@pytest.mark.parametrize("order", range(1, 21))
def test_fit_equation_equals_the_generator_sums_bit_for_bit(order):
    gen = np.random.default_rng(4610 + order)
    names = tuple(f"V{i}" for i in range(order + 1))
    y, parents = names[-1], names[:-1]
    for n in (max(3, order + 1), 200):  # df 0 (no inference) from order 2 on, and df >= 1
        corr = CorrelationMatrix(names, random_correlation_block(gen, order + 1), n)
        eq = estimation._fit_equation(corr, y, parents)
        expected = hex_fields(reference_fit_equation(corr, y, parents))
        assert hex_fields(eq[2:]) == expected
        bare = estimation._fit_equation(corr, y, parents, False)
        assert hex_fields(bare[2:]) == expected[:3] + [None] * 3


def test_a_fit_without_inference_runs_no_t_tail(monkeypatch, observed_corr, initial_model):
    fit = fit_standardized(observed_corr, initial_model)

    def no_tail(*args):
        raise AssertionError("t tail computed")

    monkeypatch.setattr(numeric, "t_sf_two_sided", no_tail)
    bare = estimation._fit_model(observed_corr, initial_model, {}, inference=False)
    assert list(bare.equations) == list(fit.equations)
    for eq, full in zip(bare.equations.values(), fit.equations.values()):
        assert eq == full._replace(se=None, t=None, p=None)
