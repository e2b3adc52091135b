"""Outlier distances, KS normality, VIF, and residual diagnostics."""

import numpy as np
import pytest

from pathtrek import numeric, rng
from pathtrek.data import Dataset, standardize
from pathtrek.errors import SingularCovariance, VariableMissing, ZeroVariance
from pathtrek.estimation import fit_standardized
from pathtrek.correlation import pearson_matrix
from pathtrek.pathspec import parse_model
from pathtrek.screening import (
    ks_normality,
    mahalanobis,
    residual_diagnostics,
    screen,
    vif,
)
from pathtrek.simulate import SimulationSpec, simulate_dataset

from conftest import NAMES, OBSERVED_R, exact_corr_scores, make_corr


def normal_ppf(q):
    """Quantile by bisection on the package CDF (test helper)."""
    lo, hi = -10.0, 10.0
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if numeric.normal_cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# Mahalanobis

def test_mahalanobis_one_dimensional_hand_values():
    # column (0, 1, 2): mean 1, s^2 = 1, so D^2 = (1, 0, 1)
    d = Dataset(("a",), np.array([[0.0], [1.0], [2.0]]))
    triples = mahalanobis(d)
    assert [round(t[1], 12) for t in triples] == [1.0, 1.0, 0.0]
    assert {t[0] for t in triples[:2]} == {0, 2}
    assert triples[-1][0] == 1


def test_mahalanobis_sum_identity():
    gen = np.random.default_rng(50)
    d = Dataset(("a", "b", "c"), gen.normal(2.0, 3.0, (50, 3)))
    triples = mahalanobis(d)
    assert sum(t[1] for t in triples) == pytest.approx(3 * 49, abs=1e-8)


def test_mahalanobis_affine_invariance():
    gen = np.random.default_rng(51)
    base = gen.normal(size=(40, 3))
    transform = gen.normal(size=(3, 3)) + 3 * np.eye(3)
    shifted = base @ transform.T + gen.uniform(-5, 5, 3)
    d2_base = sorted(t[1] for t in mahalanobis(Dataset(("a", "b", "c"), base)))
    d2_tran = sorted(t[1] for t in mahalanobis(Dataset(("a", "b", "c"), shifted)))
    assert np.abs(np.array(d2_base) - np.array(d2_tran)).max() < 1e-8


@pytest.mark.parametrize("scale", [1e-7, 1e7])
def test_mahalanobis_unit_free(scale):
    # well-conditioned data in tiny or huge units: the pivot floor of the
    # inversion must not mistake the units for collinearity
    gen = np.random.default_rng(54)
    base = gen.normal(size=(200, 3))
    d2_base = [t[1] for t in mahalanobis(Dataset(("a", "b", "c"), base))]
    d2_scaled = [t[1] for t in mahalanobis(Dataset(("a", "b", "c"), base * scale))]
    assert d2_scaled == pytest.approx(d2_base, rel=1e-12, abs=0.0)


def test_mahalanobis_constant_column():
    gen = np.random.default_rng(55)
    rows = np.column_stack([gen.normal(size=20), np.full(20, 3.0)])
    with pytest.raises(ZeroVariance):
        mahalanobis(Dataset(("a", "b"), rows))


def test_mahalanobis_sorted_descending_with_p():
    gen = np.random.default_rng(52)
    d = Dataset(("a", "b"), gen.normal(size=(30, 2)))
    triples = mahalanobis(d)
    d2 = [t[1] for t in triples]
    assert d2 == sorted(d2, reverse=True)
    for _, dist, p in triples:
        assert p == pytest.approx(numeric.chisq_sf(dist, 2), abs=1e-15)


def test_mahalanobis_duplicated_column():
    gen = np.random.default_rng(53)
    col = gen.normal(size=(20, 1))
    d = Dataset(("a", "b"), np.hstack([col, col]))
    with pytest.raises(SingularCovariance):
        mahalanobis(d)


def test_mahalanobis_needs_more_rows_than_columns():
    d = Dataset(("a", "b", "c"), np.eye(3))
    with pytest.raises(ValueError):
        mahalanobis(d)


# ---------------------------------------------------------------------------
# KS normality

def test_ks_three_point_column():
    d_stat, p, verdict = ks_normality([-1.0, 0.0, 1.0])
    assert d_stat == pytest.approx(0.1747, abs=1e-3)
    assert verdict == "normal"


def test_ks_three_point_hand_oracle():
    # hand evaluation: z = (-1, 0, 1); ECDF steps 1/3, 2/3, 1
    z = [-1.0, 0.0, 1.0]
    cdf = [numeric.normal_cdf(v) for v in z]
    expected = max(
        max(abs((i + 1) / 3 - c), abs(i / 3 - c)) for i, c in enumerate(cdf)
    )
    d_stat, _, _ = ks_normality(z)
    assert d_stat == pytest.approx(expected, abs=1e-15)


def test_ks_exact_normal_quantiles():
    sample = [normal_ppf((i - 0.5) / 1000) for i in range(1, 1001)]
    _, p, verdict = ks_normality(sample)
    assert p > 0.99
    assert verdict == "normal"


def test_ks_exponential_sample_rejected():
    u = rng.uniform_stream(99, 100)
    x = -np.log(u)
    _, p, verdict = ks_normality(x, alpha=0.05)
    assert p < 0.05
    assert verdict == "non-normal"


def test_ks_shift_and_scale_invariance():
    gen = np.random.default_rng(60)
    x = gen.normal(size=80)
    d0, p0, _ = ks_normality(x)
    d1, p1, _ = ks_normality(x + 17.0)
    d2, p2, _ = ks_normality(x * 4.0 - 2.0)
    assert (d0, p0) == pytest.approx((d1, p1), abs=1e-12)
    assert (d0, p0) == pytest.approx((d2, p2), abs=1e-12)


def test_ks_in_unit_interval():
    gen = np.random.default_rng(61)
    for _ in range(10):
        d_stat, p, _ = ks_normality(gen.normal(size=25))
        assert 0.0 <= d_stat <= 1.0
        assert 0.0 <= p <= 1.0


def test_ks_zero_variance():
    with pytest.raises(ZeroVariance):
        ks_normality([3.0, 3.0, 3.0, 3.0, 3.0])


def test_ks_too_few_points():
    with pytest.raises(ValueError):
        ks_normality([1.0, 2.0])


# ---------------------------------------------------------------------------
# VIF

def test_vif_orthogonal_predictors():
    corr = make_corr(("a", "b", "c"), np.eye(3), 100)
    assert vif(corr, ("a", "b", "c")) == {"a": 1.0, "b": 1.0, "c": 1.0}


def test_vif_study_block(observed_corr):
    got = vif(observed_corr, ("X1", "X2", "X3", "X4"))
    # oracle: independent inversion of the same block
    oracle = np.diag(np.linalg.inv(OBSERVED_R[:4, :4]))
    for j, name in enumerate(("X1", "X2", "X3", "X4")):
        assert got[name] == pytest.approx(oracle[j], abs=1e-10)
    assert got["X1"] == pytest.approx(1.7072, abs=5e-4)


def test_vif_near_collinear_pair():
    r = np.array([[1.0, 0.999], [0.999, 1.0]])
    corr = make_corr(("a", "b"), r, 100)
    got = vif(corr, ("a", "b"))
    assert got["a"] == pytest.approx(1.0 / (1.0 - 0.999 ** 2), rel=1e-9)
    assert got["a"] > 10.0


def test_vif_at_least_one_random_blocks():
    gen = np.random.default_rng(62)
    for _ in range(25):
        w = gen.uniform(-1, 1, (4, 6))
        cov = w @ w.T + np.diag(gen.uniform(0.5, 2.0, 4))
        dd = np.sqrt(np.diag(cov))
        corr = make_corr(("a", "b", "c", "d"), cov / np.outer(dd, dd), 100)
        for value in vif(corr, ("a", "b", "c", "d")).values():
            assert value >= 1.0 - 1e-9


def test_vif_unknown_predictor(observed_corr):
    with pytest.raises(VariableMissing):
        vif(observed_corr, ("X1", "NOPE"))


# ---------------------------------------------------------------------------
# residual diagnostics

def test_residuals_zero_for_exact_linear_data():
    gen = np.random.default_rng(63)
    x1 = gen.normal(size=50)
    x2 = gen.normal(size=50)
    y = 0.6 * x1 + 0.8 * x2
    d = Dataset(("x1", "x2", "y"), np.column_stack([x1, x2, y]))
    m = parse_model("var x1\nvar x2\nvar y\neq y <- x1 x2\n")
    fit = fit_standardized(pearson_matrix(d), m)
    points = residual_diagnostics(fit, d)
    assert all(abs(r) < 1e-8 for _, r in points["y"])


def test_residual_sd_tracks_disturbance(observed_corr, revised_model, revised_refit):
    sim = simulate_dataset(
        SimulationSpec(model=revised_refit.annotated_model(), n=240, seed=42)
    )
    z = standardize(sim)
    fit = fit_standardized(pearson_matrix(sim), revised_model)
    table_fit = fit_standardized(observed_corr, revised_model)
    for y, eq in fit.equations.items():
        predicted = sum(
            b * z.column(p) for p, b in zip(eq.parents, eq.beta)
        )
        resid = z.column(y) - predicted
        assert abs(resid.std(ddof=1) - table_fit.equation(y).disturbance) < 0.05


def test_residual_points_shape(revised_refit):
    sim = simulate_dataset(
        SimulationSpec(model=revised_refit.annotated_model(), n=60, seed=5)
    )
    points = residual_diagnostics(revised_refit, sim)
    assert set(points) == {"X2", "X3", "X4", "Y"}
    assert all(len(pts) == 60 for pts in points.values())
    for pts in points.values():
        scaled = np.array([r for _, r in pts])
        assert scaled.std(ddof=1) == pytest.approx(1.0, abs=1e-9)


def test_residuals_variable_missing(revised_refit):
    gen = np.random.default_rng(64)
    d = Dataset(("X1", "X2"), gen.normal(size=(20, 2)))
    with pytest.raises(VariableMissing):
        residual_diagnostics(revised_refit, d)


# ---------------------------------------------------------------------------
# full battery

def test_screen_clean_dataset(revised_model):
    d = Dataset(NAMES, exact_corr_scores(OBSERVED_R, 240, seed=909))
    report = screen(d, model=revised_model)
    assert len(report.summaries) == 5
    assert set(report.vif) == {"X1", "X2", "X3", "X4"}
    assert set(report.residual_points) == {"X2", "X3", "X4", "Y"}
    assert any("plug-in" in w for w in report.warnings)
    assert report.distances[0][1] >= report.distances[-1][1]


def test_screen_flags_injected_outlier():
    rows = exact_corr_scores(OBSERVED_R, 240, seed=910).copy()
    rows[7] = 10.0  # ten-sd row
    report = screen(Dataset(NAMES, rows))
    assert report.outliers, "expected the injected row to be flagged"
    assert report.outliers[0][0] == 7
    assert report.distances[0][0] == 7
    assert any("outlier" in w for w in report.warnings)


def test_screen_one_column():
    gen = np.random.default_rng(912)
    report = screen(Dataset(("a",), gen.normal(size=(30, 1))))
    assert report.vif == {"a": 1.0}
    assert len(report.distances) == 30


def test_screen_without_model_uses_all_columns():
    d = Dataset(NAMES, exact_corr_scores(OBSERVED_R, 240, seed=911))
    report = screen(d)
    assert set(report.vif) == set(NAMES)
    assert report.residual_points == {}
