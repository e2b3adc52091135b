"""Outlier distances, KS normality, VIF, and residual diagnostics."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtrek import numeric, rng, screening
from pathtrek.data import Dataset, _z_scores, standardize
from pathtrek.errors import SingularCovariance, SingularMatrix, VariableMissing, ZeroVariance
from pathtrek.estimation import fit_standardized
from pathtrek.correlation import CorrelationMatrix, pearson_matrix
from pathtrek.pathspec import parse_model
from pathtrek.screening import (
    ks_normality,
    mahalanobis,
    residual_diagnostics,
    screen,
    vif,
)
from pathtrek.simulate import SimulationSpec, simulate_dataset

from conftest import NAMES, OBSERVED_R, exact_corr_scores


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


def test_mahalanobis_ties_keep_row_order():
    # rows 3, 7 and 12 repeat row 0 and row 9 repeats row 5: equal D2 keep
    # ascending row order, in mahalanobis and in the report's distances
    gen = np.random.default_rng(56)
    rows = gen.normal(size=(20, 3))
    rows[[3, 7, 12]] = rows[0]
    rows[9] = rows[5]
    d = Dataset(("a", "b", "c"), rows)
    triples = mahalanobis(d)
    order = [t[0] for t in triples]
    for group in ([0, 3, 7, 12], [5, 9]):
        at = order.index(group[0])
        assert order[at:at + len(group)] == group
        assert len({t[1] for t in triples[at:at + len(group)]}) == 1
    assert triples == sorted(triples, key=lambda t: (-t[1], t[0]))
    assert screen(d).distances == triples


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
# Whole-column references for the pruned tails: ks_normality and the
# Mahalanobis ranking as they were before the exact tails were limited to
# the points that decide an output.  The pruned results must equal them bit
# for bit.

def reference_ks_normality(column, alpha=0.05):
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


def reference_ranked(z, r):
    try:
        w = np.array(numeric.inverse_factor(r))
    except SingularMatrix as exc:
        raise SingularCovariance(str(exc)) from exc
    d2 = ((z @ w.T) ** 2).sum(axis=1)
    p = numeric.chisq_sf_array(d2, z.shape[1])
    order = np.argsort(-d2, kind="stable")
    return order, d2[order], p[order]


def outcome(f, *args):
    """f's result, or the type and text of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def draw_block(seed, n, k, kind):
    """An (n, k) block of one shape: normal, skewed, exp-transformed or rounded."""
    gen = np.random.default_rng(seed)
    x = gen.normal(size=(n, k))
    if kind == "skewed":
        x = x ** 2 + 0.1 * x
    elif kind == "exp":
        x = np.exp(2.0 * x)
    elif kind == "rounded":
        x = np.round(x * 1.5)  # heavily tied
    return x


KINDS = st.sampled_from(["normal", "skewed", "exp", "rounded"])
CUTOFFS = st.sampled_from([0.0, 1e-300, 0.001, 0.5, 1.0])


def bits(values):
    return repr([float(v) for v in values])


@given(st.integers(0, 2**32 - 1), st.integers(3, 600), KINDS)
@settings(max_examples=150, deadline=None)
def test_ks_equals_whole_column_reference(seed, n, kind):
    column = draw_block(seed, n, 1, kind)[:, 0]
    want = outcome(reference_ks_normality, column)
    got = outcome(ks_normality, column)
    assert repr(got) == repr(want)


@given(st.integers(0, 2**32 - 1), st.integers(3, 600), st.integers(1, 5), KINDS,
       CUTOFFS)
@settings(max_examples=150, deadline=None)
def test_ranked_equals_whole_column_reference(seed, n, k, kind, cutoff):
    x = draw_block(seed, n, k, kind)
    if n <= k or (x.std(axis=0, ddof=1) < 1e-12).any():
        return
    z = _z_scores(Dataset(tuple(f"v{j}" for j in range(k)), x))
    r = (z.T @ z) / (n - 1)
    want = outcome(reference_ranked, z, r)
    if not isinstance(want[0], np.ndarray):
        assert outcome(screening._ranked, z, r) == want
        return
    rows, d2 = screening._ranked(z, r)
    assert bits(rows) == bits(want[0])
    assert bits(d2) == bits(want[1])
    full = list(zip(*(a.tolist() for a in want)))
    flagged = [t for t in full if t[2] < cutoff]
    assert repr(screening._outliers(rows, d2, k, cutoff)) == repr(flagged)
    for count in (1, k, n // 2, n + 1):
        assert repr(screening._triples(rows[:count], d2[:count], k)) == repr(full[:count])
    assert repr(screening._triples(rows, d2, k)) == repr(full)


def test_outliers_evaluate_each_row_once(monkeypatch):
    # at cutoff 1 the search grows its head over every row; a head
    # recomputed on each growth would pass more than n rows to the tail
    n, k = 700, 4
    z = _z_scores(Dataset(("a", "b", "c", "d"), draw_block(921, n, k, "normal")))
    rows, d2 = screening._ranked(z, (z.T @ z) / (n - 1))
    counted = []
    tail = numeric.chisq_sf_array
    monkeypatch.setattr(numeric, "chisq_sf_array",
                        lambda x, df: counted.append(len(x)) or tail(x, df))
    assert len(screening._outliers(rows, d2, k, 1.0)) == n
    assert sum(counted) == n


@pytest.mark.parametrize("cutoff", [0.0, 1e-300, 0.001, 0.5, 1.0])
def test_report_distances_and_largest_equal_the_full_triples(cutoff):
    x = draw_block(917, 700, 4, "exp")
    x[:5] *= 40.0  # a few far rows
    d = Dataset(("a", "b", "c", "d"), x)
    z = _z_scores(d)
    order, d2, p = reference_ranked(z, (z.T @ z) / (d.n - 1))
    full = list(zip(order.tolist(), d2.tolist(), p.tolist()))
    report = screen(d, outlier_p=cutoff)
    assert report.outliers == [t for t in full if t[2] < cutoff]
    for count in (0, 3, 64, 65, 700, 701):
        assert report.largest(count) == full[:count]
    assert report.distances == full
    assert mahalanobis(d) == full


def worst_approx(z):
    """The exact CDF moved by 0.99 of the approximation bound, against each
    point's KS discrepancy at its largest and for it everywhere else."""
    n = len(z)
    cdf = numeric.normal_cdf_array(z)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    gap = np.maximum(upper, lower)
    toward = np.where(upper >= lower, -1.0, 1.0)  # moving cdf this way widens the gap
    sign = np.where(gap == gap.max(), -toward, toward)
    return cdf + sign * 0.99 * numeric.NORMAL_CDF_APPROX_ERROR


@pytest.mark.parametrize("tilt", [0.0, 1e-12, 1e-9, 1e-8])
def test_ks_exact_under_the_worst_approximation(monkeypatch, tilt):
    # a mirrored sample has two near-equal largest discrepancies; an
    # approximation within its bound can swap their order
    half = np.sort(np.random.default_rng(920).normal(size=60))
    column = np.concatenate([half, -half * (1.0 + tilt)])
    want = reference_ks_normality(column)
    monkeypatch.setattr(numeric, "normal_cdf_approx", worst_approx)
    assert repr(ks_normality(column)) == repr(want)
    for seed in range(5):
        column = draw_block(seed, 300, 1, "rounded")[:, 0]
        assert repr(ks_normality(column)) == repr(reference_ks_normality(column))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_ks_non_finite_z_raises_as_the_reference():
    for column in ([1.0, 2.0, math.inf], [1.0, math.nan, 3.0, 4.0]):
        want = outcome(reference_ks_normality, column)
        assert want[0] is ValueError
        assert outcome(ks_normality, column) == want


def test_ranked_nan_distance_raises_as_the_reference():
    z = _z_scores(Dataset(("a", "b"), draw_block(918, 40, 2, "normal")))
    r = (z.T @ z) / 39
    z[7, 1] = math.nan
    want = outcome(reference_ranked, z, r)
    assert want[0] is ValueError
    assert outcome(screening._ranked, z, r) == want


# ---------------------------------------------------------------------------
# VIF

def test_vif_orthogonal_predictors():
    corr = CorrelationMatrix(("a", "b", "c"), np.eye(3), 100)
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
    corr = CorrelationMatrix(("a", "b"), r, 100)
    got = vif(corr, ("a", "b"))
    assert got["a"] == pytest.approx(1.0 / (1.0 - 0.999 ** 2), rel=1e-9)
    assert got["a"] > 10.0


def test_vif_at_least_one_random_blocks():
    gen = np.random.default_rng(62)
    for _ in range(25):
        w = gen.uniform(-1, 1, (4, 6))
        cov = w @ w.T + np.diag(gen.uniform(0.5, 2.0, 4))
        dd = np.sqrt(np.diag(cov))
        corr = CorrelationMatrix(("a", "b", "c", "d"), cov / np.outer(dd, dd), 100)
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


# sha256 of repr((distances, normality)) for a seeded 5000-row draw of the
# revised model: every D2, tail probability and KS statistic, byte for byte
SCREEN_DISTANCES_SHA256 = "c124bfaa2932ab222567b86999ac003d0f7e82f3481f685cf6e71c4986c1b27f"


def test_screen_distances_pinned(revised_refit):
    spec = SimulationSpec(model=revised_refit.annotated_model(), n=5000, seed=16)
    report = screen(simulate_dataset(spec))
    digest = repr((report.distances, report.normality)).encode()
    assert hashlib.sha256(digest).hexdigest() == SCREEN_DISTANCES_SHA256


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


# ---------------------------------------------------------------------------
# the report's lazy fields

def test_lazy_fields_equal_their_sources(revised_model):
    d = Dataset(NAMES, exact_corr_scores(OBSERVED_R, 240, seed=913))
    report = screen(d, model=revised_model, outlier_p=0.2)
    distances = mahalanobis(d)
    assert report.outliers == [t for t in distances if t[2] < 0.2]
    assert report.outliers
    assert report.largest(3) == distances[:3]
    assert report.distances == distances
    points = residual_diagnostics(fit_standardized(pearson_matrix(d), revised_model), d)
    assert report.residual_counts == {y: len(pts) for y, pts in points.items()}
    assert report.residual_points == points
    assert list(report.residual_points) == list(report.residual_counts)


@dataclasses.dataclass
class EagerReport:
    """ScreeningReport as a plain dataclass of its nine attributes."""

    summaries: list
    outliers: list
    distances: list
    normality: dict
    vif: dict
    residual_points: dict
    outlier_cutoff: float
    alpha: float
    warnings: list


def eager(report):
    return EagerReport(**{f.name: getattr(report, f.name)
                          for f in dataclasses.fields(EagerReport)})


def test_report_equality_and_repr_read_every_attribute(revised_model):
    d = Dataset(NAMES, exact_corr_scores(OBSERVED_R, 60, seed=914))
    report = screen(d, model=revised_model)
    # a fresh report still holds its numpy arrays: == must not compare them
    assert screen(d, model=revised_model) == report
    assert repr(screen(d, model=revised_model)) == repr(eager(report)).replace(
        "EagerReport", "ScreeningReport", 1)
    for other in (screen(d), screen(d, model=revised_model, outlier_p=0.2),
                  screen(d, model=revised_model, alpha=0.2)):
        assert eager(other) != eager(report)
        assert other != report
    assert report != "report"
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("names,rows,model_text,error", [
    (("a", "b", "c"), np.eye(3), None, ValueError),  # n <= k
    (("a", "b"), np.column_stack([np.arange(20.0), np.full(20, 3.0)]), None, ZeroVariance),
    (("a", "b"), np.column_stack([np.arange(20.0), 2.0 * np.arange(20.0)]), None,
     SingularCovariance),
    (("a", "b"), np.random.default_rng(915).normal(size=(20, 2)),
     "var a\nvar b\nvar z\npath a -> z\n", VariableMissing),  # z has an equation
    (("a", "b"), np.random.default_rng(916).normal(size=(20, 2)),
     "var a\nvar b\nvar z\npath a -> b\n", VariableMissing),  # z is in no equation
])
def test_screen_raises_every_error_itself(names, rows, model_text, error):
    model = parse_model(model_text) if model_text else None
    with pytest.raises(error):
        screen(Dataset(names, rows), model=model)
