"""Pearson matrices, correlation-file ingestion, and strength labels."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtrek import correlation
from pathtrek.correlation import (
    ASYMMETRY_LIMIT,
    DIAGONAL_LIMIT,
    CorrelationMatrix,
    StrengthLabel,
    classify_strength,
    correlation_csv,
    correlation_p_value,
    load_correlation_csv,
    pearson_matrix,
)
from pathtrek.data import Dataset
from pathtrek.errors import (
    AsymmetryTooLarge,
    DataWarning,
    DiagonalNotOne,
    NotSquare,
    OutOfRange,
    ParseError,
    ZeroVariance,
)
from pathtrek.estimation import fit_standardized
from pathtrek.screening import screen
from pathtrek.simulate import SimulationSpec, recovery_check

from conftest import DATA_DIR, NAMES, N_OBS, OBSERVED_R, exact_corr_scores


@pytest.fixture(scope="module")
def study_dataset():
    return Dataset(NAMES, exact_corr_scores(OBSERVED_R, N_OBS, seed=808))


def test_pearson_reproduces_study_values(study_dataset):
    corr = pearson_matrix(study_dataset)
    assert corr.n == 240
    assert corr.value("X1", "X2") == pytest.approx(0.531, abs=1e-9)
    assert corr.p_rows[0][1] < 0.001
    assert np.abs(corr.r - OBSERVED_R).max() < 1e-9


def test_pearson_self_correlation(study_dataset):
    corr = pearson_matrix(study_dataset)
    assert np.array_equal(np.diag(corr.r), np.ones(5))


def test_pearson_perfect_anticorrelation():
    d = Dataset(("a", "b"), np.array([[0.0, 0.0], [1.0, -1.0], [2.0, -2.0]]))
    assert pearson_matrix(d).value("a", "b") == pytest.approx(-1.0)


def test_pearson_zero_variance():
    d = Dataset(("a", "b"), np.array([[1.0, 2.0], [2.0, 2.0], [3.0, 2.0]]))
    with pytest.raises(ZeroVariance):
        pearson_matrix(d)


def test_pearson_needs_two_columns():
    d = Dataset(("a",), np.array([[1.0], [2.0], [3.0]]))
    with pytest.raises(ValueError):
        pearson_matrix(d)


def test_pearson_affine_invariance(study_dataset):
    base = pearson_matrix(study_dataset).r
    scaled = Dataset(NAMES, study_dataset.rows * 3.5 + 12.0)
    assert np.abs(pearson_matrix(scaled).r - base).max() < 1e-12
    flipped_rows = study_dataset.rows.copy()
    flipped_rows[:, 0] *= -1.0
    flipped = pearson_matrix(Dataset(NAMES, flipped_rows)).r
    expected = base.copy()
    expected[0, 1:] *= -1.0
    expected[1:, 0] *= -1.0
    assert np.abs(flipped - expected).max() < 1e-12


def test_pearson_matches_crossproduct_of_standardized(study_dataset):
    from pathtrek.data import standardize

    z = standardize(study_dataset)
    gram = z.rows.T @ z.rows / (z.n - 1)
    assert np.abs(pearson_matrix(study_dataset).r - gram).max() < 1e-12


def test_pearson_positive_semidefinite(study_dataset):
    eigs = np.linalg.eigvalsh(pearson_matrix(study_dataset).r)
    assert eigs.min() >= -1e-8


# ---------------------------------------------------------------------------
# p-values follow from r and n, computed once and only when read

def _count_p_value_calls(monkeypatch):
    calls = []
    real = correlation.correlation_p_value
    monkeypatch.setattr(correlation, "correlation_p_value",
                        lambda r, n: calls.append((r, n)) or real(r, n))
    return calls


def test_p_rows_computed_on_first_read_only(monkeypatch):
    calls = _count_p_value_calls(monkeypatch)
    corr = CorrelationMatrix(NAMES, OBSERVED_R, N_OBS)
    assert calls == []
    first = corr.p_rows
    assert len(calls) == 5 * 4 // 2
    assert corr.p_rows is first
    assert len(calls) == 5 * 4 // 2


def test_p_value_of_a_nan_correlation_raises():
    # the t tail rejects a NaN t at once rather than running its continued fraction out
    with pytest.raises(ValueError, match="NaN"):
        correlation_p_value(math.nan, 240)


def test_estimates_compute_no_correlation_tails(monkeypatch, study_dataset, revised_refit):
    calls = _count_p_value_calls(monkeypatch)
    fit_standardized(pearson_matrix(study_dataset), revised_refit.model)
    recovery_check(SimulationSpec(model=revised_refit.annotated_model(), n=500, seed=3),
                   tolerance=1.0)
    screen(study_dataset, model=revised_refit.model)
    assert calls == []


# ---------------------------------------------------------------------------
# correlation CSV

def test_load_study_correlation_file():
    corr = load_correlation_csv("data/observed_correlations.csv", 240)
    assert corr.variables == NAMES
    off_diagonal = {
        round(float(corr.r[i, j]), 3)
        for i in range(5)
        for j in range(i + 1, 5)
    }
    assert off_diagonal == {
        0.531, 0.514, 0.466, 0.512, 0.420, 0.435, 0.520, 0.431, 0.482, 0.881,
    }
    assert corr.p_rows[0][1] < 0.001
    assert np.linalg.eigvalsh(corr.r).min() >= -1e-8


def test_load_correlation_skips_a_byte_order_mark(tmp_path):
    plain = DATA_DIR / "observed_correlations.csv"
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    with_bom, without = load_correlation_csv(path, 240), load_correlation_csv(plain, 240)
    assert with_bom.variables == without.variables == NAMES
    assert with_bom.r_rows == without.r_rows


def test_load_correlation_asymmetric(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",a,b\na,1,0.5\nb,0.6,1\n", encoding="utf-8")
    with pytest.raises(AsymmetryTooLarge):
        load_correlation_csv(path, 100)


def test_load_correlation_identity(tmp_path):
    path = tmp_path / "id.csv"
    path.write_text(",a,b\na,1,0\nb,0,1\n", encoding="utf-8")
    corr = load_correlation_csv(path, 100)
    assert corr.value("a", "b") == 0.0
    assert corr.p_rows[0][1] == 1.0


def test_load_correlation_bad_diagonal(tmp_path):
    path = tmp_path / "diag.csv"
    path.write_text(",a,b\na,1.001,0\nb,0,1\n", encoding="utf-8")
    with pytest.raises(DiagonalNotOne):
        load_correlation_csv(path, 100)


def test_load_correlation_not_square(tmp_path):
    path = tmp_path / "rect.csv"
    path.write_text(",a,b,c\na,1,0,0\nb,0,1,0\n", encoding="utf-8")
    with pytest.raises(NotSquare):
        load_correlation_csv(path, 100)


def test_load_correlation_averages_tiny_asymmetry(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(
        ",a,b\na,1,0.5000000001\nb,0.4999999999,1\n", encoding="utf-8"
    )
    corr = load_correlation_csv(path, 50)
    assert corr.value("a", "b") == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(corr.r, corr.r.T)


def test_load_correlation_non_finite(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text(",a,b\na,1,nan\nb,nan,1\n", encoding="utf-8")
    with pytest.raises(OutOfRange, match=f"{path}: correlations must be finite"):
        load_correlation_csv(path, 100)


@pytest.mark.parametrize("text,error,message", [
    ("", ParseError, "empty file"),
    (",a,a\na,1,0\na,0,1\n", ParseError, "header names must be unique and nonempty"),
    (",a,\na,1,0\n,0,1\n", ParseError, "header names must be unique and nonempty"),
    (",a,b\na,1,0\nb,0\n", NotSquare, "row 3 has 2 cells, expected 3"),
    (",a,b\na,1,0\nc,0,1\n", ParseError, "row label 'c' does not match header 'b'"),
    (",a,b\na,1,x\nb,x,1\n", ParseError, "row 2: could not convert string to float: 'x'"),
], ids=["empty", "duplicate-name", "blank-name", "short-row", "wrong-label", "bad-cell"])
def test_load_correlation_rejects_malformed_table(tmp_path, text, error, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as exc:
        load_correlation_csv(path, 100)
    assert str(exc.value) == f"{path}: {message}"


def test_malformed_row_named_by_its_file_line(tmp_path):
    # blank lines are skipped but counted: the short row is on line 5
    path = tmp_path / "blank.csv"
    path.write_text("\n,a,b\n\na,1,0\nb,0\n", encoding="utf-8")
    with pytest.raises(NotSquare) as exc:
        load_correlation_csv(path, 100)
    assert str(exc.value) == f"{path}: row 5 has 2 cells, expected 3"


# ---------------------------------------------------------------------------
# direct construction

def _direct(r):
    return CorrelationMatrix(("a", "b"), r, 100)


@pytest.mark.parametrize("r", [[[1.0, 0.0]], [1.0, 0.0]], ids=["one-row", "flat"])
def test_direct_rejects_rows_of_another_shape(r):
    with pytest.raises(NotSquare, match="expected 2x2 matrices"):
        _direct(r)


def test_index_of_an_unknown_name_is_a_key_error():
    with pytest.raises(KeyError):
        _direct([[1.0, 0.5], [0.5, 1.0]]).index("z")


def _assert_symmetric_unit_diagonal(corr):
    assert corr.r_rows[0][1] == corr.r_rows[1][0]
    assert corr.r_rows[0][0] == corr.r_rows[1][1] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_direct_rejects_non_finite(bad):
    with pytest.raises(OutOfRange, match="finite"):
        _direct([[1.0, bad], [bad, 1.0]])


def test_direct_rejects_asymmetry():
    _assert_symmetric_unit_diagonal(_direct([[1.0, 0.5], [0.5 + ASYMMETRY_LIMIT / 2, 1.0]]))
    with pytest.raises(AsymmetryTooLarge):
        _direct([[1.0, 0.5], [0.5 + 2 * ASYMMETRY_LIMIT, 1.0]])


def test_direct_rejects_diagonal_off_one():
    _assert_symmetric_unit_diagonal(_direct([[1.0 + DIAGONAL_LIMIT / 2, 0.5], [0.5, 1.0]]))
    with pytest.raises(DiagonalNotOne):
        _direct([[1.0, 0.5], [0.5, 1.0 - 2 * DIAGONAL_LIMIT]])


def test_direct_accepts_single_variable_and_indefinite():
    CorrelationMatrix(("a",), np.ones((1, 1)), 10)
    # not positive definite, as a loaded table may be: built, not rejected
    r = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    CorrelationMatrix(("a", "b", "c"), r, 10)


def test_direct_rejects_correlation_past_one():
    # within classify_strength's tolerance, and clipped to 1
    assert _direct([[1.0, 1.0 + 1e-13], [1.0 + 1e-13, 1.0]]).value("a", "b") == 1.0
    with pytest.raises(OutOfRange, match=r"correlation 1\.2 outside \[-1, 1\]"):
        _direct([[1.0, 1.2], [1.2, 1.0]])


def test_load_correlation_past_one(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(",a,b\na,1,-1.2\nb,-1.2,1\n", encoding="utf-8")
    with pytest.raises(OutOfRange, match=f"{path}: correlation 1.2 outside"):
        load_correlation_csv(path, 100)


def _build_direct(n):
    return CorrelationMatrix(("a", "b"), [[1.0, 0.5], [0.5, 1.0]], n)


def _build_loaded(n, tmp_path):
    path = tmp_path / "n.csv"
    path.write_text(",a,b\na,1,0.5\nb,0.5,1\n", encoding="utf-8")
    return load_correlation_csv(path, n)


@pytest.mark.parametrize("build", ["direct", "loader"])
@pytest.mark.parametrize("n", [3, 240, 240.0, np.int64(240), np.float64(240.0)])
def test_sample_size_stored_as_int(build, n, tmp_path):
    corr = _build_direct(n) if build == "direct" else _build_loaded(n, tmp_path)
    assert corr.n == n and type(corr.n) is int


@pytest.mark.parametrize("build", ["direct", "loader"])
@pytest.mark.parametrize("n", [2, 0, -240, 240.5, float("nan"), float("inf"), True, "240", None])
def test_sample_size_rejected(build, n, tmp_path):
    with pytest.raises(ValueError, match="sample size must be a whole number >= 3"):
        _build_direct(n) if build == "direct" else _build_loaded(n, tmp_path)


def test_correlation_csv_roundtrip(tmp_path, observed_corr):
    path = tmp_path / "rt.csv"
    path.write_text(correlation_csv(observed_corr), encoding="utf-8")
    back = load_correlation_csv(path, observed_corr.n)
    assert back.variables == observed_corr.variables
    assert np.array_equal(back.r, observed_corr.r)


# ---------------------------------------------------------------------------
# strength labels

@pytest.mark.parametrize("r,label", [
    (0.531, StrengthLabel.LARGE),
    (0.420, StrengthLabel.MEDIUM),
    (-0.2, StrengthLabel.SMALL),
    (0.05, StrengthLabel.NEGLIGIBLE),
    (0.0, StrengthLabel.NEGLIGIBLE),
    (0.1, StrengthLabel.SMALL),
    (0.3, StrengthLabel.MEDIUM),
    (0.5, StrengthLabel.LARGE),
    (-1.0, StrengthLabel.LARGE),
])
def test_classify_strength(r, label):
    assert classify_strength(r) is label


def test_classify_strength_out_of_range():
    with pytest.raises(OutOfRange):
        classify_strength(1.2)
    with pytest.raises(OutOfRange):
        classify_strength(float("nan"))


@given(st.floats(-1, 1), st.floats(-1, 1))
def test_classify_strength_monotone(r1, r2):
    a, b = sorted((abs(r1), abs(r2)))
    order = list(StrengthLabel)
    assert order.index(classify_strength(a)) <= order.index(classify_strength(b))


# ---------------------------------------------------------------------------
# stored floats, ndarray views and the positive-definiteness check

@st.composite
def unit_diagonal_matrices(draw):
    """Symmetric, unit-diagonal k x k cells, k = 1..6: half are Gram matrices of
    random unit vectors in 1..k dimensions (singular below k), half have free
    off-diagonal cells in (-1, 1), often indefinite."""
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        dim = draw(st.integers(1, k))
        raw = np.array(draw(st.lists(st.floats(-1, 1), min_size=k * dim, max_size=k * dim)))
        vectors = raw.reshape(k, dim)
        vectors[np.linalg.norm(vectors, axis=1) < 1e-6] = 1.0  # no zero rows
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        r = (vectors @ vectors.T).clip(-1.0, 1.0)
        r = (r + r.T) / 2.0
    else:
        r = np.eye(k)
        for i in range(k):
            for j in range(i + 1, k):
                r[i, j] = r[j, i] = draw(st.floats(-0.99, 0.99))
    np.fill_diagonal(r, 1.0)
    return r


@settings(max_examples=200, deadline=None)
@given(unit_diagonal_matrices(), st.integers(3, 10_000))
def test_views_are_readonly_arrays_of_the_stored_floats(r, n):
    names = tuple(f"v{i}" for i in range(len(r)))
    corr = CorrelationMatrix(names, r, n)
    assert all(type(x) is float for rows in (corr.r_rows, corr.p_rows)
               for row in rows for x in row)
    for view, rows in ((corr.r, corr.r_rows), (corr.p, corr.p_rows)):
        assert view.dtype == np.float64 and view.shape == (len(r), len(r))
        assert not view.flags.writeable
        assert view.tolist() == [list(row) for row in rows]
    assert corr.r is corr.r  # built once
    k = len(r)
    assert all(corr.p_rows[i][j] == (1.0 if i == j else correlation_p_value(float(r[i, j]), n))
               for i in range(k) for j in range(k))
    assert corr.r.tolist() == r.tolist()
    assert corr.value(names[0], names[-1]) == r[0, -1]
    assert corr.submatrix(names[::-1]) == tuple(tuple(row) for row in r[::-1, ::-1].tolist())


@settings(max_examples=300, deadline=None)
@given(unit_diagonal_matrices())
def test_loader_warns_exactly_when_not_positive_definite(tmp_path_factory, r):
    path = tmp_path_factory.mktemp("pd") / "r.csv"
    path.write_text(correlation_csv(CorrelationMatrix([f"v{i}" for i in range(len(r))], r, 100)),
                    encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        corr = load_correlation_csv(path, 100)
    lam_min = np.linalg.eigvalsh(corr.r)[0]
    warned = [w for w in caught if issubclass(w.category, DataWarning)]
    assert len(warned) == (1 if lam_min <= 0.0 else 0)
    if warned:
        assert f"smallest eigenvalue {lam_min:.3g};" in str(warned[0].message)


def test_loader_warns_on_rank_deficient_matrix_whose_factor_passes(tmp_path):
    # A Gram matrix of six unit vectors in five dimensions: its last Cholesky
    # pivot is 1.6e-12, just above the floor, while eigvalsh gives -8e-17.
    cells = [
        [1.0, 0.479139669900539, -0.42817857529054626, 0.2, -0.24673499275915822,
         0.487869376909045],
        [0.479139669900539, 1.0, 0.18590177250451573, 0.15632946856924362,
         -0.08266894415264381, 0.0],
        [-0.42817857529054626, 0.18590177250451573, 1.0, -0.13924059067931643,
         -0.6375560502887369, 0.1895182592959327],
        [0.2, 0.15632946856924362, -0.13924059067931643, 1.0, 0.052361766952104344,
         0.4472135954999579],
        [-0.24673499275915822, -0.08266894415264381, -0.6375560502887369,
         0.052361766952104344, 1.0, -0.770806096318806],
        [0.487869376909045, 0.0, 0.1895182592959327, 0.4472135954999579,
         -0.770806096318806, 1.0],
    ]
    path = tmp_path / "r.csv"
    path.write_text(correlation_csv(CorrelationMatrix([f"v{i}" for i in range(6)], cells, 100)),
                    encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        corr = load_correlation_csv(path, 100)
    lam_min = np.linalg.eigvalsh(corr.r)[0]
    warned = [w for w in caught if issubclass(w.category, DataWarning)]
    assert lam_min <= 0.0 and len(warned) == 1
    assert f"smallest eigenvalue {lam_min:.3g};" in str(warned[0].message)
