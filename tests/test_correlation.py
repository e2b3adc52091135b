"""Pearson matrices, correlation-file ingestion, and strength labels."""

import copy
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtrek import correlation, numeric
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
    x = study_dataset.rows
    z = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
    assert np.abs(study_dataset._z - z).max() < 1e-12
    gram = z.T @ z / (len(z) - 1)
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


@pytest.mark.parametrize("build", [lambda: CorrelationMatrix(NAMES, OBSERVED_R, N_OBS),
                                   lambda: k20_corr()], ids=["study", "k20-n5000"])
def test_copies_and_pickles_leave_the_cache_behind(build):
    fresh, corr = build(), build()
    before = pickle.dumps(corr)
    corr.p_rows, corr.r, corr.p  # noqa: B018 - builds the cache
    assert {"p_rows", "r", "p"} <= corr.__dict__.keys()
    assert pickle.dumps(corr) == before == pickle.dumps(fresh)
    for other in (copy.copy(corr), copy.deepcopy(corr), pickle.loads(before)):
        assert other.__dict__.keys() == fresh.__dict__.keys()
        assert other == corr
        assert [[x.hex() for x in row] for row in other.r_rows] == \
            [[x.hex() for x in row] for row in corr.r_rows]
        assert other.p_rows == corr.p_rows


def k20_corr():
    gen = np.random.default_rng(20261020)
    return CorrelationMatrix([f"v{i}" for i in range(20)],
                             np.corrcoef(gen.standard_normal((60, 20)), rowvar=False), 5000)


@pytest.mark.parametrize("build", [k20_corr, lambda: CorrelationMatrix(NAMES, OBSERVED_R, N_OBS)],
                         ids=["k20-n5000", "study"])
def test_p_rows_equal_the_p_value_of_each_cell(build):
    # p_rows runs from an empty t-tail cache, each reference call after it
    numeric._t_constants.cache_clear()
    corr = build()
    for i, (r_row, p_row) in enumerate(zip(corr.r_rows, corr.p_rows)):
        assert p_row[i] == 1.0
        for j, (r, p) in enumerate(zip(r_row, p_row)):
            if j != i:
                assert p.hex() == correlation_p_value(r, corr.n).hex(), (i, j)


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


@pytest.mark.parametrize("text,line", [('""\n', 1), (" \n", 1), ('\n""\n', 2), (" \na,1\n", 1)],
                         ids=["quoted-empty", "space", "after-blank-line", "with-rows"])
def test_header_that_names_no_variable_is_a_parse_error(tmp_path, text, line):
    # a 0 x 0 table would otherwise reach the Cholesky factor, whose error names no file
    path = tmp_path / "noheader.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_correlation_csv(path, 100)
    assert str(exc.value) == f"{path}: line {line}: empty header, no variable names"


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


@pytest.mark.parametrize("names", [("a", "a", "b"), ("", "b"), ()],
                         ids=["repeated", "blank", "none"])
def test_direct_rejects_names_it_cannot_index(names):
    r = np.eye(len(names))
    with pytest.raises(ParseError, match="variable names must be unique and nonempty"):
        CorrelationMatrix(names, r, 50)
    with pytest.raises(ParseError, match="variable names must be unique and nonempty"):
        Dataset(names, np.random.default_rng(3).normal(size=(5, len(names))))


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


def reference_check_correlations(r):
    """correlation._check_correlations as it was before its checks shared one
    walk: one pass per check, in order of precedence, then the repaired cells."""
    if not all(math.isfinite(x) for row in r for x in row):
        raise OutOfRange("correlations must be finite")
    k = len(r)
    worst = max((abs(r[i][j]) for i in range(k) for j in range(k) if i != j),
                default=0.0)
    if worst > 1.0 + 1e-12:
        raise OutOfRange(f"correlation {worst!r} outside [-1, 1]")
    asym = max((abs(r[i][j] - r[j][i]) for i in range(k) for j in range(i + 1, k)),
               default=0.0)
    if asym > ASYMMETRY_LIMIT:
        raise AsymmetryTooLarge(f"max asymmetry {asym:.3e} exceeds {ASYMMETRY_LIMIT}")
    diag_dev = max((abs(r[i][i] - 1.0) for i in range(k)), default=0.0)
    if diag_dev > DIAGONAL_LIMIT:
        raise DiagonalNotOne(f"diagonal deviates from 1 by {diag_dev:.3e}")
    return tuple(tuple(1.0 if i == j else min(1.0, max(-1.0, (r[i][j] + r[j][i]) / 2.0))
                       for j in range(k)) for i in range(k))


def _check_outcome(check, r):
    """The cells check returns, as float.hex, or the type and message it raises."""
    try:
        return [[x.hex() for x in row] for row in check(numeric.float_rows(r))]
    except (OutOfRange, AsymmetryTooLarge, DiagonalNotOne) as exc:
        return type(exc), str(exc)


def _near_symmetric(gen, k):
    """A sample correlation table of order k, each lower cell moved by up to
    0.9 ASYMMETRY_LIMIT and each diagonal cell by up to 0.9 DIAGONAL_LIMIT,
    with cells at +-1, just past +-1, -0.0, a 0.0 / -0.0 pair and an
    asymmetry just under the limit planted where k leaves room."""
    r = np.corrcoef(gen.standard_normal((k + 5, k)), rowvar=False).reshape(k, k)
    r += np.tril(gen.uniform(-0.9, 0.9, (k, k)) * ASYMMETRY_LIMIT, -1)
    r[np.diag_indices(k)] += gen.uniform(-0.9, 0.9, k) * DIAGONAL_LIMIT
    planted = [(1.0, 1.0), (-1.0, -1.0 + 0.9 * ASYMMETRY_LIMIT), (1.0 + 1e-13, 1.0),
               (-1.0 - 1e-13, -1.0 - 1e-13), (-0.0, -0.0), (0.0, -0.0),
               (0.25, 0.25 + 0.999 * ASYMMETRY_LIMIT), (-0.5, -0.5 - 0.999 * ASYMMETRY_LIMIT)]
    cells = [(i, j) for i in range(k) for j in range(i + 1, k)]
    for (i, j), (upper, lower) in zip(gen.permutation(cells), planted):
        r[i, j], r[j, i] = upper, lower
    return r


@pytest.mark.parametrize("k", range(1, 21))
def test_check_equals_the_multi_pass_reference_bit_for_bit(k):
    gen = np.random.default_rng(4620 + k)
    for _ in range(5):
        r = _near_symmetric(gen, k)
        expected = _check_outcome(reference_check_correlations, r)
        assert isinstance(expected, list)  # every planted cell is within the limits
        assert _check_outcome(correlation._check_correlations, r) == expected


_FAULTS = {  # each breaks one rule at cell (i, j) of a table
    "non-finite": lambda r, i, j: r.__setitem__((j, i), np.nan),
    "infinite": lambda r, i, j: r.__setitem__((i, j), -np.inf),
    "out of range": lambda r, i, j: r.__setitem__(((i, j), (j, i)), (1.5, 1.5)),
    "asymmetric": lambda r, i, j: r.__setitem__((i, j), r[j, i] + 1e-3),
    "off diagonal": lambda r, i, j: r.__setitem__((i, i), 1.0 + 1e-6),
}


@pytest.mark.parametrize("first,second", [
    ("non-finite", "out of range"), ("infinite", "out of range"),
    ("out of range", "asymmetric"), ("asymmetric", "off diagonal"),
    ("non-finite", "asymmetric"), ("out of range", "off diagonal"),
])
@pytest.mark.parametrize("first_at,second_at", [((0, 1), (4, 5)), ((4, 5), (0, 1)),
                                                ((1, 3), (1, 4)), ((2, 5), (0, 2))])
def test_check_of_a_table_breaking_two_rules_raises_as_the_reference(
        first, second, first_at, second_at):
    r = np.corrcoef(np.random.default_rng(4641).standard_normal((20, 6)), rowvar=False)
    _FAULTS[first](r, *first_at)
    _FAULTS[second](r, *second_at)
    expected = _check_outcome(reference_check_correlations, r)
    assert not isinstance(expected, list)
    assert _check_outcome(correlation._check_correlations, r) == expected


def _build_direct(n):
    return CorrelationMatrix(("a", "b"), [[1.0, 0.5], [0.5, 1.0]], n)


def _build_loaded(n, tmp_path):
    path = tmp_path / "n.csv"
    path.write_text(",a,b\na,1,0.5\nb,0.5,1\n", encoding="utf-8")
    return load_correlation_csv(path, n)


@pytest.mark.parametrize("build", ["direct", "loader"])
@pytest.mark.parametrize("n", [3, 240, 240.0, np.int64(240), np.float64(240.0),
                               pytest.param(2**53, id="2**53")])
def test_sample_size_stored_as_int(build, n, tmp_path):
    corr = _build_direct(n) if build == "direct" else _build_loaded(n, tmp_path)
    assert corr.n == n and type(corr.n) is int


@pytest.mark.parametrize("build", ["direct", "loader"])
@pytest.mark.parametrize("n", [2, 0, -240, 240.5, float("nan"), float("inf"), True, "240", None,
                               pytest.param(10**400, id="1e400"),
                               pytest.param(-10**400, id="-1e400")])
def test_sample_size_rejected(build, n, tmp_path):
    with pytest.raises(ValueError, match="sample size must be a whole number >= 3"):
        _build_direct(n) if build == "direct" else _build_loaded(n, tmp_path)


@pytest.mark.parametrize("n", [2**53 + 1, 1e155, 10**155, 1.7e308],
                         ids=["2**53+1", "1e155", "10**155", "1.7e308"])
def test_sample_size_above_2_53_rejected(n):
    # beyond 2**53, n - 2 (the t tests' df) is no longer an exact float
    with pytest.raises(ValueError, match="sample size must be a whole number >= 3 and at "
                                         "most 2\\*\\*53"):
        _build_direct(n)
    with pytest.raises(ValueError, match="at most 2\\*\\*53"):
        SimulationSpec(model=None, n=n, seed=1)


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
