"""Special functions and the Cholesky factor, checked against independent
oracles: composite Simpson quadrature of the densities, a power series for
the error function, the Jacobi-theta dual form of the Kolmogorov tail, and
scipy.special where it is installed (a test-only dependency).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtrek import numeric
from pathtrek.errors import NoConvergence, PathtrekError, SingularMatrix


# ---------------------------------------------------------------------------
# Oracles (stdlib only, independent of the implementations under test).

# Absolute floor for the scipy comparisons, so that their rel= tolerances
# hold for tails far below pytest's default abs=1e-12.  It is not 0: at
# df = 1000, x = 3763.6 chisq_sf returns the subnormal 3.159e-315, as mpmath
# does, and scipy flushes it to 0.
ABS_FLOOR = 1e-300


def simpson(f, a, b, n=4000):
    if n % 2:
        n += 1
    h = (b - a) / n
    total = f(a) + f(b)
    for i in range(1, n):
        total += f(a + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def t_density(df):
    c = math.exp(math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)) / math.sqrt(df * math.pi)
    return lambda x: c * (1.0 + x * x / df) ** (-(df + 1) / 2.0)


def chisq_density(df):
    c = math.exp(-math.lgamma(df / 2.0)) / 2.0 ** (df / 2.0)
    return lambda x: c * x ** (df / 2.0 - 1.0) * math.exp(-x / 2.0)


def erf_series(x):
    total, term = x, x
    for n in range(1, 80):
        term *= -x * x / n
        total += term / (2 * n + 1)
    return 2.0 / math.sqrt(math.pi) * total


def phi_oracle(z):
    return 0.5 + 0.5 * erf_series(z / math.sqrt(2.0))


def kolmogorov_theta_dual(lam):
    """Q(lam) via the Jacobi-transformed theta series (distinct formula)."""
    if lam < 1e-10:
        return 1.0
    total = 0.0
    for j in range(1, 200):
        total += math.exp(-((2 * j - 1) ** 2) * math.pi ** 2 / (8.0 * lam * lam))
    return 1.0 - math.sqrt(2.0 * math.pi) / lam * total


# ---------------------------------------------------------------------------
# inverse_factor: W = L^-1, so a^-1 = W^T W and a x = b is x = W^T (W b)

def solve(a, b):
    w = np.array(numeric.inverse_factor(a))
    return w.T @ (w @ np.asarray(b, dtype=float))


def random_correlation_block(gen, order):
    """Sample correlations of order + 20 rows of a Gaussian chain (condition < 1e3)."""
    x = gen.standard_normal((order + 20, order))
    x[:, 1:] += 0.8 * x[:, :-1]
    return np.corrcoef(x, rowvar=False).reshape(order, order)


def test_solve_identity():
    assert numeric.inverse_factor([[1, 0], [0, 1]]) == [[1.0, 0.0], [0.0, 1.0]]
    assert solve([[1, 0], [0, 1]], [3, 4]).tolist() == [3.0, 4.0]


def test_solve_correlation_block():
    # Cramer's rule oracle for the 2x2 system
    a, b = 0.531, (0.514, 0.420)
    det = 1 - a * a
    expected = ((b[0] - a * b[1]) / det, (b[1] - a * b[0]) / det)
    got = solve([[1, a], [a, 1]], b).tolist()
    assert got == pytest.approx(expected, abs=1e-14)
    assert got == pytest.approx((0.405, 0.204), abs=1e-3)


def test_solve_singular():
    with pytest.raises(SingularMatrix, match="not positive definite"):
        numeric.inverse_factor([[1, 1], [1, 1]])


def test_solve_rejects_bad_shapes():
    with pytest.raises(ValueError):
        numeric.inverse_factor([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        numeric.inverse_factor([[math.nan, 0], [0, 1]])


def test_solve_residual_bound_random_systems():
    gen = np.random.default_rng(20240901)
    for _ in range(1000):
        order = int(gen.integers(1, 11))
        a = random_correlation_block(gen, order)
        b = gen.uniform(-10, 10, order)
        x = solve(a, b)
        resid = np.abs(a @ x - b).max()
        assert resid <= 1e-10 * (1.0 + np.abs(b).max())


def test_invert_roundtrip():
    gen = np.random.default_rng(7)
    for _ in range(50):
        order = int(gen.integers(1, 17))
        a = random_correlation_block(gen, order)
        w = np.array(numeric.inverse_factor(a))
        assert not np.triu(w, 1).any()
        inv = np.linalg.inv(a)
        assert np.abs(w.T @ w - inv).max() <= 1e-12 * np.abs(inv).max()


def test_invert_singular():
    # a duplicated variable: positive semidefinite, last pivot ~0
    with pytest.raises(SingularMatrix):
        numeric.inverse_factor([[1, 0.5, 0.5], [0.5, 1, 1], [0.5, 1, 1]])


def test_inverse_factor_rejects_indefinite():
    # every 2x2 minor is a valid correlation block; the smallest eigenvalue is -0.8
    with pytest.raises(SingularMatrix, match="not positive definite"):
        numeric.inverse_factor([[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]])


# ---------------------------------------------------------------------------
# normal_cdf

def test_normal_cdf_center():
    assert numeric.normal_cdf(0.0) == 0.5


@pytest.mark.parametrize("z,expected", [(1.96, 0.9750), (-1.0, 0.1587)])
def test_normal_cdf_golden(z, expected):
    assert numeric.normal_cdf(z) == pytest.approx(expected, abs=1e-4)
    assert numeric.normal_cdf(z) == pytest.approx(phi_oracle(z), abs=1e-9)


@given(st.floats(-8, 8))
def test_normal_cdf_symmetry(z):
    assert numeric.normal_cdf(z) + numeric.normal_cdf(-z) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(-8, 8), st.floats(0.001, 2.0))
@settings(max_examples=50)
def test_normal_cdf_monotone(z, dz):
    assert numeric.normal_cdf(z + dz) >= numeric.normal_cdf(z)


def test_normal_cdf_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for z in np.linspace(-8.0, 8.0, 1601):
        assert numeric.normal_cdf(float(z)) == pytest.approx(
            float(special.ndtr(z)), rel=1e-13, abs=ABS_FLOOR
        )


def test_normal_cdf_range():
    for z in (-40.0, -5.0, 0.3, 5.0, 40.0):
        assert 0.0 <= numeric.normal_cdf(z) <= 1.0


# ---------------------------------------------------------------------------
# t_sf_two_sided

def test_t_sf_center():
    assert numeric.t_sf_two_sided(0.0, 1) == 1.0
    assert numeric.t_sf_two_sided(0.0, 1000) == 1.0


def test_t_sf_golden():
    oracle = 2.0 * simpson(t_density(10), 2.0, 60.0, 8000)
    got = numeric.t_sf_two_sided(2.0, 10)
    assert got == pytest.approx(0.0734, abs=1e-3)
    assert got == pytest.approx(oracle, abs=1e-8)


def test_t_sf_extreme():
    assert numeric.t_sf_two_sided(9.67, 238) < 1e-15


def test_t_sf_monotone_in_t():
    values = [numeric.t_sf_two_sided(t, 17) for t in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)]
    assert values == sorted(values, reverse=True)


@pytest.mark.parametrize("df", [1, 2, 5, 10, 30, 100, 238, 1000, 20000])
def test_t_sf_matches_scipy(df):
    # df = 2*10^4 is every correlation p-value of a 2*10^4-row dataset; there
    # the prefactor must come from t and a Stirling-series log-gamma ratio
    special = pytest.importorskip("scipy.special")
    for t in np.linspace(0.01, 12.0, 200):
        assert numeric.t_sf_two_sided(float(t), df) == pytest.approx(
            float(2.0 * special.stdtr(df, -t)), rel=1e-11, abs=ABS_FLOOR
        )


def test_t_sf_unconverged_fraction_raises(monkeypatch):
    # 2 terms cannot reach the 1e-15 stopping rule at t = 2, df = 10
    monkeypatch.setattr(numeric, "_MAX_ITER", 3)
    with pytest.raises(NoConvergence, match=r"a=5\.0, b=0\.5, x=0\.714") as exc:
        numeric.t_sf_two_sided(2.0, 10)
    assert isinstance(exc.value, PathtrekError)


def test_t_sf_normal_limit():
    for t in (0.5, 1.0, 1.96, 3.0):
        limit = 2.0 * (1.0 - numeric.normal_cdf(t))
        assert numeric.t_sf_two_sided(t, 10 ** 6) == pytest.approx(limit, abs=1e-4)


# ---------------------------------------------------------------------------
# chisq_sf

def test_chisq_sf_at_zero():
    assert numeric.chisq_sf(0.0, 1) == 1.0
    assert numeric.chisq_sf(0.0, 7) == 1.0


@pytest.mark.parametrize("x,df,expected,tol", [
    (5.991, 2, 0.050, 1e-3),
    (13.816, 2, 0.001, 1e-4),
])
def test_chisq_sf_golden(x, df, expected, tol):
    got = numeric.chisq_sf(x, df)
    assert got == pytest.approx(expected, abs=tol)
    oracle = simpson(chisq_density(df), x, x + 220.0, 20000)
    assert got == pytest.approx(oracle, abs=1e-7)
    # df=2 tail is exactly exp(-x/2)
    assert got == pytest.approx(math.exp(-x / 2.0), abs=1e-12)


def test_chisq_sf_strictly_decreasing():
    # points scaled with df so tails stay representable in double precision
    for df in (1, 2, 5, 30):
        values = [numeric.chisq_sf(df * m, df) for m in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 30, 100, 1000])
def test_chisq_sf_matches_scipy(df):
    special = pytest.importorskip("scipy.special")
    for x in np.linspace(0.01, 6.0 * df + 40.0, 200):
        assert numeric.chisq_sf(float(x), df) == pytest.approx(
            float(special.chdtrc(df, x)), rel=1e-12, abs=ABS_FLOOR
        )


def test_chisq_sf_validates():
    with pytest.raises(ValueError):
        numeric.chisq_sf(-1.0, 2)
    with pytest.raises(ValueError):
        numeric.chisq_sf(1.0, 0)


# ---------------------------------------------------------------------------
# kolmogorov_sf

def test_kolmogorov_limits():
    assert numeric.kolmogorov_sf(0.0) == 1.0
    assert numeric.kolmogorov_sf(10.0) < 1e-12


def test_kolmogorov_golden():
    got = numeric.kolmogorov_sf(1.36)
    assert got == pytest.approx(0.049, abs=2e-3)
    assert got == pytest.approx(kolmogorov_theta_dual(1.36), abs=1e-9)


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8, 1.0, 1.5, 2.0])
def test_kolmogorov_matches_dual_form(lam):
    assert numeric.kolmogorov_sf(lam) == pytest.approx(
        kolmogorov_theta_dual(lam), abs=1e-6
    )


def test_kolmogorov_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for lam in np.linspace(0.001, 3.0, 600):
        assert numeric.kolmogorov_sf(float(lam)) == pytest.approx(
            float(special.kolmogorov(lam)), rel=1e-12, abs=1e-15
        )


def test_kolmogorov_monotone_and_bounded():
    values = [numeric.kolmogorov_sf(x) for x in np.linspace(0.0, 3.0, 40)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
