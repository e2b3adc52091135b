"""Special functions and the Cholesky factor, checked against independent
oracles: composite Simpson quadrature of the densities, a power series for
the error function, the Jacobi-theta dual form of the Kolmogorov tail, and
scipy.special where it is installed (a test-only dependency).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathtrek import numeric
from pathtrek.errors import NoConvergence, PathtrekError, SingularMatrix


# ---------------------------------------------------------------------------
# Oracles (stdlib only, independent of the implementations under test).

# Absolute floor for the scipy comparisons, so that their rel= tolerances
# hold for tails far below pytest's default abs=1e-12.  It is not 0: at
# df = 1000, x = 3763.6 chisq_sf_array returns the subnormal 3.185e-315, as mpmath
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
# Scalar reference loops: the same libm calls and the same IEEE steps as the
# array tails, one value at a time, and the t tail as it was written before
# its continued fraction lost its abs() calls and its prefactor gained a
# per-df cache.  The implementations must equal them bit for bit.

def reference_normal_cdf(z):
    if not math.isfinite(z):
        raise ValueError("normal_cdf requires finite z")
    half_tail = 0.5 * math.erfc(abs(z) / math.sqrt(2.0))
    return half_tail if z < 0.0 else 1.0 - half_tail


def reference_chisq_sf(x, df):
    if x == 0.0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    odd = df % 2
    total = math.erfc(math.sqrt(h)) if odd else 0.0
    for j in range(df // 2):
        a = j + 0.5 * odd
        total += math.exp(a * log_h - h - math.lgamma(a + 1.0))
    return min(1.0, total)


def reference_betacf(a, b, x):
    """The incomplete beta's continued fraction as it was written with abs()
    and an int term index (Lentz; Numerical Recipes 6.4), 499 terms."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise NoConvergence(f"unconverged at a={a!r}, b={b!r}, x={x!r}")


def reference_t_sf_two_sided(t, df):
    """The two-sided t tail with its df-only log-gamma terms computed on
    every call."""
    tt = t * t
    if tt == 0.0:
        return 1.0
    x = df / (df + tt)
    if x == 0.0:
        return 0.0
    a = 0.5 * df
    front = math.exp(
        numeric._log_gamma_ratio_half(a) - math.lgamma(0.5)
        - a * math.log1p(tt / df) + 0.5 * (math.log(tt) - math.log(df + tt))
    )
    if x < (a + 1.0) / (a + 2.5):
        return front * reference_betacf(a, 0.5, x) / a
    return 1.0 - 2.0 * front * reference_betacf(0.5, a, tt / (df + tt))


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
    assert float(numeric.normal_cdf_array(0.0)) == 0.5


@pytest.mark.parametrize("z,expected", [(1.96, 0.9750), (-1.0, 0.1587)])
def test_normal_cdf_golden(z, expected):
    assert float(numeric.normal_cdf_array(z)) == pytest.approx(expected, abs=1e-4)
    assert float(numeric.normal_cdf_array(z)) == pytest.approx(phi_oracle(z), abs=1e-9)


@given(st.floats(-8, 8))
def test_normal_cdf_symmetry(z):
    total = float(numeric.normal_cdf_array(z)) + float(numeric.normal_cdf_array(-z))
    assert total == pytest.approx(1.0, abs=1e-12)


@given(st.floats(-8, 8), st.floats(0.001, 2.0))
@settings(max_examples=50)
def test_normal_cdf_monotone(z, dz):
    assert float(numeric.normal_cdf_array(z + dz)) >= float(numeric.normal_cdf_array(z))


def test_normal_cdf_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for z in np.linspace(-8.0, 8.0, 1601):
        assert float(numeric.normal_cdf_array(float(z))) == pytest.approx(
            float(special.ndtr(z)), rel=1e-13, abs=ABS_FLOOR
        )


def test_normal_cdf_range():
    for z in (-40.0, -5.0, 0.3, 5.0, 40.0):
        assert 0.0 <= float(numeric.normal_cdf_array(z)) <= 1.0


@given(st.lists(st.one_of(st.floats(-40.0, 40.0), st.sampled_from([0.0, -0.0])),
                max_size=40))
def test_normal_cdf_array_equals_scalar_reference(zs):
    expected = [reference_normal_cdf(z) for z in zs]
    assert numeric.normal_cdf_array(zs).tolist() == expected


def test_normal_cdf_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            numeric.normal_cdf_array(bad)
        with pytest.raises(ValueError, match="finite"):
            numeric.normal_cdf_array([0.0, bad])


def test_normal_cdf_approx_within_its_bound():
    tiny = np.finfo(np.float64).smallest_subnormal
    z = np.concatenate([np.linspace(-40.0, 40.0, 800_001),
                        [-1e3, 1e3, 0.0, -0.0, tiny, -tiny, 1e-310, -1e-310]])
    error = np.abs(numeric.normal_cdf_approx(z) - numeric.normal_cdf_array(z)).max()
    assert error <= numeric.NORMAL_CDF_APPROX_ERROR
    # screening's KS search keeps every point within twice the bound
    from pathtrek.screening import KS_MARGIN
    assert KS_MARGIN >= 2.0 * numeric.NORMAL_CDF_APPROX_ERROR


def test_normal_cdf_approx_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            numeric.normal_cdf_approx([0.0, bad])


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


def t_tail_outcome(f, t, df):
    """The bits of f(t, df), or the class of the error it raises."""
    try:
        return f(t, df).hex()
    except NoConvergence as exc:
        return type(exc)


# Every df that perfbench's plans produce: n - |P| - 1 for the sample sizes
# its fits and recoveries use and up to 19 parents (n - 2 is a correlation's).
PERFBENCH_DFS = tuple(n - 1 - parents for n in (240, 1000, 2000, 5000, 20000)
                      for parents in range(20))


def t_tail_grid():
    gen = np.random.default_rng(20240533)
    dfs = {1, 2, 3, 4, 5, 10, 37, 38, 39, 40, 41, 42, 100, 238, 10 ** 3, 10 ** 4,
           10 ** 5, 10 ** 6, 10 ** 7, *PERFBENCH_DFS}
    dfs |= set(gen.integers(1, 10 ** 7, 40).tolist())
    dfs |= set(np.unique(np.rint(10.0 ** gen.uniform(0.0, 7.0, 60))).astype(int).tolist())
    ts = [0.0, -0.0, 1e-300, 1e-160, 1e-20, 1e-8, 0.01, 0.5, 1.0, 1.96, 2.0, 5.0, 40.0,
          1e3, 1e8, 1e20, 1e150, 1e300, 1.7976931348623157e308]
    ts += (10.0 ** gen.uniform(-6.0, 2.0, 40)).tolist()
    ts += gen.uniform(0.0, 12.0, 40).tolist()
    grid = [(t, df) for df in sorted(dfs) for t in ts]
    grid += [(-t, df) for t, df in grid[::7]]
    grid += [(float(t), int(df)) for t, df in zip(gen.uniform(0.0, 30.0, 2000),
                                                 gen.integers(1, 400, 2000))]
    return grid


def test_t_sf_equals_reference_bit_for_bit():
    grid = t_tail_grid()
    branches = {"fraction in x": 0, "fraction in 1 - x": 0, "front underflows": 0}
    for t, df in grid:
        assert t_tail_outcome(numeric.t_sf_two_sided, t, df) == \
            t_tail_outcome(reference_t_sf_two_sided, t, df), (t, df)
        tt = t * t
        x = df / (df + tt) if tt else 1.0
        if tt and x:
            a = 0.5 * df
            branches["fraction in x" if x < (a + 1.0) / (a + 2.5) else "fraction in 1 - x"] += 1
            front = (numeric._log_gamma_ratio_half(a) - math.lgamma(0.5) - a * math.log1p(tt / df)
                     + 0.5 * (math.log(tt) - math.log(df + tt)))
            branches["front underflows"] += math.exp(front) == 0.0
    # the grid reaches both continued fractions and a prefactor that underflows
    assert min(branches.values()) > 50, branches


def test_t_sf_rejects_nan_t():
    for df in (1, 10, 4998):
        with pytest.raises(ValueError, match="NaN"):
            numeric.t_sf_two_sided(math.nan, df)


def test_t_sf_rejects_df_that_is_not_a_positive_integer():
    for df in (0, 2.5):
        with pytest.raises(ValueError, match="positive integer"):
            numeric.t_sf_two_sided(1.0, df)


def test_t_sf_infinite_t_is_zero():
    for df in (1, 10, 4998, 10 ** 7):
        assert numeric.t_sf_two_sided(math.inf, df) == 0.0
        assert numeric.t_sf_two_sided(-math.inf, df) == 0.0


def test_t_sf_normal_limit():
    for t in (0.5, 1.0, 1.96, 3.0):
        limit = 2.0 * (1.0 - float(numeric.normal_cdf_array(t)))
        assert numeric.t_sf_two_sided(t, 10 ** 6) == pytest.approx(limit, abs=1e-4)


# ---------------------------------------------------------------------------
# chisq_sf

def test_chisq_sf_at_zero():
    assert float(numeric.chisq_sf_array(0.0, 1)) == 1.0
    assert float(numeric.chisq_sf_array(0.0, 7)) == 1.0


@pytest.mark.parametrize("x,df,expected,tol", [
    (5.991, 2, 0.050, 1e-3),
    (13.816, 2, 0.001, 1e-4),
])
def test_chisq_sf_golden(x, df, expected, tol):
    got = float(numeric.chisq_sf_array(x, df))
    assert got == pytest.approx(expected, abs=tol)
    oracle = simpson(chisq_density(df), x, x + 220.0, 20000)
    assert got == pytest.approx(oracle, abs=1e-7)
    # df=2 tail is exactly exp(-x/2)
    assert got == pytest.approx(math.exp(-x / 2.0), abs=1e-12)


def test_chisq_sf_strictly_decreasing():
    # points scaled with df so tails stay representable in double precision
    for df in (1, 2, 5, 30):
        values = [float(numeric.chisq_sf_array(df * m, df)) for m in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 30, 100, 1000])
def test_chisq_sf_matches_scipy(df):
    special = pytest.importorskip("scipy.special")
    for x in np.linspace(0.01, 6.0 * df + 40.0, 200):
        assert float(numeric.chisq_sf_array(float(x), df)) == pytest.approx(
            float(special.chdtrc(df, x)), rel=1e-12, abs=ABS_FLOOR
        )


def test_chisq_sf_validates():
    with pytest.raises(ValueError):
        numeric.chisq_sf_array(-1.0, 2)
    with pytest.raises(ValueError):
        numeric.chisq_sf_array(1.0, 0)


# x on the tail's whole domain: zeros of both signs, subnormals whose half
# is still nonzero, tiny and large values, and the range around df
SPECIAL_X = (0.0, -0.0, 1e-323, 2.2250738585072014e-308, 1e-300,
             700.0, 1500.0, 3763.6)


@st.composite
def chisq_cases(draw):
    df = draw(st.sampled_from(list(range(1, 31)) + [1000]))
    xs = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_X),
                                 st.floats(0.5 * df, 2.0 * df),
                                 st.floats(0.0, 4000.0),
                                 st.floats(0.0, 1e-300)), max_size=40))
    # the reference fails where x/2 underflows to 0 (see the subnormal test)
    return df, [x for x in xs if x == 0.0 or 0.5 * x > 0.0]


@given(chisq_cases())
@example((1000, [3763.6, 700.0, 1000.0, 1500.0, 0.0, 1e-300]))
@example((7, [-0.0, 1e-323, 7.0, 700.0, 1500.0]))
def test_chisq_sf_array_equals_scalar_reference(case):
    df, xs = case
    expected = [reference_chisq_sf(x, df) for x in xs]
    assert numeric.chisq_sf_array(xs, df).tolist() == expected


@pytest.mark.parametrize("df", [1, 2, 7])
def test_chisq_sf_subnormal_x_is_one(df):
    # x/2 underflows to 0, where the tail is 1, without taking log(0)
    assert float(numeric.chisq_sf_array(5e-324, df)) == 1.0
    assert numeric.chisq_sf_array([5e-324, 0.0], df).tolist() == [1.0, 1.0]


@pytest.mark.parametrize("df", [2, 3, 8])
def test_chisq_sf_infinite_x_is_zero(df):
    # 0 * log(inf) is NaN in the first term; the limit is 0
    assert float(numeric.chisq_sf_array(math.inf, df)) == 0.0
    assert numeric.chisq_sf_array([math.inf, 1.0], df)[0] == 0.0


def test_chisq_sf_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        numeric.chisq_sf_array(math.nan, 3)
    with pytest.raises(ValueError, match="NaN"):
        numeric.chisq_sf_array([1.0, math.nan], 4)


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


def test_kolmogorov_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        numeric.kolmogorov_sf(math.nan)


def test_kolmogorov_monotone_and_bounded():
    values = [numeric.kolmogorov_sf(x) for x in np.linspace(0.0, 3.0, 40)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
