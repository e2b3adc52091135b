"""Special functions and the one dense factorization.

The tail probabilities are built on the C library's lgamma, erfc, exp and
log (via math): the normal tail is erfc, the chi-squared tail a finite sum
for its integer df, the t tail a continued fraction for the incomplete
beta, and the Kolmogorov tail a theta series.  The t tail is the one
evaluated per correlation pair and per arrow, so what depends on df alone
comes from one cached lookup per df: its constants and the two tables of
x-free factors its continued fractions read, each grown only as far as a
fraction has run, so the fraction's loop runs only the recurrences in x
and calls no builtin; all of it keeps every bit of the plain form that
tests/test_numeric.py keeps as its reference.  Screening evaluates the
normal and chi-squared tails over arrays: `normal_cdf_array` and
`chisq_sf_array` do the correctly rounded steps (abs, division, products,
sums, sqrt, min, sign branch) in numpy and map libm's erfc, exp and log
from math over the elements, since numpy's SIMD kernels may differ from
libm in the last bit.  They are the only definitions of those tails (one
value is a 0-d array), and equal the scalar loops in tests/test_numeric.py
byte for byte.  `normal_cdf_approx`, a closed form with a bounded error,
only tells screening where the exact CDF is needed.  numpy loads on their
first use, so code that needs only the t tail does not import it.  Every matrix
factored is a symmetric correlation block of order <= ~20, so one Cholesky
factor in plain floats serves every solve, inverse diagonal, quadratic
form and positive-definiteness check, and results are deterministic;
clarity and reproducibility beat speed at that size.  Such matrices are
kept as tuples of floats; `readonly_array` gives library callers their
ndarray view.
"""

import functools
import math
from operator import mul

from .errors import NoConvergence, SingularMatrix

PIVOT_FLOOR = 1e-12


def float_rows(a):
    """A matrix (nested sequences or a 2-D ndarray) as a tuple of float tuples."""
    return tuple(tuple(float(x) for x in row) for row in a)


def readonly_array(rows):
    """Square float rows as a read-only float64 ndarray; numpy loads on first use."""
    import numpy as np

    a = np.array(rows, dtype=np.float64).reshape(len(rows), len(rows))
    a.flags.writeable = False
    return a


def cholesky(a):
    """The lower Cholesky factor L of a symmetric a = L L^T, as lists of floats.

    Only the lower triangle of a is read.  Raises SingularMatrix when a
    pivot falls to PIVOT_FLOOR times its diagonal entry or below, i.e. a is
    not (numerically) positive definite, and ValueError when it is not
    square or holds a non-finite entry.
    """
    m = float_rows(a)
    if not m or any(len(r) != len(m) for r in m):
        raise ValueError("matrix is not square")
    if not all(math.isfinite(x) for r in m for x in r):
        raise ValueError("matrix entries must be finite")
    low = []
    for i in range(len(m)):
        row = []
        for j in range(i):
            row.append((m[i][j] - sum(map(mul, row, low[j]))) / low[j][j])
        pivot = m[i][i] - sum(map(mul, row, row))
        if pivot <= PIVOT_FLOOR * m[i][i]:
            raise SingularMatrix(
                f"not positive definite: pivot {pivot:.3e} in column {i}", i, pivot)
        row.append(math.sqrt(pivot))
        low.append(row)
    return low


def inverse_factor(a):
    """W = L^-1 for the Cholesky factor L of a symmetric a = L L^T.

    Then a^-1 = W^T W: a solve a x = b is x = W^T (W b), [a^-1]_jj is the
    squared norm of column j of W, and b^T a^-1 b = |W b|^2 (Golub & Van
    Loan, Matrix Computations, 4.2).  Raises SingularMatrix as `cholesky`
    does.  Returns W as lists of floats, zero above the diagonal.  W is
    built a column at a time, column j as the list W[j:, j], so that each
    entry's dot product is one `sum(map(mul, ...))` over L's row and that
    column, the terms in the order of a loop over k = j .. i - 1.
    """
    low = cholesky(a)
    columns = []
    for i, row in enumerate(low):
        d = row[i]
        for j, col in enumerate(columns):
            col.append(-sum(map(mul, row[j:i], col)) / d)
        columns.append([1.0 / d])
    return [list(r) for r in zip(*([0.0] * j + col for j, col in enumerate(columns)))]


# ---------------------------------------------------------------------------
# Pieces of the incomplete beta for the t tail (log-gamma from math.lgamma).

_EPS = 1e-15
_MAX_ITER = 500


def _betacf(a, b, x, terms):
    """Continued fraction for the incomplete beta (Lentz).

    Press et al., Numerical Recipes, 6.4.  `terms` is the table of x-free
    factors at (a, b): entry m - 1 is (m(b - m), (a - 1 + 2m)(a + 2m),
    -(a + m)(a + b + m), (a + 2m)(a + 1 + 2m)), the numerator and
    denominator factors of the fraction's two coefficients for term m.  A
    term is appended only when the fraction runs past the table's end, so
    a table is as long as the longest fraction that ran with it.  Each
    coefficient is its numerator factor times x over its denominator
    factor, the same operations in the same order as when they are
    computed in place, so the table changes no bit.  The loop calls no
    builtin: a chained comparison stands for each abs().  Raises
    NoConvergence when _MAX_ITER - 1 terms, as _MAX_ITER reads when the
    fraction runs, leave it unconverged.
    """
    tiny, eps = 1e-300, _EPS
    neg_tiny, neg_eps = -tiny, -eps
    qab = a + b
    qap = a + 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if neg_tiny < d < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    ran = 0
    while True:
        for num_even, den_even, num_odd, den_odd in terms[ran:_MAX_ITER - 1]:
            aa = num_even * x / den_even
            d = 1.0 + aa * d
            if neg_tiny < d < tiny:
                d = tiny
            c = 1.0 + aa / c
            if neg_tiny < c < tiny:
                c = tiny
            d = 1.0 / d
            h *= d * c
            aa = num_odd * x / den_odd
            d = 1.0 + aa * d
            if neg_tiny < d < tiny:
                d = tiny
            c = 1.0 + aa / c
            if neg_tiny < c < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
            if neg_eps < delta - 1.0 < eps:
                return h
        ran = len(terms)
        if ran >= _MAX_ITER - 1:
            raise NoConvergence(
                f"incomplete beta continued fraction unconverged after {_MAX_ITER - 1} "
                f"iterations at a={a!r}, b={b!r}, x={x!r}")
        # term m = ran + 1, its index as a float, whose sums and products
        # are those of the int it stands for
        m = ran + 1.0
        m2 = m + m
        terms.append((m * (b - m), (a - 1.0 + m2) * (a + m2),
                      -(a + m) * (qab + m), (a + m2) * (qap + m2)))


def _log_gamma_ratio_half(a):
    """log Gamma(a + 1/2) - log Gamma(a).

    The two lgamma values are each ~a*log(a), so their difference loses
    digits as a grows.  From a = 20 on it is taken from Stirling's formula
    as (a - 1/2)*log1p(1/(2a)) + log(a + 1/2)/2 - 1/2 + S(a + 1/2) - S(a),
    with S the correction series cut after its z^-9 term (truncation error
    below 1e-17 there).
    """
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)

    def stirling_remainder(z):
        z2 = z * z
        return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0
                - 1.0 / (1188.0 * z2)) / z2) / z2) / z2) / z

    return ((a - 0.5) * math.log1p(0.5 / a) + 0.5 * math.log(a + 0.5) - 0.5
            + stirling_remainder(a + 0.5) - stirling_remainder(a))


@functools.lru_cache(maxsize=64)
def _t_constants(df):
    """The t tail's values that depend on df alone: a = df/2, the part
    log Gamma(a + 1/2) - log Gamma(a) - log Gamma(1/2) of its log
    prefactor, (a + 1)/(a + 2.5), the x below which the continued fraction
    runs in x rather than in 1 - x, and the fraction's tables of x-free
    factors at (a, 1/2) and at (1/2, a), which start empty (`_betacf`)."""
    a = 0.5 * float(df)
    return a, _log_gamma_ratio_half(a) - math.lgamma(0.5), (a + 1.0) / (a + 2.5), [], []


# ---------------------------------------------------------------------------
# Tail probabilities.

def _libm(f, a):
    """f from math over every element of the ndarray a, as a float64 ndarray."""
    import numpy as np

    return np.fromiter(map(f, a.ravel().tolist()), np.float64, a.size).reshape(a.shape)


def _finite(z):
    """z as a float64 ndarray; ValueError when an element is not finite."""
    import numpy as np

    z = np.asarray(z, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("normal_cdf_array requires finite z")
    return z


def normal_cdf_array(z):
    """Standard normal CDF of every element of z, as a float64 ndarray.

    Built on the half tail 0.5 * erfc(|z| / sqrt(2)) so that
    Phi(z) + Phi(-z) == 1 holds by construction.  Raises ValueError when
    an element is not finite.
    """
    import numpy as np

    z = _finite(z)
    half_tail = 0.5 * _libm(math.erfc, np.abs(z) / math.sqrt(2.0))
    return np.where(z < 0.0, half_tail, 1.0 - half_tail)


NORMAL_CDF_APPROX_ERROR = 7.5e-8  # bound on |normal_cdf_approx - normal_cdf_array|
_AS_7_1_26 = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)


def normal_cdf_approx(z):
    """Standard normal CDF of every element of z within NORMAL_CDF_APPROX_ERROR.

    Abramowitz & Stegun (1964) 7.1.26 give erfc(x) = t(a1 + t(a2 + t(a3 +
    t(a4 + t a5)))) e^(-x^2) + e, t = 1/(1 + 0.3275911 x), |e| <= 1.5e-7 for
    x >= 0, and the half tail halves that error.  All of it runs in numpy,
    in place where it can, with |z| clipped at 40, where the tail is 0 in
    float64 anyway.  It locates where the exact normal_cdf_array can
    matter (screening's KS statistic) and is never itself a result.
    Raises ValueError as normal_cdf_array does.
    """
    import numpy as np

    z = _finite(z)
    x = np.minimum(np.abs(z), 40.0)
    x /= math.sqrt(2.0)
    t = 1.0 / (1.0 + 0.3275911 * x)
    half_tail = _AS_7_1_26[-1] * t
    for a in reversed(_AS_7_1_26[:-1]):
        half_tail += a
        half_tail *= t
    x *= -x
    half_tail *= np.exp(x, out=x)
    half_tail *= 0.5
    return np.where(z < 0.0, half_tail, 1.0 - half_tail)


def chisq_sf_array(x, df):
    """Chi-squared upper tail with df degrees of freedom at every element of x.

    For integer df the tail is a finite sum (Abramowitz & Stegun 1964,
    26.4): with h = x/2, sum_{j < df/2} e^-h h^j / j! for even df, and
    erfc(sqrt(h)) + sum_{j < (df-1)/2} e^-h h^(j+1/2) / Gamma(j + 3/2) for
    odd df.  Each term is exp(a log h - h - lgamma(a + 1)), so none
    underflows before it is added.  The limits are taken where h = 0 (x = 0,
    or a subnormal x whose half underflows) and where x = inf.  Returns a
    float64 ndarray; raises ValueError for an element below 0 or NaN.
    """
    import numpy as np

    if df < 1 or int(df) != df:
        raise ValueError("df must be a positive integer")
    x = np.asarray(x, dtype=np.float64)
    if not (x >= 0.0).all():
        raise ValueError("chisq_sf_array requires x >= 0, not NaN")
    df = int(df)
    h = 0.5 * x
    out = np.where(h == 0.0, 1.0, 0.0)
    inside = (h > 0.0) & (h < math.inf)
    h = h[inside]
    log_h = _libm(math.log, h)
    odd = df % 2
    total = _libm(math.erfc, np.sqrt(h)) if odd else np.zeros_like(h)
    for j in range(df // 2):
        a = j + 0.5 * odd
        total += _libm(math.exp, a * log_h - h - math.lgamma(a + 1.0))
    out[inside] = np.minimum(1.0, total)
    return out


def t_sf_two_sided(t, df):
    """Two-sided tail probability of Student's t with df degrees of freedom.

    The tail is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df/(df + t^2).  Its prefactor takes log x = -log1p(t^2/df) and
    log(1 - x) from t rather than from the rounded x, which sits near 1 at
    large df.  The values that depend on df alone, the continued
    fraction's tables among them, come from one cached lookup
    (`_t_constants`); the log-gamma part is the first difference in the
    sum either way, so the cache changes no bit.  Raises ValueError
    for a NaN t or a df that is not a positive integer (a bool is not one,
    though True == 1); an infinite t has tail 0.
    """
    # checked before the lookup: True and 1 are one key of the cache
    if isinstance(df, bool) or df < 1 or int(df) != df:
        raise ValueError("df must be a positive integer")
    tt = t * t
    if not tt > 0.0:
        if tt == 0.0:
            return 1.0
        raise ValueError("t must not be NaN")
    x = df / (df + tt)
    if x == 0.0:
        return 0.0
    a, log_front, threshold, terms_in_x, terms_in_1mx = _t_constants(df)
    front = math.exp(
        log_front - a * math.log1p(tt / df) + 0.5 * (math.log(tt) - math.log(df + tt))
    )
    if x < threshold:
        return front * _betacf(a, 0.5, x, terms_in_x) / a
    return 1.0 - 2.0 * front * _betacf(0.5, a, tt / (df + tt), terms_in_1mx)


def kolmogorov_sf(d_scaled):
    """Asymptotic Kolmogorov tail Q(lambda) = 2 sum_j (-1)^(j-1) exp(-2 j^2 lambda^2).

    Argument is the scaled statistic sqrt(n)*D.  Below lambda = 1 that
    alternating series converges slowly and cancels, so Q = 1 - K is taken
    from the theta-function form K = sqrt(2 pi)/lambda sum_j
    exp(-(2j-1)^2 pi^2 / (8 lambda^2)) (Marsaglia, Tsang & Wang 2003).
    Either sum is cut off once terms drop below 1e-12; clamped to [0, 1].
    """
    if not d_scaled >= 0.0:
        raise ValueError("kolmogorov_sf requires d_scaled >= 0, not NaN")
    lam2 = d_scaled * d_scaled
    if lam2 < 1e-12:
        return 1.0
    total = 0.0
    if d_scaled < 1.0:
        for j in range(1, 1001):
            term = math.exp(-((2 * j - 1) ** 2) * math.pi ** 2 / (8.0 * lam2))
            total += term
            if term < 1e-12:
                break
        return min(1.0, max(0.0, 1.0 - math.sqrt(2.0 * math.pi) / d_scaled * total))
    sign = 1.0
    for j in range(1, 1001):
        term = math.exp(-2.0 * j * j * lam2)
        total += sign * term
        if term < 1e-12:
            break
        sign = -sign
    return min(1.0, max(0.0, 2.0 * total))
