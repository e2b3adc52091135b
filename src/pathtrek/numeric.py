"""Scalar special functions and the one dense factorization.

The tail probabilities are scalar code over the C library's lgamma, erfc,
exp and log (via math): the normal tail is erfc, the chi-squared tail a
finite sum for its integer df, the t tail a continued fraction for the
incomplete beta, and the Kolmogorov tail a theta series.  Every matrix
factored is a symmetric correlation block of order <= ~20, so one Cholesky
factor in plain floats serves every solve, inverse diagonal, quadratic
form and positive-definiteness check, and results are deterministic;
clarity and reproducibility beat speed at that size.  Such matrices are
kept as tuples of floats; `readonly_array` gives library callers their
ndarray view.
"""

import math

from .errors import NoConvergence, SingularMatrix

PIVOT_FLOOR = 1e-12


def _as_rows(a):
    """Copy a square matrix (any nested-sequence / ndarray) to lists of floats."""
    rows = [[float(x) for x in row] for row in a]
    order = len(rows)
    if order == 0 or any(len(r) != order for r in rows):
        raise ValueError("matrix is not square")
    for r in rows:
        for x in r:
            if not math.isfinite(x):
                raise ValueError("matrix entries must be finite")
    return rows


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
    not (numerically) positive definite.
    """
    m = _as_rows(a)
    low = []
    for i in range(len(m)):
        row = []
        for j in range(i):
            row.append((m[i][j] - sum(x * y for x, y in zip(row, low[j]))) / low[j][j])
        pivot = m[i][i] - sum(x * x for x in row)
        if pivot <= PIVOT_FLOOR * m[i][i]:
            raise SingularMatrix(
                f"not positive definite: pivot {pivot:.3e} in column {i}")
        row.append(math.sqrt(pivot))
        low.append(row)
    return low


def inverse_factor(a):
    """W = L^-1 for the Cholesky factor L of a symmetric a = L L^T.

    Then a^-1 = W^T W: a solve a x = b is x = W^T (W b), [a^-1]_jj is the
    squared norm of column j of W, and b^T a^-1 b = |W b|^2 (Golub & Van
    Loan, Matrix Computations, 4.2).  Raises SingularMatrix as `cholesky`
    does.  Returns W as lists of floats, zero above the diagonal.
    """
    low = cholesky(a)
    order = len(low)
    w = [[0.0] * order for _ in range(order)]
    for i in range(order):
        d = low[i][i]
        for j in range(i):
            w[i][j] = -sum(low[i][k] * w[k][j] for k in range(j, i)) / d
        w[i][i] = 1.0 / d
    return w


# ---------------------------------------------------------------------------
# Pieces of the incomplete beta for the t tail (log-gamma from math.lgamma).

_EPS = 1e-15
_MAX_ITER = 500


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (Lentz).

    Raises NoConvergence when _MAX_ITER terms leave it unconverged.
    """
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
    for m in range(1, _MAX_ITER):
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
        if abs(delta - 1.0) < _EPS:
            return h
    raise NoConvergence(
        f"incomplete beta continued fraction unconverged after {_MAX_ITER - 1} "
        f"iterations at a={a!r}, b={b!r}, x={x!r}")


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


# ---------------------------------------------------------------------------
# Tail probabilities.

def normal_cdf(z):
    """Standard normal CDF.

    Built on the half tail 0.5 * erfc(|z| / sqrt(2)) so that
    normal_cdf(z) + normal_cdf(-z) == 1 holds by construction.
    """
    if not math.isfinite(z):
        raise ValueError("normal_cdf requires finite z")
    half_tail = 0.5 * math.erfc(abs(z) / math.sqrt(2.0))
    return half_tail if z < 0.0 else 1.0 - half_tail


def chisq_sf(x, df):
    """Upper tail of the chi-squared distribution with df degrees of freedom.

    For integer df the tail is a finite sum (Abramowitz & Stegun 1964,
    26.4): with h = x/2, sum_{j < df/2} e^-h h^j / j! for even df, and
    erfc(sqrt(h)) + sum_{j < (df-1)/2} e^-h h^(j+1/2) / Gamma(j + 3/2) for
    odd df.  Each term is exp(a log h - h - lgamma(a + 1)), so none
    underflows before it is added.
    """
    if df < 1 or int(df) != df:
        raise ValueError("df must be a positive integer")
    if x < 0.0:
        raise ValueError("chisq_sf requires x >= 0")
    if x == 0.0:
        return 1.0
    df = int(df)
    h = 0.5 * x
    log_h = math.log(h)
    odd = df % 2
    total = math.erfc(math.sqrt(h)) if odd else 0.0
    for j in range(df // 2):
        a = j + 0.5 * odd
        total += math.exp(a * log_h - h - math.lgamma(a + 1.0))
    return min(1.0, total)


def t_sf_two_sided(t, df):
    """Two-sided tail probability of Student's t with df degrees of freedom.

    The tail is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df/(df + t^2).  Its prefactor takes log x = -log1p(t^2/df) and
    log(1 - x) from t rather than from the rounded x, which sits near 1 at
    large df.
    """
    if df < 1 or int(df) != df:
        raise ValueError("df must be a positive integer")
    tt = t * t
    if tt == 0.0:
        return 1.0
    x = df / (df + tt)
    if x == 0.0:
        return 0.0
    a = 0.5 * df
    front = math.exp(
        _log_gamma_ratio_half(a) - math.lgamma(0.5)
        - a * math.log1p(tt / df) + 0.5 * (math.log(tt) - math.log(df + tt))
    )
    if x < (a + 1.0) / (a + 2.5):
        return front * _betacf(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _betacf(0.5, a, tt / (df + tt))


def kolmogorov_sf(d_scaled):
    """Asymptotic Kolmogorov tail Q(lambda) = 2 sum_j (-1)^(j-1) exp(-2 j^2 lambda^2).

    Argument is the scaled statistic sqrt(n)*D.  Below lambda = 1 that
    alternating series converges slowly and cancels, so Q = 1 - K is taken
    from the theta-function form K = sqrt(2 pi)/lambda sum_j
    exp(-(2j-1)^2 pi^2 / (8 lambda^2)) (Marsaglia, Tsang & Wang 2003).
    Either sum is cut off once terms drop below 1e-12; clamped to [0, 1].
    """
    if d_scaled < 0.0:
        raise ValueError("kolmogorov_sf requires d_scaled >= 0")
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
