"""Scalar special functions and small dense linear solves.

The tail probabilities are series and continued fractions over the C
library's lgamma and erfc (via math); the solves are Gaussian elimination in
plain floats, so results are deterministic.  The matrices involved are
correlation blocks of order <= ~10; clarity and reproducibility beat speed
at that size.
"""

import math

from .errors import SingularMatrix

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


def solve_linear(a, b):
    """Solve a·x = b by Gaussian elimination with partial pivoting.

    Raises SingularMatrix when the best available pivot falls below 1e-12
    in absolute value.  Returns a list of floats.
    """
    m = _as_rows(a)
    x = [float(v) for v in b]
    order = len(m)
    if len(x) != order:
        raise ValueError("right-hand side length does not match matrix order")
    for col in range(order):
        piv = max(range(col, order), key=lambda r: abs(m[r][col]))
        if abs(m[piv][col]) < PIVOT_FLOOR:
            raise SingularMatrix(f"pivot {m[piv][col]:.3e} below floor in column {col}")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            x[col], x[piv] = x[piv], x[col]
        inv_p = 1.0 / m[col][col]
        for r in range(col + 1, order):
            f = m[r][col] * inv_p
            if f == 0.0:
                continue
            for c in range(col, order):
                m[r][c] -= f * m[col][c]
            x[r] -= f * x[col]
    for col in range(order - 1, -1, -1):
        s = x[col]
        for c in range(col + 1, order):
            s -= m[col][c] * x[c]
        x[col] = s / m[col][col]
    return x


def invert(a):
    """Matrix inverse via Gauss-Jordan with partial pivoting (same pivot floor)."""
    m = _as_rows(a)
    order = len(m)
    inv = [[1.0 if i == j else 0.0 for j in range(order)] for i in range(order)]
    for col in range(order):
        piv = max(range(col, order), key=lambda r: abs(m[r][col]))
        if abs(m[piv][col]) < PIVOT_FLOOR:
            raise SingularMatrix(f"pivot {m[piv][col]:.3e} below floor in column {col}")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        inv_p = 1.0 / m[col][col]
        m[col] = [v * inv_p for v in m[col]]
        inv[col] = [v * inv_p for v in inv[col]]
        for r in range(order):
            if r == col:
                continue
            f = m[r][col]
            if f == 0.0:
                continue
            m[r] = [v - f * w for v, w in zip(m[r], m[col])]
            inv[r] = [v - f * w for v, w in zip(inv[r], inv[col])]
    return inv


# ---------------------------------------------------------------------------
# Regularized incomplete gamma / beta (log-gamma from math.lgamma).

_EPS = 1e-15
_MAX_ITER = 500


def _gamma_p_series(a, x):
    """Lower regularized incomplete gamma by series; best for x < a + 1."""
    if x <= 0.0:
        return 0.0
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a, x):
    """Upper regularized incomplete gamma by continued fraction; x >= a + 1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_p(a, x):
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0.0:
        raise ValueError("gamma_p requires a > 0")
    if x < 0.0:
        raise ValueError("gamma_p requires x >= 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return min(1.0, _gamma_p_series(a, x))
    return max(0.0, 1.0 - _gamma_q_contfrac(a, x))


def gamma_q(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0.0:
        raise ValueError("gamma_q requires a > 0")
    if x < 0.0:
        raise ValueError("gamma_q requires x >= 0")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return max(0.0, 1.0 - _gamma_p_series(a, x))
    return min(1.0, _gamma_q_contfrac(a, x))


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta (Lentz)."""
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
            break
    return h


def betainc_reg(a, b, x):
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("betainc_reg requires a, b > 0")
    if x < 0.0 or x > 1.0:
        raise ValueError("betainc_reg requires 0 <= x <= 1")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


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
    """Upper tail of the chi-squared distribution with df degrees of freedom."""
    if df < 1 or int(df) != df:
        raise ValueError("df must be a positive integer")
    if x < 0.0:
        raise ValueError("chisq_sf requires x >= 0")
    return gamma_q(0.5 * df, 0.5 * x)


def t_sf_two_sided(t, df):
    """Two-sided tail probability of Student's t with df degrees of freedom."""
    if df < 1 or int(df) != df:
        raise ValueError("df must be a positive integer")
    if t == 0.0:
        return 1.0
    return betainc_reg(0.5 * df, 0.5, df / (df + t * t))


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
