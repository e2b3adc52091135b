"""Output checks against oracles that share no code with pathtrek.

Every check returns a list of problems; an empty list means the output
passed.  Inputs are read back from the generated files with numpy, and
models with the small DSL reader below, so a bug in pathtrek's own readers
cannot hide a wrong answer.
"""

import math
import re

import numpy as np

TOL = 1e-9  # coefficients, r-hat and effects
REL_TOL = 1e-9  # summaries, VIF, Mahalanobis distances
P_TOL = 1e-6  # tail probabilities


# ---------------------------------------------------------------------------
# Independent readers.

_PATH_RE = re.compile(r"\s*path\s+(\S+)\s*->\s*(\S+)\s*(?::\s*(\S+)\s*)?$")


def read_model(path):
    """(variables, arrows) of a .pm file; arrows are (source, target, coef|None)."""
    variables, arrows = [], []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].rstrip()
            toks = line.split()
            if not toks:
                continue
            if toks[0] == "var":
                if toks[1] not in variables:
                    variables.append(toks[1])
            elif toks[0] == "path":
                src, dst, coef = _PATH_RE.match(line).groups()
                for v in (src, dst):
                    if v not in variables:
                        variables.append(v)
                arrows.append((src, dst, None if coef is None else float(coef)))
            else:
                raise ValueError(f"{path}: unsupported directive {toks[0]!r}")
    return variables, arrows


def read_corr(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")[1:]
        r = np.array([[float(c) for c in line.strip().split(",")[1:]]
                      for line in fh if line.strip()])
    return header, (r + r.T) / 2.0


def read_rows(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


# ---------------------------------------------------------------------------
# Model algebra.

def coefficient_matrix(names, arrows):
    idx = {v: i for i, v in enumerate(names)}
    b = np.zeros((len(names), len(names)))
    for src, dst, coef in arrows:
        b[idx[dst], idx[src]] = coef
    return b


def implied(b):
    """(Sigma, psi, A) with A = (I-B)^-1, Sigma = A Psi A^T and unit diagonal.

    diag(Sigma) = 1 is linear in psi: (A*A) psi = 1, solvable for any DAG.
    psi is not required to be positive (hypothesis coefficients may imply
    more than unit variance).
    """
    k = b.shape[0]
    a = np.linalg.inv(np.eye(k) - b)
    psi = np.linalg.solve(a * a, np.ones(k))
    return a @ np.diag(psi) @ a.T, psi, a


def reachable(b):
    """reach[t, s]: a directed path of length >= 1 leads from s to t."""
    step = b != 0.0
    reach = step.copy()
    for _ in range(b.shape[0]):
        nxt = reach | ((reach.astype(int) @ step.astype(int)) > 0)
        if (nxt == reach).all():
            break
        reach = nxt
    return reach


def chisq_sf(x, df):
    """Upper chi-squared tail by the closed-form finite sums for integer df."""
    h = 0.5 * x
    if df % 2 == 0:
        term, total = math.exp(-h), 0.0
        for i in range(df // 2):
            total += term
            term *= h / (i + 1)
        return total
    total = math.erfc(math.sqrt(h))
    for m in range(1, (df - 1) // 2 + 1):  # sf(df=2m+1) adds one term per step
        total += math.exp((m - 0.5) * math.log(h) - h - math.lgamma(m + 0.5))
    return total


def kolmogorov_sf(lam):
    """Asymptotic Kolmogorov tail, theta-function form below lambda = 1."""
    if lam <= 0.0:
        return 1.0
    if lam < 1.0:
        c = math.sqrt(2.0 * math.pi) / lam
        s = sum(math.exp(-((2 * j - 1) ** 2) * math.pi ** 2 / (8.0 * lam * lam))
                for j in range(1, 20))
        return 1.0 - c * s
    return 2.0 * sum((-1) ** (j - 1) * math.exp(-2.0 * j * j * lam * lam)
                     for j in range(1, 101))


def normal_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Report checks.

def _close(a, b, tol=TOL):
    return abs(a - b) <= tol


def _rel_close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(1.0, abs(b))


def fitted_arrows(report):
    """Arrow set (source, target) carried by a report's coefficient section."""
    return {(p, eq["target"]) for eq in report["coefficients"]["equations"]
            for p in eq["parents"]}


def check_analysis(report, names, r, model_arrows, annotated):
    """fit/revise JSON: coefficients, r-hat, effects and fit verdict.

    `model_arrows` is the arrow set the report must have estimated; when
    `annotated` (a list of (source, target, coef)) is given, r-hat and
    effects are traced from those coefficients instead of the fitted ones.
    """
    problems = []
    idx = {v: i for i, v in enumerate(names)}
    eqs = report["coefficients"]["equations"]
    if fitted_arrows(report) != set(model_arrows):
        problems.append("estimated arrow set differs from the model")
        return problems
    for eq in eqs:
        y, ps = idx[eq["target"]], [idx[p] for p in eq["parents"]]
        beta = np.linalg.solve(r[np.ix_(ps, ps)], r[ps, y])
        if not all(_close(a, b) for a, b in zip(eq["beta"], beta)):
            problems.append(f"coefficients of {eq['target']} differ from solve(R_PP, r_Py)")

    traced = annotated or [(p, eq["target"], b) for eq in eqs
                           for p, b in zip(eq["parents"], eq["beta"])]
    b = coefficient_matrix(names, traced)
    sigma, psi, a = implied(b)

    rep = report["reproduced"]
    order = [idx[v] for v in rep["variables"]]
    if not np.allclose(np.array(rep["r_hat"]), sigma[np.ix_(order, order)], rtol=0, atol=TOL):
        problems.append("r_hat differs from (I-B)^-1 Psi (I-B)^-T")

    total = a - np.eye(len(names))
    reach = reachable(b)
    rows = report["effects"]["rows"]
    seen = set()
    for row in rows:
        o, d = idx[row["outcome"]], idx[row["determinant"]]
        seen.add((o, d))
        if not (_close(row["total"], total[o, d]) and _close(row["direct"], b[o, d])
                and _close(row["indirect"], total[o, d] - b[o, d])):
            problems.append(f"effect {row['determinant']}->{row['outcome']} differs from (I-B)^-1 - I")
    expected_pairs = {(int(o), int(d)) for o, d in zip(*np.nonzero(reach))}
    if seen != expected_pairs:
        problems.append("effects rows do not match the causally linked pairs")
    for v, r2 in report["effects"]["r_squared"].items():
        if not _close(r2, 1.0 - psi[idx[v]]):
            problems.append(f"effects R^2 of {v} differs from 1 - psi")

    fit = report["fit"]
    flagged = 0
    for pair in fit["pairs"]:
        i, j = idx[pair["a"]], idx[pair["b"]]
        diff = abs(r[i, j] - sigma[i, j])
        if not (_close(pair["observed"], r[i, j]) and _close(pair["reproduced"], sigma[i, j])):
            problems.append(f"fit pair {pair['a']}-{pair['b']} values differ")
        if abs(diff - fit["threshold"]) > TOL and pair["flagged"] != (diff > fit["threshold"]):
            problems.append(f"fit pair {pair['a']}-{pair['b']} flag differs")
        flagged += pair["flagged"]
    if len(fit["pairs"]) != len(names) * (len(names) - 1) // 2:
        problems.append("fit does not cover every pair")
    if fit["verdict"] != ("fits" if flagged == 0 else "does-not-fit"):
        problems.append("fit verdict inconsistent with flagged pairs")
    return problems


def check_screen(report, names, x, model_arrows, alpha=0.05, outlier_p=0.001):
    problems = []
    s = report["screening"]
    n, k = x.shape
    for j, summ in enumerate(s["summaries"]):
        col = x[:, j]
        want = (col.mean(), col.std(ddof=1), col.min(), col.max())
        got = (summ["mean"], summ["sd"], summ["min"], summ["max"])
        if summ["name"] != names[j] or not all(map(_rel_close, got, want)):
            problems.append(f"summary of {names[j]} differs")

    centered = x - x.mean(axis=0)
    inv = np.linalg.inv(centered.T @ centered / (n - 1))
    d2 = np.einsum("ij,jk,ik->i", centered, inv, centered)
    p = np.array([chisq_sf(v, k) for v in d2])
    want_rows = {int(i) for i in np.nonzero(p < outlier_p)[0]}
    border = {int(i) for i in np.nonzero(np.abs(p - outlier_p) <= P_TOL * outlier_p)[0]}
    got_rows = {o["row"] for o in s["outliers"]}
    if (got_rows ^ want_rows) - border:
        problems.append("outlier rows differ from the chi-squared tail of D^2")
    for o in s["outliers"]:
        if not _rel_close(o["d_squared"], d2[o["row"]], 1e-7):
            problems.append(f"D^2 of row {o['row']} differs")
            break

    for j, v in enumerate(names):
        got = s["normality"][v]
        xs = np.sort(x[:, j])
        z = (xs - xs.mean()) / xs.std(ddof=1)
        cdf = np.array([normal_cdf(t) for t in z])
        d = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        pk = kolmogorov_sf(math.sqrt(n) * d)
        if not (_close(got["d"], d) and abs(got["p"] - pk) <= P_TOL):
            problems.append(f"KS of {v} differs")
        elif abs(pk - alpha) > P_TOL and got["verdict"] != ("non-normal" if pk < alpha else "normal"):
            problems.append(f"KS verdict of {v} differs")

    sources = [v for v in names if any(a[0] == v for a in model_arrows)]
    block = sources if len(sources) >= 2 else list(names)
    cols = [names.index(v) for v in block]
    vif = np.diag(np.linalg.inv(np.corrcoef(x[:, cols], rowvar=False)))
    if set(s["vif"]) != set(block) or not all(
            _rel_close(s["vif"][v], vif[i]) for i, v in enumerate(block)):
        problems.append("VIF differs from the inverted predictor block")
    return problems


def check_recovery(result, arrows, tolerance):
    problems = []
    want = {(s, t): c for s, t, c in arrows}
    if set(result.errors) != set(want):
        problems.append("recovery errors do not cover the model's arrows")
    elif not _close(result.max_abs_error, max(result.errors.values()), 0.0):
        problems.append("recovery max_abs_error is not the largest error")
    if not (math.isfinite(result.max_abs_error) and result.max_abs_error <= tolerance
            and result.passed):
        problems.append(f"recovery error {result.max_abs_error} above {tolerance}")
    return problems
