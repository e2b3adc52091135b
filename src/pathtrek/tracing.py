"""Trek enumeration and model-implied correlations for recursive models.

A trek between two variables is a walk with all against-arrow steps first
and all along-arrow steps last, visiting no variable twice.  Its coefficient
product contributes to the model-implied correlation of the endpoint pair:

  * direct   - exactly one along-arrow step, none against
  * indirect - two or more along-arrow steps, none against
  * spurious - at least one against-arrow step (shared-cause component)

Model-implied correlations are computed by the structural recursion
Sigma = (I-B)^-1 Psi (I-B)^-T in causal order (`implied_matrix`), in O(k^3)
over lists of floats.
Treks are enumerated only to explain a decomposition and for the trek export:
`reproduced_matrix` sums them exhaustively, which the trek rule makes equal
to the recursion, and serves as its cross-check.  Enumeration grows
exponentially with the arrow count, so it stops past TREK_BUDGET treks,
whatever the number of variables.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import (
    NonPositiveResidualVariance,
    TooManyVariables,
    VariableMissing,
)
from .numeric import float_rows, readonly_array
from .pathspec import topological_order

# Partial treks one enumeration may visit, and treks one reproduced_matrix may
# sum.  A complete DAG over 12 variables implies ~1.3e5 treks (~1 s); each
# further variable triples that.
TREK_BUDGET = 200_000

DIRECT = "direct"
INDIRECT = "indirect"
SPURIOUS = "spurious"


@dataclass(frozen=True)
class Trek:
    """One backward-then-forward walk with its coefficient product."""

    nodes: tuple
    backward_steps: int
    product: float

    @property
    def forward_steps(self):
        return len(self.nodes) - 1 - self.backward_steps

    @property
    def classification(self):
        if self.backward_steps > 0:
            return SPURIOUS
        return DIRECT if self.forward_steps == 1 else INDIRECT


@dataclass(frozen=True, init=False)
class ReproducedMatrix:
    """Model-implied correlations; trek decompositions when enumerated.

    The cells are kept as tuples of floats, `r_hat_rows`; `.r_hat` is a
    read-only float64 ndarray built from them on first access.
    """

    variables: tuple
    r_hat_rows: tuple
    treks: dict  # (earlier, later) -> tuple of Trek; empty for implied route
    psi: Optional[dict] = None  # residual variances, implied route only

    def __init__(self, variables, r_hat, treks, psi=None):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "r_hat_rows", float_rows(r_hat))
        object.__setattr__(self, "treks", treks)
        object.__setattr__(self, "psi", psi)

    @cached_property
    def r_hat(self):
        return readonly_array(self.r_hat_rows)

    def index(self, name):
        return self.variables.index(name)

    def value(self, a, b):
        return self.r_hat_rows[self.index(a)][self.index(b)]

    def cell_treks(self, a, b):
        key = (a, b) if (a, b) in self.treks else (b, a)
        return self.treks.get(key, ())


def _over_budget(count):
    if count > TREK_BUDGET:
        raise TooManyVariables(
            f"trek enumeration stopped past its budget of {TREK_BUDGET} treks"
        )


def enumerate_treks(m, i, j):
    """All treks between i and j, in lexicographic node-sequence order.

    The pair is canonicalized so the walk starts at whichever endpoint comes
    first in causal order; lexicographic position is taken over that order's
    indices.
    """
    if i == j:
        raise ValueError("trek endpoints must differ")
    for name in (i, j):
        if name not in m.variables:
            raise VariableMissing(name, where="model")
    m.require_annotated()
    order = topological_order(m)
    pos = {v: idx for idx, v in enumerate(order)}
    start, goal = (i, j) if pos[i] < pos[j] else (j, i)
    goal_pos = pos[goal]

    parents = {v: sorted(m.parents(v), key=pos.get) for v in m.variables}
    children = {v: sorted(m.children(v), key=pos.get) for v in m.variables}

    out = []
    visited = 0

    def walk(u, nodes, nback, prod, backward_ok):
        nonlocal visited
        visited += 1
        _over_budget(visited)
        if u == goal:
            out.append(Trek(tuple(nodes), nback, prod))
            return
        if backward_ok:
            for w in parents[u]:
                if w not in nodes:
                    walk(w, nodes + [w], nback + 1, prod * m.coefficient(w, u), True)
        for w in children[u]:
            if pos[w] > goal_pos:
                break  # along-arrow steps only move later in causal order
            if w not in nodes:
                walk(w, nodes + [w], nback, prod * m.coefficient(u, w), False)

    walk(start, [start], 0, 1.0, True)
    out.sort(key=lambda t: [pos[v] for v in t.nodes])
    return out


def reproduced_matrix(m):
    """Exhaustive trek-sum correlations for every variable pair."""
    m.require_annotated()
    order = topological_order(m)
    pos = {v: idx for idx, v in enumerate(order)}
    k = m.k
    r_hat = [[1.0 if a == b else 0.0 for b in range(k)] for a in range(k)]
    treks = {}
    count = 0
    for a in range(k):
        for b in range(a + 1, k):
            va, vb = m.variables[a], m.variables[b]
            ts = enumerate_treks(m, va, vb)
            count += len(ts)
            _over_budget(count)
            key = (va, vb) if pos[va] < pos[vb] else (vb, va)
            treks[key] = tuple(ts)
            total = sum(t.product for t in ts)
            r_hat[a][b] = r_hat[b][a] = total
    return ReproducedMatrix(m.variables, r_hat, treks)


def implied_matrix(m):
    """Structural implied correlations, built recursively in causal order.

    For each endogenous y with parents P and coefficients beta, the residual
    variance is psi_y = 1 - betaᵀ Sigma_PP beta and Sigma_yj = betaᵀ Sigma_Pj
    for every earlier j; exogenous variables get unit variance.  Equivalent
    to (I-B)⁻¹ Psi (I-B)⁻ᵀ, without forming an inverse; each sum runs over
    the parents left to right.  Raises
    NonPositiveResidualVariance when the coefficients imply variance > 1.
    """
    implied = _implied(m)
    for v, resid in implied.psi.items():  # causal order
        if resid <= 0.0:
            raise NonPositiveResidualVariance(v, resid)
    return implied


def _implied(m):
    """implied_matrix without the residual-variance check: psi may be <= 0."""
    m.require_annotated()
    k = m.k
    idx = {v: i for i, v in enumerate(m.variables)}
    sigma = [[0.0] * k for _ in range(k)]
    psi = {}
    for v in topological_order(m):
        vi = idx[v]
        parents = m.parents(v)
        beta = [m.coefficient(p, v) for p in parents]
        cov = [0.0] * k  # Sigma_vj = betaᵀ Sigma_Pj for every j
        for p, b in zip(parents, beta):
            cov = [c + b * s for c, s in zip(cov, sigma[idx[p]])]
        explained = 0.0  # betaᵀ Sigma_PP beta = betaᵀ Sigma_Pv
        for p, b in zip(parents, beta):
            explained += cov[idx[p]] * b
        psi[v] = 1.0 - explained
        for j, c in enumerate(cov):
            sigma[j][vi] = c
        cov[vi] = 1.0
        sigma[vi] = cov
    return ReproducedMatrix(m.variables, sigma, {}, psi=psi)


def coefficient_matrix(m):
    """Arrow coefficients as B with B[target, source] = beta (declaration order)."""
    import numpy as np

    m.require_annotated()
    k = m.k
    b = np.zeros((k, k))
    for a in m.arrows:
        b[m.index(a.target), m.index(a.source)] = a.coefficient
    return b


def write_treks_csv(reproduced, path):
    """Export every enumerated trek: pair, node sequence, class, product."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pair", "sequence", "classification", "product"])
        for (a, b), treks in reproduced.treks.items():
            for t in treks:
                writer.writerow([
                    f"{a}-{b}",
                    " ".join(t.nodes),
                    t.classification,
                    repr(t.product),
                ])
