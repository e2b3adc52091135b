"""Trek enumeration and model-implied correlations for recursive models.

A trek between two variables is a walk with all against-arrow steps first
and all along-arrow steps last, visiting no variable twice.  Its coefficient
product contributes to the model-implied correlation of the endpoint pair:

  * direct   - exactly one along-arrow step, none against
  * indirect - two or more along-arrow steps, none against
  * spurious - at least one against-arrow step (shared-cause component)

Sigma = (I-B)^-1 Psi (I-B)^-T, Psi and the rows of (I-B)^-1 (the total
effects) come from one structural recursion in causal order (`_trace`),
O(k^3) over lists of floats.  It reads the coefficients as one
(variable, parents, beta) step per variable in causal order: `_steps(m)`
builds them from an annotated model and `FittedModel._steps()` from a fit,
so a fit is traced, and its effects read, without building its annotated
model.  A revision refit resumes the previous refit's recursion: it keeps
the longest prefix of the causal order whose variables and equations are
unchanged and runs the loop from the first changed position, since a
variable's Sigma entries with earlier variables, its (I-B)^-1 row and its
Psi depend on that prefix alone.
Treks are enumerated only to explain a decomposition and for the trek export:
`_treks_by_pair` lists every pair's treks once and `treks_csv` renders
them.  The trek rule makes the sum of each pair's treks equal to the
recursion's r_hat; the tests keep that sum as the recursion's cross-check,
and the library computes r_hat by the recursion alone.  Enumeration grows
exponentially with the arrow count, so it stops past TREK_BUDGET treks,
whatever the number of variables.
"""

import itertools
import math
from functools import cached_property
from typing import NamedTuple

from .errors import (
    NonPositiveResidualVariance,
    OutOfRange,
    TooManyVariables,
    VariableMissing,
)
from .files import csv_text
from .numeric import readonly_array
from .pathspec import topological_order
from .record import FrozenRecord

# Partial treks one enumeration may visit, and treks one _treks_by_pair may
# list.  A complete DAG over 12 variables implies ~1.3e5 treks (~1 s); each
# further variable triples that.
TREK_BUDGET = 200_000

DIRECT = "direct"
INDIRECT = "indirect"
SPURIOUS = "spurious"


class Trek(NamedTuple):
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


class ReproducedMatrix(FrozenRecord):
    """Model-implied correlations.

    The cells are kept as tuples of floats, `r_hat_rows`; `.r_hat` is a
    read-only float64 ndarray built from them on first access.
    """

    _fields = ("variables", "r_hat_rows", "psi", "total")

    def __init__(self, variables, r_hat_rows, psi=None, total=None):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "r_hat_rows", r_hat_rows)  # tuples of floats, as given
        # residual variances and rows of (I-B)⁻¹ by variable; None only for a
        # matrix a caller builds from cells
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "total", total)

    @cached_property
    def r_hat(self):
        return readonly_array(self.r_hat_rows)

    def index(self, name):
        return self.variables.index(name)

    def value(self, a, b):
        return self.r_hat_rows[self.index(a)][self.index(b)]


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
            for w in m.parents(u):
                if w not in nodes:
                    walk(w, nodes + [w], nback + 1, prod * m.coefficient(w, u), True)
        for w in m.children(u):
            # along-arrow steps only move later in causal order
            if pos[w] <= goal_pos and w not in nodes:
                walk(w, nodes + [w], nback, prod * m.coefficient(u, w), False)

    walk(start, [start], 0, 1.0, True)
    out.sort(key=lambda t: [pos[v] for v in t.nodes])
    return out


def _treks_by_pair(m):
    """Every pair's treks: (earlier, later) in causal order -> tuple of Trek.

    Pairs come in declaration order, each pair's treks in enumerate_treks'
    order.  Raises TooManyVariables past TREK_BUDGET treks in all.
    """
    pos = {v: idx for idx, v in enumerate(topological_order(m))}
    treks = {}
    count = 0
    for va, vb in itertools.combinations(m.variables, 2):
        ts = enumerate_treks(m, va, vb)
        count += len(ts)
        _over_budget(count)
        treks[(va, vb) if pos[va] < pos[vb] else (vb, va)] = tuple(ts)
    return treks


def implied_matrix(m):
    """Structural implied correlations, built recursively in causal order.

    For each endogenous y with parents P and coefficients beta, the residual
    variance is psi_y = 1 - betaᵀ Sigma_PP beta, Sigma_yj = betaᵀ Sigma_Pj
    for every earlier j, and row y of (I-B)⁻¹ (`.total`) is e_y + betaᵀ T_P;
    exogenous variables get unit variance.  Equivalent to (I-B)⁻¹ Psi
    (I-B)⁻ᵀ without forming an inverse; each sum runs over the parents left
    to right.  Raises NonPositiveResidualVariance for the first psi in
    causal order that is not > 0.
    """
    implied = _trace(m.variables, _steps(m))[0]
    faults = _psi_faults(implied)
    if faults:
        raise NonPositiveResidualVariance(*faults[0])
    return implied


def _psi_faults(implied):
    """(variable, psi) in causal order for each psi that is not > 0.

    `not psi > 0.0` also holds for a NaN psi, as when huge coefficients
    make betaᵀ Sigma_PP beta inf - inf.
    """
    return [(v, psi) for v, psi in implied.psi.items() if not psi > 0.0]


def _require_finite(implied):
    """Raise OutOfRange naming the first variable in causal order whose psi,
    row of (I-B)⁻¹ or r_hat cells with itself and earlier variables are not
    all finite, as when a coefficient of 1e160 makes psi -inf.

    Each value is tested on its own: a sum of finite values can overflow.
    """
    seen = []
    for v, psi in implied.psi.items():
        i = implied.index(v)
        seen.append(i)
        row = implied.r_hat_rows[i]
        if not (math.isfinite(psi) and all(map(math.isfinite, implied.total[i]))
                and all(map(math.isfinite, [row[j] for j in seen]))):
            raise OutOfRange("coefficients imply a correlation, residual variance "
                             f"or effect that is not finite for {v!r}")


def _steps(m):
    """The (variable, parents, beta) steps of annotated `m` for `_trace`."""
    m.require_annotated()
    steps = []
    for v in topological_order(m):
        parents = m.parents(v)
        steps.append((v, parents, tuple([m.coefficient(p, v) for p in parents])))
    return steps


def _trace(variables, steps, resume=None):
    """The structural recursion: r_hat, psi and (I-B)⁻¹ of one annotated DAG.

    `steps` lists (variable, parents, beta) in causal order, parents in
    declaration order and beta in the parents' order; an exogenous
    variable's parents and beta are empty.  Returns the ReproducedMatrix and
    the recursion's state.  Passed back as `resume` with the same
    `variables`, that state lets the next call skip the longest prefix of
    `steps` equal, position by position, to the steps it was built from and
    run the same loop from the first changed position.  The prefix's Sigma
    block, (I-B)⁻¹ rows and psi are what a fresh run holds there, and every
    other Sigma cell is overwritten before it is read: entry (i, j) is
    written when the later of i and j is processed (`sigma[j][vi]` for
    every j, then row `sigma[vi]`), and every position from the first
    changed one on is processed again.  A stale cell reaches only
    `cov[j]` for a j later than the variable being processed, which is
    itself overwritten when j is; psi and `explained` read only the parents'
    columns, and (I-B)⁻¹ row v only the parents' rows, all written in this
    pass or in the prefix.  So the result is bit for bit that of a fresh
    call, which starts from zeros and keeps no prefix.  `resume` is
    consumed: its Sigma rows are rewritten.
    """
    k = len(variables)
    idx = {v: i for i, v in enumerate(variables)}
    done, sigma, total, psi = resume or ((), [[0.0] * k for _ in range(k)], [None] * k, [])
    start = 0
    for step, old in zip(steps, done):
        if step != old:
            break
        start += 1
    total = total[:]  # the previous result keeps its list
    psi = psi[:start]
    for v, parents, beta in steps[start:]:
        vi = idx[v]
        cov = [0.0] * k  # Sigma_vj = betaᵀ Sigma_Pj for every j
        reach = [0.0] * k
        reach[vi] = 1.0
        for p, b in zip(parents, beta):
            cov = [c + b * s for c, s in zip(cov, sigma[idx[p]])]
            reach = [x + b * y for x, y in zip(reach, total[idx[p]])]
        total[vi] = reach
        explained = 0.0  # betaᵀ Sigma_PP beta = betaᵀ Sigma_Pv
        for p, b in zip(parents, beta):
            explained += cov[idx[p]] * b
        psi.append(1.0 - explained)
        for j, c in enumerate(cov):
            sigma[j][vi] = c
        cov[vi] = 1.0
        sigma[vi] = cov
    implied = ReproducedMatrix(variables, tuple(map(tuple, sigma)),
                               dict(zip([v for v, _, _ in steps], psi)), total)
    return implied, (steps, sigma, total, psi)


def treks_csv(m):
    """The trek export of annotated `m` as CSV text: pair, node sequence,
    class, product.  A model past TREK_BUDGET raises TooManyVariables."""
    return csv_text(itertools.chain(
        [["pair", "sequence", "classification", "product"]],
        ([f"{a}-{b}", " ".join(t.nodes), t.classification, repr(t.product)]
         for (a, b), ts in _treks_by_pair(m).items() for t in ts),
    ))
