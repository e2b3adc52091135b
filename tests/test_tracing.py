"""Trek enumeration against a brute-force permutation oracle, plus the
structural implied-matrix cross-check.
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtrek.correlation import CorrelationMatrix
from pathtrek.effects import decompose_effects
from pathtrek.errors import (
    MissingCoefficient,
    VariableMissing,
    NonPositiveResidualVariance,
    TooManyVariables,
)
from pathtrek.estimation import fit_standardized
from pathtrek.pathspec import Arrow, PathModel, parse_model, topological_order
from pathtrek import tracing
from pathtrek.simulate import SimulationSpec, simulate_dataset
from pathtrek.tracing import (
    _trace,
    enumerate_treks,
    implied_matrix,
    treks_csv,
)

from conftest import NAMES, trek_sum_matrix, unchecked_trace


# ---------------------------------------------------------------------------
# Brute-force oracle: every node permutation, filtered by the
# backward-then-forward shape.

def brute_force_treks(model, i, j):
    arrows = {(a.source, a.target): a.coefficient for a in model.arrows}
    others = [v for v in model.variables if v not in (i, j)]
    found = []
    for length in range(len(others) + 1):
        for mid in permutations(others, length):
            seq = (i,) + mid + (j,)
            steps = []
            valid = True
            for a, b in zip(seq, seq[1:]):
                if (a, b) in arrows:
                    steps.append("F")
                elif (b, a) in arrows:
                    steps.append("B")
                else:
                    valid = False
                    break
            if not valid:
                continue
            if any(s == "B" and "F" in "".join(steps[:k]) for k, s in enumerate(steps)):
                continue
            prod = 1.0
            for (a, b), s in zip(zip(seq, seq[1:]), steps):
                prod *= arrows[(a, b)] if s == "F" else arrows[(b, a)]
            found.append((seq, steps.count("B"), prod))
    return found


def random_annotated_dag(gen, max_k=8):
    """Random DAG whose per-equation |beta| sums stay below 1 (psi > 0)."""
    k = int(gen.integers(2, max_k + 1))
    names = tuple(f"V{i}" for i in range(k))
    arrows = []
    for j in range(1, k):
        parents = [i for i in range(j) if gen.random() < 0.5]
        if not parents:
            continue
        budget = 0.95 / len(parents)
        for i in parents:
            arrows.append(Arrow(names[i], names[j],
                                float(gen.uniform(-budget, budget))))
    return PathModel(names, tuple(arrows), {})


# ---------------------------------------------------------------------------
# Golden decompositions on the worked initial model.

def test_single_direct_trek(initial_printed):
    treks = enumerate_treks(initial_printed, "X3", "X4")
    assert len(treks) == 1
    assert treks[0].classification == "direct"
    assert treks[0].product == 0.209


def test_direct_plus_indirect(initial_printed):
    treks = enumerate_treks(initial_printed, "X1", "X3")
    assert len(treks) == 2
    by_class = {t.classification: t for t in treks}
    assert by_class["direct"].product == 0.337
    assert by_class["indirect"].product == pytest.approx(0.531 * 0.150)
    assert by_class["indirect"].nodes == ("X1", "X2", "X3")


def test_direct_plus_spurious(initial_printed):
    treks = enumerate_treks(initial_printed, "X2", "X3")
    assert len(treks) == 2
    by_class = {t.classification: t for t in treks}
    assert by_class["direct"].product == 0.150
    assert by_class["spurious"].product == pytest.approx(0.531 * 0.337)
    assert by_class["spurious"].nodes == ("X2", "X1", "X3")
    assert by_class["spurious"].backward_steps == 1


def test_endpoint_order_irrelevant(initial_printed):
    fwd = enumerate_treks(initial_printed, "X1", "X3")
    rev = enumerate_treks(initial_printed, "X3", "X1")
    assert [(t.nodes, t.product) for t in fwd] == [(t.nodes, t.product) for t in rev]


def test_enumeration_rejects_unknown_variable(initial_printed):
    with pytest.raises(VariableMissing, match="NOPE"):
        enumerate_treks(initial_printed, "X1", "NOPE")


def test_enumeration_deterministic_and_sorted(initial_printed):
    a = enumerate_treks(initial_printed, "X2", "Y")
    b = enumerate_treks(initial_printed, "X2", "Y")
    assert a == b
    order = {v: i for i, v in enumerate(NAMES)}
    keys = [[order[v] for v in t.nodes] for t in a]
    assert keys == sorted(keys)


def test_reproduced_golden_cells_initial(initial_printed):
    rm = trek_sum_matrix(initial_printed)
    assert rm.value("X1", "X3") == pytest.approx(0.417, abs=1e-3)
    assert rm.value("X1", "X4") == pytest.approx(0.087, abs=1e-3)
    assert rm.value("X2", "X3") == pytest.approx(0.329, abs=1e-3)
    assert rm.value("X2", "X4") == pytest.approx(0.069, abs=1e-3)
    assert rm.value("X3", "X4") == pytest.approx(0.209, abs=1e-3)
    # exhaustive sums where the published decompositions were partial
    assert rm.value("X4", "Y") == pytest.approx(0.800, abs=1e-3)
    assert rm.value("X1", "Y") == pytest.approx(0.2124, abs=1e-3)
    assert rm.value("X2", "Y") == pytest.approx(0.2311, abs=1e-3)
    assert rm.value("X3", "Y") == pytest.approx(0.2937, abs=1e-3)


def test_reproduced_golden_cells_revised_refit(revised_refit):
    rm = trek_sum_matrix(revised_refit.annotated_model())
    assert rm.value("X4", "Y") == pytest.approx(0.881, abs=1e-3)
    assert rm.value("X1", "X3") == pytest.approx(0.514, abs=1e-9)


def test_trek_lists_attached_per_cell(initial_printed):
    rm = trek_sum_matrix(initial_printed)
    cell = enumerate_treks(initial_printed, "X1", "X3")
    assert len(cell) == 2
    assert sum(t.product for t in cell) == pytest.approx(rm.value("X1", "X3"))
    assert np.array_equal(rm.r_hat, rm.r_hat.T)
    assert np.array_equal(np.diag(rm.r_hat), np.ones(5))


def test_classification_partition(initial_printed, revised_printed):
    for model in (initial_printed, revised_printed):
        for a in range(model.k):
            for b in range(a + 1, model.k):
                va, vb = model.variables[a], model.variables[b]
                treks = enumerate_treks(model, va, vb)
                classes = [t.classification for t in treks]
                assert all(
                    c in ("direct", "indirect", "spurious") for c in classes
                )
                has_arrow = model.has_arrow_between(va, vb)
                assert (classes.count("direct") == 1) == has_arrow


def test_exhaustive_against_brute_force():
    gen = np.random.default_rng(2024)
    for _ in range(40):
        model = random_annotated_dag(gen, max_k=6)
        for a in range(model.k):
            for b in range(a + 1, model.k):
                va, vb = model.variables[a], model.variables[b]
                mine = enumerate_treks(model, va, vb)
                brute = brute_force_treks(model, va, vb)
                assert len(mine) == len(brute)
                assert sum(t.product for t in mine) == pytest.approx(
                    sum(p for _, _, p in brute), abs=1e-12
                )


def test_trek_sum_equals_implied_on_random_models():
    gen = np.random.default_rng(77)
    for _ in range(100):
        model = random_annotated_dag(gen, max_k=8)
        rm = trek_sum_matrix(model)
        im = implied_matrix(model)
        assert np.abs(rm.r_hat - im.r_hat).max() <= 1e-9


@st.composite
def annotated_dags(draw, bound=0.95):
    """A random DAG on 1..12 variables, declared and listed in shuffled order;
    each equation's |beta| sum stays below bound, so at bound < 1 every psi
    is positive."""
    k = draw(st.integers(1, 12))
    causal = [f"V{i}" for i in range(k)]
    arrows = []
    for j in range(1, k):
        parents = [causal[i] for i in range(j) if draw(st.booleans())]
        arrows += [Arrow(p, causal[j], draw(st.floats(-bound, bound)) / len(parents))
                   for p in parents]
    return PathModel(tuple(draw(st.permutations(causal))),
                     tuple(draw(st.permutations(arrows))), {})


@settings(max_examples=300, deadline=None)
@given(annotated_dags())
def test_implied_matches_closed_form(m):
    """r_hat = (I-B)⁻¹ Psi (I-B)⁻ᵀ in numpy, with psi from unit variances."""
    k = m.k
    idx = {v: i for i, v in enumerate(m.variables)}
    b = np.zeros((k, k))
    for a in m.arrows:
        b[idx[a.target], idx[a.source]] = a.coefficient
    t = np.linalg.inv(np.eye(k) - b)  # unit diagonal; t[i, u] = 0 unless u precedes i
    psi = np.zeros(k)
    for v in topological_order(m):  # var(v) = sum_u t[v, u]² psi_u = 1
        i = idx[v]
        psi[i] = 1.0 - sum(t[i, u] ** 2 * psi[u] for u in range(k) if u != i)
    sigma = t @ np.diag(psi) @ t.T

    im = unchecked_trace(m)
    assert max(abs(im.psi[v] - psi[idx[v]]) for v in m.variables) <= 1e-12
    assert np.abs(im.r_hat - sigma).max() <= 1e-12
    assert im.r_hat.dtype == np.float64 and not im.r_hat.flags.writeable
    assert im.r_hat.tolist() == [list(row) for row in im.r_hat_rows]
    assert all(type(x) is float for row in im.r_hat_rows for x in row)


def _bits(values):
    return [x.hex() for x in values]


def _assert_same_trace(retraced, fresh):
    """r_hat rows, (I-B)⁻¹ rows and psi (items in causal order), bit for bit."""
    assert retraced.variables == fresh.variables
    assert [_bits(row) for row in retraced.r_hat_rows] == [_bits(row) for row in fresh.r_hat_rows]
    assert [_bits(row) for row in retraced.total] == [_bits(row) for row in fresh.total]
    assert list(retraced.psi) == list(fresh.psi)
    assert _bits(retraced.psi.values()) == _bits(fresh.psi.values())


def _steps(m, beta):
    """The recursion's steps of model m with beta[(source, target)]."""
    return [(v, m.parents(v), tuple(beta[(p, v)] for p in m.parents(v)))
            for v in topological_order(m)]


COEFFICIENT = st.floats(-1.0, 1.0)


def _draw_dag(data):
    """Variables declared in shuffled order, every causally forward pair, and
    beta[(source, target)] for a random subset of those pairs."""
    k = data.draw(st.integers(1, 12))
    causal = [f"V{i}" for i in range(k)]
    declared = tuple(data.draw(st.permutations(causal)))
    pairs = [(causal[i], causal[j]) for j in range(k) for i in range(j)]
    beta = {pair: data.draw(COEFFICIENT) for pair in pairs if data.draw(st.booleans())}
    return declared, pairs, beta


def _draw_move(data, pairs, beta):
    """Add one arrow or drop some, in `beta`, and refit as revise does.

    An add refits its target's equation and a drop refits every equation
    that lost a parent; the others keep their beta.
    """
    free = [pair for pair in pairs if pair not in beta]
    if free and data.draw(st.booleans()):
        src, dst = data.draw(st.sampled_from(free))
        beta[(src, dst)] = 0.0
        refit = {dst}
    else:
        dropped = data.draw(st.sets(st.sampled_from(sorted(beta)))) if beta else set()
        for pair in dropped:
            del beta[pair]
        refit = {t for _, t in dropped}
    for pair in beta:
        if pair[1] in refit:
            beta[pair] = data.draw(COEFFICIENT)


def _model(declared, beta):
    return PathModel(declared, [Arrow(s, t, b) for (s, t), b in beta.items()], {})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_retrace_after_each_move_equals_a_fresh_trace(data):
    """A resumed recursion gives a fresh trace's bits after adds and drops.

    Variables are declared in shuffled order, so a drop can reorder the
    causal order.
    """
    declared, pairs, beta = _draw_dag(data)
    state = None
    for _ in range(data.draw(st.integers(1, 8))):
        m = _model(declared, beta)
        retraced, state = _trace(declared, _steps(m, beta), state)
        _assert_same_trace(retraced, unchecked_trace(m))
        _draw_move(data, pairs, beta)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_retrace_from_a_poisoned_state_equals_a_fresh_trace(data):
    """A resume overwrites every Sigma cell past the kept prefix before reading it.

    Before the resume, NaN fills the Sigma rows of the variables from the
    first changed position on, the prefix rows' columns of those variables,
    and their (I-B)⁻¹ rows; the result still has a fresh trace's bits.
    """
    declared, pairs, beta = _draw_dag(data)
    _, (done, sigma, total, psi) = _trace(declared, _steps(_model(declared, beta), beta))
    _draw_move(data, pairs, beta)
    moved = _model(declared, beta)
    steps = _steps(moved, beta)
    start = next((i for i, (step, old) in enumerate(zip(steps, done)) if step != old),
                 len(steps))
    redo = {declared.index(v) for v, _, _ in steps[start:]}
    nan = float("nan")
    for i, row in enumerate(sigma):
        for j in range(len(row)) if i in redo else redo:
            row[j] = nan
    total = [[nan] * len(declared) if i in redo else row for i, row in enumerate(total)]
    retraced, _ = _trace(declared, steps, (done, sigma, total, psi))
    _assert_same_trace(retraced, unchecked_trace(moved))


def test_retrace_after_a_drop_that_reorders_the_causal_order():
    m = parse_model("var X\nvar B\nvar A\nvar C\npath X -> A : 0.5\n"
                    "path A -> B : 0.4\npath X -> C : 0.3\npath B -> C : 0.2\n")
    assert topological_order(m) == ("X", "A", "B", "C")
    dropped = m.with_arrows([a for a in m.arrows if (a.source, a.target) != ("A", "B")])
    assert topological_order(dropped) == ("X", "B", "A", "C")
    beta = {(a.source, a.target): a.coefficient for a in m.arrows}
    _, state = _trace(m.variables, _steps(m, beta))
    retraced, _ = _trace(m.variables, _steps(dropped, beta), state)
    _assert_same_trace(retraced, unchecked_trace(dropped))


def test_implied_single_arrow():
    m = parse_model("var A\nvar B\npath A -> B : 0.5\n")
    im = implied_matrix(m)
    assert im.value("A", "B") == 0.5
    assert im.psi["B"] == pytest.approx(0.75)


def test_implied_rejects_exploding_coefficient():
    m = parse_model("var A\nvar B\npath A -> B : 1.2\n")
    with pytest.raises(NonPositiveResidualVariance) as exc:
        implied_matrix(m)
    assert exc.value.variable == "B"


def test_unchecked_recursion_matches_trek_sum_when_psi_negative():
    m = parse_model("var A\nvar B\npath A -> B : 1.2\n")
    im = unchecked_trace(m)
    assert im.psi["B"] == pytest.approx(1.0 - 1.2 ** 2)
    assert np.abs(im.r_hat - trek_sum_matrix(m).r_hat).max() <= 1e-12
    m = parse_model("var A\nvar B\nvar C\nvar D\npath A -> B : 0.9\npath A -> C : 0.9\n"
                    "path B -> C : 0.9\npath C -> D : 0.5\n")
    im = unchecked_trace(m)
    assert im.psi["C"] < 0.0
    assert np.abs(im.r_hat - trek_sum_matrix(m).r_hat).max() <= 1e-12


def test_saturated_model_reproduces_any_pd_matrix():
    gen = np.random.default_rng(5)
    names = tuple("ABCDE")
    saturated = PathModel(
        names,
        tuple(
            Arrow(names[i], names[j])
            for i in range(5)
            for j in range(i + 1, 5)
        ),
        {},
    )
    for _ in range(20):
        w = gen.uniform(-1, 1, (5, 7))
        cov = w @ w.T + np.diag(gen.uniform(0.5, 2.0, 5))
        d = np.sqrt(np.diag(cov))
        r = cov / np.outer(d, d)
        corr = CorrelationMatrix(names, r, 100)
        fit = fit_standardized(corr, saturated)
        rm = trek_sum_matrix(fit.annotated_model())
        assert np.abs(rm.r_hat - r).max() <= 1e-9


def test_missing_coefficient(revised_model):
    with pytest.raises(MissingCoefficient):
        enumerate_treks(revised_model, "X1", "Y")
    with pytest.raises(MissingCoefficient):
        trek_sum_matrix(revised_model)


def test_same_endpoint_rejected(initial_printed):
    with pytest.raises(ValueError):
        enumerate_treks(initial_printed, "X1", "X1")


def test_walk_stops_past_goal_on_complete_dag():
    # No along-arrow step leads back from a variable later than the goal, so
    # adjacent variables share one trek without a walk through the other 18.
    names = tuple(f"X{i}" for i in range(20))
    arrows = tuple(Arrow(names[i], names[j], 0.05) for j in range(20) for i in range(j))
    complete = PathModel(names, arrows, {})
    treks = enumerate_treks(complete, "X0", "X1")
    assert [(t.nodes, t.classification, t.product) for t in treks] == [
        (("X0", "X1"), "direct", 0.05)
    ]


def test_effects_do_not_require_positive_psi():
    m = parse_model("var A\nvar B\npath A -> B : 1.2\n")
    effects = decompose_effects(m)
    assert effects.row("A", "B").total == 1.2
    assert effects.r_squared["B"] == pytest.approx(1.2 ** 2)


def test_too_many_variables_guard():
    # The guard is a work budget, not a variable count: a 21-variable chain
    # has one trek per pair, while the complete DAG on 21 variables has ~3e9.
    names = tuple(f"V{i}" for i in range(21))
    arrows = tuple(Arrow(names[i], names[i + 1], 0.1) for i in range(20))
    chain_model = PathModel(names, arrows, {})
    chain = trek_sum_matrix(chain_model)
    (trek,) = enumerate_treks(chain_model, "V0", "V20")
    assert trek.nodes == names
    assert trek.product == pytest.approx(1e-20, rel=1e-12)
    assert chain.value("V0", "V20") == pytest.approx(1e-20, rel=1e-12)
    complete = tuple(Arrow(names[i], names[j], 0.1)
                     for j in range(21) for i in range(j))
    with pytest.raises(TooManyVariables):
        trek_sum_matrix(PathModel(names, complete, {}))


def test_recursion_has_no_variable_limit():
    names = tuple(f"V{i}" for i in range(25))
    arrows = tuple(Arrow(names[i], names[i + 1], 0.5) for i in range(24))
    big = PathModel(names, arrows, {})
    assert implied_matrix(big).value("V0", "V24") == pytest.approx(0.5 ** 24)
    assert decompose_effects(big).row("V0", "V24").total == pytest.approx(0.5 ** 24)
    assert simulate_dataset(SimulationSpec(big, 10, 1)).rows.shape == (10, 25)


def test_treks_csv_over_budget_raises(monkeypatch, initial_printed):
    # a budget of 5 lets the study's first three pairs through (5 treks) and
    # stops the fourth; the CLI then opens no output
    # (test_trek_budget_stops_export_on_complete_dag)
    monkeypatch.setattr(tracing, "TREK_BUDGET", 5)
    with pytest.raises(TooManyVariables):
        treks_csv(initial_printed)
