"""Trek enumeration against a brute-force permutation oracle, plus the
structural implied-matrix cross-check.
"""

from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtrek.effects import decompose_effects
from pathtrek.errors import (
    MissingCoefficient,
    NonPositiveResidualVariance,
    TooManyVariables,
)
from pathtrek.estimation import fit_standardized
from pathtrek.pathspec import Arrow, PathModel, parse_model, topological_order
from pathtrek.simulate import SimulationSpec, simulate_dataset
from pathtrek.tracing import (
    _implied,
    enumerate_treks,
    implied_matrix,
    reproduced_matrix,
)

from conftest import NAMES, make_corr


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


def test_enumeration_deterministic_and_sorted(initial_printed):
    a = enumerate_treks(initial_printed, "X2", "Y")
    b = enumerate_treks(initial_printed, "X2", "Y")
    assert a == b
    order = {v: i for i, v in enumerate(NAMES)}
    keys = [[order[v] for v in t.nodes] for t in a]
    assert keys == sorted(keys)


def test_reproduced_golden_cells_initial(initial_printed):
    rm = reproduced_matrix(initial_printed)
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
    rm = reproduced_matrix(revised_refit.annotated_model())
    assert rm.value("X4", "Y") == pytest.approx(0.881, abs=1e-3)
    assert rm.value("X1", "X3") == pytest.approx(0.514, abs=1e-9)


def test_trek_lists_attached_per_cell(initial_printed):
    rm = reproduced_matrix(initial_printed)
    cell = rm.cell_treks("X1", "X3")
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
        rm = reproduced_matrix(model)
        im = implied_matrix(model)
        assert np.abs(rm.r_hat - im.r_hat).max() <= 1e-9


@st.composite
def annotated_dags(draw):
    """A random DAG on 1..12 variables, declared and listed in shuffled order;
    each equation's |beta| sum stays below 0.95, so every psi is positive."""
    k = draw(st.integers(1, 12))
    causal = [f"V{i}" for i in range(k)]
    arrows = []
    for j in range(1, k):
        parents = [causal[i] for i in range(j) if draw(st.booleans())]
        arrows += [Arrow(p, causal[j], draw(st.floats(-0.95, 0.95)) / len(parents))
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

    im = _implied(m)
    assert max(abs(im.psi[v] - psi[idx[v]]) for v in m.variables) <= 1e-12
    assert np.abs(im.r_hat - sigma).max() <= 1e-12
    assert im.r_hat.dtype == np.float64 and not im.r_hat.flags.writeable
    assert im.r_hat.tolist() == [list(row) for row in im.r_hat_rows]
    assert all(type(x) is float for row in im.r_hat_rows for x in row)


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
    im = _implied(m)
    assert im.psi["B"] == pytest.approx(1.0 - 1.2 ** 2)
    assert np.abs(im.r_hat - reproduced_matrix(m).r_hat).max() <= 1e-12
    m = parse_model("var A\nvar B\nvar C\nvar D\npath A -> B : 0.9\npath A -> C : 0.9\n"
                    "path B -> C : 0.9\npath C -> D : 0.5\n")
    im = _implied(m)
    assert im.psi["C"] < 0.0
    assert np.abs(im.r_hat - reproduced_matrix(m).r_hat).max() <= 1e-12


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
        corr = make_corr(names, r, 100)
        fit = fit_standardized(corr, saturated)
        rm = reproduced_matrix(fit.annotated_model())
        assert np.abs(rm.r_hat - r).max() <= 1e-9


def test_missing_coefficient(revised_model):
    with pytest.raises(MissingCoefficient):
        enumerate_treks(revised_model, "X1", "Y")
    with pytest.raises(MissingCoefficient):
        reproduced_matrix(revised_model)


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
    chain = reproduced_matrix(PathModel(names, arrows, {}))
    (trek,) = chain.cell_treks("V0", "V20")
    assert trek.nodes == names
    assert trek.product == pytest.approx(1e-20, rel=1e-12)
    assert chain.value("V0", "V20") == pytest.approx(1e-20, rel=1e-12)
    complete = tuple(Arrow(names[i], names[j], 0.1)
                     for j in range(21) for i in range(j))
    with pytest.raises(TooManyVariables):
        reproduced_matrix(PathModel(names, complete, {}))


def test_recursion_has_no_variable_limit():
    names = tuple(f"V{i}" for i in range(25))
    arrows = tuple(Arrow(names[i], names[i + 1], 0.5) for i in range(24))
    big = PathModel(names, arrows, {})
    assert implied_matrix(big).value("V0", "V24") == pytest.approx(0.5 ** 24)
    assert decompose_effects(big).row("V0", "V24").total == pytest.approx(0.5 ** 24)
    assert simulate_dataset(SimulationSpec(big, 10, 1)).rows.shape == (10, 25)
