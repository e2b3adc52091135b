"""Fit assessment, effect decomposition (against the published summary
table and its two documented arithmetic slips), and the revision loop.
"""

import collections

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathtrek import effects, estimation
from pathtrek.effects import (
    DEFAULT_MISFIT_THRESHOLD,
    RevisionStep,
    RevisionTrace,
    assess_fit,
    decompose_effects,
    revise_model,
    total_effect_oracle,
)
from pathtrek.errors import (
    DegreesOfFreedomExhausted,
    NoAdmissibleRevision,
    SingularMatrix,
    VariableMismatch,
    VariableMissing,
)
from pathtrek.estimation import coefficient_inference, fit_standardized
from pathtrek.pathspec import Arrow, PathModel, parse_model, topological_order
from pathtrek.tracing import _implied, implied_matrix, reproduced_matrix

from conftest import make_corr
from test_tracing import random_annotated_dag


# ---------------------------------------------------------------------------
# assess_fit

def test_initial_model_flags_nine_of_ten(observed_corr, initial_printed):
    fa = assess_fit(observed_corr, reproduced_matrix(initial_printed))
    assert fa.misfit_count == 9
    assert not fa.fits
    unflagged = [(p.a, p.b) for p in fa.pairs if not p.flagged]
    assert unflagged == [("X1", "X2")]


def test_revised_model_fits(observed_corr, revised_refit):
    fa = assess_fit(observed_corr, reproduced_matrix(revised_refit.annotated_model()))
    assert fa.misfit_count == 0
    assert fa.fits
    assert fa.verdict == "fits"
    assert fa.max_difference == pytest.approx(0.0276, abs=5e-4)


def test_identical_matrices_fit(observed_corr):
    class EchoReproduced:
        variables = observed_corr.variables
        def value(self, a, b):
            return observed_corr.value(a, b)
    fa = assess_fit(observed_corr, EchoReproduced())
    assert fa.misfit_count == 0
    assert fa.max_difference == 0.0


def test_assess_fit_variable_mismatch(observed_corr):
    other = make_corr(("A", "B"), np.eye(2), 50)
    m = parse_model("var A\nvar B\npath A -> B : 0.2\n")
    with pytest.raises(VariableMismatch):
        assess_fit(observed_corr, reproduced_matrix(m))
    with pytest.raises(VariableMismatch):
        assess_fit(other, reproduced_matrix(
            parse_model("var A\nvar C\npath A -> C : 0.1\n")
        ))


def test_pair_ordering_deterministic(observed_corr, revised_refit):
    fa = assess_fit(observed_corr, reproduced_matrix(revised_refit.annotated_model()))
    assert [(p.a, p.b) for p in fa.pairs] == observed_corr.pairs()


# ---------------------------------------------------------------------------
# decompose_effects against the published causal-effects summary

TABLE_EFFECTS = {
    # (determinant, outcome): (direct, indirect, total)
    ("X1", "Y"): (0.0, 0.484, 0.484),     # published indirect 0.394 omits one path
    ("X2", "Y"): (0.145, 0.221, 0.366),
    ("X3", "Y"): (0.084, 0.170, 0.254),   # published direct/indirect transposed
    ("X4", "Y"): (0.782, 0.0, 0.782),
    ("X1", "X4"): (0.239, 0.226, 0.465),
    ("X2", "X4"): (0.216, 0.044, 0.260),
    ("X3", "X4"): (0.217, 0.0, 0.217),
    ("X1", "X3"): (0.405, 0.108, 0.513),
    ("X2", "X3"): (0.204, 0.0, 0.204),
    ("X1", "X2"): (0.531, 0.0, 0.531),
}


def test_effects_table_golden(revised_printed):
    table = decompose_effects(revised_printed)
    assert len(table.rows) == len(TABLE_EFFECTS)
    for (det, outcome), (direct, indirect, total) in TABLE_EFFECTS.items():
        row = table.row(det, outcome)
        assert row is not None, (det, outcome)
        assert row.direct == pytest.approx(direct, abs=1e-3), (det, outcome)
        assert row.indirect == pytest.approx(indirect, abs=1e-3), (det, outcome)
        assert row.total == pytest.approx(total, abs=1e-3), (det, outcome)


def test_effects_outcome_ordering(revised_printed):
    table = decompose_effects(revised_printed)
    assert [r.outcome for r in table.rows] == (
        ["Y"] * 4 + ["X4"] * 3 + ["X3"] * 2 + ["X2"]
    )
    assert [r.determinant for r in table.rows[:4]] == ["X1", "X2", "X3", "X4"]


def test_effects_r_squared_from_refit(revised_refit):
    table = decompose_effects(revised_refit.annotated_model())
    assert table.r_squared["X2"] == pytest.approx(0.282, abs=1e-3)
    assert table.r_squared["X3"] == pytest.approx(0.294, abs=1e-3)
    assert table.r_squared["X4"] == pytest.approx(0.299, abs=1e-3)
    assert table.r_squared["Y"] == pytest.approx(0.805, abs=1e-3)


def test_total_identity(revised_printed):
    for row in decompose_effects(revised_printed).rows:
        assert row.total == pytest.approx(row.direct + row.indirect, abs=1e-12)


# ---------------------------------------------------------------------------
# total_effect_oracle

def test_chain_total():
    m = parse_model("var A\nvar B\nvar C\npath A -> B : 0.5\npath B -> C : 0.4\n")
    names, totals = total_effect_oracle(m)
    assert totals[names.index("C"), names.index("A")] == pytest.approx(0.2)
    assert totals[names.index("B"), names.index("A")] == pytest.approx(0.5)


def test_oracle_on_revised(revised_printed):
    names, totals = total_effect_oracle(revised_printed)
    assert totals[names.index("Y"), names.index("X1")] == pytest.approx(0.484, abs=1e-3)


def test_arrowless_pair_zero():
    m = parse_model("var A\nvar B\nvar C\npath A -> B : 0.5\n")
    names, totals = total_effect_oracle(m)
    assert totals[names.index("C"), names.index("A")] == 0.0


def test_decomposition_equals_oracle_random_models():
    gen = np.random.default_rng(321)
    for _ in range(100):
        model = random_annotated_dag(gen, max_k=7)
        table = decompose_effects(model) if model.endogenous else None
        names, totals = total_effect_oracle(model)
        idx = {v: i for i, v in enumerate(names)}
        seen = set()
        if table is not None:
            for row in table.rows:
                assert row.total == pytest.approx(
                    totals[idx[row.outcome], idx[row.determinant]], abs=1e-12
                )
                seen.add((row.determinant, row.outcome))
        for a in names:
            for b in names:
                if a != b and (a, b) not in seen:
                    assert totals[idx[b], idx[a]] == 0.0


# ---------------------------------------------------------------------------
# revise_model

def test_worked_revision(observed_corr, initial_model, revised_model):
    trace = revise_model(observed_corr, initial_model)
    assert trace.converged
    actions = [(s.action, s.arrows) for s in trace.steps]
    assert actions[0] == ("drop", (("X1", "Y"),))
    added = {a for act, arrows in actions if act == "add" for a in arrows}
    assert added == {("X1", "X4"), ("X2", "X4")}
    assert trace.final_model.arrow_set() == revised_model.arrow_set()
    assert trace.final_assessment.fits
    assert trace.iterations <= 10
    # first addition targets the largest misfit
    first_add = next(s for s in trace.steps if s.action == "add")
    assert first_add.arrows == (("X2", "X4"),)
    assert first_add.candidates[0][:2] == ("X2", "X4")
    assert first_add.candidates[0][2] == pytest.approx(0.254, abs=1e-3)


def test_revision_misfit_monotone(observed_corr, initial_model):
    trace = revise_model(observed_corr, initial_model)
    counts = [s.misfit_count for s in trace.steps]
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 0


def test_revision_never_revisits_topology(observed_corr, initial_model):
    trace = revise_model(observed_corr, initial_model)
    # replay the step sequence and collect the intermediate arrow sets
    current = initial_model
    seen = {current.arrow_set()}
    for step in trace.steps:
        if step.action == "drop":
            dropped = set(step.arrows)
            current = current.with_arrows(
                [a for a in current.arrows if (a.source, a.target) not in dropped]
            )
        else:
            current = current.with_arrows(
                current.arrows + tuple(Arrow(s, t, None) for s, t in step.arrows)
            )
        assert current.arrow_set() not in seen
        seen.add(current.arrow_set())


def test_already_fitting_model_empty_trace():
    generating = parse_model(
        "var A\nvar B\nvar C\n"
        "path A -> B : 0.6\npath A -> C : 0.5\npath B -> C : 0.4\n"
    )
    corr = make_corr(("A", "B", "C"), implied_matrix(generating).r_hat, 240)
    bare = generating.with_arrows(
        [Arrow(a.source, a.target, None) for a in generating.arrows]
    )
    trace = revise_model(corr, bare)
    assert trace.converged
    assert trace.steps == []
    assert trace.final_assessment.fits


def test_max_iter_zero_rejected(observed_corr, initial_model):
    with pytest.raises(ValueError):
        revise_model(observed_corr, initial_model, max_iter=0)


def test_max_iter_one_partial(observed_corr, initial_model):
    trace = revise_model(observed_corr, initial_model, max_iter=1)
    assert not trace.converged
    assert [s.action for s in trace.steps] == ["drop", "add"]
    assert not trace.final_assessment.fits


def test_no_admissible_revision():
    # A -> C is weak enough to drop at n=50; re-adding it would revisit the
    # starting topology, so the loop has no admissible move left.
    r = np.array([[1.0, 0.0, 0.2], [0.0, 1.0, 0.6], [0.2, 0.6, 1.0]])
    corr = make_corr(("A", "B", "C"), r, 50)
    m = parse_model("var A\nvar B\nvar C\npath A -> C\npath B -> C\n")
    with pytest.raises(NoAdmissibleRevision) as exc:
        revise_model(corr, m)
    assert [s.action for s in exc.value.trace.steps] == ["drop"]
    assert not exc.value.trace.final_assessment.fits


def test_drop_leaves_other_equations_bit_identical(observed_corr, initial_model):
    before = fit_standardized(observed_corr, initial_model)
    trace = revise_model(observed_corr, initial_model, max_iter=1)
    # after the drop of X1 -> Y, equations X2/X3/X4 must be bit-identical;
    # compare against the post-drop model refit
    dropped_model = initial_model.with_arrows(
        [a for a in initial_model.arrows if (a.source, a.target) != ("X1", "Y")]
    )
    after = fit_standardized(observed_corr, dropped_model)
    for y in ("X2", "X3", "X4"):
        assert before.equation(y).beta == after.equation(y).beta
    assert before.equation("Y").beta != after.equation("Y").beta


def test_revised_start_is_fixed_point(observed_corr, revised_model):
    trace = revise_model(observed_corr, revised_model)
    assert trace.converged
    assert trace.steps == []
    assert trace.final_model.arrow_set() == revised_model.arrow_set()


def test_dropping_every_arrow_is_inadmissible():
    # one weak arrow at small n: the drop would leave nothing to estimate
    r = np.array([[1.0, 0.1], [0.1, 1.0]])
    corr = make_corr(("A", "B"), r, 30)
    m = parse_model("var A\nvar B\npath A -> B\n")
    with pytest.raises(NoAdmissibleRevision, match="non-significant"):
        revise_model(corr, m)


# ---------------------------------------------------------------------------
# revise_model against the refit-everything loop

def reference_revise(corr, m, alpha=0.05, threshold=DEFAULT_MISFIT_THRESHOLD,
                 max_iter=10):
    """revise_model as it was before equation fits were cached: every refit
    re-estimates every equation and assesses every pair with assess_fit."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    trace = RevisionTrace()
    model = m
    seen = {model.arrow_set()}

    def refit(current):
        fit = coefficient_inference(fit_standardized(corr, current), alpha=alpha)
        # An intermediate refit may imply psi <= 0; that must not stop the search.
        assessment = assess_fit(corr, _implied(fit.annotated_model()), threshold)
        return fit, assessment

    fit, assessment = refit(model)
    for iteration in range(1, max_iter + 1):
        trace.iterations = iteration
        changed = False

        drops = [
            (eq.parents[j], y)
            for y, eq in fit.equations.items()
            for j in range(len(eq.parents))
            if eq.p[j] >= alpha
        ]
        if drops:
            dropped = set(drops)
            reduced = model.with_arrows(
                [a for a in model.arrows if (a.source, a.target) not in dropped]
            )
            if not reduced.endogenous:
                trace.final_model = model
                trace.final_fit = fit
                trace.final_assessment = assessment
                raise NoAdmissibleRevision(
                    "every arrow is non-significant; dropping all of them "
                    "leaves nothing to estimate",
                    trace=trace,
                )
            model = reduced
            seen.add(model.arrow_set())
            fit, assessment = refit(model)
            trace.steps.append(
                RevisionStep(
                    iteration=iteration,
                    action="drop",
                    arrows=tuple(sorted(drops)),
                    reason=f"coefficient p >= {alpha}",
                    misfit_count=assessment.misfit_count,
                    max_difference=assessment.max_difference,
                )
            )
            changed = True

        if assessment.fits:
            trace.converged = True
            break

        order = topological_order(model)
        pos = {v: i for i, v in enumerate(order)}
        candidates = []
        for pair in assessment.flagged_pairs():
            if model.has_arrow_between(pair.a, pair.b):
                continue
            src, dst = sorted((pair.a, pair.b), key=pos.get)
            candidates.append((src, dst, pair.difference))
        candidates.sort(key=lambda c: (-c[2], pos[c[0]], pos[c[1]]))

        added = None
        for src, dst, diff in candidates:
            proposal = model.arrow_set() | {(src, dst)}
            if proposal in seen:
                continue
            added = (src, dst, diff)
            break

        if added is None:
            if not changed:
                exc = NoAdmissibleRevision(
                    f"misfit persists ({assessment.misfit_count} pairs) but no "
                    "arrow can be added",
                    trace=trace,
                )
                trace.final_model = model
                trace.final_fit = fit
                trace.final_assessment = assessment
                raise exc
        else:
            src, dst, diff = added
            model = model.with_arrows(model.arrows + (Arrow(src, dst, None),))
            seen.add(model.arrow_set())
            fit, assessment = refit(model)
            trace.steps.append(
                RevisionStep(
                    iteration=iteration,
                    action="add",
                    arrows=((src, dst),),
                    reason=f"misfit |r - r_hat| = {diff:.4f} > {threshold}",
                    candidates=tuple(candidates),
                    misfit_count=assessment.misfit_count,
                    max_difference=assessment.max_difference,
                )
            )
            if assessment.fits:
                trace.converged = True
                break

    trace.final_model = model
    trace.final_fit = fit
    trace.final_assessment = assessment
    return trace


def revision_problem(seed, k, n, noise, strength):
    """A start model and the correlations of a random recursive DAG plus noise.

    The true DAG's coefficients are scaled by `strength`; symmetric normal
    noise of sd `noise` is added off the diagonal.  The start model drops
    about a third of the true arrows and adds a few false ones, and the
    matrix lists the variables in another order than the model does.
    """
    gen = np.random.default_rng(seed)
    names = tuple(f"V{i}" for i in range(k))
    order = gen.permutation(k)  # causal position -> variable
    true_arrows, start_arrows = [], []
    for j in range(1, k):
        parents = [i for i in range(j) if gen.random() < 0.4]
        budget = 0.95 / max(1, len(parents))
        for i in range(j):
            src, dst = names[order[i]], names[order[j]]
            if i in parents:
                true_arrows.append(Arrow(src, dst, strength * float(gen.uniform(-budget, budget))))
                if gen.random() < 0.65:
                    start_arrows.append(Arrow(src, dst, None))
            elif gen.random() < 0.08:
                start_arrows.append(Arrow(src, dst, None))
    r = implied_matrix(PathModel(names, tuple(true_arrows), {})).r_hat.copy()
    upper = np.triu(gen.normal(0.0, noise, (k, k)), 1)
    r = np.clip(r + upper + upper.T, -0.95, 0.95)
    np.fill_diagonal(r, 1.0)
    shown = gen.permutation(k)
    corr = make_corr([names[i] for i in shown], r[np.ix_(shown, shown)], n)
    return corr, PathModel(names, tuple(start_arrows), {})


def _outcome(revise, corr, start, max_iter):
    """repr of everything a revision returns or raises; repr tells -0.0 and
    numpy scalars apart from 0.0 and Python floats."""
    try:
        trace, raised = revise(corr, start, max_iter=max_iter), None
    except NoAdmissibleRevision as exc:
        trace, raised = exc.trace, (type(exc), str(exc))
    except Exception as exc:  # the same failure must come from both loops
        return None, (type(exc), str(exc))
    fit = trace.final_fit
    return repr((
        trace.steps, trace.converged, trace.iterations, trace.final_model,
        fit.model, fit.equations, fit.n, fit.alpha, trace.final_assessment,
    )), raised


# (seed, k, n, noise, strength, max_iter) pinned on each early exit
ALL_DROPPED = (2, 4, 30, 0.05, 0.0, 10)
NO_ADDITION = (17, 5, 60, 0.1, 0.5, 10)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(4, 12),
    n=st.sampled_from([30, 240, 1000, 5000]),
    noise=st.sampled_from([0.0, 0.02, 0.05, 0.1]),
    strength=st.sampled_from([0.0, 0.6, 1.0]),
    max_iter=st.integers(1, 10),
)
@example(*ALL_DROPPED)
@example(*NO_ADDITION)
def test_cached_revision_matches_reference(seed, k, n, noise, strength, max_iter):
    corr, start = revision_problem(seed, k, n, noise, strength)
    assert _outcome(revise_model, corr, start, max_iter) == \
        _outcome(reference_revise, corr, start, max_iter)


@pytest.mark.parametrize("pinned,message", [
    (ALL_DROPPED, "every arrow is non-significant"),
    (NO_ADDITION, "but no arrow can be added"),
])
def test_pinned_problems_reach_each_early_exit(pinned, message):
    seed, k, n, noise, strength, max_iter = pinned
    corr, start = revision_problem(seed, k, n, noise, strength)
    with pytest.raises(NoAdmissibleRevision, match=message):
        reference_revise(corr, start, max_iter=max_iter)


def test_revision_fits_every_equation_before_inference():
    # D has no degrees of freedom left at n = 4 and comes first; E's parents
    # P and Q correlate 1, so E's fit fails.  Fitting comes first everywhere.
    names = ("A", "B", "C", "D", "P", "Q", "E")
    r = np.eye(7)
    r[4, 5] = r[5, 4] = 1.0
    corr = make_corr(names, r, 4)
    m = parse_model("".join(f"var {v}\n" for v in names) +
                    "path A -> D\npath B -> D\npath C -> D\n"
                    "path P -> E\npath Q -> E\n")
    with pytest.raises(DegreesOfFreedomExhausted):
        coefficient_inference(fit_standardized(corr, m.with_arrows(m.arrows[:3])))
    for revise in (reference_revise, revise_model):
        with pytest.raises(SingularMatrix, match="equation for 'E'"):
            revise(corr, m)


def test_revision_checks_variables_on_first_refit(observed_corr):
    extra = parse_model("var X1\nvar X2\nvar Z\npath X1 -> Z\npath X2 -> Z\n")
    fewer = parse_model("var X1\nvar X2\npath X1 -> X2\n")
    for revise in (reference_revise, revise_model):
        with pytest.raises(VariableMissing, match="'Z'"):
            revise(observed_corr, extra)
        with pytest.raises(VariableMismatch):
            revise(observed_corr, fewer)


def _counting(calls, fit_equation):
    def counted(corr, y, parents):
        calls[(y, parents)] += 1
        return fit_equation(corr, y, parents)
    return counted


@pytest.mark.parametrize("problem", ["study", "k12"])
def test_each_equation_estimated_once_per_revision(
    monkeypatch, observed_corr, initial_model, problem
):
    if problem == "study":
        corr, start = observed_corr, initial_model
    else:  # 14 steps, five of them drops, ending on max_iter
        corr, start = revision_problem(6, 12, 1000, 0.02, 1.0)
    calls, reference_calls = collections.Counter(), collections.Counter()
    monkeypatch.setattr(effects, "_fit_equation",
                        _counting(calls, effects._fit_equation))
    monkeypatch.setattr(estimation, "_fit_equation",
                        _counting(reference_calls, estimation._fit_equation))
    revise_model(corr, start)
    reference_revise(corr, start)
    assert max(calls.values()) == 1
    # the same equations as the refit-everything loop, each only once
    assert set(calls) == set(reference_calls)
    assert sum(reference_calls.values()) > 2 * sum(calls.values())
