"""Fit assessment, effect decomposition (against the published summary
table and its two documented arithmetic slips), and the revision loop.
"""

import collections

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathtrek import effects, estimation, numeric
from pathtrek.correlation import CorrelationMatrix
from pathtrek.effects import (
    DEFAULT_MISFIT_THRESHOLD,
    RevisionStep,
    RevisionTrace,
    assess_fit,
    decompose_effects,
    revise_model,
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
from pathtrek.tracing import ReproducedMatrix, implied_matrix

from conftest import total_effect_oracle, unchecked_trace
from test_tracing import annotated_dags, random_annotated_dag


# ---------------------------------------------------------------------------
# assess_fit

def test_initial_model_flags_nine_of_ten(observed_corr, initial_printed):
    fa = assess_fit(observed_corr, implied_matrix(initial_printed))
    assert fa.misfit_count == 9
    assert not fa.fits
    unflagged = [(p.a, p.b) for p in fa.pairs if not p.flagged]
    assert unflagged == [("X1", "X2")]


def test_revised_model_fits(observed_corr, revised_refit):
    fa = assess_fit(observed_corr, implied_matrix(revised_refit.annotated_model()))
    assert fa.misfit_count == 0
    assert fa.fits
    assert fa.verdict == "fits"
    assert fa.max_difference == pytest.approx(0.0276, abs=5e-4)


def test_identical_matrices_fit(observed_corr):
    fa = assess_fit(observed_corr,
                    ReproducedMatrix(observed_corr.variables, observed_corr.r_rows))
    assert fa.misfit_count == 0
    assert fa.max_difference == 0.0


def test_assess_fit_variable_mismatch(observed_corr):
    other = CorrelationMatrix(("A", "B"), np.eye(2), 50)
    m = parse_model("var A\nvar B\npath A -> B : 0.2\n")
    with pytest.raises(VariableMismatch, match=r"^observed and reproduced variables differ: "
                       r"reproduced lacks \['X1', 'X2', 'X3', 'X4', 'Y'\]; "
                       r"observed lacks \['A', 'B'\]$"):
        assess_fit(observed_corr, implied_matrix(m))
    with pytest.raises(VariableMismatch,
                       match=r": reproduced lacks \['B'\]; observed lacks \['C'\]$"):
        assess_fit(other, implied_matrix(
            parse_model("var A\nvar C\npath A -> C : 0.1\n")
        ))
    with pytest.raises(VariableMismatch, match=r": reproduced lacks \['X4', 'Y'\]$"):
        assess_fit(observed_corr, implied_matrix(
            parse_model("var X1\nvar X2\nvar X3\npath X1 -> X2 : 0.1\n")
        ))


def test_pair_ordering_deterministic(observed_corr, revised_refit):
    fa = assess_fit(observed_corr, implied_matrix(revised_refit.annotated_model()))
    assert [(p.a, p.b) for p in fa.pairs] == observed_corr.pairs()


def reference_assess_fit(observed, reproduced, threshold):
    """assess_fit as a lookup per cell: every r and r_hat read by name."""
    if set(observed.variables) != set(reproduced.variables):
        raise VariableMismatch("variables differ")
    pairs = []
    for a, b in observed.pairs():
        r = observed.value(a, b)
        r_hat = reproduced.value(a, b)
        diff = abs(r - r_hat)
        pairs.append(effects.PairFit(a, b, r, r_hat, diff, diff > threshold))
    return effects.FitAssessment(tuple(pairs), threshold)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_assess_fit_equals_lookup_per_cell(data):
    """The one-pass scorer reads the same cells as a lookup by name.

    The reproduced matrix lists the variables in a drawn permutation of the
    observed order, and its cells are the permuted observed cells plus
    noise that is not symmetric, so a swapped index or a transposed read
    changes some pair.
    """
    k = data.draw(st.integers(2, 12), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    perm = data.draw(st.permutations(range(k)), label="perm")
    threshold = data.draw(st.sampled_from([0.0, 0.02, DEFAULT_MISFIT_THRESHOLD, 0.5]),
                          label="threshold")
    names = tuple(f"V{i}" for i in range(k))
    x = rng.standard_normal((k, k + 5))
    cov = x @ x.T
    sd = np.sqrt(np.diag(cov))
    observed = CorrelationMatrix(names, cov / np.outer(sd, sd), 100)
    r = np.array(observed.r_rows)[np.ix_(perm, perm)]
    r_hat = r + rng.uniform(-0.1, 0.1, (k, k))
    reproduced = ReproducedMatrix(tuple(names[i] for i in perm),
                                  tuple(map(tuple, r_hat.tolist())))
    got = assess_fit(observed, reproduced, threshold)
    want = reference_assess_fit(observed, reproduced, threshold)
    assert repr(got) == repr(want)  # same classes, fields and float bits


class _Unread:
    """A pair that fails the test if its flag is read."""

    @property
    def flagged(self):
        raise AssertionError("pair read after the first flagged one")


@pytest.mark.parametrize("flags,fits", [((), True), ((False,), True), ((False, False), True),
                                        ((True,), False), ((False, True), False)])
def test_fits_stops_at_the_first_flagged_pair(flags, fits):
    pairs = tuple(effects.PairFit("a", "b", 0.5, 0.4, 0.1, flag) for flag in flags)
    fa = effects.FitAssessment(pairs + ((_Unread(),) if not fits else ()), 0.05)
    assert fa.fits is fits
    assert fa.verdict == ("fits" if fits else "does-not-fit")
    assert fits == (effects.FitAssessment(pairs, 0.05).misfit_count == 0)


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


def test_effects_row_of_an_unlinked_pair_is_none(revised_printed):
    assert decompose_effects(revised_printed).row("Y", "X1") is None


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


def reference_effects(m):
    """decompose_effects with its own forward substitution for (I-B)⁻¹.

    Row v of (I-B)⁻¹ is e_v plus beta_pv times row p, summed over the
    parents left to right in causal order; R² is 1 - psi of an unchecked
    trace.
    """
    implied = unchecked_trace(m)
    order = topological_order(m)
    reach = {}  # v -> row v of (I-B)⁻¹: the total effect on v of each variable
    for v in order:
        row = [0.0] * m.k
        row[m.index(v)] = 1.0
        for p in m.parents(v):
            b = m.coefficient(p, v)
            row = [x + b * y for x, y in zip(row, reach[p])]
        reach[v] = row
    rows = []
    for outcome in reversed(order):
        if not m.parents(outcome):
            continue
        for det in order:
            if det == outcome:
                continue
            arrow = m.arrow(det, outcome)
            direct = arrow.coefficient if arrow else 0.0
            indirect = reach[outcome][m.index(det)] - direct
            if arrow is None and indirect == 0.0:
                continue
            rows.append(effects.EffectRow(outcome, det, direct, indirect))
    r2 = {v: 1.0 - implied.psi[v] for v in order if m.parents(v)}
    return effects.EffectsTable(tuple(rows), r2)


@settings(max_examples=300, deadline=None)
@given(annotated_dags(bound=3.0))
@example(parse_model("var A\nvar B\nvar C\nvar D\npath A -> B : 0.9\n"
                     "path A -> C : 0.9\npath B -> C : 0.9\npath C -> D : 0.5\n"))
@example(parse_model("var A\nvar B\nvar C\npath A -> B : 0.0\npath B -> C : 0.5\n"))
def test_effects_equal_forward_substitution_reference(m):
    """Bit for bit, psi <= 0 included (the first example has psi_C < 0).

    An arrow of coefficient 0.0 keeps its row (A -> B in the second
    example), and a pair with neither an arrow nor an indirect effect has
    none (A on C there).
    """
    table, reference = decompose_effects(m), reference_effects(m)
    assert table.rows == reference.rows
    assert table.r_squared == reference.r_squared
    assert list(table.r_squared) == list(reference.r_squared)


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
    corr = CorrelationMatrix(("A", "B", "C"), implied_matrix(generating).r_hat, 240)
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
    corr = CorrelationMatrix(("A", "B", "C"), r, 50)
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


@pytest.mark.parametrize("max_iter", [1, 10])
def test_revise_scores_each_refit_once(monkeypatch, observed_corr, initial_model, max_iter):
    """assess_fit scores the start and every step's refit, and nothing else."""
    scored = []

    def counted(*args, **kwargs):
        scored.append(assess_fit(*args, **kwargs))
        return scored[-1]

    monkeypatch.setattr(effects, "assess_fit", counted)
    trace = revise_model(observed_corr, initial_model, max_iter=max_iter)
    assert trace.steps
    assert len(scored) == len(trace.steps) + 1
    assert trace.final_assessment is scored[-1]  # the last step's, not a new one
    for step, assessment in zip(trace.steps, scored[1:]):
        assert step.misfit_count == assessment.misfit_count
        assert step.max_difference == assessment.max_difference


def test_dropping_every_arrow_is_inadmissible():
    # one weak arrow at small n: the drop would leave nothing to estimate
    r = np.array([[1.0, 0.1], [0.1, 1.0]])
    corr = CorrelationMatrix(("A", "B"), r, 30)
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
        fit = coefficient_inference(fit_standardized(corr, current))
        # An intermediate refit may imply psi <= 0; that must not stop the search.
        assessment = assess_fit(corr, unchecked_trace(fit.annotated_model()), threshold)
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
        for pair in [p for p in assessment.pairs if p.flagged]:
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
    corr = CorrelationMatrix([names[i] for i in shown], r[np.ix_(shown, shown)], n)
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
        fit.model, fit.equations, fit.n, trace.final_assessment,
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
    corr = CorrelationMatrix(names, r, 4)
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
    fit_equation = estimation._fit_equation
    monkeypatch.setattr(estimation, "_fit_equation", _counting(calls, fit_equation))
    factors = []
    factor = numeric.inverse_factor
    monkeypatch.setattr(numeric, "inverse_factor",
                        lambda a: factors.append(len(a)) or factor(a))
    revise_model(corr, start)
    # one factor per distinct (target, parents) key, of that parent block
    assert factors == [len(parents) for _, parents in calls]
    monkeypatch.setattr(estimation, "_fit_equation",
                        _counting(reference_calls, fit_equation))
    reference_revise(corr, start)
    assert max(calls.values()) == 1
    # the same equations as the refit-everything loop, each only once
    assert set(calls) == set(reference_calls)
    assert sum(reference_calls.values()) > 2 * sum(calls.values())

