"""Model fit against observed correlations, causal effects read off the
structural recursion in `tracing`, and the drop/add revision loop.

`assess_fit` is the only pair scorer: `fit` and every revise refit call it.
"""

from typing import NamedTuple

from .errors import NoAdmissibleRevision, VariableMismatch
from .estimation import _fit_model, coefficient_inference
from .files import csv_text
from .pathspec import Arrow, topological_order
from .record import FrozenRecord, Record
from .tracing import _steps, _trace

DEFAULT_ALPHA = 0.05  # revise_model's drop level for coefficient p
DEFAULT_MISFIT_THRESHOLD = 0.05
DEFAULT_MAX_ITER = 10  # revise_model's iteration limit


# ---------------------------------------------------------------------------
# Fit assessment.

class PairFit(NamedTuple):
    a: str
    b: str
    observed: float
    reproduced: float
    difference: float
    flagged: bool


class FitAssessment(NamedTuple):
    pairs: tuple
    threshold: float

    @property
    def misfit_count(self):
        return sum(1 for p in self.pairs if p.flagged)

    @property
    def fits(self):
        return not any(p.flagged for p in self.pairs)  # stops at the first flagged pair

    @property
    def verdict(self):
        return "fits" if self.fits else "does-not-fit"

    @property
    def max_difference(self):
        return max((p.difference for p in self.pairs), default=0.0)


def assess_fit(observed, reproduced, threshold=DEFAULT_MISFIT_THRESHOLD):
    """Compare every unordered pair: |r - r_hat| > threshold flags a misfit.

    `reproduced` is a ReproducedMatrix over the same variables as
    `observed`, in any order; otherwise VariableMismatch names the
    variables each side lacks.  One pass over the upper triangle of the
    stored cells gives one PairFit per pair, in observed.pairs() order.
    """
    names = observed.variables
    if set(names) != set(reproduced.variables):
        lacks = [f"{side} lacks {sorted(missing)}" for side, missing in (
            ("reproduced", set(names).difference(reproduced.variables)),
            ("observed", set(reproduced.variables).difference(names))) if missing]
        raise VariableMismatch("observed and reproduced variables differ: " + "; ".join(lacks))
    idx = [reproduced.index(v) for v in names]
    pairs = []
    new = tuple.__new__  # as PairFit._make builds it, with no Python call per pair
    for a, r_row in enumerate(observed.r_rows):
        hat_row = reproduced.r_hat_rows[idx[a]]
        for b in range(a + 1, len(names)):
            r, r_hat = r_row[b], hat_row[idx[b]]
            diff = abs(r - r_hat)
            pairs.append(new(PairFit, (names[a], names[b], r, r_hat, diff, diff > threshold)))
    return FitAssessment(tuple(pairs), threshold)


# ---------------------------------------------------------------------------
# Effect decomposition.

class EffectRow(NamedTuple):
    outcome: str
    determinant: str
    direct: float
    indirect: float

    @property
    def total(self):
        return self.direct + self.indirect


class EffectsTable(FrozenRecord):
    _fields = ("rows", "r_squared")

    def __init__(self, rows, r_squared):
        object.__setattr__(self, "rows", rows)
        # outcome -> R² implied by the coefficients
        object.__setattr__(self, "r_squared", r_squared)

    def row(self, determinant, outcome):
        for r in self.rows:
            if r.determinant == determinant and r.outcome == outcome:
                return r
        return None


def decompose_effects(m):
    """Direct / indirect / total effects for every causally linked pair.

    Outcomes are listed most-downstream first with determinants in causal
    order; R² per outcome is the variance its equation explains under the
    model-implied correlations (1 - psi, above 1 when the coefficients imply
    psi <= 0; callers that need psi > 0 use implied_matrix).  Total effects
    are the rows of (I-B)⁻¹ from the recursion that builds r_hat and psi
    (exactly 0.0 where no directed path exists); indirect = total - direct.
    """
    steps = _steps(m)
    return _effects_table(steps, _trace(m.variables, steps)[0])


def _effects_table(steps, implied):
    """decompose_effects of the (variable, parents, beta) steps that traced `implied`."""
    pos = {v: i for i, v in enumerate(implied.variables)}
    order = [v for v, _, _ in steps]
    rows = []
    for outcome, parents, beta in reversed(steps):
        if not parents:
            continue
        total = implied.total[pos[outcome]]
        direct_of = dict(zip(parents, beta))
        for det in order:
            if det == outcome:
                continue
            direct = direct_of.get(det, 0.0)
            indirect = total[pos[det]] - direct
            if det not in direct_of and indirect == 0.0:
                continue
            rows.append(EffectRow(outcome, det, direct, indirect))
    r2 = {v: 1.0 - implied.psi[v] for v, parents, _ in steps if parents}
    return EffectsTable(tuple(rows), r2)


# ---------------------------------------------------------------------------
# Revision loop.

class RevisionStep(NamedTuple):
    iteration: int
    action: str  # "drop" or "add"
    arrows: tuple  # (source, target) pairs involved
    reason: str
    candidates: tuple = ()  # ranked (source, target, |misfit|) for adds
    misfit_count: int = 0
    max_difference: float = 0.0


class RevisionTrace(Record):
    _fields = ("steps", "final_model", "final_fit", "final_assessment", "final_implied",
               "iterations", "converged")

    def __init__(self, steps=None, final_model=None, final_fit=None, final_assessment=None,
                 final_implied=None, iterations=0, converged=False):
        self.steps = [] if steps is None else steps
        self.final_model = final_model
        self.final_fit = final_fit
        self.final_assessment = final_assessment
        self.final_implied = final_implied  # r_hat, psi, (I-B)⁻¹
        self.iterations = iterations
        self.converged = converged


def effects_csv(table):
    """The effects table as CSV text: outcome, determinant, direct, indirect, total."""
    return csv_text([
        ["outcome", "determinant", "direct", "indirect", "total"],
        *([r.outcome, r.determinant, repr(r.direct), repr(r.indirect), repr(r.total)]
          for r in table.rows),
    ])


def revision_csv(trace):
    """The revision trace as CSV text, one row per step."""
    return csv_text([
        ["iteration", "action", "arrows", "reason", "misfit_count", "max_difference"],
        *([s.iteration, s.action, "; ".join(f"{a}->{b}" for a, b in s.arrows),
           s.reason, s.misfit_count, repr(s.max_difference)]
          for s in trace.steps),
    ])


def revise_model(corr, m, alpha=DEFAULT_ALPHA, threshold=DEFAULT_MISFIT_THRESHOLD,
                 max_iter=DEFAULT_MAX_ITER):
    """Iteratively drop non-significant arrows and add arrows for misfit pairs.

    Per iteration: refit; drop every arrow with p >= alpha as one batch;
    reassess; if misfit remains, add the single admissible arrow covering
    the largest misfit, oriented from the causally earlier variable.  An
    addition is admissible when the pair has no arrow and the resulting
    arrow set has not been visited before.  Stops on fit, on no possible
    change (NoAdmissibleRevision, partial trace attached), or after
    max_iter iterations (non-converged trace returned).

    The returned RevisionTrace holds the loop's state: its final_model,
    final_fit, final_implied and final_assessment are always those of the
    last refit.  A refit is fit_standardized's own equation loop
    (`estimation._fit_model`) over one (target, parents) -> EquationFit dict
    kept for the whole call.  Equations are fitted independently, and a drop
    or an add changes only the parent sets of the equations it touches, so
    a refit estimates an equation only when its pair is new to this call;
    the others are reused as they were, bit for bit.  The fit's own
    (variable, parents, beta) steps go to the structural recursion, which
    resumes the previous refit's: it re-traces the causal order from the
    first position whose variable or equation changed (`tracing._trace`),
    so no annotated model is built per refit.  Every refit is scored by
    assess_fit.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    trace = RevisionTrace()
    seen = set()
    cache = {}  # (target, parents) -> EquationFit
    state = None  # the last refit's structural recursion

    def visit(model, *step):
        """Refit `model` into the trace, append `step` if given; the flagged PairFits."""
        nonlocal state
        seen.add(model.arrow_set())
        # every equation is fitted before coefficient_inference checks df
        fit = coefficient_inference(_fit_model(corr, model, cache))
        # An intermediate refit may imply psi <= 0; that must not stop the search.
        implied, state = _trace(model.variables, fit._steps(), state)
        assessment = assess_fit(corr, implied, threshold)
        trace.final_model, trace.final_fit = model, fit
        trace.final_implied, trace.final_assessment = implied, assessment
        flagged = [p for p in assessment.pairs if p.flagged]
        if step:
            trace.steps.append(RevisionStep(
                trace.iterations, *step, misfit_count=len(flagged),
                max_difference=assessment.max_difference,
            ))
        return flagged

    flagged = visit(m)
    for iteration in range(1, max_iter + 1):
        trace.iterations = iteration
        model = trace.final_model

        drops = [
            (parent, y)
            for y, eq in trace.final_fit.equations.items()
            for parent, p in zip(eq.parents, eq.p)
            if p >= alpha
        ]
        if drops:
            dropped = set(drops)
            model = model.with_arrows(
                [a for a in model.arrows if (a.source, a.target) not in dropped]
            )
            if not model.endogenous:
                raise NoAdmissibleRevision(
                    "every arrow is non-significant; dropping all of them "
                    "leaves nothing to estimate",
                    trace=trace,
                )
            flagged = visit(model, "drop", tuple(sorted(drops)), f"coefficient p >= {alpha}")

        if flagged:  # add the arrow for the largest misfit that can be added
            pos = {v: i for i, v in enumerate(topological_order(model))}
            candidates = []
            for pair in flagged:
                if model.has_arrow_between(pair.a, pair.b):
                    continue
                src, dst = sorted((pair.a, pair.b), key=pos.get)
                candidates.append((src, dst, pair.difference))
            candidates.sort(key=lambda c: (-c[2], pos[c[0]], pos[c[1]]))
            arrows = model.arrow_set()
            added = next((c for c in candidates if arrows | {c[:2]} not in seen), None)
            if added is None and not drops:
                raise NoAdmissibleRevision(
                    f"misfit persists ({len(flagged)} pairs) but no arrow can be added",
                    trace=trace,
                )
            if added is not None:
                src, dst, diff = added
                flagged = visit(model.with_arrows(model.arrows + (Arrow(src, dst, None),)),
                                "add", ((src, dst),),
                                f"misfit |r - r_hat| = {diff:.4f} > {threshold}",
                                tuple(candidates))

        if not flagged:
            trace.converged = True
            break

    return trace
