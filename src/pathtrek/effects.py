"""Model fit against observed correlations, causal effects read off the
structural recursion in `tracing`, and the drop/add revision loop.
"""

from typing import NamedTuple

from .errors import NoAdmissibleRevision, VariableMismatch
from .estimation import _fit_model, coefficient_inference
from .files import write_rows
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
        return self.misfit_count == 0

    @property
    def verdict(self):
        return "fits" if self.fits else "does-not-fit"

    @property
    def max_difference(self):
        return max((p.difference for p in self.pairs), default=0.0)


def _check_variables(observed, reproduced):
    if set(observed.variables) != set(reproduced.variables):
        raise VariableMismatch(
            f"observed variables {sorted(observed.variables)} != "
            f"reproduced {sorted(reproduced.variables)}"
        )


def assess_fit(observed, reproduced, threshold=DEFAULT_MISFIT_THRESHOLD):
    """Compare every unordered pair: |r - r_hat| > threshold flags a misfit."""
    _check_variables(observed, reproduced)
    pairs = []
    for a, b in observed.pairs():
        r = observed.value(a, b)
        r_hat = reproduced.value(a, b)
        diff = abs(r - r_hat)
        pairs.append(PairFit(a, b, r, r_hat, diff, diff > threshold))
    return FitAssessment(tuple(pairs), threshold)


def _misfits(observed, implied, threshold):
    """assess_fit's flagged (a, b, difference) triples and max difference.

    One pass over the upper triangle of the stored cells: the pairs come in
    observed.pairs() order, and each difference is the same subtraction and
    abs that assess_fit makes, so the results are equal.
    """
    _check_variables(observed, implied)
    names = observed.variables
    idx = [implied.index(v) for v in names]
    flagged, worst = [], 0.0
    for a, r_row in enumerate(observed.r_rows):
        hat_row = implied.r_hat_rows[idx[a]]
        for b in range(a + 1, len(names)):
            diff = abs(r_row[b] - hat_row[idx[b]])
            if diff > threshold:
                flagged.append((names[a], names[b], diff))
            worst = max(worst, diff)
    return flagged, worst


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


def write_effects_csv(table, path):
    """Export the effects table: outcome, determinant, direct, indirect, total."""
    write_rows(path, [
        ["outcome", "determinant", "direct", "indirect", "total"],
        *([r.outcome, r.determinant, repr(r.direct), repr(r.indirect), repr(r.total)]
          for r in table.rows),
    ])


def write_revision_csv(trace, path):
    """Export the revision trace, one row per step."""
    write_rows(path, [
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

    A refit is fit_standardized's own equation loop (`estimation._fit_model`)
    over one (target, parents) -> EquationFit dict kept for the whole call.
    Equations are fitted independently, and a drop or an add changes only
    the parent sets of the equations it touches, so a refit estimates an
    equation only when its pair is new to this call; the others are reused
    as they were, bit for bit.  The fit's own (variable, parents, beta)
    steps go to the structural recursion, which resumes the previous
    refit's: it re-traces the causal order from the first position whose
    variable or equation changed (`tracing._trace`), so no annotated model
    is built per refit.  Intermediate models are scored by `_misfits`; the
    FitAssessment is built for the final model only.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    trace = RevisionTrace()
    model = m
    seen = {model.arrow_set()}
    cache = {}  # (target, parents) -> EquationFit
    state = None  # the last refit's structural recursion

    def refit(current):
        nonlocal state
        # every equation is fitted before coefficient_inference checks df
        fit = coefficient_inference(_fit_model(corr, current, cache))
        # An intermediate refit may imply psi <= 0; that must not stop the search.
        implied, state = _trace(current.variables, fit._steps(), state)
        flagged, max_difference = _misfits(corr, implied, threshold)
        return fit, implied, flagged, max_difference

    def finish():
        trace.final_model = model
        trace.final_fit = fit
        trace.final_assessment = assess_fit(corr, implied, threshold)
        trace.final_implied = implied
        return trace

    def move(to, action, arrows, reason, candidates=()):
        """Make `to` the current model, refit it and record the step."""
        nonlocal model, fit, implied, flagged
        model = to
        seen.add(model.arrow_set())
        fit, implied, flagged, max_difference = refit(model)
        trace.steps.append(RevisionStep(
            iteration=trace.iterations, action=action, arrows=arrows, reason=reason,
            candidates=candidates, misfit_count=len(flagged),
            max_difference=max_difference,
        ))

    fit, implied, flagged, _ = refit(model)
    for iteration in range(1, max_iter + 1):
        trace.iterations = iteration
        changed = False

        drops = [
            (parent, y)
            for y, eq in fit.equations.items()
            for parent, p in zip(eq.parents, eq.p)
            if p >= alpha
        ]
        if drops:
            dropped = set(drops)
            reduced = model.with_arrows(
                [a for a in model.arrows if (a.source, a.target) not in dropped]
            )
            if not reduced.endogenous:
                raise NoAdmissibleRevision(
                    "every arrow is non-significant; dropping all of them "
                    "leaves nothing to estimate",
                    trace=finish(),
                )
            move(reduced, "drop", tuple(sorted(drops)), f"coefficient p >= {alpha}")
            changed = True

        if not flagged:
            trace.converged = True
            break

        order = topological_order(model)
        pos = {v: i for i, v in enumerate(order)}
        candidates = []
        for a, b, difference in flagged:
            if model.has_arrow_between(a, b):
                continue
            src, dst = sorted((a, b), key=pos.get)
            candidates.append((src, dst, difference))
        candidates.sort(key=lambda c: (-c[2], pos[c[0]], pos[c[1]]))

        added = None
        arrows = model.arrow_set()
        for src, dst, diff in candidates:
            proposal = arrows | {(src, dst)}
            if proposal in seen:
                continue
            added = (src, dst, diff)
            break

        if added is None:
            if not changed:
                raise NoAdmissibleRevision(
                    f"misfit persists ({len(flagged)} pairs) but no "
                    "arrow can be added",
                    trace=finish(),
                )
        else:
            src, dst, diff = added
            move(model.with_arrows(model.arrows + (Arrow(src, dst, None),)), "add",
                 ((src, dst),), f"misfit |r - r_hat| = {diff:.4f} > {threshold}",
                 tuple(candidates))
            if not flagged:
                trace.converged = True
                break

    return finish()
