"""Model fit against observed correlations, causal-effect decomposition,
and the drop/add revision loop.
"""

from dataclasses import dataclass, field
from typing import Optional

from .errors import NoAdmissibleRevision, VariableMismatch
from .estimation import FittedModel, _endogenous, _fit_equation, _infer_equation
from .pathspec import Arrow, topological_order
from .tracing import _implied, coefficient_matrix

DEFAULT_MISFIT_THRESHOLD = 0.05


# ---------------------------------------------------------------------------
# Fit assessment.

@dataclass(frozen=True)
class PairFit:
    a: str
    b: str
    observed: float
    reproduced: float
    difference: float
    flagged: bool


@dataclass(frozen=True)
class FitAssessment:
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

    def flagged_pairs(self):
        return [p for p in self.pairs if p.flagged]


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

@dataclass(frozen=True)
class EffectRow:
    outcome: str
    determinant: str
    direct: float
    indirect: float

    @property
    def total(self):
        return self.direct + self.indirect


@dataclass(frozen=True)
class EffectsTable:
    rows: tuple
    r_squared: dict  # outcome -> R² implied by the coefficients

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
    are the rows of (I-B)⁻¹, solved by forward substitution in causal order
    (exactly 0.0 where no directed path exists); indirect = total - direct.
    """
    implied = _implied(m)
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
            rows.append(EffectRow(outcome, det, direct, indirect))
    r2 = {v: 1.0 - implied.psi[v] for v in order if m.parents(v)}
    return EffectsTable(tuple(rows), r2)


def total_effect_oracle(m):
    """Total effects via the nilpotent Neumann sum of the coefficient matrix.

    Returns (variables, T) where T[target, source] = sum over all directed
    paths of coefficient products, exactly (I-B)⁻¹ - I for a DAG.
    """
    import numpy as np

    b = coefficient_matrix(m)
    k = m.k
    total = np.zeros((k, k))
    power = np.eye(k)
    for _ in range(k - 1):
        power = power @ b
        total += power
    return m.variables, total


# ---------------------------------------------------------------------------
# Revision loop.

@dataclass(frozen=True)
class RevisionStep:
    iteration: int
    action: str  # "drop" or "add"
    arrows: tuple  # (source, target) pairs involved
    reason: str
    candidates: tuple = ()  # ranked (source, target, |misfit|) for adds
    misfit_count: int = 0
    max_difference: float = 0.0


@dataclass
class RevisionTrace:
    steps: list = field(default_factory=list)
    final_model: Optional["PathModel"] = None
    final_fit: Optional["FittedModel"] = None
    final_assessment: Optional[FitAssessment] = None
    iterations: int = 0
    converged: bool = False


def write_effects_csv(table, path):
    """Export the effects table: outcome, determinant, direct, indirect, total."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["outcome", "determinant", "direct", "indirect", "total"])
        for r in table.rows:
            writer.writerow([r.outcome, r.determinant,
                             repr(r.direct), repr(r.indirect), repr(r.total)])


def write_revision_csv(trace, path):
    """Export the revision trace, one row per step."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "action", "arrows", "reason",
                         "misfit_count", "max_difference"])
        for s in trace.steps:
            writer.writerow([
                s.iteration,
                s.action,
                "; ".join(f"{a}->{b}" for a, b in s.arrows),
                s.reason,
                s.misfit_count,
                repr(s.max_difference),
            ])


def revise_model(corr, m, alpha=0.05, threshold=DEFAULT_MISFIT_THRESHOLD,
                 max_iter=10):
    """Iteratively drop non-significant arrows and add arrows for misfit pairs.

    Per iteration: refit; drop every arrow with p >= alpha as one batch;
    reassess; if misfit remains, add the single admissible arrow covering
    the largest misfit, oriented from the causally earlier variable.  An
    addition is admissible when the pair has no arrow and the resulting
    arrow set has not been visited before.  Stops on fit, on no possible
    change (NoAdmissibleRevision, partial trace attached), or after
    max_iter iterations (non-converged trace returned).

    Equations are fitted independently, and a drop or an add changes only
    the parent sets of the equations it touches, so a refit re-estimates an
    equation only when its (target, parents) pair is new to this call; the
    others are reused as they were, bit for bit.  Intermediate models are
    scored by `_misfits`; the FitAssessment is built for the final model only.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    trace = RevisionTrace()
    model = m
    seen = {model.arrow_set()}
    cache = {}  # (target, parents) -> EquationFit with inference

    def refit(current):
        fitted = []
        for y in _endogenous(corr, current):
            parents = current.parents(y)
            fitted.append(cache.get((y, parents)) or _fit_equation(corr, y, parents))
        equations = {}
        for eq in fitted:  # every equation is fitted before any is inferred
            key = (eq.target, eq.parents)
            if key not in cache:
                cache[key] = _infer_equation(eq, corr, corr.n, alpha)
            equations[eq.target] = cache[key]
        fit = FittedModel(current, equations, corr, corr.n, alpha)
        # An intermediate refit may imply psi <= 0; that must not stop the search.
        implied = _implied(fit.annotated_model())
        flagged, max_difference = _misfits(corr, implied, threshold)
        return fit, implied, flagged, max_difference

    def finish():
        trace.final_model = model
        trace.final_fit = fit
        trace.final_assessment = assess_fit(corr, implied, threshold)
        return trace

    fit, implied, flagged, max_difference = refit(model)
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
                raise NoAdmissibleRevision(
                    "every arrow is non-significant; dropping all of them "
                    "leaves nothing to estimate",
                    trace=finish(),
                )
            model = reduced
            seen.add(model.arrow_set())
            fit, implied, flagged, max_difference = refit(model)
            trace.steps.append(
                RevisionStep(
                    iteration=iteration,
                    action="drop",
                    arrows=tuple(sorted(drops)),
                    reason=f"coefficient p >= {alpha}",
                    misfit_count=len(flagged),
                    max_difference=max_difference,
                )
            )
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
            model = model.with_arrows(model.arrows + (Arrow(src, dst, None),))
            seen.add(model.arrow_set())
            fit, implied, flagged, max_difference = refit(model)
            trace.steps.append(
                RevisionStep(
                    iteration=iteration,
                    action="add",
                    arrows=((src, dst),),
                    reason=f"misfit |r - r_hat| = {diff:.4f} > {threshold}",
                    candidates=tuple(candidates),
                    misfit_count=len(flagged),
                    max_difference=max_difference,
                )
            )
            if not flagged:
                trace.converged = True
                break

    return finish()
