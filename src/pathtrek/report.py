"""Report assembly and rendering for the command-line front end.

A Report is built once from analysis results and rendered two ways: text
(3-decimal reals, "<.001" for tiny p-values, significance stars) and JSON
(full precision, stable field names).  Both views read the same stored
numbers.
"""

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .correlation import classify_strength

P_DISPLAY_FLOOR = 5e-4


def fmt(x, nd=3):
    return f"{x:.{nd}f}"


def p_display(p):
    return "<.001" if p < P_DISPLAY_FLOOR else f"{p:.3f}"


def stars(p):
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)  # name -> sha256
    screening: Optional["ScreeningReport"] = None
    correlations: Optional["CorrelationMatrix"] = None
    fitted: Optional["FittedModel"] = None
    reproduced: Optional["ReproducedMatrix"] = None
    fit: Optional["FitAssessment"] = None
    effects: Optional["EffectsTable"] = None
    revision: Optional["RevisionTrace"] = None
    warnings: list = field(default_factory=list)

    # -- machine rendering ---------------------------------------------

    def to_dict(self):
        out = {
            "version": __version__,
            "command": self.command,
            "inputs": dict(self.inputs),
            "warnings": list(self.warnings),
        }
        if self.screening is not None:
            s = self.screening
            out["screening"] = {
                "summaries": [
                    {
                        "name": v.name,
                        "mean": v.mean,
                        "sd": v.sd,
                        "min": v.minimum,
                        "max": v.maximum,
                        "zero_variance": v.flag_zero_variance,
                    }
                    for v in s.summaries
                ],
                "outliers": [
                    {"row": r, "d_squared": d2, "p": p} for r, d2, p in s.outliers
                ],
                "outlier_cutoff": s.outlier_cutoff,
                "normality": {
                    name: {"d": d, "p": p, "verdict": verdict}
                    for name, (d, p, verdict) in s.normality.items()
                },
                "vif": dict(s.vif),
                "warnings": list(s.warnings),
            }
        if self.correlations is not None:
            c = self.correlations
            out["correlations"] = {
                "variables": list(c.variables),
                "n": c.n,
                "r": [list(row) for row in c.r_rows],
                "p": [list(row) for row in c.p_rows],
                "strength": {
                    f"{a}:{b}": classify_strength(c.value(a, b)).value
                    for a, b in c.pairs()
                },
            }
        if self.fitted is not None:
            f = self.fitted
            out["coefficients"] = {
                "n": f.n,
                "equations": [
                    {
                        "target": y,
                        "parents": list(eq.parents),
                        "beta": list(eq.beta),
                        "se": list(eq.se) if eq.se else None,
                        "t": list(eq.t) if eq.t else None,
                        "p": list(eq.p) if eq.p else None,
                        "r_squared": eq.r_squared,
                        "disturbance": eq.disturbance,
                    }
                    for y, eq in f.equations.items()
                ],
            }
        if self.reproduced is not None:
            rm = self.reproduced
            out["reproduced"] = {
                "variables": list(rm.variables),
                "r_hat": [list(row) for row in rm.r_hat_rows],
            }
        if self.fit is not None:
            out["fit"] = {
                "threshold": self.fit.threshold,
                "misfit_count": self.fit.misfit_count,
                "verdict": self.fit.verdict,
                "max_difference": self.fit.max_difference,
                "pairs": [
                    {
                        "a": p.a,
                        "b": p.b,
                        "observed": p.observed,
                        "reproduced": p.reproduced,
                        "difference": p.difference,
                        "flagged": p.flagged,
                    }
                    for p in self.fit.pairs
                ],
            }
        if self.effects is not None:
            out["effects"] = {
                "rows": [
                    {
                        "outcome": r.outcome,
                        "determinant": r.determinant,
                        "direct": r.direct,
                        "indirect": r.indirect,
                        "total": r.total,
                    }
                    for r in self.effects.rows
                ],
                "r_squared": dict(self.effects.r_squared),
            }
        if self.revision is not None:
            t = self.revision
            out["revision"] = {
                "converged": t.converged,
                "iterations": t.iterations,
                "steps": [
                    {
                        "iteration": s.iteration,
                        "action": s.action,
                        "arrows": [list(a) for a in s.arrows],
                        "reason": s.reason,
                        "candidates": [list(c) for c in s.candidates],
                        "misfit_count": s.misfit_count,
                        "max_difference": s.max_difference,
                    }
                    for s in t.steps
                ],
            }
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    # -- human rendering -------------------------------------------------

    def to_text(self):
        lines = [f"pathtrek {__version__} :: {self.command}"]
        for name, digest in self.inputs.items():
            lines.append(f"input {name} sha256:{digest[:16]}")
        if self.screening is not None:
            lines += self._screening_text()
        if self.correlations is not None:
            lines += self._correlations_text()
        if self.fitted is not None:
            lines += self._coefficients_text()
        if self.reproduced is not None and self.fit is not None:
            lines += self._fit_text()
        if self.effects is not None:
            lines += self._effects_text()
        if self.revision is not None:
            lines += self._revision_text()
        if self.warnings:
            lines.append("")
            lines.append("warnings:")
            lines += [f"  - {w}" for w in self.warnings]
        return "\n".join(lines) + "\n"

    def _screening_text(self):
        s = self.screening
        lines = ["", "== screening =="]
        lines.append(f"{'variable':<12}{'mean':>10}{'sd':>10}{'min':>10}{'max':>10}")
        for v in s.summaries:
            flag = "  ZERO-VARIANCE" if v.flag_zero_variance else ""
            lines.append(
                f"{v.name:<12}{fmt(v.mean):>10}{fmt(v.sd):>10}"
                f"{fmt(v.minimum):>10}{fmt(v.maximum):>10}{flag}"
            )
        lines.append(f"outliers flagged at p < {s.outlier_cutoff}: {len(s.outliers)}")
        for row, d2, p in s.outliers[:10]:
            lines.append(f"  row {row}: D² = {fmt(d2)}, p = {p_display(p)}")
        top = s.distances[:3]
        lines.append(
            "largest D²: "
            + ", ".join(f"row {r} ({fmt(d2)})" for r, d2, _ in top)
        )
        lines.append(f"normality (KS, alpha = {s.alpha}):")
        for name, (d, p, verdict) in s.normality.items():
            lines.append(
                f"  {name:<10} D = {fmt(d)}  p = {p_display(p)}  {verdict}"
            )
        lines.append("VIF (predictor block):")
        for name, value in s.vif.items():
            lines.append(f"  {name:<10} {fmt(value)}")
        if s.residual_points:
            lines.append(
                "residual points per equation: "
                + ", ".join(
                    f"{t} ({len(pts)})" for t, pts in s.residual_points.items()
                )
            )
        return lines

    def _correlations_text(self):
        c = self.correlations
        lines = ["", f"== observed correlations (n = {c.n}) =="]
        header = f"{'':<10}" + "".join(f"{v:>9}" for v in c.variables)
        lines.append(header)
        for i, v in enumerate(c.variables):
            cells = []
            for j in range(c.k):
                if j < i:
                    cells.append(f"{fmt(c.r_rows[i][j]):>7}{stars(c.p_rows[i][j]):<2}")
                elif j == i:
                    cells.append(f"{'1':>7}{'':<2}")
                else:
                    cells.append(f"{'':>9}")
            lines.append(f"{v:<10}" + "".join(cells))
        lines.append("strength (|r|): " + ", ".join(
            f"{a}-{b} {classify_strength(c.value(a, b)).value}"
            for a, b in c.pairs()
        ))
        lines.append("stars: ** p<.01, * p<.05")
        return lines

    def _coefficients_text(self):
        f = self.fitted
        lines = ["", f"== standardized coefficients (n = {f.n}) =="]
        for y, eq in f.equations.items():
            lines.append(
                f"{y} <- {', '.join(eq.parents)}   "
                f"R² = {fmt(eq.r_squared)}  e = {fmt(eq.disturbance)}"
            )
            for j, parent in enumerate(eq.parents):
                if eq.se is not None:
                    lines.append(
                        f"  {parent:<10} beta = {fmt(eq.beta[j]):>8}  "
                        f"SE = {fmt(eq.se[j])}  t = {fmt(eq.t[j])}  "
                        f"p = {p_display(eq.p[j])}{stars(eq.p[j])}"
                    )
                else:
                    lines.append(f"  {parent:<10} beta = {fmt(eq.beta[j]):>8}")
        return lines

    def _fit_text(self):
        lines = ["", f"== fit (threshold {self.fit.threshold}) =="]
        lines.append(
            f"{'pair':<12}{'observed':>10}{'reproduced':>12}{'|diff|':>10}"
        )
        for p in self.fit.pairs:
            mark = "  *" if p.flagged else ""
            lines.append(
                f"{p.a + '-' + p.b:<12}{fmt(p.observed):>10}"
                f"{fmt(p.reproduced):>12}{fmt(p.difference):>10}{mark}"
            )
        lines.append(
            f"misfit pairs: {self.fit.misfit_count}/{len(self.fit.pairs)} "
            f"-> {self.fit.verdict}"
        )
        return lines

    def _effects_text(self):
        lines = ["", "== causal effects =="]
        lines.append(
            f"{'outcome':<10}{'determinant':<14}{'direct':>9}{'indirect':>10}{'total':>9}"
        )
        for r in self.effects.rows:
            direct = fmt(r.direct) if r.direct != 0.0 else "-"
            indirect = fmt(r.indirect) if r.indirect != 0.0 else "-"
            lines.append(
                f"{r.outcome:<10}{r.determinant:<14}{direct:>9}"
                f"{indirect:>10}{fmt(r.total):>9}"
            )
        lines.append("R²: " + ", ".join(
            f"{v} = {fmt(r2)}" for v, r2 in self.effects.r_squared.items()
        ))
        return lines

    def _revision_text(self):
        t = self.revision
        lines = ["", "== revision trace =="]
        for s in t.steps:
            arrows = ", ".join(f"{a} -> {b}" for a, b in s.arrows)
            lines.append(
                f"iter {s.iteration}: {s.action} {arrows} ({s.reason}); "
                f"misfit now {s.misfit_count}, max |diff| {fmt(s.max_difference)}"
            )
            if s.candidates:
                ranked = ", ".join(
                    f"{a} -> {b} ({fmt(d)})" for a, b, d in s.candidates
                )
                lines.append(f"  candidates: {ranked}")
        state = "converged" if t.converged else "NOT converged"
        lines.append(f"{state} after {t.iterations} iteration(s)")
        return lines
