"""Report assembly and rendering for the command-line front end.

A Report is built once from analysis results and rendered two ways: text
(3-decimal reals, "<.001" for tiny p-values, significance stars) and JSON
(full precision, stable field names, null for an exact fit's infinite t).
Both views read the same stored numbers.  In the JSON each pair, effect
row, revision step and equation object holds exactly its record's fields
(PairFit; EffectRow plus total; RevisionStep; EquationFit), each tuple
written as a list, so the keys are stated once, by the record.

The JSON text is json.dumps(..., indent=2, sort_keys=True, allow_nan=False)
byte for byte.  Python 3.11 runs that call in the pure-Python encoder, so
`_render` walks only the containers that hold other containers and gives
each leaf container (a pair, an effect, a list of coefficients) to json's
C encoder in one call, with the separators of its depth; a container is a
leaf when the types of its values are all json scalars, a test made in C.
The three k x k matrices (observed r, its p-values and r-hat) are
symmetric, so `_render_mirrored` writes them with one float repr per
mirrored pair of equal nonzero cells.
"""

import functools
import json
import math
from json.encoder import encode_basestring_ascii

from . import __version__
from .correlation import classify_strength
from .estimation import coefficient_inference
from .record import Record

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


# The types json writes as scalars in a Report; a container whose values are
# all of these types is a leaf.
_SCALARS = frozenset({str, int, float, bool, type(None)})


class _Mirrored(list):
    """The row lists of a square matrix whose cell (i, j) is as a rule the
    same float as cell (j, i), such as a correlation table.

    It equals the plain list of its rows.  `_render` writes such a matrix
    with one float repr per mirrored pair (`_render_mirrored`).
    """


@functools.cache
def _leaf_encoder(depth):
    """Encode a container that holds no container, or a scalar, at `depth`.

    The items are split by the separator that indent=2 puts between them
    at that depth; `_render` moves the brackets onto their own lines.  A
    leaf cannot refer to itself, so no circular-reference check is needed.
    JSONEncoder.encode would build a new C encoder for every leaf; it is
    built here once per depth, with the arguments JSONEncoder.iterencode
    passes it.
    """
    encoder = json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "),
                               sort_keys=True, allow_nan=False, check_circular=False)
    if json.encoder.c_make_encoder is None:  # an interpreter without json's C encoder
        return encoder.encode
    encode = json.encoder.c_make_encoder(
        markers=None, default=encoder.default, encoder=encode_basestring_ascii,
        indent=None, key_separator=encoder.key_separator,
        item_separator=encoder.item_separator, sort_keys=True, skipkeys=False,
        allow_nan=False)
    return lambda obj: "".join(encode(obj, 0))


def _render_mirrored(rows, depth):
    """The text `_render` writes for the square float matrix `rows` at `depth`.

    Cells on and above the diagonal are repr'd.  Row i reuses the texts of
    column i above the diagonal when its cells left of the diagonal equal
    them and none of them is 0.0 or -0.0: equal nonzero floats have the
    same bits, so the same repr.  Otherwise its cells left of the
    diagonal are repr'd too.  Returns None for another shape or cell type,
    or a non-finite cell (a finite float's repr holds no "n"; "inf" and
    "nan" do), which `_render` then writes, or rejects, as json does.
    """
    k = len(rows)
    try:
        if not k or set(map(len, rows)) != {k}:
            return None
        upper = [[None] * i + list(map(float.__repr__, row[i:])) for i, row in enumerate(rows)]
    except TypeError:  # a row that is not a sequence, or a cell that is not a float
        return None
    partners, partner_texts = list(zip(*rows)), list(zip(*upper))
    outer, inner = "  " * (depth + 1), "  " * (depth + 2)
    cell_sep, row_sep = ",\n" + inner, ",\n" + outer
    lines = []
    for i, row in enumerate(rows):
        lower = tuple(row[:i])
        if lower == partners[i][:i] and 0.0 not in lower:
            cells = partner_texts[i][:i]
        else:
            cells = map(float.__repr__, lower)
        lines.append(f"[\n{inner}{cell_sep.join((*cells, *upper[i][i:]))}\n{outer}]")
    text = f"[\n{outer}{row_sep.join(lines)}\n{'  ' * depth}]"
    return None if "n" in text else text


def _render(obj, depth=0):
    """json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) at `depth`.

    Every key of a dict that holds a value of a type outside _SCALARS (a
    container, or an np.float64) must be a string, as every Report key is;
    any other raises TypeError.
    """
    if isinstance(obj, dict):
        brackets, values = "{}", obj.values()
    elif isinstance(obj, (list, tuple)):
        if type(obj) is _Mirrored:
            text = _render_mirrored(obj, depth)
            if text is not None:
                return text
        brackets, values = "[]", obj
    else:
        return _leaf_encoder(depth)(obj)
    if _SCALARS.issuperset(map(type, values)):
        text = _leaf_encoder(depth)(obj)
        if text == brackets:  # an empty container stays on one line
            return text
        inner = text[1:-1]
    else:
        if brackets == "{}":
            items = [f"{encode_basestring_ascii(k)}: {_render(v, depth + 1)}"
                     for k, v in sorted(obj.items())]
        else:
            items = [_render(v, depth + 1) for v in obj]
        inner = (",\n" + "  " * (depth + 1)).join(items)
    return f"{brackets[0]}\n{'  ' * (depth + 1)}{inner}\n{'  ' * depth}{brackets[1]}"


def _strengths(c):
    """(a, b, strength label) for each of `c.pairs()`, read from c's rows."""
    upper = (r for i, row in enumerate(c.r_rows) for r in row[i + 1:])
    return [(a, b, classify_strength(r).value) for (a, b), r in zip(c.pairs(), upper)]


def _listed(value):
    """A record's field as json.loads reads it back: a tuple, and each tuple
    in it, as a list.  A tuple field holds only tuples or only scalars."""
    if not isinstance(value, tuple):
        return value
    return list(map(list, value)) if value and isinstance(value[0], tuple) else list(value)


def _record(rec):
    """A value record as a JSON object: its own fields, each tuple a list."""
    return dict(zip(rec._fields, map(_listed, rec)))


class Report(Record):
    _fields = ("command", "inputs", "screening", "correlations", "fitted", "reproduced",
               "fit", "effects", "revision", "warnings")

    def __init__(self, command, inputs=None, screening=None, correlations=None, fitted=None,
                 reproduced=None, fit=None, effects=None, revision=None, warnings=None):
        self.command = command
        self.inputs = {} if inputs is None else inputs  # name -> sha256
        self.screening = screening
        self.correlations = correlations
        # every equation of a fitted model has SE / t / p, or this raises
        self.fitted = None if fitted is None else coefficient_inference(fitted)
        self.reproduced = reproduced
        self.fit = fit
        self.effects = effects
        self.revision = revision
        self.warnings = [] if warnings is None else warnings

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
                "r": _Mirrored(map(list, c.r_rows)),
                "p": _Mirrored(map(list, c.p_rows)),
                "strength": {f"{a}:{b}": label for a, b, label in _strengths(c)},
            }
        if self.fitted is not None:
            out["coefficients"] = {
                "n": self.fitted.n,
                # an exact fit's infinite t is written as null
                "equations": [dict(_record(eq), t=[x if math.isfinite(x) else None for x in eq.t])
                              for eq in self.fitted.equations.values()],
            }
        if self.reproduced is not None:
            rm = self.reproduced
            out["reproduced"] = {
                "variables": list(rm.variables),
                "r_hat": _Mirrored(map(list, rm.r_hat_rows)),
            }
        if self.fit is not None:
            out["fit"] = {
                "threshold": self.fit.threshold,
                "misfit_count": self.fit.misfit_count,
                "verdict": self.fit.verdict,
                "max_difference": self.fit.max_difference,
                "pairs": [dict(zip(p._fields, p)) for p in self.fit.pairs],
            }
        if self.effects is not None:
            out["effects"] = {
                "rows": [dict(zip(r._fields, r), total=r.total) for r in self.effects.rows],
                "r_squared": dict(self.effects.r_squared),
            }
        if self.revision is not None:
            out["revision"] = {
                "converged": self.revision.converged,
                "iterations": self.revision.iterations,
                "steps": [_record(s) for s in self.revision.steps],
            }
        return out

    def to_json(self):
        return _render(self.to_dict()) + "\n"

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
            lines.append(
                f"{v.name:<12}{fmt(v.mean):>10}{fmt(v.sd):>10}"
                f"{fmt(v.minimum):>10}{fmt(v.maximum):>10}"
            )
        lines.append(f"outliers flagged at p < {s.outlier_cutoff}: {len(s.outliers)}")
        for row, d2, p in s.outliers[:10]:
            lines.append(f"  row {row}: D² = {fmt(d2)}, p = {p_display(p)}")
        lines.append(
            "largest D²: "
            + ", ".join(f"row {r} ({fmt(d2)})" for r, d2, _ in s.largest(3))
        )
        lines.append(f"normality (KS, alpha = {s.alpha}):")
        for name, (d, p, verdict) in s.normality.items():
            lines.append(
                f"  {name:<10} D = {fmt(d)}  p = {p_display(p)}  {verdict}"
            )
        lines.append("VIF (predictor block):")
        for name, value in s.vif.items():
            lines.append(f"  {name:<10} {fmt(value)}")
        if s.residual_counts:
            lines.append(
                "residual points per equation: "
                + ", ".join(f"{t} ({n})" for t, n in s.residual_counts.items())
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
            f"{a}-{b} {label}" for a, b, label in _strengths(c)))
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
                lines.append(
                    f"  {parent:<10} beta = {fmt(eq.beta[j]):>8}  "
                    f"SE = {fmt(eq.se[j])}  t = {fmt(eq.t[j])}  "
                    f"p = {p_display(eq.p[j])}{stars(eq.p[j])}"
                )
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
