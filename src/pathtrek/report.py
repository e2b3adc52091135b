"""Report assembly and rendering for the command-line front end.

A Report is built once from analysis results and rendered two ways: text
(3-decimal reals, "<.001" for tiny p-values, significance stars) and JSON
(full precision, stable field names, null for an exact fit's infinite t).
Both views read the same stored numbers.

`to_json` writes each section straight from its record (CorrelationMatrix,
FittedModel, ReproducedMatrix, FitAssessment, EffectsTable, RevisionTrace,
ScreeningReport), and its text is json.dumps(..., indent=2,
sort_keys=True, allow_nan=False) byte for byte.  An object's keys come
from its record's `_fields` (PairFit; EffectRow plus total; RevisionStep;
EquationFit), sorted once per key tuple into a %-template, and each tuple
is written as a list.  Strings go through json's encode_basestring_ascii,
floats through float.__repr__ as json writes them.  A list of records is
written a column at a time (a column of tuples from all their items at
once) into one template per list shape.  A matrix reprs each mirrored
pair of equal cells once, and each pair's observed and reproduced values,
the very r and r-hat cells that assess_fit read, reuse their matrix's
text by the cell's id.  A non-finite float, or a value json cannot
write, raises json's own error; where a report holds several, the
message may name another one than json.dumps's, which walks the keys in
sorted order and a list one record at a time.  `to_dict` is json.loads
of that text.
"""

import functools
import json
import math
import operator
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii

from . import __version__
from .correlation import classify_strength
from .effects import EffectRow
from .estimation import coefficient_inference
from .record import Record

P_DISPLAY_FLOOR = 5e-4


def fmt(x):
    return f"{x:.3f}"


def p_display(p):
    return "<.001" if p < P_DISPLAY_FLOOR else f"{p:.3f}"


def stars(p):
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


_CONSTANTS = {None: "null", True: "true", False: "false"}
# json's text for a value of exactly one of these types (a float's when finite)
_WRITERS = {str: encode_basestring_ascii, bool: _CONSTANTS.__getitem__,
            type(None): _CONSTANTS.__getitem__, int: int.__repr__, float: float.__repr__}


def _scalar(x):
    """json's text for a str, None, bool, int or float; json's own error for
    a non-finite float or another type."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return _CONSTANTS[x]
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float) and math.isfinite(x):
        return float.__repr__(x)
    json.dumps(x, allow_nan=False, indent=2)  # raises what json.dumps of the report raises


def _field(value, depth):
    """json's text at `depth` for a scalar, or a tuple or list of fields."""
    if isinstance(value, (tuple, list)):
        return _array(_texts(value, depth + 1), depth)
    return _scalar(value)


def _texts(values, depth, seen=None):
    """json's texts at `depth` for a sequence of fields: one map over values
    of one scalar type, a column at a time over rows of one length, else
    one field at a time.  A float that `seen` holds by its id takes the
    text from there."""
    kinds = set(map(type, values))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float and all(map(math.isfinite, values)):
        if seen:
            texts = list(map(seen.get, map(id, values)))
            if None not in texts:
                return texts
        return list(map(float.__repr__, values))
    if kind in _WRITERS and kind is not float:
        return list(map(_WRITERS[kind], values))
    if kind is not None and issubclass(kind, (tuple, list)):
        widths = set(map(len, values))
        if len(widths) == 1 and 0 not in widths:
            return _rows(values, depth, _layout(widths.pop(), depth))
        return [_array(_texts(v, depth + 1), depth) for v in values]
    return [_field(v, depth) for v in values]


def _rows(rows, depth, layout, seen=None):
    """The texts at `depth` of rows of one length, each written by `layout`,
    from one pass over each column."""
    order, template = layout
    columns = list(zip(*rows))
    return list(map(template.__mod__, zip(*[_texts(columns[i], depth + 1, seen) for i in order])))


def _array(texts, depth):
    """The JSON array at `depth` whose items have the texts `texts`."""
    if not texts:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(texts) + "\n" + "  " * depth + "]"


def _object(items, depth):
    """The JSON object at `depth` of (key, value text) items in sorted key
    order, whose keys are names of the report's schema."""
    keys, texts = zip(*items)
    return _layout(keys, depth)[1] % texts


def _named(mapping, depth, keys=None):
    """The JSON object at `depth` of a dict keyed by name; each value is a
    scalar, or a row of a record whose keys are `keys`."""
    if not mapping:
        return "{}"
    names, values = zip(*sorted(mapping.items()))
    texts = _rows(values, depth + 1, _layout(keys, depth + 1)) if keys else _texts(values, depth + 1)
    inner = "\n" + "  " * (depth + 1)
    body = ("," + inner).join([encode_basestring_ascii(k) + ": " + t for k, t in zip(names, texts)])
    return "{" + inner + body + "\n" + "  " * depth + "}"


def _records(rows, depth, keys=None, seen=None):
    """The JSON array at `depth` of records whose keys are `keys`, or the
    records' own `_fields`, from one pass over each column.  Where a column
    holds tuples or lists, that pass is over all their items, and one
    template per list shape takes every text."""
    if not rows:
        return "[]"
    keys, columns = keys or rows[0]._fields, list(zip(*rows))
    widths = tuple(tuple(map(len, column)) if set(map(type, column)) <= {tuple, list} else None
                   for column in columns)
    if not any(widths):  # one template per record, for a list of any length
        return _array(_rows(rows, depth + 1, _layout(keys, depth + 1), seen), depth)
    texts = [_texts(list(chain.from_iterable(column)), depth + 3) if w else
             _texts(column, depth + 2, seen) for column, w in zip(columns, widths)]
    template, positions = _list_layout(keys, depth, len(rows), widths)
    cells = list(chain.from_iterable(texts))
    return template % tuple(map(cells.__getitem__, positions))


@functools.lru_cache(maxsize=256)
def _list_layout(keys, depth, count, widths):
    """The %-template of the JSON array at `depth` of `count` objects whose
    keys are `keys`, and the position of each text it takes among the
    texts of all columns in turn: column i holds one text per row, or,
    where widths[i] gives each row's length, the texts of the rows' items."""
    order, template = _layout(keys, depth + 1)
    spans, end = [], 0  # for each column, the positions of each row's texts
    for w in widths:
        bounds = list(accumulate([1] * count if w is None else w, initial=end))
        spans.append(list(map(range, bounds, bounds[1:])))
        end = bounds[-1]
    objects, positions = [], []
    for r in range(count):
        for i in order:
            positions += spans[i][r]
        objects.append(template % tuple("%s" if widths[i] is None else _layout(
            len(spans[i][r]), depth + 2)[1] if spans[i][r] else "[]" for i in order))
    return _layout(count, depth)[1] % tuple(objects), positions


@functools.cache
def _layout(keys, depth):
    """The positions of `keys`, names of the report's schema, in sorted
    order, sorted here once per key tuple, and the %-template of the JSON
    object at `depth` that takes their values' texts in that order; for an
    int `keys`, of the JSON array of that many items."""
    inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
    if isinstance(keys, int):
        return range(keys), "[" + ",".join([inner + "%s"] * keys) + outer + "]"
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return order, "{" + ",".join(
        f"{inner}{encode_basestring_ascii(keys[i])}: %s" for i in order) + outer + "}"


@functools.cache
def _square(k, depth):
    """For a k x k matrix at `depth`, the %-template that takes its cells'
    texts in row order, the cells on and above the diagonal, numbered in
    row order, and for each cell the index among those of it or its mirror
    cell."""
    upper = [i * k + j for i in range(k) for j in range(i, k)]
    rank = {cell: n for n, cell in enumerate(upper)}
    row = _layout(k, depth + 1)[1]
    return (_layout(k, depth)[1] % ((row,) * k), upper,
            [rank[min(i, j) * k + max(i, j)] for i in range(k) for j in range(k)])


def _matrix(rows, depth, seen):
    """The JSON array at `depth` of a square matrix, such as the observed r,
    its p-values and r-hat, with one text per mirrored pair of cells of
    one type and value.  `seen`, unless None, takes the text of each cell
    by the cell's id.  Another shape is written as any field is."""
    k = len(rows)
    if not k or set(map(len, rows)) != {k}:
        return _field(rows, depth)
    cells = list(chain.from_iterable(rows))
    mirror = list(chain.from_iterable(zip(*rows)))
    template, upper, spread = _square(k, depth)
    # equal cells of one type have one text, but for 0.0 and -0.0
    if len(set(map(type, cells))) == 1 and cells == mirror and (
            0.0 not in cells or all(map(operator.is_, cells, mirror))):
        texts = _texts(list(map(cells.__getitem__, upper)), depth + 2)
        texts = list(map(texts.__getitem__, spread))
    else:
        texts = _texts(cells, depth + 2)
    if seen is not None:
        seen.update(zip(map(id, cells), texts))
    return template % tuple(texts)


def _screening(s, seen):
    # VariableSummary's minimum and maximum are written as min and max
    summaries = _records(s.summaries, 2, ("name", "mean", "sd", "min", "max"))
    return _object([("normality", _named(s.normality, 2, ("d", "p", "verdict"))),
                    ("outlier_cutoff", _scalar(s.outlier_cutoff)),
                    ("outliers", _records(s.outliers, 2, ("row", "d_squared", "p"))),
                    ("summaries", summaries), ("vif", _named(s.vif, 2)),
                    ("warnings", _field(s.warnings, 2))], 1)


def _correlations(c, seen):
    return _object([("n", _scalar(c.n)), ("p", _matrix(c.p_rows, 2, None)),
                    ("r", _matrix(c.r_rows, 2, seen)),
                    ("strength", _named({f"{a}:{b}": label for a, b, label in _strengths(c)}, 2)),
                    ("variables", _field(c.variables, 2))], 1)


def _coefficients(fitted, seen):
    # an exact fit's infinite t is written as null
    equations = [eq if all(map(math.isfinite, eq.t)) else
                 eq._replace(t=tuple(x if math.isfinite(x) else None for x in eq.t))
                 for eq in fitted.equations.values()]
    return _object([("equations", _records(equations, 2)), ("n", _scalar(fitted.n))], 1)


def _reproduced(rm, seen):
    return _object([("r_hat", _matrix(rm.r_hat_rows, 2, seen)),
                    ("variables", _field(rm.variables, 2))], 1)


def _fit(f, seen):
    return _object([("max_difference", _scalar(f.max_difference)),
                    ("misfit_count", _scalar(f.misfit_count)),
                    # each observed and reproduced is the r or r-hat cell that
                    # assess_fit read, so it takes the text its matrix wrote
                    ("pairs", _records(f.pairs, 2, seen=seen)),
                    ("threshold", _scalar(f.threshold)), ("verdict", _scalar(f.verdict))], 1)


def _effects(e, seen):
    rows = _records([(*r, r.total) for r in e.rows], 2, EffectRow._fields + ("total",))
    return _object([("r_squared", _named(e.r_squared, 2)), ("rows", rows)], 1)


def _revision(t, seen):
    return _object([("converged", _scalar(t.converged)), ("iterations", _scalar(t.iterations)),
                    ("steps", _records(t.steps, 2))], 1)


def _strengths(c):
    """(a, b, strength label) for each of `c.pairs()`, read from c's rows."""
    upper = (r for i, row in enumerate(c.r_rows) for r in row[i + 1:])
    return [(a, b, classify_strength(r).value) for (a, b), r in zip(c.pairs(), upper)]


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

    def to_json(self):
        """The JSON report: json.dumps(report, indent=2, sort_keys=True,
        allow_nan=False) byte for byte, written from the records."""
        seen = {}  # id of a matrix cell -> its text, for the fit's pairs
        sections = [("command", _scalar(self.command)), ("inputs", _named(self.inputs, 1)),
                    ("version", _scalar(__version__)), ("warnings", _field(self.warnings, 1))]
        # the matrices come before the pairs that reuse their texts
        sections += [(name, write(part, seen)) for name, part, write in [
            ("screening", self.screening, _screening), ("coefficients", self.fitted, _coefficients),
            ("correlations", self.correlations, _correlations),
            ("reproduced", self.reproduced, _reproduced), ("fit", self.fit, _fit),
            ("effects", self.effects, _effects), ("revision", self.revision, _revision),
        ] if part is not None]
        return _object(sorted(sections), 0) + "\n"

    def to_dict(self):
        """The parsed JSON report, json.loads(self.to_json()): its keys come in
        sorted order, and it raises wherever to_json raises."""
        return json.loads(self.to_json())

    # -- human rendering -------------------------------------------------

    def to_text(self):
        lines = [f"pathtrek {__version__} :: {self.command}"]
        for name, digest in self.inputs.items():
            lines.append(f"input {name} sha256:{digest[:16]}")
        for part, write in [(self.screening, self._screening_text),
                            (self.correlations, self._correlations_text),
                            (self.fitted, self._coefficients_text),
                            (self.fit if self.reproduced is not None else None, self._fit_text),
                            (self.effects, self._effects_text),
                            (self.revision, self._revision_text)]:
            if part is not None:
                lines += write()
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
        lines.append(f"{'':<10}" + "".join(f"{v:>9}" for v in c.variables))
        for i, v in enumerate(c.variables):  # the lower triangle, a unit diagonal
            cells = [f"{fmt(c.r_rows[i][j]):>7}{stars(c.p_rows[i][j]):<2}" for j in range(i)]
            lines.append(f"{v:<10}" + "".join(cells) + f"{'1':>7}  " + " " * 9 * (c.k - i - 1))
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
        lines = ["", f"== fit (threshold {self.fit.threshold}) ==",
                 f"{'pair':<12}{'observed':>10}{'reproduced':>12}{'|diff|':>10}"]
        for p in self.fit.pairs:
            mark = "  *" if p.flagged else ""
            lines.append(
                f"{p.a + '-' + p.b:<12}{fmt(p.observed):>10}"
                f"{fmt(p.reproduced):>12}{fmt(p.difference):>10}{mark}"
            )
        lines.append(f"misfit pairs: {self.fit.misfit_count}/{len(self.fit.pairs)} "
                     f"-> {self.fit.verdict}")
        return lines

    def _effects_text(self):
        lines = ["", "== causal effects ==",
                 f"{'outcome':<10}{'determinant':<14}{'direct':>9}{'indirect':>10}{'total':>9}"]
        for r in self.effects.rows:
            direct = fmt(r.direct) if r.direct != 0.0 else "-"
            indirect = fmt(r.indirect) if r.indirect != 0.0 else "-"
            lines.append(
                f"{r.outcome:<10}{r.determinant:<14}{direct:>9}"
                f"{indirect:>10}{fmt(r.total):>9}"
            )
        lines.append("R²: " + ", ".join(
            f"{v} = {fmt(r2)}" for v, r2 in self.effects.r_squared.items()))
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
                ranked = ", ".join(f"{a} -> {b} ({fmt(d)})" for a, b, d in s.candidates)
                lines.append(f"  candidates: {ranked}")
        state = "converged" if t.converged else "NOT converged"
        lines.append(f"{state} after {t.iterations} iteration(s)")
        return lines
