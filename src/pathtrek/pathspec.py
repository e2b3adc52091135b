"""Causal-model DSL: parse, validate, and render directed acyclic path models.

Model text is line oriented:

    # comment
    var NAME ["Display Label"]
    path SRC -> DST [: COEFF]
    eq DST <- SRC1 SRC2 ...

Names match [A-Za-z_][A-Za-z0-9_]*.  Undeclared names used in arrows are
implicitly declared with a ModelWarning.  The `eq` form is sugar for one
uncoefficiented arrow per listed source.
"""

import re
import warnings
from dataclasses import dataclass
from typing import Optional

from .errors import (
    CycleDetected,
    DuplicateArrow,
    MissingCoefficient,
    ModelSyntaxError,
    ModelWarning,
    ParseError,
    UnknownVariable,
)

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
# A line up to its first `#` outside double quotes (labels may contain `#`).
_CODE_RE = re.compile(r'(?:[^"#]|"[^"]*(?:"|$))*')
# What a label cannot hold and still render to one quoted line: a double quote
# or any line boundary str.splitlines() (the parser's line splitter) knows.
_LABEL_BAD_RE = re.compile(r'["\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]')


@dataclass(frozen=True)
class Arrow:
    source: str
    target: str
    coefficient: Optional[float] = None


@dataclass(frozen=True)
class PathModel:
    """A validated DAG of named variables with optional arrow coefficients."""

    variables: tuple
    arrows: tuple
    labels: dict

    def __post_init__(self):
        names = tuple(self.variables)
        seen = set()
        for nm in names:
            if not _NAME_RE.match(nm):
                raise UnknownVariable(f"invalid variable name {nm!r}")
            if nm in seen:
                raise UnknownVariable(f"variable {nm!r} declared twice")
            seen.add(nm)
        pairs = set()
        for a in self.arrows:
            if a.source not in seen:
                raise UnknownVariable(f"arrow source {a.source!r} undeclared")
            if a.target not in seen:
                raise UnknownVariable(f"arrow target {a.target!r} undeclared")
            if a.source == a.target:
                raise CycleDetected([a.source, a.target])
            if (a.source, a.target) in pairs:
                raise DuplicateArrow(a.source, a.target)
            pairs.add((a.source, a.target))
        cycle = _find_cycle(names, pairs)
        if cycle:
            raise CycleDetected(cycle)
        for nm, label in self.labels.items():
            if _LABEL_BAD_RE.search(label):
                raise ParseError(
                    f"label {label!r} of {nm!r} holds a double quote or a line break")
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "arrows", tuple(self.arrows))
        object.__setattr__(self, "labels", dict(self.labels))

    # -- structure ---------------------------------------------------------

    @property
    def k(self):
        return len(self.variables)

    def index(self, name):
        return self.variables.index(name)

    def label(self, name):
        return self.labels.get(name, name)

    @property
    def endogenous(self):
        targets = {a.target for a in self.arrows}
        return tuple(v for v in self.variables if v in targets)

    @property
    def exogenous(self):
        targets = {a.target for a in self.arrows}
        return tuple(v for v in self.variables if v not in targets)

    def parents(self, name):
        """Sources of arrows into `name`, ordered by variable declaration."""
        srcs = {a.source for a in self.arrows if a.target == name}
        return tuple(v for v in self.variables if v in srcs)

    def children(self, name):
        dsts = {a.target for a in self.arrows if a.source == name}
        return tuple(v for v in self.variables if v in dsts)

    def arrow(self, source, target):
        for a in self.arrows:
            if a.source == source and a.target == target:
                return a
        return None

    def has_arrow_between(self, a, b):
        return self.arrow(a, b) is not None or self.arrow(b, a) is not None

    def coefficient(self, source, target):
        a = self.arrow(source, target)
        if a is None or a.coefficient is None:
            raise MissingCoefficient(source, target)
        return a.coefficient

    @property
    def is_annotated(self):
        return all(a.coefficient is not None for a in self.arrows)

    def require_annotated(self):
        for a in self.arrows:
            if a.coefficient is None:
                raise MissingCoefficient(a.source, a.target)

    # -- derived models ----------------------------------------------------

    def with_coefficients(self, mapping):
        """Copy of the model with coefficients from {(source, target): value}."""
        arrows = tuple(
            Arrow(a.source, a.target, float(mapping[(a.source, a.target)]))
            if (a.source, a.target) in mapping
            else a
            for a in self.arrows
        )
        return PathModel(self.variables, arrows, self.labels)

    def with_arrows(self, arrows):
        """Copy of the model with a replaced arrow set (same variables)."""
        return PathModel(self.variables, tuple(arrows), self.labels)

    def arrow_set(self):
        return frozenset((a.source, a.target) for a in self.arrows)


def _find_cycle(names, pairs):
    """Return one directed cycle as a node list, or None."""
    children = {nm: [] for nm in names}
    for s, t in pairs:
        children[s].append(t)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {nm: WHITE for nm in names}
    stack = []

    def visit(u):
        color[u] = GRAY
        stack.append(u)
        for w in children[u]:
            if color[w] == GRAY:
                return stack[stack.index(w):] + [w]
            if color[w] == WHITE:
                found = visit(w)
                if found:
                    return found
        stack.pop()
        color[u] = BLACK
        return None

    for nm in names:
        if color[nm] == WHITE:
            found = visit(nm)
            if found:
                return found
    return None


def topological_order(m):
    """Causal order consistent with every arrow; ties broken by declaration."""
    indeg = {v: 0 for v in m.variables}
    for a in m.arrows:
        indeg[a.target] += 1
    order = []
    remaining = list(m.variables)
    while remaining:
        head = next(v for v in remaining if indeg[v] == 0)
        order.append(head)
        remaining.remove(head)
        for a in m.arrows:
            if a.source == head:
                indeg[a.target] -= 1
    return tuple(order)


# ---------------------------------------------------------------------------
# DSL parsing / rendering.

def _syntax(lineno, col, msg):
    raise ModelSyntaxError(msg, lineno, col)


def _check_name(tok, lineno, col):
    if not _NAME_RE.match(tok):
        _syntax(lineno, col, f"invalid name {tok!r}")
    return tok


def parse_model(text):
    """Parse model DSL text into a validated PathModel."""
    declared = []
    labels = {}
    implicit = []
    arrows = []
    pairs = set()

    def declare(name, lineno, col, explicit=False, label=None):
        _check_name(name, lineno, col)
        if explicit:
            if name in declared and name not in implicit:
                _syntax(lineno, col, f"variable {name!r} declared twice")
            if name not in declared:
                declared.append(name)
            elif name in implicit:
                implicit.remove(name)  # explicit declaration wins
            if label is not None:
                labels[name] = label
        elif name not in declared:
            declared.append(name)
            implicit.append(name)

    def add_arrow(src, dst, coeff, lineno):
        if (src, dst) in pairs:
            raise DuplicateArrow(src, dst)
        pairs.add((src, dst))
        arrows.append(Arrow(src, dst, coeff))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _CODE_RE.match(raw).group().rstrip()
        if not line.strip():
            continue
        toks = line.split()
        kind = toks[0]
        if kind == "var":
            if len(toks) < 2:
                _syntax(lineno, len(line) + 1, "var needs a name")
            name = toks[1]
            label = None
            rest = line.split(None, 2)
            if len(rest) == 3:
                lab = rest[2].strip()
                if not (lab.startswith('"') and lab.endswith('"') and len(lab) >= 2):
                    _syntax(lineno, line.find(lab) + 1, "label must be double-quoted")
                label = lab[1:-1]
            declare(name, lineno, line.find(name) + 1, explicit=True, label=label)
        elif kind == "path":
            # path SRC -> DST [: COEFF]
            m = re.match(
                r"\s*path\s+(\S+)\s*->\s*(\S+)\s*(?::\s*(\S+)\s*)?$", line
            )
            if not m:
                _syntax(lineno, 1, "expected `path SRC -> DST [: COEFF]`")
            src, dst, coeff_tok = m.group(1), m.group(2), m.group(3)
            declare(src, lineno, line.find(src) + 1)
            declare(dst, lineno, line.find(dst) + 1)
            coeff = None
            if coeff_tok is not None:
                try:
                    coeff = float(coeff_tok)
                except ValueError:
                    _syntax(lineno, line.rfind(coeff_tok) + 1,
                            f"bad coefficient {coeff_tok!r}")
            add_arrow(src, dst, coeff, lineno)
        elif kind == "eq":
            # eq DST <- SRC1 SRC2 ...
            m = re.match(r"\s*eq\s+(\S+)\s*<-\s*(.+)$", line)
            if not m:
                _syntax(lineno, 1, "expected `eq DST <- SRC1 SRC2 ...`")
            dst = m.group(1)
            declare(dst, lineno, line.find(dst) + 1)
            srcs = m.group(2).split()
            if not srcs:
                _syntax(lineno, len(line) + 1, "eq needs at least one source")
            for src in srcs:
                declare(src, lineno, line.rfind(src) + 1)
                add_arrow(src, dst, None, lineno)
        else:
            _syntax(lineno, 1, f"unknown directive {kind!r}")

    if implicit:
        warnings.warn(
            f"implicitly declared variables: {', '.join(implicit)}",
            ModelWarning,
            stacklevel=2,
        )
    return PathModel(tuple(declared), tuple(arrows), labels)


def render_model(m):
    """Canonical DSL text; parse(render(m)) is structurally identical to m."""
    lines = []
    for v in m.variables:
        if v in m.labels:
            lines.append(f'var {v} "{m.labels[v]}"')
        else:
            lines.append(f"var {v}")
    order = {v: i for i, v in enumerate(m.variables)}
    for a in sorted(m.arrows, key=lambda a: (order[a.source], order[a.target])):
        if a.coefficient is None:
            lines.append(f"path {a.source} -> {a.target}")
        else:
            lines.append(f"path {a.source} -> {a.target} : {a.coefficient!r}")
    return "\n".join(lines) + "\n"


def load_model(path):
    """Read and parse a model file."""
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())
