"""Causal-model DSL: parse, validate, and render directed acyclic path models.

Model text is line oriented:

    # comment
    var NAME ["Display Label"]
    path SRC -> DST [: COEFF]
    eq DST <- SRC1 SRC2 ...

Names match [A-Za-z_][A-Za-z0-9_]*.  Undeclared names used in arrows are
implicitly declared with a ModelWarning.  The `eq` form is sugar for one
uncoefficiented arrow per listed source.

A PathModel checks itself and works out its causal structure (order,
parents, children, arrow lookup) once, when it is constructed; every query
after that, `topological_order` included, reads the stored tables.
"""

import heapq
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
    """A validated DAG of named variables with optional arrow coefficients.

    Construction works out the causal structure once (the order, each
    variable's parents and children, and the arrow of each (source, target)
    pair); the structural queries below read those tables.
    """

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
        arrow_of = {}
        for a in self.arrows:
            if a.source not in seen:
                raise UnknownVariable(f"arrow source {a.source!r} undeclared")
            if a.target not in seen:
                raise UnknownVariable(f"arrow target {a.target!r} undeclared")
            if (a.source, a.target) in arrow_of:
                raise DuplicateArrow(a.source, a.target)
            arrow_of[(a.source, a.target)] = a
        order, parents, children = _causal_structure(names, arrow_of)
        for nm, label in self.labels.items():
            if _LABEL_BAD_RE.search(label):
                raise ParseError(
                    f"label {label!r} of {nm!r} holds a double quote or a line break")
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "arrows", tuple(self.arrows))
        object.__setattr__(self, "labels", dict(self.labels))
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_arrow_of", arrow_of)

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
        return tuple(v for v in self.variables if self._parents[v])

    @property
    def exogenous(self):
        return tuple(v for v in self.variables if not self._parents[v])

    def parents(self, name):
        """Sources of arrows into `name`, ordered by variable declaration."""
        return self._parents.get(name, ())

    def children(self, name):
        return self._children.get(name, ())

    def arrow(self, source, target):
        return self._arrow_of.get((source, target))

    def has_arrow_between(self, a, b):
        return (a, b) in self._arrow_of or (b, a) in self._arrow_of

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
        return frozenset(self._arrow_of)


def _causal_structure(names, arrow_of):
    """Causal order and per-variable parents and children of an arrow set.

    One pass of Kahn's algorithm over a min-heap of declaration indices, so
    each step takes the first-declared variable whose parents are all placed.
    Parents and children are tuples in declaration order.  Raises
    CycleDetected when variables are left over: every one of them still has
    an unplaced parent, so stepping back along those arrows closes a cycle.
    """
    pos = {v: i for i, v in enumerate(names)}
    parents = {v: [] for v in names}
    children = {v: [] for v in names}
    for s, t in arrow_of:
        parents[t].append(s)
        children[s].append(t)
    parents = {v: tuple(sorted(ps, key=pos.get)) for v, ps in parents.items()}
    children = {v: tuple(sorted(cs, key=pos.get)) for v, cs in children.items()}
    pending = {v: len(ps) for v, ps in parents.items()}
    ready = [pos[v] for v in names if not pending[v]]  # ascending, so a heap
    order = []
    while ready:
        v = names[heapq.heappop(ready)]
        order.append(v)
        for w in children[v]:
            pending[w] -= 1
            if not pending[w]:
                heapq.heappush(ready, pos[w])
    if len(order) < len(names):
        placed = set(order)
        v = next(v for v in names if v not in placed)
        back = {}  # variable -> its position on the backward walk
        while v not in back:
            back[v] = len(back)
            v = next(p for p in parents[v] if p not in placed)
        walk = list(back)[back[v]:] + [v]
        raise CycleDetected(walk[::-1])
    return tuple(order), parents, children


def topological_order(m):
    """Causal order consistent with every arrow; ties broken by declaration."""
    return m._order


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
            arrows.append(Arrow(src, dst, coeff))
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
                arrows.append(Arrow(src, dst, None))
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
