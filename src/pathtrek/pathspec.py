"""Causal-model DSL: parse, validate, and render directed acyclic path models.

Model text is line oriented:

    # comment
    var NAME ["Display Label"]
    path SRC -> DST [: COEFF]
    eq DST <- SRC1 SRC2 ...

Names match [A-Za-z_][A-Za-z0-9_]*.  Undeclared names used in arrows are
implicitly declared with a ModelWarning.  The `eq` form is sugar for one
uncoefficiented arrow per listed source.  A syntax error (ModelSyntaxError)
names its line and the column where the offending token starts.

A PathModel checks itself and works out its causal structure (order,
parents, children, arrow lookup) once, when it is constructed; every query
after that, `topological_order` included, reads the stored tables.
"""

import heapq
import math
import re
import warnings
from typing import NamedTuple, Optional

from .errors import (
    CycleDetected,
    DuplicateArrow,
    MissingCoefficient,
    ModelSyntaxError,
    ModelWarning,
    ParseError,
    UnknownVariable,
)
from .files import naming, read_input
from .record import FrozenRecord

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"\S+")
# `path SRC -> DST [: COEFF]` and `eq DST <- SRC1 SRC2 ...`
_PATH_RE = re.compile(r"\s*path\s+(\S+)\s*->\s*(\S+)\s*(?::\s*(\S+)\s*)?$")
_EQ_RE = re.compile(r"\s*eq\s+(\S+)\s*<-\s*(.+)$")
# A line up to its first `#` outside double quotes (labels may contain `#`).
_CODE_RE = re.compile(r'(?:[^"#]|"[^"]*(?:"|$))*')
# What a label cannot hold and still render to one quoted line: a double quote
# or any line boundary str.splitlines() (the parser's line splitter) knows.
_LABEL_BAD_RE = re.compile(r'["\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]')


class Arrow(NamedTuple):
    source: str
    target: str
    coefficient: Optional[float] = None


class PathModel(FrozenRecord):
    """A validated DAG of named variables with optional, finite arrow coefficients.

    Construction works out the causal structure once (the order, each
    variable's parents and children, and the arrow of each (source, target)
    pair); the structural queries below read those tables.
    """

    _fields = ("variables", "arrows", "labels")

    def __init__(self, variables, arrows, labels):
        names = tuple(variables)
        arrows = tuple(arrows)
        seen = set()
        for nm in names:
            if not _NAME_RE.match(nm):
                raise UnknownVariable(f"invalid variable name {nm!r}")
            if nm in seen:
                raise UnknownVariable(f"variable {nm!r} declared twice")
            seen.add(nm)
        arrow_of = {}
        for a in arrows:
            source, target = a.source, a.target
            if source not in seen:
                raise UnknownVariable(f"arrow source {source!r} undeclared")
            if target not in seen:
                raise UnknownVariable(f"arrow target {target!r} undeclared")
            if (source, target) in arrow_of:
                raise DuplicateArrow(source, target)
            if a.coefficient is not None and not math.isfinite(a.coefficient):
                raise ParseError(
                    f"arrow {source} -> {target} carries a non-finite coefficient "
                    f"{a.coefficient!r}")
            arrow_of[(source, target)] = a
        order, parents, children = _causal_structure(names, arrow_of)
        for nm, label in labels.items():
            if _LABEL_BAD_RE.search(label):
                raise ParseError(
                    f"label {label!r} of {nm!r} holds a double quote or a line break")
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "labels", dict(labels))
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
        arrows = []
        for a in self.arrows:
            source, target, _ = a
            key = (source, target)
            arrows.append(Arrow(source, target, float(mapping[key])) if key in mapping else a)
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


def parse_model(text):
    """Parse model DSL text into a validated PathModel.

    Each line is read in one pass, and every token comes with the position
    of the match that read it, so a ModelSyntaxError's column is where the
    offending token starts (for a line that is wrong as a whole, where its
    directive starts), even when the same text occurs earlier on the line.
    The ModelWarning for implicitly declared variables points at the caller.
    """
    return _parse_model(text)


def _parse_model(text):
    """parse_model's PathModel, called by parse_model or load_model: the
    ModelWarning is raised two frames up, at their caller."""
    declared = {}  # name -> whether a var line declared it, in order of first use
    labels = {}
    arrows = []

    def declare(lineno, name, start, by_var=False):
        if not _NAME_RE.match(name):
            _syntax(lineno, start + 1, f"invalid name {name!r}")
        if by_var and declared.get(name):
            _syntax(lineno, start + 1, f"variable {name!r} declared twice")
        declared[name] = by_var or declared.get(name, False)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _CODE_RE.match(raw).group().rstrip()
        toks = _TOKEN_RE.finditer(line)
        head = next(toks, None)
        if head is None:
            continue
        if head[0] == "var":
            name = next(toks, None)
            if name is None:
                _syntax(lineno, len(line) + 1, "var needs a name")
            lab = next(toks, None)
            if lab is not None:
                label = line[lab.start():]
                if not (label.startswith('"') and label.endswith('"') and len(label) >= 2):
                    _syntax(lineno, lab.start() + 1, "label must be double-quoted")
                labels[name[0]] = label[1:-1]
            declare(lineno, name[0], name.start(), by_var=True)
        elif head[0] == "path":
            m = _PATH_RE.match(line)
            if not m:
                _syntax(lineno, head.start() + 1, "expected `path SRC -> DST [: COEFF]`")
            src, dst, coeff = m.groups()
            declare(lineno, src, m.start(1))
            declare(lineno, dst, m.start(2))
            if coeff is not None:
                try:
                    coeff = float(coeff)
                except ValueError:
                    _syntax(lineno, m.start(3) + 1, f"bad coefficient {m[3]!r}")
                if not math.isfinite(coeff):  # float() reads nan and inf
                    _syntax(lineno, m.start(3) + 1, f"arrow {src} -> {dst} carries a "
                                                    f"non-finite coefficient {m[3]!r}")
            arrows.append(Arrow(src, dst, coeff))
        elif head[0] == "eq":
            m = _EQ_RE.match(line)
            if not m:
                _syntax(lineno, head.start() + 1, "expected `eq DST <- SRC1 SRC2 ...`")
            dst = m[1]
            declare(lineno, dst, m.start(1))
            for src in _TOKEN_RE.finditer(line, m.start(2)):  # never none: the line is rstripped
                declare(lineno, src[0], src.start())
                arrows.append(Arrow(src[0], dst, None))
        else:
            _syntax(lineno, head.start() + 1, f"unknown directive {head[0]!r}")

    implicit = ", ".join(name for name, by_var in declared.items() if not by_var)
    if implicit:
        warnings.warn(f"implicitly declared variables: {implicit}", ModelWarning, stacklevel=3)
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
    """Read a model file through files.read_input and parse it; an error
    names the file, and the ModelWarning for implicitly declared variables
    points at the caller."""
    text = read_input(path)[0]
    with naming(path):
        return _parse_model(text)
