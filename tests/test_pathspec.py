"""Model DSL parsing, validation, causal ordering, and rendering."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathtrek.errors import (
    CycleDetected,
    DuplicateArrow,
    ModelSyntaxError,
    ModelWarning,
    ParseError,
)
from pathtrek.pathspec import (
    Arrow,
    PathModel,
    parse_model,
    render_model,
    topological_order,
)

def test_parse_initial_model(initial_model):
    m = initial_model
    assert m.variables == ("X1", "X2", "X3", "X4", "Y")
    assert len(m.arrows) == 8
    assert m.exogenous == ("X1",)
    assert m.endogenous == ("X2", "X3", "X4", "Y")
    assert m.label("X1") == "Motivation"
    assert m.parents("X3") == ("X1", "X2")
    assert m.children("X3") == ("X4", "Y")


def test_parse_cycle():
    with pytest.raises(CycleDetected) as exc:
        parse_model("var A\nvar B\npath A -> B\npath B -> A\n")
    assert set(exc.value.cycle) >= {"A", "B"}


def test_parse_self_loop():
    with pytest.raises(CycleDetected):
        parse_model("var A\npath A -> A\n")


def test_parse_eq_sugar():
    m = parse_model("var Y\nvar X2\nvar X3\nvar X4\neq Y <- X2 X3 X4\n")
    assert {(a.source, a.target) for a in m.arrows} == {
        ("X2", "Y"), ("X3", "Y"), ("X4", "Y"),
    }
    assert all(a.coefficient is None for a in m.arrows)


def test_parse_duplicate_arrow():
    with pytest.raises(DuplicateArrow):
        parse_model("var A\nvar B\npath A -> B\npath A -> B : 0.5\n")


def test_parse_implicit_declaration_warns():
    with pytest.warns(ModelWarning, match="implicitly declared"):
        m = parse_model("path A -> B\n")
    assert m.variables == ("A", "B")


def test_parse_coefficient():
    m = parse_model("var A\nvar B\npath A -> B : 0.209\n")
    assert m.coefficient("A", "B") == 0.209


def test_parse_comments_and_blanks():
    m = parse_model("# heading\n\nvar A  # trailing\nvar B\npath A -> B\n")
    assert m.variables == ("A", "B")


def test_parse_hash_inside_quoted_label():
    m = parse_model('var A "Score #1"  # trailing\nvar B\npath A -> B  # note\n')
    assert m.label("A") == "Score #1"
    assert m.arrow_set() == {("A", "B")}
    assert parse_model(render_model(m)).labels == {"A": "Score #1"}


@pytest.mark.parametrize("text,line", [
    ("vars A\n", 1),
    ("var A\nwat A -> B\n", 2),
    ("var A\nvar B\npath A => B\n", 3),
    ("var A\nvar B\npath A -> B : twelve\n", 3),
    ("var A label-no-quotes\n", 1),
    ("var A\nvar B\neq A <-\n", 3),
])
def test_parse_syntax_errors(text, line):
    with pytest.raises(ModelSyntaxError) as exc:
        parse_model(text)
    assert exc.value.line == line


def test_parse_duplicate_var():
    with pytest.raises(ModelSyntaxError):
        parse_model("var A\nvar A\n")


def test_variable_partition(initial_model):
    m = initial_model
    assert set(m.exogenous) | set(m.endogenous) == set(m.variables)
    assert not set(m.exogenous) & set(m.endogenous)


def test_topological_order_initial(initial_model):
    assert topological_order(initial_model) == ("X1", "X2", "X3", "X4", "Y")


def test_topological_order_arrowless():
    m = parse_model("var C\nvar B\nvar A\n")
    assert topological_order(m) == ("C", "B", "A")


def test_topological_order_chain_declared_backwards():
    m = parse_model("var C\nvar B\nvar A\npath A -> B\npath B -> C\n")
    assert topological_order(m) == ("A", "B", "C")


def test_topological_order_stable(revised_model):
    assert topological_order(revised_model) == topological_order(revised_model)


def test_long_chain_parses_without_recursion():
    k = 2000
    declared = "".join(f"var V{i}\n" for i in reversed(range(k)))
    arrows = "".join(f"path V{i} -> V{i + 1}\n" for i in range(k - 1))
    m = parse_model(declared + arrows)
    assert topological_order(m) == tuple(f"V{i}" for i in range(k))
    with pytest.raises(CycleDetected) as exc:
        parse_model(declared + arrows + f"path V{k - 1} -> V0\n")
    assert len(exc.value.cycle) == k + 1


# The structural queries as PathModel answered them before it stored its
# structure at construction, kept verbatim as the reference.

def reference_topological_order(m):
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


def reference_endogenous(self):
    targets = {a.target for a in self.arrows}
    return tuple(v for v in self.variables if v in targets)


def reference_exogenous(self):
    targets = {a.target for a in self.arrows}
    return tuple(v for v in self.variables if v not in targets)


def reference_parents(self, name):
    """Sources of arrows into `name`, ordered by variable declaration."""
    srcs = {a.source for a in self.arrows if a.target == name}
    return tuple(v for v in self.variables if v in srcs)


def reference_children(self, name):
    dsts = {a.target for a in self.arrows if a.source == name}
    return tuple(v for v in self.variables if v in dsts)


def reference_arrow(self, source, target):
    for a in self.arrows:
        if a.source == source and a.target == target:
            return a
    return None


@st.composite
def dags(draw):
    """A random DAG on 1..12 variables, declared and listed in shuffled order."""
    k = draw(st.integers(1, 12))
    causal = draw(st.permutations([f"V{i}" for i in range(k)]))
    pairs = [(causal[i], causal[j]) for i in range(k) for j in range(i + 1, k)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    chosen = [pair for pair, kept in zip(pairs, keep) if kept]
    coeffs = draw(st.lists(st.none() | st.floats(-1, 1),
                           min_size=len(chosen), max_size=len(chosen)))
    arrows = [Arrow(s, t, c) for (s, t), c in zip(chosen, coeffs)]
    return PathModel(tuple(draw(st.permutations(causal))), tuple(draw(st.permutations(arrows))), {})


@settings(max_examples=300, deadline=None)
@given(dags())
def test_stored_structure_matches_reference(m):
    assert topological_order(m) == reference_topological_order(m)
    assert m.endogenous == reference_endogenous(m)
    assert m.exogenous == reference_exogenous(m)
    for v in m.variables + ("missing",):
        assert m.parents(v) == reference_parents(m, v)
        assert m.children(v) == reference_children(m, v)
        for w in m.variables + ("missing",):
            assert m.arrow(v, w) == reference_arrow(m, v, w)
            assert m.has_arrow_between(v, w) == (
                reference_arrow(m, v, w) is not None or reference_arrow(m, w, v) is not None
            )
    assert m.arrow_set() == {(a.source, a.target) for a in m.arrows}


@st.composite
def cyclic_digraphs(draw):
    """Declared names and an arrow list on 1..12 variables holding a cycle.

    A one-variable ring is a self-loop; the other arrows join distinct names.
    """
    k = draw(st.integers(1, 12))
    names = [f"V{i}" for i in range(k)]
    ring = draw(st.lists(st.sampled_from(names), min_size=1, max_size=k, unique=True))
    pairs = {(ring[i - 1], ring[i]) for i in range(len(ring))}
    others = [(a, b) for a in names for b in names if a != b]
    keep = draw(st.lists(st.booleans(), min_size=len(others), max_size=len(others)))
    pairs |= {pair for pair, kept in zip(others, keep) if kept}
    return draw(st.permutations(names)), draw(st.permutations(sorted(pairs)))


@settings(max_examples=300, deadline=None)
@given(cyclic_digraphs())
def test_cycle_detected_names_a_cycle(graph):
    names, pairs = graph
    with pytest.raises(CycleDetected) as exc:
        PathModel(tuple(names), tuple(Arrow(s, t) for s, t in pairs), {})
    cycle = exc.value.cycle
    assert len(cycle) >= 2 and cycle[0] == cycle[-1]
    assert len(set(cycle)) == len(cycle) - 1
    assert all(step in pairs for step in zip(cycle, cycle[1:]))


def test_render_coefficient_line():
    m = parse_model("var X3\nvar X4\npath X3 -> X4 : 0.209\n")
    assert "path X3 -> X4 : 0.209" in render_model(m)


def test_render_arrowless():
    m = parse_model("var A\nvar B\n")
    assert render_model(m) == "var A\nvar B\n"


def test_render_revised_has_nine_paths(revised_model):
    rendered = render_model(revised_model)
    assert sum(1 for line in rendered.splitlines() if line.startswith("path ")) == 9
    assert 'var X1 "Motivation"' in rendered


def test_roundtrip_initial(initial_model):
    again = parse_model(render_model(initial_model))
    assert again.variables == initial_model.variables
    assert set(again.arrows) == set(initial_model.arrows)
    assert again.labels == initial_model.labels
    # canonical text is a fixed point
    assert render_model(again) == render_model(initial_model)


def _random_model(gen):
    k = int(gen.integers(1, 9))
    names = [f"V{i}" for i in range(k)]
    gen.shuffle(names)
    order = list(names)
    gen.shuffle(order)
    arrows = []
    for i in range(k):
        for j in range(i + 1, k):
            if gen.random() < 0.4:
                coeff = round(float(gen.uniform(-1, 1)), 6) if gen.random() < 0.5 else None
                arrows.append(Arrow(order[i], order[j], coeff))
    labels = {nm: f"label {nm}" for nm in names if gen.random() < 0.3}
    return PathModel(tuple(names), tuple(arrows), labels)


def test_roundtrip_random_models():
    gen = np.random.default_rng(31337)
    for _ in range(500):
        m = _random_model(gen)
        again = parse_model(render_model(m))
        assert again.variables == m.variables
        assert set(again.arrows) == set(m.arrows)
        assert again.labels == m.labels
        assert topological_order(again) == topological_order(m)


# A label renders inside one double-quoted line, so it can hold neither a
# double quote nor any character str.splitlines() (the parser's line
# splitter) breaks a line at.
UNRENDERABLE = '"' + "".join(
    c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".splitlines()) > 1
)
label_text = st.text(st.characters(exclude_characters=UNRENDERABLE))


@given(label_text)
def test_label_survives_render(label):
    m = PathModel(("A", "B"), (Arrow("A", "B"),), {"A": label})
    assert parse_model(render_model(m)).labels == m.labels


@given(label_text, st.sampled_from(UNRENDERABLE), label_text)
def test_unrenderable_label_rejected(head, bad, tail):
    with pytest.raises(ParseError):
        PathModel(("A",), (), {"A": head + bad + tail})


def test_with_coefficients(revised_model):
    annotated = revised_model.with_coefficients(
        {(a.source, a.target): 0.1 for a in revised_model.arrows}
    )
    assert annotated.is_annotated
    assert annotated.coefficient("X4", "Y") == 0.1
    assert not revised_model.is_annotated
