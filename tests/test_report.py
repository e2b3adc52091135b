"""The JSON renderer against the stdlib call whose bytes it must reproduce."""

import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, unchecked_trace
from pathtrek.correlation import CorrelationMatrix, classify_strength, load_correlation_csv
from pathtrek.effects import assess_fit, decompose_effects, revise_model
from pathtrek.estimation import fit_standardized
from pathtrek.pathspec import load_model, parse_model
from pathtrek.report import Report, _Mirrored, _render
from pathtrek.tracing import implied_matrix


def stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


# text that looks like the renderer's own separators and brackets, escapes
# and non-ASCII
texts = st.text(alphabet=st.sampled_from(list('\n"\\},[ :a\x00é日\U0001f600')) | st.characters(),
                max_size=8)
finite_floats = (st.sampled_from([-0.0, 0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308])
                 | st.floats(allow_nan=False, allow_infinity=False))
scalars = (texts
           | finite_floats
           | finite_floats.map(np.float64)
           | st.integers()
           | st.booleans()
           | st.none())
documents = st.recursive(
    scalars | st.sampled_from([(), [], {}]),
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(texts, inner, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(documents)
@example({"r": [[1.0, 0.5], [0.5, 1.0]], "n": 240, "warnings": [], "fit": {}})
@example([{"a": [{}]}, ("},\n  ", [[]])])
def test_render_matches_stdlib(obj):
    assert _render(obj) == stdlib(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("wrap", [
    lambda x: x,
    lambda x: [x],
    lambda x: {"a": [1.0, {"b": x}]},
    lambda x: {"a": [[x]], "b": []},
])
def test_render_rejects_non_finite_floats(bad, wrap):
    obj = wrap(bad)
    with pytest.raises(ValueError):
        stdlib(obj)
    with pytest.raises(ValueError):
        _render(obj)


@pytest.mark.parametrize("obj", [{(1, 2): [1]}, {(1, 2): 1}, {"a": [object()]}, [np.int64(3)]])
def test_render_raises_type_error_where_json_does(obj):
    with pytest.raises(TypeError):
        stdlib(obj)
    with pytest.raises(TypeError):
        _render(obj)


def test_render_refuses_non_string_keys_beside_containers():
    # json.dumps would write {1: [1]} with the key "1"; no Report has such a key
    with pytest.raises(TypeError):
        _render({1: [1]})


@contextlib.contextmanager
def without_c_encoder():
    """json as on an interpreter without its C encoder."""
    from pathtrek import report

    saved = json.encoder.c_make_encoder
    json.encoder.c_make_encoder = None
    report._leaf_encoder.cache_clear()
    try:
        yield
    finally:
        json.encoder.c_make_encoder = saved
        report._leaf_encoder.cache_clear()


def test_render_without_the_c_encoder():
    # where json has no C encoder, each leaf goes through JSONEncoder.encode
    obj = {"r": [[1.0, -0.0], [5e-324, 1e16]], "s": ["\n", '"é'], "e": [{}, []], "n": None}
    with without_c_encoder():
        assert _render(obj) == stdlib(obj)
        with pytest.raises(ValueError):
            _render({"a": [math.nan]})


# ---------------------------------------------------------------------------
# Mirrored matrices: one repr per pair of equal nonzero cells

@st.composite
def mirrored_matrices(draw, cells=finite_floats):
    """Square float rows whose cell (i, j), i > j, is cell (j, i), its zero
    of the other sign, or one ulp away from it."""
    k = draw(st.integers(1, 6))
    rows = [[draw(cells) for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(i):
            partner = rows[j][i]
            relation = draw(st.sampled_from(["same", "same", "zeros", "ulp"]))
            if relation == "zeros":
                rows[j][i], rows[i][j] = draw(st.sampled_from([(0.0, -0.0), (-0.0, 0.0)]))
            elif relation == "ulp":
                rows[i][j] = math.nextafter(partner, draw(st.sampled_from([math.inf, -math.inf])))
                if not math.isfinite(rows[i][j]):
                    rows[i][j] = partner
            else:
                rows[i][j] = partner
    return rows


def in_documents(rows):
    """The rows as a mirrored matrix alone and at the depths a Report puts them."""
    return [_Mirrored(rows),
            {"reproduced": {"r_hat": _Mirrored(rows), "variables": ["a"]}},
            [{"x": [_Mirrored(rows), 1]}]]


@settings(max_examples=300, deadline=None)
@given(mirrored_matrices())
@example([[1.0]])
@example([[1.0, 0.0], [-0.0, 1.0]])
@example([[1.0, 0.25, 5e-324], [0.25, 1.0, -1e16], [5e-324, -1e16, 1.0]])
def test_render_mirrored_matches_stdlib(rows):
    for obj in in_documents(rows):
        assert _render(obj) == stdlib(obj)
        with without_c_encoder():
            assert _render(obj) == stdlib(obj)


@pytest.mark.parametrize("rows", [
    [],
    [[1.0, 2.0]],
    [[1.0, 2.0], [3.0]],
    [[1, 0.5], [0.5, 1]],
    [[True, 0.5], [0.5, None]],
    [[np.float64(0.5), 0.5], [0.5, np.float64(-0.0)]],
    [(1.0, 0.5), (0.5, 1.0)],
])
def test_render_mirrored_other_shapes_and_cells_match_stdlib(rows):
    for obj in in_documents(rows):
        assert _render(obj) == stdlib(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0), (2, 1)])
def test_render_mirrored_rejects_non_finite_cells(bad, cell):
    rows = [[1.0, 0.5, 0.25], [0.5, 1.0, 0.125], [0.25, 0.125, 1.0]]
    i, j = cell
    rows[i][j] = bad
    for obj in in_documents(rows):
        with pytest.raises(ValueError):
            stdlib(obj)
        with pytest.raises(ValueError):
            _render(obj)
        with without_c_encoder(), pytest.raises(ValueError):
            _render(obj)


@pytest.fixture(scope="module")
def study_report():
    corr = load_correlation_csv(DATA_DIR / "observed_correlations.csv", 240)
    fitted = fit_standardized(corr, load_model(DATA_DIR / "revised_model.pm"))
    implied = implied_matrix(fitted.annotated_model())
    return Report(command="fit", correlations=corr, fitted=fitted, reproduced=implied,
                  fit=assess_fit(corr, implied))


@pytest.fixture(scope="module", params=["fit", "revise", "exact-fit"])
def report(request, study_report):
    """The study's fit report; its revise report, with effects and steps that
    carry candidates; and the report of an exact fit, whose t is ±inf."""
    if request.param == "fit":
        return study_report
    if request.param == "revise":
        corr = study_report.correlations
        trace = revise_model(corr, load_model(DATA_DIR / "initial_model.pm"))
        return Report(command="revise", correlations=corr, fitted=trace.final_fit,
                      reproduced=trace.final_implied, fit=trace.final_assessment,
                      effects=decompose_effects(trace.final_fit.annotated_model()),
                      revision=trace)
    corr = CorrelationMatrix(["A", "B", "Y"], [[1.0, 0.0, 0.6], [0.0, 1.0, -0.8],
                                               [0.6, -0.8, 1.0]], 100)
    fitted = fit_standardized(corr, parse_model("var A\nvar B\nvar Y\npath A -> Y\npath B -> Y\n"))
    implied = unchecked_trace(fitted.annotated_model())  # psi_Y is 0
    return Report(command="fit", correlations=corr, fitted=fitted, reproduced=implied,
                  fit=assess_fit(corr, implied),
                  effects=decompose_effects(fitted.annotated_model()))


def test_report_matrices_are_lists_of_lists(report):
    corr, implied = report.correlations, report.reproduced
    d = report.to_dict()
    assert d["correlations"]["r"] == [list(row) for row in corr.r_rows]
    assert d["correlations"]["p"] == [list(row) for row in corr.p_rows]
    assert d["reproduced"]["r_hat"] == [list(row) for row in implied.r_hat_rows]
    plain = json.loads(stdlib(d))
    assert d == plain
    assert report.to_json() == stdlib(plain) + "\n"


def test_report_strengths_follow_the_pairs(study_report):
    c = study_report.correlations
    labels = {f"{a}:{b}": classify_strength(c.value(a, b)).value for a, b in c.pairs()}
    assert study_report.to_dict()["correlations"]["strength"] == labels
    assert list(study_report.to_dict()["correlations"]["strength"]) == list(labels)
    line = "strength (|r|): " + ", ".join(
        f"{a}-{b} {classify_strength(c.value(a, b)).value}" for a, b in c.pairs())
    assert line in study_report.to_text().splitlines()
