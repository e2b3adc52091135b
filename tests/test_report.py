"""The JSON renderer against the stdlib call whose bytes it must reproduce."""

import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, unchecked_trace
from pathtrek import report as report_module
from pathtrek.correlation import CorrelationMatrix, classify_strength, load_correlation_csv
from pathtrek.data import load_csv
from pathtrek.effects import assess_fit, decompose_effects, revise_model
from pathtrek.estimation import fit_standardized
from pathtrek.pathspec import load_model, parse_model
from pathtrek.report import Report, _render, _render_mirrored, _render_records
from pathtrek.screening import screen
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


# names that hold the renderer's boundary text, brackets, quotes, escapes,
# newlines and non-ASCII
names = st.text(alphabet=st.sampled_from(list('\n"\\}{][, :aé日\U0001f600')) | st.characters(),
                max_size=8)
record_values = names | finite_floats | st.integers() | st.booleans() | st.none()
record_lists = (st.lists(st.dictionaries(names, record_values, min_size=1, max_size=6),
                         min_size=1, max_size=6)
                | st.lists(st.lists(record_values, min_size=1, max_size=4), min_size=1, max_size=6))


# square float matrices and flat record lists are leaves, so both list
# writers meet them at any depth
documents = st.recursive(
    scalars | st.sampled_from([(), [], {}]) | mirrored_matrices() | record_lists,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(texts, inner, max_size=5)),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(documents)
@example({"r": [[1.0, 0.5], [0.5, 1.0]], "n": 240, "warnings": [], "fit": {}})
@example([{"a": [{}]}, ("},\n  ", [[]])])
# shapes that a length check alone could take for a square matrix
@example([{"a": 1.0, "b": 0.5}, {"a": 0.5, "b": 1.0}])
@example([[1, 2], [2, 1]])
@example([[1.0, True], [True, 1.0]])
@example(((1.0, 0.5), (0.5, 1.0)))
@example([[1.0]])
@example([[1.0, 0.5], [0.5]])
@example([[1.0, 0.5], "ab"])
# a cell left of the diagonal that is not a float
@example([[-0.0, -0.0], ["", -0.0]])
@example([[1.0, 1.0], [1, 1.0]])
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

def in_documents(rows):
    """The rows as a mirrored matrix alone and at the depths a Report puts them."""
    return [rows,
            {"reproduced": {"r_hat": rows, "variables": ["a"]}},
            [{"x": [rows, 1]}]]


@settings(max_examples=300, deadline=None)
@given(mirrored_matrices())
@example([[1.0]])
@example([[1.0, 0.0], [-0.0, 1.0]])
@example([[1.0, 0.25, 5e-324], [0.25, 1.0, -1e16], [5e-324, -1e16, 1.0]])
def test_render_mirrored_matches_stdlib(rows):
    assert _render_mirrored(rows, 0) is not None
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


# ---------------------------------------------------------------------------
# Record lists: one encoder call per list of flat records

def records_in_documents(items):
    """The items as a record list alone and at the depths a Report puts one."""
    return [items,
            {"fit": {"pairs": items, "verdict": "ok"}},
            {"revision": {"steps": [{"arrows": [], "candidates": items}]}}]


@settings(max_examples=300, deadline=None)
@given(record_lists)
@example([{"a": "},\n  {", "b": '"{["', "c": "\\", "d": "é日\n"},
          {"a": 1, "b": True, "c": None, "d": 0.5}])
@example([{"},\n    {": 1, "{": "}"}, {"},\n    {": -0.0, "{": "]"}])
@example([["X1", "],\n        [", -0.25], ["[", "\u2028", 1e16]])
def test_render_records_matches_stdlib(items):
    assert _render_records(items, 0) is not None
    for obj in records_in_documents(items):
        assert _render(obj) == stdlib(obj)
        with without_c_encoder():
            assert _render(obj) == stdlib(obj)


@pytest.mark.parametrize("items", [
    [],
    [{}],
    [{"a": 1}, {}],
    [["a"], []],
    [{"a": [1]}],
    [{"a": {"b": 1}}],
    [[1, [2]]],
    [{"a": 1}, ["a"]],
    [{"a": 1}, 2],
    [(1, 2)],
    [{"a": np.float64(0.5)}],
])
def test_render_records_falls_back_item_by_item(items):
    # an empty item, a nested item and a mixed list are written as json writes them
    assert _render_records(items, 0) is None
    for obj in records_in_documents(items):
        assert _render(obj) == stdlib(obj)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_render_records_rejects_non_finite(bad):
    for items in ([{"a": 1.0}, {"a": bad}], [[bad, "x"]]):
        for obj in records_in_documents(items):
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


@pytest.fixture(scope="module", params=["fit", "revise", "exact-fit", "screen"])
def report(request, study_report):
    """The study's fit report; its revise report, with effects and steps that
    carry candidates; the report of an exact fit, whose t is ±inf; and the
    screen report of the study's raw scores, with outliers flagged."""
    if request.param == "fit":
        return study_report
    if request.param == "revise":
        corr = study_report.correlations
        trace = revise_model(corr, load_model(DATA_DIR / "initial_model.pm"))
        return Report(command="revise", correlations=corr, fitted=trace.final_fit,
                      reproduced=trace.final_implied, fit=trace.final_assessment,
                      effects=decompose_effects(trace.final_fit.annotated_model()),
                      revision=trace)
    if request.param == "screen":
        result = screen(load_csv(DATA_DIR / "sample_scores.csv"),
                        model=load_model(DATA_DIR / "revised_model.pm"), outlier_p=0.01)
        assert result.outliers
        return Report(command="screen", screening=result, warnings=result.warnings)
    corr = CorrelationMatrix(["A", "B", "Y"], [[1.0, 0.0, 0.6], [0.0, 1.0, -0.8],
                                               [0.6, -0.8, 1.0]], 100)
    fitted = fit_standardized(corr, parse_model("var A\nvar B\nvar Y\npath A -> Y\npath B -> Y\n"))
    implied = unchecked_trace(fitted.annotated_model())  # psi_Y is 0
    return Report(command="fit", correlations=corr, fitted=fitted, reproduced=implied,
                  fit=assess_fit(corr, implied),
                  effects=decompose_effects(fitted.annotated_model()))


def test_report_matrices_are_lists_of_lists(report):
    d = report.to_dict()
    if report.correlations is not None:
        corr, implied = report.correlations, report.reproduced
        assert d["correlations"]["r"] == [list(row) for row in corr.r_rows]
        assert d["correlations"]["p"] == [list(row) for row in corr.p_rows]
        assert d["reproduced"]["r_hat"] == [list(row) for row in implied.r_hat_rows]
    plain = json.loads(stdlib(d))
    assert d == plain
    assert report.to_json() == stdlib(plain) + "\n"


JSON_TYPES = {dict, list, str, int, float, bool, type(None)}


def json_types(obj):
    """The type of obj and of every key and value in it, at any depth."""
    yield type(obj)
    if type(obj) is dict:
        yield from map(type, obj)
        for value in obj.values():
            yield from json_types(value)
    elif type(obj) is list:
        for value in obj:
            yield from json_types(value)


def test_report_dict_holds_only_plain_json_types(report):
    # no list subclass marks how a list is written: `_render` tells by its shape
    assert set(json_types(report.to_dict())) <= JSON_TYPES


def test_report_writes_its_record_lists_in_one_call(report, monkeypatch):
    # the fit's pairs, the effects rows, the screen's summaries and outliers,
    # and each step's arrows and non-empty candidates
    d = report.to_dict()
    lists = [d[part][key] for part, key in [("fit", "pairs"), ("effects", "rows"),
                                            ("screening", "summaries"), ("screening", "outliers")]
             if part in d]
    lists += [step[key] for step in d.get("revision", {}).get("steps", [])
              for key in ("arrows", "candidates") if step[key]]
    assert len(lists) > (5 if "revision" in d else 1 if "effects" in d or "screening" in d else 0)
    # `_render` calls itself through the module, so a list written whole
    # leaves the spy uncalled
    walked = []
    monkeypatch.setattr(report_module, "_render",
                        lambda *args: walked.append(args) or _render(*args))
    for items in lists:
        text = _render(items, 2)
        assert walked == []
        assert text == _render_records(items, 2)


def test_report_strengths_follow_the_pairs(study_report):
    c = study_report.correlations
    labels = {f"{a}:{b}": classify_strength(c.value(a, b)).value for a, b in c.pairs()}
    assert study_report.to_dict()["correlations"]["strength"] == labels
    assert list(study_report.to_dict()["correlations"]["strength"]) == list(labels)
    line = "strength (|r|): " + ", ".join(
        f"{a}-{b} {classify_strength(c.value(a, b)).value}" for a, b in c.pairs())
    assert line in study_report.to_text().splitlines()
