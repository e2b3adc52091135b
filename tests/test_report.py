"""The JSON renderer against the stdlib call whose bytes it must reproduce."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathtrek.report import _render


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


def test_render_without_the_c_encoder(monkeypatch):
    # where json has no C encoder, each leaf goes through JSONEncoder.encode
    from pathtrek import report

    obj = {"r": [[1.0, -0.0], [5e-324, 1e16]], "s": ["\n", '"é'], "e": [{}, []], "n": None}
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    report._leaf_encoder.cache_clear()
    try:
        assert _render(obj) == stdlib(obj)
        with pytest.raises(ValueError):
            _render({"a": [math.nan]})
    finally:
        report._leaf_encoder.cache_clear()
