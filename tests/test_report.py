"""The JSON writer against the stdlib call whose bytes it must reproduce.

`reference_dict` builds the report's document as plain containers, the
layout `Report.to_json` states in its records; json.dumps of it, with
indent=2 and sorted keys, is the oracle for every byte of `to_json`.
"""

import contextlib
import functools
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, unchecked_trace
from pathtrek import __version__
from pathtrek import report as report_module
from pathtrek.correlation import (CorrelationMatrix, classify_strength, load_correlation_csv,
                                  pearson_matrix)
from pathtrek.data import load_csv
from pathtrek.effects import (EffectRow, EffectsTable, FitAssessment, PairFit, RevisionStep,
                              RevisionTrace, assess_fit, decompose_effects, revise_model)
from pathtrek.errors import NoAdmissibleRevision
from pathtrek.estimation import fit_standardized
from pathtrek.pathspec import load_model, parse_model
from pathtrek.report import Report, _strengths
from pathtrek.screening import screen
from pathtrek.simulate import SimulationSpec, simulate_dataset
from pathtrek.tracing import ReproducedMatrix, implied_matrix


def _listed(value):
    """A record's field as json.loads reads it back: a tuple, and each tuple
    in it, as a list.  A tuple field holds only tuples or only scalars."""
    if not isinstance(value, tuple):
        return value
    return list(map(list, value)) if value and isinstance(value[0], tuple) else list(value)


def _record(rec):
    """A value record as a JSON object: its own fields, each tuple a list."""
    return dict(zip(rec._fields, map(_listed, rec)))


def reference_dict(report):
    """The report's document as plain containers, as Report.to_dict built it
    before to_json wrote the JSON straight from the records."""
    out = {
        "version": __version__,
        "command": report.command,
        "inputs": dict(report.inputs),
        "warnings": list(report.warnings),
    }
    if report.screening is not None:
        s = report.screening
        out["screening"] = {
            "summaries": [{"name": v.name, "mean": v.mean, "sd": v.sd, "min": v.minimum,
                           "max": v.maximum} for v in s.summaries],
            "outliers": [{"row": r, "d_squared": d2, "p": p} for r, d2, p in s.outliers],
            "outlier_cutoff": s.outlier_cutoff,
            "normality": {name: {"d": d, "p": p, "verdict": verdict}
                          for name, (d, p, verdict) in s.normality.items()},
            "vif": dict(s.vif),
            "warnings": list(s.warnings),
        }
    if report.correlations is not None:
        c = report.correlations
        out["correlations"] = {
            "variables": list(c.variables),
            "n": c.n,
            "r": list(map(list, c.r_rows)),
            "p": list(map(list, c.p_rows)),
            "strength": {f"{a}:{b}": label for a, b, label in _strengths(c)},
        }
    if report.fitted is not None:
        out["coefficients"] = {
            "n": report.fitted.n,
            # an exact fit's infinite t is written as null
            "equations": [dict(_record(eq), t=[x if math.isfinite(x) else None for x in eq.t])
                          for eq in report.fitted.equations.values()],
        }
    if report.reproduced is not None:
        rm = report.reproduced
        out["reproduced"] = {"variables": list(rm.variables),
                             "r_hat": list(map(list, rm.r_hat_rows))}
    if report.fit is not None:
        f = report.fit
        out["fit"] = {"threshold": f.threshold, "misfit_count": f.misfit_count,
                      "verdict": f.verdict, "max_difference": f.max_difference,
                      "pairs": [dict(zip(p._fields, p)) for p in f.pairs]}
    if report.effects is not None:
        out["effects"] = {
            "rows": [dict(zip(r._fields, r), total=r.total) for r in report.effects.rows],
            "r_squared": dict(report.effects.r_squared),
        }
    if report.revision is not None:
        t = report.revision
        out["revision"] = {"converged": t.converged, "iterations": t.iterations,
                           "steps": [_record(s) for s in t.steps]}
    return out


def stdlib(report):
    return json.dumps(reference_dict(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def assert_matches_oracle(report):
    text = report.to_json()
    assert text == stdlib(report)
    assert report.to_dict() == json.loads(text)


@contextlib.contextmanager
def without_c_encoder():
    """json as on an interpreter without its C encoder and C string escaper."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(json.encoder, "c_make_encoder", None)
        mp.setattr(report_module, "encode_basestring_ascii",
                   json.encoder.py_encode_basestring_ascii)
        mp.setitem(report_module._WRITERS, str, json.encoder.py_encode_basestring_ascii)
        caches = (report_module._layout, report_module._list_layout, report_module._square)
        for cache in caches:
            cache.cache_clear()
        try:
            yield
        finally:
            for cache in caches:
                cache.cache_clear()


def assert_raises_as_json(report):
    """to_json and to_dict raise json's own ValueError, with its message,
    with and without json's C encoder."""
    with pytest.raises(ValueError) as expected:
        stdlib(report)
    for switch in (contextlib.nullcontext, without_c_encoder):
        with switch():
            for method in (report.to_json, report.to_dict):
                with pytest.raises(ValueError) as got:
                    method()
                assert str(got.value) == str(expected.value)


def exact_fit_report():
    """The report of an exact fit: Y is A and B without error, so t is ±inf."""
    corr = CorrelationMatrix(["A", "B", "Y"], [[1.0, 0.0, 0.6], [0.0, 1.0, -0.8],
                                               [0.6, -0.8, 1.0]], 100)
    fitted = fit_standardized(corr, parse_model("var A\nvar B\nvar Y\npath A -> Y\npath B -> Y\n"))
    implied = unchecked_trace(fitted.annotated_model())  # psi_Y is 0
    return Report(command="fit", correlations=corr, fitted=fitted, reproduced=implied,
                  fit=assess_fit(corr, implied),
                  effects=decompose_effects(fitted.annotated_model()))


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
    return exact_fit_report()


def test_report_strengths_follow_the_pairs(study_report):
    c = study_report.correlations
    labels = {f"{a}:{b}": classify_strength(c.value(a, b)).value for a, b in c.pairs()}
    assert study_report.to_dict()["correlations"]["strength"] == labels
    # to_dict reads the JSON back, so its keys come in sorted order
    assert list(study_report.to_dict()["correlations"]["strength"]) == sorted(labels)
    line = "strength (|r|): " + ", ".join(
        f"{a}-{b} {classify_strength(c.value(a, b)).value}" for a, b in c.pairs())
    assert line in study_report.to_text().splitlines()


def test_fixture_reports_match_the_oracle(report):
    assert_matches_oracle(report)


def seeded_model(rnd, names, annotated):
    """A random DAG over `names`, declared in their order, with at least one arrow."""
    order = rnd.sample(names, len(names))
    arrows = [(order[i], order[j]) for j in range(len(order)) for i in range(j)
              if rnd.random() < 0.4] or [(order[0], order[1])]
    lines = [f"var {v}" for v in names]
    for a, b in arrows:
        lines.append(f"path {a} -> {b}" + (f" : {rnd.uniform(-0.4, 0.4)!r}" if annotated else ""))
    return parse_model("\n".join(lines) + "\n")


@functools.cache
def seeded_reports(k, annotated):
    """The fit report, bare and with effects, and the revise report (None
    when no revision is admissible) of seeded data drawn from a random DAG
    over k variables, for a bare or annotated hypothesis; the names' sorted
    order differs from their declared order."""
    rnd = random.Random(1000 + k)
    names = [f"{rnd.choice('zaMb')}{i}" for i in range(k)]
    rnd.shuffle(names)
    assert sorted(names) != names or k < 3
    truth = seeded_model(rnd, names, True)
    corr = pearson_matrix(simulate_dataset(SimulationSpec(truth, 200, 1000 + k)))
    model = seeded_model(random.Random(2000 + 2 * k + annotated), names, annotated)
    fitted = fit_standardized(corr, model)
    implied = unchecked_trace(fitted.annotated_model())
    fit = assess_fit(corr, implied)
    reports = {
        "fit": Report(command="fit", inputs={"corr": "ab" * 32}, correlations=corr,
                      fitted=fitted, reproduced=implied, fit=fit),
        "fit-effects": Report(command="fit", correlations=corr, fitted=fitted,
                              reproduced=implied, fit=fit, warnings=["psi ≤ 0"],
                              effects=decompose_effects(fitted.annotated_model())),
        "revise": None,
    }
    try:
        trace = revise_model(corr, model)
    except NoAdmissibleRevision:
        return reports
    reports["revise"] = Report(command="revise", correlations=corr, fitted=trace.final_fit,
                               reproduced=trace.final_implied, fit=trace.final_assessment,
                               effects=decompose_effects(trace.final_fit.annotated_model()),
                               revision=trace)
    return reports


@pytest.mark.parametrize("kind", ["fit", "fit-effects", "revise"])
@pytest.mark.parametrize("annotated", [False, True], ids=["bare", "annotated"])
@pytest.mark.parametrize("k", range(2, 21))
def test_seeded_reports_match_the_oracle(k, annotated, kind):
    report = seeded_reports(k, annotated)[kind]
    if report is not None:
        assert_matches_oracle(report)


def test_seeded_revisions_are_written():
    # most seeded hypotheses admit a revision, so the revise cases are not empty
    assert sum(seeded_reports(k, a)["revise"] is not None
               for k in range(2, 21) for a in (False, True)) >= 25


def test_exact_fit_writes_null_t():
    report = exact_fit_report()
    assert any(not math.isfinite(x) for eq in report.fitted.equations.values() for x in eq.t)
    assert "null" in report.to_json()
    assert_matches_oracle(report)


@pytest.mark.parametrize("with_model", [False, True])
@pytest.mark.parametrize("outlier_p", [1e-12, 0.01])
def test_screen_reports_match_the_oracle(with_model, outlier_p):
    data = load_csv(DATA_DIR / "sample_scores.csv")
    model = load_model(DATA_DIR / "revised_model.pm") if with_model else None
    result = screen(data, model=model, outlier_p=outlier_p)
    assert bool(result.outliers) == (outlier_p == 0.01)
    assert_matches_oracle(Report(command="screen", inputs={"data": data.digest},
                                 screening=result, warnings=result.warnings))


@pytest.mark.parametrize("name", ["é日", "\U0001f600", "lone \udc80 surrogate", 'quote " \\ \n'])
def test_input_names_are_escaped_as_json_escapes_them(study_report, name):
    report = Report(command="fit", inputs={name: "0" * 64, "corr": "1" * 64},
                    correlations=study_report.correlations, fitted=study_report.fitted,
                    reproduced=study_report.reproduced, fit=study_report.fit,
                    warnings=[name])
    assert report.to_json().isascii()
    assert_matches_oracle(report)


def with_cell(rows, i, j, x):
    rows = [list(row) for row in rows]
    rows[i][j] = x
    return tuple(map(tuple, rows))


def study_effects(r):
    return decompose_effects(r.fitted.annotated_model())


def with_beta(r, x):
    """The study's fitted model with `x` as the first beta of its first equation."""
    name, eq = next(iter(r.fitted.equations.items()))
    equations = dict(r.fitted.equations, **{name: eq._replace(beta=(x, *eq.beta[1:]))})
    return type(r.fitted)(r.fitted.model, equations, r.fitted.correlation)


# reports made from the study's fit report `r` with `x` in one float field:
# the threshold, a pair, an R², an r-hat cell, an effect and a beta
PLANTED = [
    lambda r, x: Report(command="fit", fit=r.fit._replace(threshold=x)),
    lambda r, x: Report(command="fit", fit=r.fit._replace(
        pairs=(r.fit.pairs[0]._replace(difference=x), *r.fit.pairs[1:]))),
    lambda r, x: Report(command="fit", effects=EffectsTable(
        study_effects(r).rows, dict(study_effects(r).r_squared, **{next(iter(r.fitted.equations)): x}))),
    lambda r, x: Report(command="fit", correlations=r.correlations, fitted=r.fitted,
                        reproduced=ReproducedMatrix(r.reproduced.variables,
                                                    with_cell(r.reproduced.r_hat_rows, 1, 0, x))),
    lambda r, x: Report(command="fit", effects=EffectsTable(
        (study_effects(r).rows[0]._replace(direct=x), *study_effects(r).rows[1:]),
        study_effects(r).r_squared)),
    lambda r, x: Report(command="fit", fitted=with_beta(r, x)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("wrap", PLANTED)
def test_render_rejects_non_finite_floats(study_report, bad, wrap):
    assert_raises_as_json(wrap(study_report, bad))


def json_message(x):
    with pytest.raises(ValueError) as error:
        json.dumps(x, allow_nan=False, indent=2)
    return str(error.value)


@pytest.mark.parametrize("first, second", [(math.inf, math.nan), (math.nan, -math.inf)])
def test_render_raises_json_error_for_one_of_two_non_finite_floats(study_report, first, second):
    # json's message names the first bad float in its own order (sections by
    # key, a list record by record); the writer's names one of the two
    r = study_report
    pairs = r.fit.pairs
    effects = study_effects(r)
    rows = (effects.rows[0]._replace(indirect=first), *effects.rows[1:])
    for report in (
            Report(command="fit", effects=EffectsTable(rows, effects.r_squared),
                   fit=r.fit._replace(threshold=second),
                   reproduced=ReproducedMatrix(r.reproduced.variables,
                                               with_cell(r.reproduced.r_hat_rows, 1, 0, second))),
            Report(command="fit", fit=r.fit._replace(threshold=first),
                   reproduced=ReproducedMatrix(r.reproduced.variables,
                                               with_cell(r.reproduced.r_hat_rows, 0, 1, second))),
            Report(command="fit", fit=r.fit._replace(pairs=(
                pairs[0]._replace(reproduced=first), pairs[1]._replace(difference=second),
                *pairs[2:]))),
            Report(command="fit", fitted=type(r.fitted)(r.fitted.model, dict(
                zip(r.fitted.equations, [
                    eq._replace(p=(first, *eq.p[1:])) if n == 0 else
                    eq._replace(beta=(second, *eq.beta[1:])) if n == 1 else eq
                    for n, eq in enumerate(r.fitted.equations.values())])), r.fitted.correlation)),
    ):
        with pytest.raises(ValueError, match=re.escape(json_message(first))):
            stdlib(report)
        for method in (report.to_json, report.to_dict):
            with pytest.raises(ValueError) as got:
                method()
            assert str(got.value) in {json_message(first), json_message(second)}


def test_output_does_not_depend_on_the_c_encoder(report):
    # with json's C encoder gone and its string escaper in pure Python, the
    # bytes are the same
    expected = report.to_json()
    with without_c_encoder():
        assert report.to_json() == expected == stdlib(report)


@pytest.mark.parametrize("obj", [{(1, 2): [1]}, {(1, 2): 1}, {"a": [object()]}, [np.int64(3)]])
def test_render_raises_type_error_where_json_does(obj):
    # a dict as the report's inputs, a list as its warnings
    report = Report(command="fit", **{"inputs" if isinstance(obj, dict) else "warnings": obj})
    with pytest.raises(TypeError):
        stdlib(report)
    with pytest.raises(TypeError):
        report.to_json()


def test_render_refuses_non_string_keys_beside_containers():
    # json.dumps would write {1: [1]} with the key "1"; no Report has such a key
    report = Report(command="fit", inputs={1: [1]})
    assert '"1": [' in stdlib(report)
    with pytest.raises(TypeError):
        report.to_json()


def test_render_without_the_c_encoder():
    # where json has no C encoder, strings, a matrix whose -0.0 its mirror
    # cell lacks and a non-finite float are written as json writes them
    report = Report(command="fit", inputs={"é": "\n"}, warnings=["\n", '"é'],
                    reproduced=ReproducedMatrix(["a", "b"], ((1.0, -0.0), (5e-324, 1e16))))
    with without_c_encoder():
        assert_matches_oracle(report)
    assert_raises_as_json(Report(command="fit", warnings=["\n"],
                                 reproduced=ReproducedMatrix(["a"], ((math.nan,),))))


# ---------------------------------------------------------------------------
# Strings at every place a report writes free text

# text that looks like the writer's own separators and brackets, escapes
# and non-ASCII
texts = st.text(alphabet=st.sampled_from(list('\n"\\},[ :a\x00é日\U0001f600')) | st.characters(),
                max_size=8)


@settings(max_examples=300, deadline=None)
@given(inputs=st.dictionaries(texts, texts, max_size=5), warnings=st.lists(texts, max_size=5),
       command=texts)
@example(inputs={"corr": "ab" * 32}, warnings=[], command="fit")
@example(inputs={"},\n  ": "]", "": "\x00", "é": "日"}, warnings=["\n", '"é', "{"], command="")
def test_render_matches_stdlib(study_report, inputs, warnings, command):
    assert_matches_oracle(Report(command=command, inputs=inputs, warnings=warnings,
                                 correlations=study_report.correlations,
                                 fitted=study_report.fitted,
                                 reproduced=study_report.reproduced, fit=study_report.fit))


# ---------------------------------------------------------------------------
# Mirrored matrices: one repr per pair of equal nonzero cells

finite_floats = (st.sampled_from([-0.0, 0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308])
                 | st.floats(allow_nan=False, allow_infinity=False))


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


def mirrored_report(rows):
    """A report of `rows` as r-hat, with a fit pair for each cell above the
    diagonal whose observed and reproduced are that cell and its mirror
    cell, so the pairs reuse the matrix's texts."""
    k = len(rows)
    names = [f"v{i}" for i in range(k)]
    pairs = tuple(PairFit(names[i], names[j], rows[i][j], rows[j][i],
                          abs(rows[i][j] - rows[j][i]), False)
                  for i in range(k) for j in range(i + 1, min(k, len(rows[i]))))
    return Report(command="fit", reproduced=ReproducedMatrix(names, rows),
                  fit=FitAssessment(pairs, 0.05))


@settings(max_examples=300, deadline=None)
@given(mirrored_matrices())
@example([[1.0]])
@example([[1.0, 0.0], [-0.0, 1.0]])
@example([[1.0, 0.25, 5e-324], [0.25, 1.0, -1e16], [5e-324, -1e16, 1.0]])
def test_render_mirrored_matches_stdlib(rows):
    report = mirrored_report(rows)
    assert_matches_oracle(report)
    with without_c_encoder():
        assert_matches_oracle(report)


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
    assert_matches_oracle(mirrored_report(rows))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cell", [(0, 0), (0, 1), (1, 0), (2, 1)])
def test_render_mirrored_rejects_non_finite_cells(bad, cell):
    rows = ((1.0, 0.5, 0.25), (0.5, 1.0, 0.125), (0.25, 0.125, 1.0))
    assert_raises_as_json(Report(command="fit", reproduced=ReproducedMatrix(
        ["a", "b", "c"], with_cell(rows, *cell, bad))))


# ---------------------------------------------------------------------------
# Record lists: written a column at a time

# names that hold the writer's boundary text, brackets, quotes, escapes,
# newlines and non-ASCII
names = st.text(alphabet=st.sampled_from(list('\n"\\}{][, :aé日\U0001f600')) | st.characters(),
                max_size=8)
# an effect row's total stays finite
effect_floats = st.floats(-1e300, 1e300)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.builds(PairFit, names, names, finite_floats, finite_floats,
                                finite_floats, st.booleans()), max_size=6).map(tuple),
       rows=st.lists(st.builds(EffectRow, names, names, effect_floats, effect_floats),
                     max_size=6).map(tuple),
       r_squared=st.dictionaries(names, finite_floats, max_size=4))
@example(pairs=(PairFit("},\n  {", '"{["', 0.5, -0.0, 1e16, True),
                PairFit("\\", "é日\n", 1, 2, 3, False)),
         rows=(EffectRow("},\n    {", "]", -0.0, 5e-324),), r_squared={"{": 0.25})
def test_render_records_matches_stdlib(pairs, rows, r_squared):
    report = Report(command="fit", fit=FitAssessment(pairs, 0.05),
                    effects=EffectsTable(rows, r_squared))
    assert_matches_oracle(report)
    with without_c_encoder():
        assert_matches_oracle(report)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_render_records_rejects_non_finite(bad):
    pairs = (PairFit("a", "b", 0.5, 0.25, 0.25, True), PairFit("a", "c", 0.5, bad, 0.0, False))
    step = RevisionStep(1, "add", (("a", "b"),), "misfit", candidates=(("a", "b", bad),))
    for report in (Report(command="fit", fit=FitAssessment(pairs, 0.1)),
                   Report(command="fit", effects=EffectsTable((EffectRow("Y", "X", bad, 0.0),), {})),
                   Report(command="revise", revision=RevisionTrace([step], iterations=1))):
        assert_raises_as_json(report)


def test_report_writes_its_record_lists_in_one_call(report, monkeypatch):
    # the fit's pairs, the effects rows, the screen's summaries and outliers,
    # and the revision's steps: each column is written in one pass, so no
    # item of a list goes to `_field` on its own
    ref = reference_dict(report)
    lists = []
    if report.fit is not None:
        lists.append((report.fit.pairs, None, ref["fit"]["pairs"]))
    if report.effects is not None:
        lists.append(([(*r, r.total) for r in report.effects.rows],
                      EffectRow._fields + ("total",), ref["effects"]["rows"]))
    if report.screening is not None:
        s = report.screening
        lists += [(s.summaries, ("name", "mean", "sd", "min", "max"),
                   ref["screening"]["summaries"]),
                  (s.outliers, ("row", "d_squared", "p"), ref["screening"]["outliers"])]
    if report.revision is not None:
        lists.append((report.revision.steps, None, ref["revision"]["steps"]))
    assert lists and all(items for items, _, _ in lists)
    walked = []
    field = report_module._field
    monkeypatch.setattr(report_module, "_field",
                        lambda *args: walked.append(args) or field(*args))
    for items, keys, expected in lists:
        text = report_module._records(items, 2, keys)
        assert walked == []
        assert text == json.dumps(expected, indent=2, sort_keys=True).replace("\n", "\n    ")


def test_report_matrices_are_lists_of_lists(report):
    d = report.to_dict()
    if report.correlations is not None:
        corr, implied = report.correlations, report.reproduced
        assert d["correlations"]["r"] == [list(row) for row in corr.r_rows]
        assert d["correlations"]["p"] == [list(row) for row in corr.p_rows]
        assert d["reproduced"]["r_hat"] == [list(row) for row in implied.r_hat_rows]
    assert report.to_json() == json.dumps(d, indent=2, sort_keys=True) + "\n"


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
    assert set(json_types(report.to_dict())) <= JSON_TYPES
