"""The record contract: every pathtrek record, built from the bundled study,
keeps its repr text, its hashability, its frozen fields and its equality
across pickle, copy and deepcopy.

The expected repr of each record is pinned by the sha256 of its text; a
mismatch prints the text's head.  On a record that is hashable, hash() is
that of the tuple of its compared fields, the rule of a frozen dataclass,
which value records that are NamedTuples follow too.
"""

import copy
import hashlib
import pickle

import pytest

from conftest import DATA_DIR
from pathtrek.correlation import load_correlation_csv
from pathtrek.data import load_csv, summarize
from pathtrek.effects import assess_fit, decompose_effects, revise_model
from pathtrek.estimation import coefficient_inference, fit_standardized
from pathtrek.files import read_input
from pathtrek.pathspec import load_model
from pathtrek.report import Report
from pathtrek.screening import screen
from pathtrek.simulate import SimulationSpec, recovery_check
from pathtrek.tracing import enumerate_treks, implied_matrix


def build_records():
    """One record of each class, by class name, from the bundled study."""
    corr = load_correlation_csv(DATA_DIR / "observed_correlations.csv", 240)
    initial = load_model(DATA_DIR / "initial_model.pm")
    revised = load_model(DATA_DIR / "revised_model.pm")
    fitted = coefficient_inference(fit_standardized(corr, revised))
    annotated = fitted.annotated_model()
    implied = implied_matrix(annotated)
    assessment = assess_fit(corr, implied)
    effects = decompose_effects(annotated)
    trace = revise_model(corr, initial)
    d = load_csv(DATA_DIR / "sample_scores.csv")
    spec = SimulationSpec(model=annotated, n=60, seed=7)
    return {
        "Arrow": revised.arrows[0],
        "PathModel": revised,
        "CorrelationMatrix": corr,
        "EquationFit": fitted.equation("Y"),
        "FittedModel": fitted,
        "Trek": enumerate_treks(annotated, "X1", "Y")[1],
        "ReproducedMatrix": implied,
        "PairFit": assessment.pairs[0],
        "FitAssessment": assessment,
        "EffectRow": effects.rows[0],
        "EffectsTable": effects,
        "RevisionStep": trace.steps[0],
        "RevisionTrace": trace,
        "VariableSummary": summarize(d)[0],
        "Dataset": d,
        "ScreeningReport": screen(d, model=revised),
        "SimulationSpec": spec,
        "RecoveryReport": recovery_check(spec, 0.2),
        "Report": Report(
            command="revise",
            inputs={"observed_correlations.csv":
                    read_input(DATA_DIR / "observed_correlations.csv")[1]},
            correlations=corr,
            fitted=trace.final_fit,
            reproduced=trace.final_implied,
            fit=trace.final_assessment,
            effects=effects,
            revision=trace,
            warnings=["a warning"],
        ),
    }


# class name -> (compared fields, frozen, hashable, sha256 of the repr text)
CONTRACT = {
    "Arrow": (("source", "target", "coefficient"), True, True,
              "36cdd1fe0ea13a8e6ac454d2772d91b422c64623f9779b81dd0921586ae1cf73"),
    "PathModel": (("variables", "arrows", "labels"), True, False,
                  "bb8f989e42f8183d7d5e90227e109bd57bcc277312d70fb7c0fede100975d9b0"),
    "CorrelationMatrix": (("variables", "r_rows", "n"), True, True,
                          "657547a79f3705fefd05a501720d72e04506a866a5b33c3f73fd642c80b6ec90"),
    "EquationFit": (("target", "parents", "beta", "r_squared", "disturbance", "se", "t", "p"),
                    True, True,
                    "68c303b0b65036960a4f2cdaad7c4a7a862b53318029b014b8dc18a48ca2b919"),
    "FittedModel": (("model", "equations", "correlation"), True, False,
                    "9bcfbfa64543ecfcd13c151ea3b241ff6bb9ee41e5c3f38a402eb84a3d641d78"),
    "Trek": (("nodes", "backward_steps", "product"), True, True,
             "9533b61b92cd310609450d51df97a19d526a98d1ab52d5f3986bc0309daa04bf"),
    "ReproducedMatrix": (("variables", "r_hat_rows", "psi", "total"), True, False,
                         "f108a8f2943ed19196d4632a361eacfd37afe4bca160f71553dd123da20f0701"),
    "PairFit": (("a", "b", "observed", "reproduced", "difference", "flagged"), True, True,
                "d6711c4e4d1461749f63702a02f236b38394f8939f44d937f94802f78b083271"),
    "FitAssessment": (("pairs", "threshold"), True, True,
                      "05840274fcd947e6d41a470d27c44ffbbfd8f02149016f9765595a86b7e933e6"),
    "EffectRow": (("outcome", "determinant", "direct", "indirect"), True, True,
                  "f7bfeede269220c2068a0254b1ca4657266e59b9d6acade9705a079801e29a81"),
    "EffectsTable": (("rows", "r_squared"), True, False,
                     "8121085254948ceeff67d4a9688b530949c7540266cf85a219417bc622c08ab0"),
    "RevisionStep": (("iteration", "action", "arrows", "reason", "candidates", "misfit_count",
                      "max_difference"), True, True,
                     "af040b5a5a21d0ad0c1ac128ac3031125811c6beb2a2ea7fc4c0303948697c50"),
    "RevisionTrace": (("steps", "final_model", "final_fit", "final_assessment",
                       "final_implied", "iterations", "converged"), False, False,
                      "3caa7182d9e56d8849912cd0176c44c46fd5195205e7b41c8452e9418ee615ae"),
    "VariableSummary": (("name", "mean", "sd", "minimum", "maximum"), True, True,
                        "39c9e54c1eef4d70a1da107b01252e308476b73a19765e8f2bdaf41d2ee19af0"),
    "Dataset": (("variables", "rows"), True, False,
                "924fe27de98c4555ed39bc51901dcb66387d3d18268993fef4f7073b7ba288db"),
    "ScreeningReport": (("summaries", "outliers", "distances", "normality", "vif",
                         "residual_points", "outlier_cutoff", "alpha", "warnings"), False, False,
                        "0d95ee43c0cb8df429538f5a2a6ca43c67dd2aeb802d8bf77444ad2117be10fc"),
    "SimulationSpec": (("model", "n", "seed"), True, False,
                       "c7102b0ef9dd29e161c471d67990b255c41cd13948e68a0482dbfbee270a6936"),
    "RecoveryReport": (("spec", "tolerance", "max_abs_error", "errors"), True, False,
                       "0173cd5050e0901ed23c165a7ed051194c586c114ce28373b987f92a8f121e5a"),
    "Report": (("command", "inputs", "screening", "correlations", "fitted", "reproduced", "fit",
                "effects", "revision", "warnings"), False, False,
               "ff809f47564350be75e521ff7aed3b46439781a74a65c3a9ed8812fd3d023e4d"),
}


@pytest.fixture(scope="module")
def records():
    return build_records()


def test_every_record_class_is_covered(records):
    assert set(records) == set(CONTRACT)
    assert all(type(obj).__name__ == name for name, obj in records.items())


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_repr_text(records, name):
    text = repr(records[name])
    assert hashlib.sha256(text.encode()).hexdigest() == CONTRACT[name][3], text[:300]


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_hashability(records, name):
    obj = records[name]
    fields, _, hashable, _ = CONTRACT[name]
    if hashable:
        assert hash(obj) == hash(tuple(getattr(obj, f) for f in fields))
        assert hash(obj) == hash(copy.deepcopy(obj))
    else:
        with pytest.raises(TypeError):
            hash(obj)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_pickle_and_copies_are_equal(records, name):
    obj = records[name]
    for other in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(other) is type(obj)
        assert other == obj
        assert not other != obj
        assert repr(other) == repr(obj)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_frozen_fields(records, name):
    (field, *_), frozen = CONTRACT[name][:2]
    obj = copy.copy(records[name])
    value = getattr(obj, field)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(obj, field, value)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    else:
        setattr(obj, field, None)
        assert getattr(obj, field) is None


VALUE_RECORDS = ("Arrow", "Trek", "PairFit", "FitAssessment", "EffectRow", "RevisionStep",
                 "EquationFit", "VariableSummary", "RecoveryReport")


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_records_are_tuples_of_their_fields(records, name):
    obj = records[name]
    values = tuple(getattr(obj, f) for f in CONTRACT[name][0])
    assert tuple(obj) == values
    assert obj == values
    assert obj[-1] is values[-1]
