"""Synthetic data generation: determinism, moments, convergence to the
implied correlations, and estimation recovery.
"""

import numpy as np
import pytest

from pathtrek.correlation import pearson_matrix
from pathtrek.errors import NonPositiveResidualVariance
from pathtrek.pathspec import parse_model
from pathtrek.simulate import RecoveryReport, SimulationSpec, recovery_check, simulate_dataset
from pathtrek.tracing import implied_matrix


@pytest.fixture(scope="module")
def annotated_revised(revised_refit):
    return revised_refit.annotated_model()


def test_shape_and_column_order(annotated_revised):
    d = simulate_dataset(SimulationSpec(model=annotated_revised, n=240, seed=7))
    assert (d.n, d.k) == (240, 5)
    assert d.variables == ("X1", "X2", "X3", "X4", "Y")


def test_seed_determinism(annotated_revised):
    a = simulate_dataset(SimulationSpec(model=annotated_revised, n=500, seed=123))
    b = simulate_dataset(SimulationSpec(model=annotated_revised, n=500, seed=123))
    assert a.rows.tobytes() == b.rows.tobytes()
    c = simulate_dataset(SimulationSpec(model=annotated_revised, n=500, seed=124))
    assert a.rows.tobytes() != c.rows.tobytes()


def test_zero_coefficient_model_independent():
    m = parse_model(
        "var A\nvar B\nvar C\npath A -> B : 0\npath A -> C : 0\n"
    )
    d = simulate_dataset(SimulationSpec(model=m, n=100000, seed=9))
    r = pearson_matrix(d).r
    off = np.abs(r[np.triu_indices(3, 1)])
    assert off.max() < 0.02


def test_single_arrow_population_value():
    m = parse_model("var A\nvar B\npath A -> B : 0.5\n")
    d = simulate_dataset(SimulationSpec(model=m, n=200000, seed=21))
    assert pearson_matrix(d).value("A", "B") == pytest.approx(0.5, abs=0.01)


def test_revised_model_population_value(annotated_revised):
    d = simulate_dataset(SimulationSpec(model=annotated_revised, n=200000, seed=3))
    assert pearson_matrix(d).value("X4", "Y") == pytest.approx(0.881, abs=0.01)


def test_unit_population_variance(annotated_revised):
    d = simulate_dataset(SimulationSpec(model=annotated_revised, n=100000, seed=4))
    assert np.abs(d.rows.var(axis=0, ddof=1) - 1.0).max() < 0.02


def test_sample_matrix_converges_to_implied(annotated_revised):
    implied = implied_matrix(annotated_revised).r_hat
    n = 2500
    bound = 3.0 / np.sqrt(n)
    failures = 0
    for seed in range(100):
        d = simulate_dataset(SimulationSpec(model=annotated_revised, n=n, seed=1000 + seed))
        err = np.abs(pearson_matrix(d).r - implied).max()
        failures += err > bound
    assert failures <= 1


def test_recovery_large_sample(annotated_revised):
    report = recovery_check(
        SimulationSpec(model=annotated_revised, n=50000, seed=11), tolerance=0.02
    )
    assert isinstance(report, RecoveryReport)
    assert report.passed
    assert report.max_abs_error <= 0.02
    assert set(report.errors) == {
        (a.source, a.target) for a in annotated_revised.arrows
    }


def test_recovery_small_sample_fails(annotated_revised):
    report = recovery_check(
        SimulationSpec(model=annotated_revised, n=50, seed=11), tolerance=0.001
    )
    assert not report.passed


def test_recovery_zero_coefficients():
    m = parse_model("var A\nvar B\npath A -> B : 0\n")
    report = recovery_check(SimulationSpec(model=m, n=2000, seed=13), tolerance=0.05)
    assert report.passed


def test_exploding_coefficient_rejected():
    m = parse_model("var A\nvar B\npath A -> B : 1.2\n")
    with pytest.raises(NonPositiveResidualVariance):
        simulate_dataset(SimulationSpec(model=m, n=100, seed=1))


def test_spec_validation(annotated_revised, revised_model):
    for n in (2, 100.5, True, float("nan"), "100"):
        with pytest.raises(ValueError, match="sample size"):
            SimulationSpec(model=annotated_revised, n=n, seed=1)
    for seed in (-1, 1 << 64, 1.7, 1.0, True, "1", None):
        with pytest.raises(ValueError, match="seed"):
            SimulationSpec(model=annotated_revised, n=100, seed=seed)
    # the largest 64-bit seed (the RNG golden streams use it) and a whole float n
    spec = SimulationSpec(model=annotated_revised, n=100.0, seed=(1 << 64) - 1)
    assert (spec.n, type(spec.n)) == (100, int)
    from pathtrek.errors import MissingCoefficient

    with pytest.raises(MissingCoefficient):
        SimulationSpec(model=revised_model, n=100, seed=1)


def test_variable_major_stream_consumption(annotated_revised):
    # the first causal variable's column must equal the stream head exactly
    from pathtrek import rng

    spec = SimulationSpec(model=annotated_revised, n=50, seed=99)
    d = simulate_dataset(spec)
    head = rng.normal_stream(99, 50)
    assert np.array_equal(d.column("X1"), head)
