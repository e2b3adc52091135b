"""Synthetic data generation: determinism, moments, convergence to the
implied correlations, and estimation recovery.
"""

import fractions
import math
import re
import tracemalloc

import numpy as np
import pytest

from pathtrek import rng, simulate
from pathtrek.cli import main
from pathtrek.correlation import pearson_matrix
from pathtrek.data import write_csv
from pathtrek.errors import NonPositiveResidualVariance
from pathtrek.estimation import fit_standardized
from pathtrek.pathspec import Arrow, PathModel, parse_model, render_model, topological_order
from pathtrek.simulate import (
    ROWS_PER_BLOCK,
    RecoveryReport,
    SimulationSpec,
    recovery_check,
    simulate_blocks,
    simulate_dataset,
)
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


def k16_annotated_dag():
    """A seeded annotated DAG on 16 variables, declared out of causal order,
    each equation's |beta| sum below 0.9."""
    gen = np.random.default_rng(4650)
    causal = [f"V{i}" for i in gen.permutation(16)]
    arrows = []
    for j in range(1, 16):
        parents = [causal[i] for i in range(j) if gen.random() < 0.3] or [causal[j - 1]]
        arrows += [Arrow(p, causal[j], float(gen.uniform(-0.9, 0.9)) / len(parents))
                   for p in parents]
    return PathModel(tuple(sorted(causal)), tuple(arrows), {})


@pytest.mark.parametrize("model", ["revised", "k16"])
def test_recovery_errors_equal_those_of_a_full_fit(annotated_revised, model):
    """The beta-only refit gives the errors a fit with inference gives, bit for bit."""
    m = annotated_revised if model == "revised" else k16_annotated_dag()
    for seed in (0, 4651, (1 << 64) - 1):
        spec = SimulationSpec(model=m, n=2000, seed=seed)
        fit = fit_standardized(pearson_matrix(simulate_dataset(spec)), m)
        expected = {(p, y): abs(b - m.coefficient(p, y))
                    for y, eq in fit.equations.items() for p, b in zip(eq.parents, eq.beta)}
        report = recovery_check(spec, 0.05)
        assert list(report.errors) == list(expected)
        assert [e.hex() for e in report.errors.values()] == [e.hex() for e in expected.values()]
        assert report.max_abs_error.hex() == max(expected.values()).hex()
    assert len(report.errors) == len(m.arrows)


@pytest.mark.parametrize("tolerance", [
    math.nan, np.nan, -1.0, -1e-300, math.inf, -math.inf, "0.1", True, False, None, 10**400,
], ids=["nan", "np-nan", "-1", "-1e-300", "inf", "-inf", "str", "True", "False", "None",
        "10**400"])
def test_recovery_refuses_a_tolerance_that_is_not_a_finite_number_at_least_0(
        annotated_revised, tolerance):
    spec = SimulationSpec(model=annotated_revised, n=100, seed=1)
    with pytest.raises(ValueError, match=f"tolerance must be a finite number >= 0, "
                                         f"got {re.escape(repr(tolerance))}"):
        recovery_check(spec, tolerance)


@pytest.mark.parametrize("tolerance", [0, 0.0, 1, np.float64(0.25), fractions.Fraction(1, 4)])
def test_recovery_takes_a_tolerance_as_a_float(annotated_revised, tolerance):
    report = recovery_check(SimulationSpec(model=annotated_revised, n=100, seed=1), tolerance)
    assert type(report.tolerance) is float and report.tolerance == tolerance
    assert report.passed == (report.max_abs_error <= tolerance)


def test_exploding_coefficient_rejected():
    m = parse_model("var A\nvar B\npath A -> B : 1.2\n")
    with pytest.raises(NonPositiveResidualVariance):
        simulate_dataset(SimulationSpec(model=m, n=100, seed=1))


def test_spec_validation(annotated_revised, revised_model):
    for n in (2, 100.5, True, float("nan"), "100", 10**400):
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
    from pathtrek import rng, simulate

    spec = SimulationSpec(model=annotated_revised, n=50, seed=99)
    d = simulate_dataset(spec)
    head = rng.normal_stream(99, 50)
    assert np.array_equal(d.column("X1"), head)


def reference_rows(spec):
    """The whole (n, k) block from one draw of all k*n normals, no blocking."""
    m, n = spec.model, spec.n
    psi = implied_matrix(m).psi
    z = rng.normal_stream(spec.seed, n * m.k).reshape(m.k, n)
    columns = {}
    for pos, v in enumerate(topological_order(m)):
        col = z[pos]
        if m.parents(v):
            col = math.sqrt(psi[v]) * col
            for p in m.parents(v):
                col = col + m.coefficient(p, v) * columns[p]
        columns[v] = col
    return np.column_stack([columns[v] for v in m.variables])


def chain_model(k):
    """k variables declared last-to-first, each caused by up to two earlier ones."""
    lines = [f"var V{i}" for i in reversed(range(k))]
    for j in range(1, k):
        for p in {j - 1, j // 2}:
            lines.append(f"path V{p} -> V{j} : {0.3 if p == j - 1 else -0.2}")
    return parse_model("\n".join(lines) + "\n")


@pytest.fixture(scope="module", params=[1, 5, 20], ids=lambda k: f"k{k}")
def block_model(request, annotated_revised):
    return annotated_revised if request.param == 5 else chain_model(request.param)


@pytest.mark.parametrize("n", [ROWS_PER_BLOCK - 1, ROWS_PER_BLOCK, ROWS_PER_BLOCK + 1,
                               2 * ROWS_PER_BLOCK + 3])
def test_blocks_equal_the_unblocked_draw(block_model, n, tmp_path):
    spec = SimulationSpec(model=block_model, n=n, seed=31)
    blocks = list(simulate_blocks(spec))
    assert [len(b) for b in blocks] == [min(ROWS_PER_BLOCK, n - s)
                                        for s in range(0, n, ROWS_PER_BLOCK)]
    d = simulate_dataset(spec)
    assert d.rows.tobytes() == reference_rows(spec).tobytes()
    # the CLI streams the blocks to the file; the bytes equal write_csv's
    model_path = tmp_path / "model.pm"
    model_path.write_text(render_model(block_model), encoding="utf-8")
    streamed, whole = tmp_path / "streamed.csv", tmp_path / "whole.csv"
    assert main(["simulate", "--model", str(model_path), "--n", str(n),
                 "--seed", "31", "--out", str(streamed)]) == 0
    write_csv(d, whole)
    assert streamed.read_bytes() == whole.read_bytes()


def test_simulate_memory_does_not_grow_with_n(tmp_path, monkeypatch):
    # a small block keeps the traced run short; the bound is the same
    # whatever the block size
    rows_per_block = 1024
    monkeypatch.setattr(simulate, "ROWS_PER_BLOCK", rows_per_block)
    model_path = tmp_path / "model.pm"
    model_path.write_text(render_model(chain_model(3)), encoding="utf-8")

    def peak(n):
        tracemalloc.start()
        try:
            assert main(["simulate", "--model", str(model_path), "--n", str(n),
                         "--seed", "5", "--out", str(tmp_path / "sim.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4 * rows_per_block)  # first use builds the stream's jump table
    # holding every row would make the second peak about twice the first
    assert peak(16 * rows_per_block) < 1.2 * peak(4 * rows_per_block)
