"""Acceptance gate: the ten exit criteria, one test and one printed
PASS/FAIL line each, run at their stated tolerances.

Criterion 9's VIF_X1 target (1.67 ± 0.02) cannot be produced from the
bundled predictor block (exact inversion gives 1.7072 by two independent
routes), so that assertion is expected to fail; the analysis lives in the
reviewer notes outside the package.  Everything else passes.
"""

import numpy as np

from pathtrek.correlation import CorrelationMatrix
from pathtrek.data import Dataset
from pathtrek.effects import (
    assess_fit,
    decompose_effects,
    revise_model,
)
from pathtrek.estimation import fit_standardized
from pathtrek.pathspec import Arrow, PathModel
from pathtrek.screening import ks_normality, mahalanobis, vif
from pathtrek.simulate import SimulationSpec, recovery_check, simulate_dataset
from pathtrek.tracing import implied_matrix

from conftest import total_effect_oracle, trek_sum_matrix
from test_tracing import random_annotated_dag


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# 1 ------------------------------------------------------------------------

EXPECTED_COEFFICIENTS = {
    "X2": (("X1",), (0.531,)),
    "X3": (("X1", "X2"), (0.405, 0.204)),
    "X4": (("X1", "X2", "X3"), (0.239, 0.216, 0.217)),
    "Y": (("X2", "X3", "X4"), (0.145, 0.084, 0.782)),
}


def test_criterion_1_coefficient_reproduction(revised_refit):
    worst = 0.0
    for target, (parents, expected) in EXPECTED_COEFFICIENTS.items():
        eq = revised_refit.equation(target)
        assert eq.parents == parents
        worst = max(worst, max(abs(b - e) for b, e in zip(eq.beta, expected)))
    report(1, worst <= 0.005, f"max coefficient deviation {worst:.5f} (tol 0.005)")


# 2 ------------------------------------------------------------------------

def test_criterion_2_r_squared(revised_refit):
    expected = {"X2": 0.282, "X3": 0.294, "X4": 0.299, "Y": 0.805}
    got = revised_refit.r_squared()
    worst = max(abs(got[v] - expected[v]) for v in expected)
    report(2, worst <= 0.001, f"max R² deviation {worst:.6f} (tol 0.001)")


# 3 ------------------------------------------------------------------------

def test_criterion_3_reproduced_golden_cells(initial_printed, revised_printed):
    init = implied_matrix(initial_printed)
    rev = implied_matrix(revised_printed)
    cells = [
        (init, "X1", "X3", 0.417), (init, "X1", "X4", 0.087),
        (init, "X2", "X3", 0.329), (init, "X2", "X4", 0.069),
        (init, "X3", "X4", 0.209),
        (rev, "X1", "X3", 0.513), (rev, "X1", "X4", 0.465),
        (rev, "X2", "X3", 0.419), (rev, "X2", "X4", 0.434),
        (rev, "X2", "Y", 0.519),
    ]
    worst = max(abs(m.value(a, b) - want) for m, a, b, want in cells)
    report(3, worst <= 0.001, f"max golden-cell deviation {worst:.6f} (tol 0.001)")


# 4 ------------------------------------------------------------------------

def test_criterion_4_fit_verdicts(observed_corr, initial_printed, revised_refit):
    initial_fit = assess_fit(observed_corr, implied_matrix(initial_printed), 0.05)
    revised_fit = assess_fit(
        observed_corr, implied_matrix(revised_refit.annotated_model()), 0.05
    )
    ok = (
        initial_fit.misfit_count == 9
        and revised_fit.misfit_count == 0
        and revised_fit.max_difference <= 0.03
    )
    report(
        4, ok,
        f"initial {initial_fit.misfit_count}/10 flagged; revised "
        f"{revised_fit.misfit_count}/10, max |diff| {revised_fit.max_difference:.4f}",
    )


# 5 ------------------------------------------------------------------------

TABLE_SUMMARY = {
    # published causal-effects summary; two cells are documented errata and
    # carry the recomputed values (indirect X1->Y; direct/indirect X3->Y)
    ("X1", "Y"): (0.0, 0.484), ("X2", "Y"): (0.145, 0.221),
    ("X3", "Y"): (0.084, 0.170), ("X4", "Y"): (0.782, 0.0),
    ("X1", "X4"): (0.239, 0.226), ("X2", "X4"): (0.216, 0.044),
    ("X3", "X4"): (0.217, 0.0),
    ("X1", "X3"): (0.405, 0.108), ("X2", "X3"): (0.204, 0.0),
    ("X1", "X2"): (0.531, 0.0),
}


def test_criterion_5_effects_table(revised_printed):
    table = decompose_effects(revised_printed)
    worst = 0.0
    for (det, outcome), (direct, indirect) in TABLE_SUMMARY.items():
        row = table.row(det, outcome)
        worst = max(worst, abs(row.direct - direct), abs(row.indirect - indirect),
                    abs(row.total - (direct + indirect)))
    # the X3 -> Y pair keeps its published total even with the cells swapped
    lr = table.row("X3", "Y")
    worst = max(worst, abs(lr.total - 0.254))
    report(5, worst <= 0.001, f"max effects deviation {worst:.6f} (tol 0.001)")


# 6 ------------------------------------------------------------------------

def test_criterion_6_revision_reproduction(observed_corr, initial_model,
                                           revised_model):
    trace = revise_model(observed_corr, initial_model, alpha=0.05,
                         threshold=0.05, max_iter=10)
    dropped = {a for s in trace.steps if s.action == "drop" for a in s.arrows}
    added = {a for s in trace.steps if s.action == "add" for a in s.arrows}
    ok = (
        trace.converged
        and dropped == {("X1", "Y")}
        and added == {("X1", "X4"), ("X2", "X4")}
        and trace.final_model.arrow_set() == revised_model.arrow_set()
    )
    report(6, ok, f"dropped {sorted(dropped)}, added {sorted(added)}, "
                  f"converged={trace.converged}")


# 7 ------------------------------------------------------------------------

def test_criterion_7_oracle_equivalence():
    gen = np.random.default_rng(424242)
    worst_matrix = 0.0
    worst_total = 0.0
    for _ in range(100):
        model = random_annotated_dag(gen, max_k=8)
        rm = trek_sum_matrix(model)
        im = implied_matrix(model)
        worst_matrix = max(worst_matrix, float(np.abs(rm.r_hat - im.r_hat).max()))
        names, totals = total_effect_oracle(model)
        idx = {v: i for i, v in enumerate(names)}
        for row in decompose_effects(model).rows if model.endogenous else []:
            worst_total = max(
                worst_total,
                abs(row.total - totals[idx[row.outcome], idx[row.determinant]]),
            )
    ok = worst_matrix <= 1e-9 and worst_total <= 1e-12
    report(7, ok, f"trek vs implied max {worst_matrix:.2e} (tol 1e-9); "
                  f"path totals vs inverse max {worst_total:.2e} (tol 1e-12)")


# 8 ------------------------------------------------------------------------

def test_criterion_8_simulation_recovery(revised_refit):
    annotated = revised_refit.annotated_model()
    spec = SimulationSpec(model=annotated, n=50000, seed=11)
    rec = recovery_check(spec, tolerance=0.02)
    first = simulate_dataset(spec).rows.tobytes()
    second = simulate_dataset(spec).rows.tobytes()
    ok = rec.passed and first == second
    report(8, ok, f"max recovery error {rec.max_abs_error:.5f} (tol 0.02); "
                  f"repeat runs byte-identical={first == second}")


# 9 ------------------------------------------------------------------------

def test_criterion_9_screening_properties(observed_corr):
    gen = np.random.default_rng(5150)
    sum_dev = 0.0
    for _ in range(5):
        n, k = int(gen.integers(20, 60)), int(gen.integers(2, 5))
        d = Dataset(tuple(f"v{i}" for i in range(k)), gen.normal(size=(n, k)))
        total = sum(t[1] for t in mahalanobis(d))
        sum_dev = max(sum_dev, abs(total - k * (n - 1)))
    vifs = vif(observed_corr, ("X1", "X2", "X3", "X4"))
    ks_d, _, _ = ks_normality([-1.0, 0.0, 1.0])
    ok_sum = sum_dev <= 1e-8
    ok_vif_floor = all(v >= 1.0 - 1e-9 for v in vifs.values())
    ok_vif_value = abs(vifs["X1"] - 1.67) <= 0.02
    ok_ks = abs(ks_d - 0.1747) <= 1e-3
    report(
        9, ok_sum and ok_vif_floor and ok_vif_value and ok_ks,
        f"sum-D² deviation {sum_dev:.2e}; VIF floor ok={ok_vif_floor}; "
        f"VIF_X1 {vifs['X1']:.4f} vs 1.67±0.02 (exact inversion gives 1.7072, "
        f"so this target is unattainable); KS(-1,0,1) {ks_d:.4f}",
    )


# 10 -----------------------------------------------------------------------

def test_criterion_10_saturated_identity():
    gen = np.random.default_rng(33550336)
    worst = 0.0
    names = tuple(f"s{i}" for i in range(5))
    saturated = PathModel(
        names,
        tuple(Arrow(names[i], names[j]) for i in range(5) for j in range(i + 1, 5)),
        {},
    )
    for _ in range(25):
        w = gen.uniform(-1.0, 1.0, (5, 9))
        cov = w @ w.T + np.diag(gen.uniform(0.5, 2.0, 5))
        scale = np.sqrt(np.diag(cov))
        r = cov / np.outer(scale, scale)
        corr = CorrelationMatrix(names, r, 120)
        fit = fit_standardized(corr, saturated)
        rm = implied_matrix(fit.annotated_model())
        worst = max(worst, float(np.abs(rm.r_hat - r).max()))
    report(10, worst <= 1e-9, f"max saturated reproduction error {worst:.2e} (tol 1e-9)")
