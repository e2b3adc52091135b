"""End-to-end command-line runs against the bundled study files."""

import json

import pytest

from pathtrek.cli import main
from pathtrek.data import Dataset, load_csv, write_csv
from pathtrek.pathspec import load_model, render_model

from conftest import DATA_DIR, NAMES, OBSERVED_R, exact_corr_scores

CORR = str(DATA_DIR / "observed_correlations.csv")
SCORES = str(DATA_DIR / "sample_scores.csv")
INITIAL = str(DATA_DIR / "initial_model.pm")
REVISED = str(DATA_DIR / "revised_model.pm")
INITIAL_PUBLISHED = str(DATA_DIR / "initial_model_published.pm")
REVISED_PUBLISHED = str(DATA_DIR / "revised_model_published.pm")


def run_json(tmp_path, args):
    out = tmp_path / "report.json"
    code = main(args + ["--format", "json", "--out", str(out)])
    return code, json.loads(out.read_text())


# ---------------------------------------------------------------------------
# fit

def test_fit_from_correlations(tmp_path):
    code, report = run_json(tmp_path, [
        "fit", "--corr", CORR, "--n", "240", "--model", REVISED,
    ])
    assert code == 0
    r2 = {eq["target"]: eq["r_squared"] for eq in report["coefficients"]["equations"]}
    assert r2["Y"] == pytest.approx(0.805, abs=1e-3)
    assert report["fit"]["verdict"] == "fits"
    assert report["fit"]["misfit_count"] == 0
    assert report["correlations"]["strength"]["X4:Y"] == "large"
    assert set(report["inputs"]) == {CORR, REVISED}
    assert report["version"]


def test_fit_published_initial_model_misfits(tmp_path):
    # annotated input: the file's own coefficients are the traced hypothesis
    code, report = run_json(tmp_path, [
        "fit", "--corr", CORR, "--n", "240", "--model", INITIAL_PUBLISHED,
    ])
    assert code == 0
    assert report["fit"]["misfit_count"] == 9
    y_eq = next(
        eq for eq in report["coefficients"]["equations"] if eq["target"] == "Y"
    )
    j = y_eq["parents"].index("X1")
    assert y_eq["p"][j] > 0.05
    assert any("annotated" in w for w in report["warnings"])


def test_fit_bare_initial_model_misfits(tmp_path):
    # bare topology: traced with the refit coefficients instead
    code, report = run_json(tmp_path, [
        "fit", "--corr", CORR, "--n", "240", "--model", INITIAL,
    ])
    assert code == 0
    assert report["fit"]["misfit_count"] == 4
    assert report["fit"]["verdict"] == "does-not-fit"


def test_fit_published_revised_model_fits(tmp_path):
    code, report = run_json(tmp_path, [
        "fit", "--corr", CORR, "--n", "240", "--model", REVISED_PUBLISHED,
    ])
    assert code == 0
    assert report["fit"]["verdict"] == "fits"
    r2 = {eq["target"]: eq["r_squared"] for eq in report["coefficients"]["equations"]}
    assert r2["Y"] == pytest.approx(0.805, abs=1e-3)


def test_fit_from_raw_data(tmp_path):
    code, report = run_json(tmp_path, [
        "fit", "--data", SCORES, "--model", REVISED,
    ])
    assert code == 0
    r2 = {eq["target"]: eq["r_squared"] for eq in report["coefficients"]["equations"]}
    assert r2["Y"] == pytest.approx(0.805, abs=1e-3)
    assert report["fit"]["verdict"] == "fits"
    # every warning raised while loading lands here; a clean file raises none
    assert report["warnings"] == []


def test_fit_usage_error_both_inputs():
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", SCORES, "--corr", CORR, "--n", "240",
              "--model", REVISED])
    assert exc.value.code == 2


def test_fit_missing_file(capsys):
    code = main(["fit", "--corr", "no-such-file.csv", "--n", "240",
                 "--model", REVISED])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_fit_text_and_json_agree(tmp_path):
    code, report = run_json(tmp_path, [
        "fit", "--corr", CORR, "--n", "240", "--model", REVISED,
    ])
    out = tmp_path / "report.txt"
    assert main(["fit", "--corr", CORR, "--n", "240", "--model", REVISED,
                 "--out", str(out)]) == 0
    text = out.read_text()
    r2 = {eq["target"]: eq["r_squared"] for eq in report["coefficients"]["equations"]}
    assert f"R² = {r2['Y']:.3f}" in text
    beta_y = next(eq for eq in report["coefficients"]["equations"]
                  if eq["target"] == "Y")["beta"]
    for b in beta_y:
        assert f"{b:.3f}" in text
    assert "misfit pairs: 0/10 -> fits" in text


def test_fit_stdout_default(capsys):
    assert main(["fit", "--corr", CORR, "--n", "240", "--model", REVISED]) == 0
    assert "standardized coefficients" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# revise

def test_revise_reaches_revised_topology(tmp_path):
    out_model = tmp_path / "final.pm"
    code, report = run_json(tmp_path, [
        "revise", "--corr", CORR, "--n", "240", "--model", INITIAL,
        "--out-model", str(out_model),
    ])
    assert code == 0
    assert report["revision"]["converged"]
    final = load_model(out_model)
    assert final.arrow_set() == load_model(REVISED).arrow_set()
    assert final.is_annotated
    actions = [(s["action"], tuple(map(tuple, s["arrows"]))) for s in report["revision"]["steps"]]
    assert actions[0] == ("drop", (("X1", "Y"),))


def test_revise_already_fitting(tmp_path):
    code, report = run_json(tmp_path, [
        "revise", "--corr", CORR, "--n", "240", "--model", REVISED,
    ])
    assert code == 0
    assert report["revision"]["steps"] == []
    assert report["fit"]["verdict"] == "fits"


def test_revise_max_iter_exhausted(tmp_path):
    code, report = run_json(tmp_path, [
        "revise", "--corr", CORR, "--n", "240", "--model", INITIAL,
        "--max-iter", "1",
    ])
    assert code == 3
    assert not report["revision"]["converged"]
    assert len(report["revision"]["steps"]) == 2  # drop + first addition


def test_revise_no_admissible_move(tmp_path):
    corr_path = tmp_path / "c.csv"
    corr_path.write_text(
        ",A,B,C\nA,1,0.0,0.2\nB,0.0,1,0.6\nC,0.2,0.6,1\n", encoding="utf-8"
    )
    model_path = tmp_path / "m.pm"
    model_path.write_text(
        "var A\nvar B\nvar C\npath A -> C\npath B -> C\n", encoding="utf-8"
    )
    code, report = run_json(tmp_path, [
        "revise", "--corr", str(corr_path), "--n", "50", "--model", str(model_path),
    ])
    assert code == 3
    assert any("revision failed" in w for w in report["warnings"])


# ---------------------------------------------------------------------------
# simulate

def test_simulate_deterministic(tmp_path, revised_refit):
    model_path = tmp_path / "annotated.pm"
    model_path.write_text(render_model(revised_refit.annotated_model()),
                          encoding="utf-8")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["simulate", "--model", str(model_path), "--n", "240",
                     "--seed", "7", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    d = load_csv(out1)
    assert (d.n, d.k) == (240, 5)


def test_simulate_rejects_bare_model(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["simulate", "--model", REVISED, "--n", "100",
                 "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "coefficient" in capsys.readouterr().err


def test_simulated_data_refits(tmp_path, revised_refit):
    model_path = tmp_path / "annotated.pm"
    model_path.write_text(render_model(revised_refit.annotated_model()),
                          encoding="utf-8")
    data_path = tmp_path / "sim.csv"
    assert main(["simulate", "--model", str(model_path), "--n", "50000",
                 "--seed", "2", "--out", str(data_path)]) == 0
    code, report = run_json(tmp_path, [
        "fit", "--data", str(data_path), "--model", REVISED,
    ])
    assert code == 0
    r2 = {eq["target"]: eq["r_squared"] for eq in report["coefficients"]["equations"]}
    assert r2["Y"] == pytest.approx(0.805, abs=0.02)


# ---------------------------------------------------------------------------
# screen

def test_screen_clean(tmp_path, capsys):
    code = main(["screen", "--data", SCORES, "--model", REVISED, "--strict"])
    assert code == 0
    assert "screening" in capsys.readouterr().out


def test_screen_flags_outlier_strict(tmp_path):
    rows = exact_corr_scores(OBSERVED_R, 240, seed=31).copy()
    rows[0] = 10.0
    bad = tmp_path / "bad.csv"
    write_csv(Dataset(NAMES, rows), bad)
    out = tmp_path / "r.json"
    code = main(["screen", "--data", str(bad), "--strict",
                 "--format", "json", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["screening"]["outliers"][0]["row"] == 0
    # non-strict run exits 0 with the same findings
    assert main(["screen", "--data", str(bad), "--out", str(out)]) == 0


def test_screen_residuals_export(tmp_path):
    resid = tmp_path / "resid.csv"
    code = main(["screen", "--data", SCORES, "--model", REVISED,
                 "--residuals-csv", str(resid), "--out", str(tmp_path / "r.txt")])
    assert code == 0
    lines = resid.read_text().strip().splitlines()
    assert lines[0] == "equation,fitted,std_residual"
    assert len(lines) == 1 + 4 * 240


def test_screen_tiny_units(tmp_path, capsys):
    # the study scores in units of 1e-7: same screening, no singular pivot
    d = load_csv(SCORES)
    tiny = tmp_path / "tiny.csv"
    write_csv(Dataset(d.variables, d.rows * 1e-7), tiny)
    assert main(["screen", "--data", str(tiny), "--model", REVISED]) == 0
    assert "screening" in capsys.readouterr().out


def test_screen_missing_file(capsys):
    assert main(["screen", "--data", "nope.csv"]) == 2


def test_screen_rejects_cell_past_csv_field_limit(tmp_path, capsys):
    # the csv module stops at 131072 characters per field
    path = tmp_path / "wide.csv"
    path.write_text("a,b\n1,2\n3,4\n5,6\n" + "x" * 200_000 + ",1\n7,8\n",
                    encoding="utf-8")
    assert main(["screen", "--data", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: line 5: field larger than field limit" in err
    assert "Traceback" not in err


def test_fit_rejects_correlation_cell_past_csv_field_limit(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    path.write_text(",A,B\nA,1,0.5\nB,0.5," + "1" * 200_000 + "\n", encoding="utf-8")
    model = tmp_path / "m.pm"
    model.write_text("path A -> B\n", encoding="utf-8")
    assert main(["fit", "--corr", str(path), "--n", "50", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: line 3: field larger than field limit" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# digests and determinism

def test_reports_embed_input_digests(tmp_path):
    _, r1 = run_json(tmp_path, ["fit", "--corr", CORR, "--n", "240",
                                "--model", REVISED])
    _, r2 = run_json(tmp_path, ["fit", "--corr", CORR, "--n", "240",
                                "--model", REVISED])
    assert r1["inputs"] == r2["inputs"]
    assert all(len(d) == 64 for d in r1["inputs"].values())
    assert r1 == r2


def test_fit_csv_exports(tmp_path):
    treks = tmp_path / "treks.csv"
    effects = tmp_path / "effects.csv"
    code = main(["fit", "--corr", CORR, "--n", "240",
                 "--model", REVISED_PUBLISHED,
                 "--treks-csv", str(treks), "--effects-csv", str(effects),
                 "--out", str(tmp_path / "r.txt")])
    assert code == 0
    trek_lines = treks.read_text().strip().splitlines()
    assert trek_lines[0] == "pair,sequence,classification,product"
    assert any(",direct," in line for line in trek_lines[1:])
    assert any(",spurious," in line for line in trek_lines[1:])
    effect_lines = effects.read_text().strip().splitlines()
    assert effect_lines[0] == "outcome,determinant,direct,indirect,total"
    assert len(effect_lines) == 11  # ten causally linked pairs


@pytest.mark.parametrize("model,sha256", [
    (INITIAL_PUBLISHED, "8ef60f43adc812ba1a1f84e8b5b74c6116bb063f9a7a75fa774eed69968a51e0"),
    (REVISED_PUBLISHED, "da88d89ab26893f214330a81b99a417b146d1e69cedaed6459b0d1a2cfcde8eb"),
])
def test_treks_csv_bytes_pinned(tmp_path, model, sha256):
    import hashlib

    treks = tmp_path / "treks.csv"
    code = main(["fit", "--corr", CORR, "--n", "240", "--model", model,
                 "--treks-csv", str(treks), "--out", str(tmp_path / "r.txt")])
    assert code == 0
    assert hashlib.sha256(treks.read_bytes()).hexdigest() == sha256


def test_fit_warns_when_hypothesis_implies_nonpositive_psi(tmp_path, capsys):
    corr_path = tmp_path / "c.csv"
    corr_path.write_text(",A,B\nA,1,0.5\nB,0.5,1\n", encoding="utf-8")
    model_path = tmp_path / "m.pm"
    model_path.write_text("var A\nvar B\npath A -> B : 1.2\n", encoding="utf-8")
    code = main(["fit", "--corr", str(corr_path), "--n", "100",
                 "--model", str(model_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "coefficients imply residual variance -0.44 <= 0 for 'B'" in out
    assert "does-not-fit" in out


def test_fit_warns_on_impossible_correlation_table(tmp_path):
    # A-B 0.9, B-C 0.9, A-C -0.9: smallest eigenvalue -0.8, yet A -> B -> C fits
    corr_path = tmp_path / "c.csv"
    corr_path.write_text(",A,B,C\nA,1,0.9,-0.9\nB,0.9,1,0.9\nC,-0.9,0.9,1\n",
                         encoding="utf-8")
    model_path = tmp_path / "m.pm"
    model_path.write_text("path A -> B\npath B -> C\n", encoding="utf-8")
    code, report = run_json(tmp_path, ["fit", "--corr", str(corr_path), "--n", "100",
                                       "--model", str(model_path)])
    assert code == 0
    assert any("smallest eigenvalue -0.8" in w for w in report["warnings"])
    _, study = run_json(tmp_path, ["fit", "--corr", CORR, "--n", "240",
                                   "--model", REVISED])
    assert not any("eigenvalue" in w for w in study["warnings"])


def test_fit_rejects_indefinite_parent_block(tmp_path, capsys):
    # the A, B, C block has smallest eigenvalue -0.8, so Y's equation has none
    corr_path = tmp_path / "c.csv"
    corr_path.write_text(",A,B,C,Y\nA,1,0.9,-0.9,0.1\nB,0.9,1,0.9,0.2\n"
                         "C,-0.9,0.9,1,0.3\nY,0.1,0.2,0.3,1\n", encoding="utf-8")
    model_path = tmp_path / "m.pm"
    model_path.write_text("path A -> Y\npath B -> Y\npath C -> Y\n", encoding="utf-8")
    assert main(["fit", "--corr", str(corr_path), "--n", "100",
                 "--model", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert "'Y'" in err and "not positive definite" in err


def test_fit_reports_unconverged_t_tail(monkeypatch, capsys):
    monkeypatch.setattr("pathtrek.numeric._MAX_ITER", 3)
    assert main(["fit", "--corr", CORR, "--n", "240", "--model", REVISED]) == 2
    err = capsys.readouterr().err
    assert "pathtrek: error: incomplete beta" in err and "a=" in err


def test_revise_warns_when_final_model_implies_nonpositive_psi(tmp_path, capsys):
    # A, B and D, E are strongly negatively correlated causes the model leaves
    # uncorrelated; one iteration adds A -> B, and F keeps psi < 0.
    names = "ABCDEF"
    r = {("A", "B"): -0.9, ("A", "C"): 0.2, ("B", "C"): 0.2,
         ("D", "E"): -0.85, ("D", "F"): 0.2, ("E", "F"): 0.2}
    rows = [a + "," + ",".join(
        "1" if a == b else str(r.get((a, b), r.get((b, a), 0))) for b in names
    ) for a in names]
    corr_path = tmp_path / "c.csv"
    corr_path.write_text("," + ",".join(names) + "\n" + "\n".join(rows) + "\n",
                         encoding="utf-8")
    model_path = tmp_path / "m.pm"
    model_path.write_text("path A -> C\npath B -> C\npath D -> F\npath E -> F\n",
                          encoding="utf-8")
    code = main(["revise", "--corr", str(corr_path), "--n", "100",
                 "--model", str(model_path), "--max-iter", "1"])
    assert code == 3
    assert "residual variance -2.55556 <= 0 for 'F'" in capsys.readouterr().out


def test_revise_trace_export(tmp_path):
    trace_csv = tmp_path / "trace.csv"
    code = main(["revise", "--corr", CORR, "--n", "240", "--model", INITIAL,
                 "--trace-csv", str(trace_csv), "--out", str(tmp_path / "r.txt")])
    assert code == 0
    lines = trace_csv.read_text().strip().splitlines()
    assert lines[0] == "iteration,action,arrows,reason,misfit_count,max_difference"
    assert len(lines) == 4  # drop + two additions
    assert "X1->Y" in lines[1]


def test_fit_and_revise_never_enumerate_treks(tmp_path, monkeypatch):
    import pathtrek.tracing

    def refuse(*args, **kwargs):
        raise AssertionError("treks enumerated outside --treks-csv")

    monkeypatch.setattr(pathtrek.tracing, "enumerate_treks", refuse)
    for model in (INITIAL, REVISED, INITIAL_PUBLISHED):
        code, report = run_json(tmp_path, ["fit", "--corr", CORR, "--n", "240",
                                           "--model", model])
        assert code == 0
        assert report["reproduced"]["r_hat"]
    code, report = run_json(tmp_path, ["revise", "--corr", CORR, "--n", "240",
                                       "--model", INITIAL])
    assert code == 0
    assert report["revision"]["converged"]


def test_trek_budget_stops_export_on_complete_dag(tmp_path, capsys):
    # The complete DAG on 20 variables implies ~1e9 treks; only the export
    # enumerates them, and it stops at the trek budget.
    import time

    k = 20
    names = [f"V{i}" for i in range(k)]
    corr_path = tmp_path / "c.csv"
    corr_path.write_text(
        "," + ",".join(names) + "\n" + "".join(
            v + "," + ",".join("1" if i == j else "0.2" for j in range(k)) + "\n"
            for i, v in enumerate(names)
        ),
        encoding="utf-8",
    )
    model_path = tmp_path / "m.pm"
    model_path.write_text(
        "".join(f"path {names[i]} -> {names[j]}\n" for j in range(k) for i in range(j)),
        encoding="utf-8",
    )
    argv = ["fit", "--corr", str(corr_path), "--n", "500", "--model", str(model_path),
            "--out", str(tmp_path / "r.txt")]
    assert main(argv) == 0
    start = time.perf_counter()
    assert main(argv + ["--treks-csv", str(tmp_path / "treks.csv")]) == 2
    assert time.perf_counter() - start < 30.0
    assert "budget" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fresh interpreters: what a real process prints and imports

def run_fresh(args, cwd):
    """A new `python` process that imports the same pathtrek as this one."""
    import os
    import subprocess
    import sys

    import pathtrek

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pathtrek.__file__)))
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_simulate_routes_load_warnings(tmp_path):
    model = tmp_path / "implicit.pm"
    model.write_text("path A -> B : 0.5\npath B -> C : 0.3\n", encoding="utf-8")
    proc = run_fresh(["-m", "pathtrek.cli", "simulate", "--model", str(model),
                      "--n", "10", "--seed", "1", "--out", str(tmp_path / "s.csv")],
                     tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == "pathtrek: warning: implicitly declared variables: A, B, C\n"
    assert ".py" not in proc.stderr
    assert load_csv(tmp_path / "s.csv").variables == ("A", "B", "C")


NUMPY_GUARD = """
import sys
import pathtrek
from pathtrek.cli import main

for argv in (
    ["fit", "--corr", CORR, "--n", "240", "--model", REVISED, "--out", "fit.txt"],
    ["fit", "--corr", CORR, "--n", "240", "--model", REVISED, "--format", "json",
     "--out", "fit.json"],
    ["revise", "--corr", CORR, "--n", "240", "--model", INITIAL, "--out", "revise.txt"],
    ["revise", "--corr", CORR, "--n", "240", "--model", INITIAL, "--format", "json",
     "--out", "revise.json"],
):
    assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy imported"

# the raw-data names still resolve, and then numpy loads
assert callable(pathtrek.screen) and pathtrek.Dataset.__name__ == "Dataset"
from pathtrek import *
assert all(name in globals() for name in pathtrek.__all__)
assert "numpy" in sys.modules
"""


def test_correlation_path_imports_no_numpy(tmp_path):
    code = f"CORR, REVISED, INITIAL = {CORR!r}, {REVISED!r}, {INITIAL!r}\n" + NUMPY_GUARD
    proc = run_fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "misfit pairs: 0/10 -> fits" in (tmp_path / "fit.txt").read_text()
    assert "converged after 2 iteration(s)" in (tmp_path / "revise.txt").read_text()
