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


def test_fit_usage_error_both_inputs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--data", SCORES, "--corr", CORR, "--n", "240",
              "--model", REVISED])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "pathtrek fit: error: exactly one of --data or --corr is required" in err
    assert err.startswith("usage: pathtrek fit ")


@pytest.mark.parametrize("command", ["fit", "revise"])
def test_sample_size_with_raw_data_is_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--data", SCORES, "--n", "7", "--model", REVISED])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"pathtrek {command}: error: --n applies only to --corr" in err
    assert err.startswith(f"usage: pathtrek {command} ")


@pytest.mark.parametrize("command", ["fit", "revise"])
def test_corr_without_sample_size_is_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--corr", CORR, "--model", REVISED])
    assert exc.value.code == 2
    assert f"pathtrek {command}: error: --corr requires --n" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["revise", "--corr", CORR, "--n", "240", "--model", INITIAL, "--alpha", "1.5"],
    ["revise", "--corr", CORR, "--n", "240", "--model", INITIAL, "--alpha", "0"],
    ["revise", "--corr", CORR, "--n", "240", "--model", INITIAL, "--alpha", "nan"],
    ["fit", "--corr", CORR, "--n", "240", "--model", REVISED, "--misfit", "-1"],
    ["revise", "--corr", CORR, "--n", "240", "--model", INITIAL, "--misfit", "inf"],
    ["fit", "--corr", CORR, "--n", "240", "--model", REVISED, "--misfit", "nan"],
    ["screen", "--data", SCORES, "--alpha", "1"],
    ["screen", "--data", SCORES, "--outlier-p", "-0.001"],
], ids=lambda args: f"{args[0]}{args[-2]}={args[-1]}")
def test_out_of_range_thresholds_rejected(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"argument {args[-2]}: " in capsys.readouterr().err


def test_fit_takes_no_alpha(capsys):
    # only revise reads a significance level; fit's report is the same at any
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--corr", CORR, "--n", "240", "--model", REVISED, "--alpha", "0.05"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --alpha 0.05" in capsys.readouterr().err


def test_fit_missing_file(capsys):
    code = main(["fit", "--corr", "no-such-file.csv", "--n", "240",
                 "--model", REVISED])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "revise", "screen"])
def test_data_with_empty_header_line(tmp_path, capsys, command):
    path = tmp_path / "noheader.csv"
    path.write_text("\n1,2\n3,4\n5,6\n7,8\n", encoding="utf-8")
    assert main([command, "--data", str(path), "--model", REVISED]) == 2
    assert f"{path}: line 1: empty header" in capsys.readouterr().err


def test_fit_rejects_correlation_past_one(tmp_path, capsys):
    path = tmp_path / "big.csv"
    text = (DATA_DIR / "observed_correlations.csv").read_text(encoding="utf-8")
    path.write_text(text.replace("0.512", "1.2"), encoding="utf-8")  # X1-Y, both cells
    assert main(["fit", "--corr", str(path), "--n", "240", "--model", REVISED]) == 2
    err = capsys.readouterr().err
    assert f"{path}: correlation 1.2 outside [-1, 1]" in err
    assert "Traceback" not in err


def test_fit_corr_with_sample_size_zero(capsys):
    assert main(["fit", "--corr", CORR, "--n", "0", "--model", REVISED]) == 2
    err = capsys.readouterr().err
    assert "sample size must be a whole number >= 3, got 0" in err
    assert "requires --n" not in err


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


@pytest.mark.parametrize("seed", [str(1 << 64), "-1"])
def test_simulate_rejects_seed_outside_64_bits(tmp_path, capsys, seed):
    out = tmp_path / "x.csv"
    code = main(["simulate", "--model", REVISED_PUBLISHED, "--n", "100",
                 "--seed", seed, "--out", str(out)])
    assert code == 2
    assert "seed must be an integer in [0, 2**64)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "# no variables yet\n"])
def test_simulate_rejects_model_without_variables(tmp_path, capsys, text):
    model_path = tmp_path / "empty.pm"
    model_path.write_text(text, encoding="utf-8")
    code = main(["simulate", "--model", str(model_path), "--n", "100",
                 "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "model declares no variables to simulate" in capsys.readouterr().err


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


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("export", [False, True])
def test_screen_builds_points_only_for_the_export(tmp_path, monkeypatch, fmt, export):
    # the reports read neither the residual points nor the full distance list
    from pathtrek import screening

    points, reads = [], []
    diagnostics = screening.residual_diagnostics
    distances = screening.ScreeningReport.distances
    monkeypatch.setattr(screening, "residual_diagnostics",
                        lambda *args: points.append(args) or diagnostics(*args))
    monkeypatch.setattr(screening.ScreeningReport, "distances",
                        property(lambda self: reads.append(self) or distances.func(self)))
    args = ["screen", "--data", SCORES, "--model", REVISED, "--format", fmt,
            "--out", str(tmp_path / "report")]
    if export:
        args += ["--residuals-csv", str(tmp_path / "resid.csv")]
    assert main(args) == 0
    assert len(points) == export
    assert reads == []


def test_screen_takes_exact_tails_only_where_the_report_reads_them(tmp_path, monkeypatch):
    # a JSON screen reads one KS D per column and the p of the flagged rows
    from pathtrek import numeric

    counted = []
    for name in ("normal_cdf_array", "chisq_sf_array"):
        tail = getattr(numeric, name)
        monkeypatch.setattr(numeric, name, lambda x, *args, tail=tail:
                            counted.append(len(x)) or tail(x, *args))
    n, k = 2000, len(NAMES)
    data = tmp_path / "scores.csv"
    write_csv(Dataset(NAMES, exact_corr_scores(OBSERVED_R, n, seed=919)), data)
    code, report = run_json(tmp_path, ["screen", "--data", str(data), "--model", REVISED])
    assert code == 0
    assert len(report["screening"]["normality"]) == k
    assert 0 < sum(counted) < (n * k + n) // 100


def test_overflowing_column_is_an_input_error(tmp_path, capsys, recwarn):
    data = tmp_path / "huge.csv"
    rows = [f"{1e308 if i % 2 else -1e308!r},{i % 7},{i % 5 * 0.5}" for i in range(30)]
    data.write_text("X1,X2,X3\n" + "\n".join(rows) + "\n")
    model = tmp_path / "m.pm"
    model.write_text("var X1\nvar X2\nvar X3\npath X1 -> X3\npath X2 -> X3\n")
    for args in (["screen", "--data", str(data)],
                 ["fit", "--data", str(data), "--model", str(model)]):
        assert main(args + ["--out", str(tmp_path / "report")]) == 2
        err = capsys.readouterr().err
        assert "variable 'X1': mean or sd overflows float64" in err
        assert "Warning" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("command", ["fit", "revise", "screen"])
def test_data_digest_comes_from_the_parsed_bytes(tmp_path, monkeypatch, command):
    import hashlib

    from pathtrek import cli, files

    digested = []
    monkeypatch.setattr(cli, "file_digest",
                        lambda path: digested.append(path) or files.file_digest(path))
    code, report = run_json(tmp_path, [command, "--data", SCORES, "--model", REVISED])
    assert code == 0
    with open(SCORES, "rb") as fh:
        assert report["inputs"][SCORES] == hashlib.sha256(fh.read()).hexdigest()
    assert digested == [REVISED]


SCREEN_SHA256 = "442d97f98a708f3ae481c366eb24216ea5454f535ac1a7abd7e20bbcc5fd406d"


def test_screen_json_pinned(tmp_path, revised_refit):
    # a seeded 5000-row draw of the revised model, screened with that model:
    # the flagged rows with their D2 and p, the KS statistics and verdicts,
    # the VIFs, summaries and warnings are pinned byte for byte (only the
    # screening section: the inputs section holds the temporary paths)
    import hashlib

    model_path = tmp_path / "annotated.pm"
    model_path.write_text(render_model(revised_refit.annotated_model()),
                          encoding="utf-8")
    data_path = tmp_path / "sim.csv"
    assert main(["simulate", "--model", str(model_path), "--n", "5000",
                 "--seed", "16", "--out", str(data_path)]) == 0
    code, report = run_json(tmp_path, [
        "screen", "--data", str(data_path), "--model", REVISED,
    ])
    assert code == 0
    screening = json.dumps(report["screening"], sort_keys=True).encode()
    assert hashlib.sha256(screening).hexdigest() == SCREEN_SHA256


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


# sha256 of every bundled-study fit and revise output: both reports and every
# export.  The runs use relative paths from data/, so the reports' inputs
# section names the same files on every checkout.
STUDY_INPUTS = {
    "corr": ["--corr", "observed_correlations.csv", "--n", "240"],
    "data": ["--data", "sample_scores.csv"],
}
STUDY_EXPORTS = {
    "fit": [("--effects-csv", "effects.csv")],
    "revise": [("--out-model", "model.pm"), ("--trace-csv", "trace.csv")],
}
STUDY_OUTPUT_SHA256 = {
    ("fit", "initial_model.pm", "corr"): {
        "json": "ea09ee8263d8fba1d5c03ee23c3af14638543ce163fcb835960f55ee827e8a38",
        "text": "d0f942fda63031c79918e3cc922efe101e45b4d1311f74d0c96e48826543800f",
        "effects.csv": "0243d3f0f63e8ac78d2b2ee3731382a8d31fcddcd688c1ce05eb9e3f504913b6",
    },
    ("fit", "initial_model.pm", "data"): {
        "json": "6ab96c357f3859292dc904230a50ddc6a564170fd0f3f86b8085a074cf3df943",
        "text": "0790874a143a569236476e0eaf822319a0ed6cae0935ac972dbdc66b77ca6f4b",
        "effects.csv": "a1a4a56a5305d2aee02973b7992b30234eac01cba8dffd201ead6a068a239614",
    },
    ("fit", "initial_model_published.pm", "corr"): {
        "json": "c54b23ec3439de1963328e5a325b04c9a99748465384944b5e1331bee351da3d",
        "text": "13aa67871bade47f174c09fa383d447f25047e57b918595aaf59dde69984c299",
        "effects.csv": "9f4604f3762d34c534bac3c3d4a7efbb9352fd073e3f4ac42293273e7d5249f5",
    },
    ("fit", "initial_model_published.pm", "data"): {
        "json": "1dfd5e8620be83fee63cc20e748c862368481fcc7f4cea5d6ec9904780781359",
        "text": "69b85a9797c13d082e9b23373159ddfc276ba8251781bc30de8ae7c277d41066",
        "effects.csv": "9f4604f3762d34c534bac3c3d4a7efbb9352fd073e3f4ac42293273e7d5249f5",
    },
    ("fit", "revised_model.pm", "corr"): {
        "json": "5230f3fb9fe55287274d4e39ea39c8ca954c4e32334c84522d6cdc9be46a9e3b",
        "text": "40902fbf07fb127d722ab1cde84399bca02c00d76d10a50b8f6aa6398d049992",
        "effects.csv": "9e5c9f111ebffce7b9caf7a0b97508c320ec49728150edebbeb28b957d0b530a",
    },
    ("fit", "revised_model.pm", "data"): {
        "json": "a5c28b458a0de61bda7183557833b76242c6dc63e83bc7b5f1b8d417aa9b38c9",
        "text": "4121eab3cc637503ae7e8086437ae3e7523c85f49e40137fd6154d61e11b6692",
        "effects.csv": "c0b7d9b7ce307b61218c523f4ff64906e7ce390f98410f3f1183fb3623744ae5",
    },
    ("fit", "revised_model_published.pm", "corr"): {
        "json": "ddd2bef25e2a1b435d0384f45ed3481fb28362acd66917e87c43e0842fbdf874",
        "text": "6a7f11050abd3f0298f5f357fec4e3e30750718ad0f6fb066a2bba422f06d4ca",
        "effects.csv": "8f42eb5bc06b6d521148298d828450fd5b942df95f61b08d401d447a6c52d545",
    },
    ("fit", "revised_model_published.pm", "data"): {
        "json": "2b754e4aa384e6b986d0bb6826ea8659d1e4526d4eb8b4568d1c87083f1d62ec",
        "text": "b556881aa4b662139022c275a203d4c1c518b575ff89ef01a8e46634689718f0",
        "effects.csv": "8f42eb5bc06b6d521148298d828450fd5b942df95f61b08d401d447a6c52d545",
    },
    ("revise", "initial_model.pm", "corr"): {
        "json": "3b2f770b724ee18905871b34d64caecd02297e14f57c672e5c3bd6e7addad3ce",
        "text": "26a30e2a5222bf4dffb2ebd9a8c2721d3980af3c5202bf501ef1e12dd3ff1b69",
        "model.pm": "8704b2b331874f2d79a0b582906193dbbdd15edc2d2e67b92f517e90ab5ae57a",
        "trace.csv": "9e732e256562c42c2a526040ce942af55e454bc9cbea42561a233e3605915bb3",
    },
    ("revise", "initial_model.pm", "data"): {
        "json": "9369e3388f7b25ec885c7172d167ce4dffdb117a4587d948d276336a8e4c2503",
        "text": "4ce445a77b7703c39b60e7239b967e557cbfbc92d07dea7c9bd180915093a3eb",
        "model.pm": "0bb1423fb5172eef6db301dceba3b8d30aaa9965027c3a36ea0ff403aab5b5b1",
        "trace.csv": "21825d7917a85d785e8de84bc417567a136fda0d171f79c92e3aefdf5d038a1f",
    },
    ("revise", "initial_model_published.pm", "corr"): {
        "json": "f25fe96df6d5690bb73f5496a1ee7f9d80a948b4295e86ff896780a7b2bcd628",
        "text": "27b451bfcbc5f6a29a82aa0e698c1f6ec6f733206bafe433b10764d75d4eb693",
        "model.pm": "8704b2b331874f2d79a0b582906193dbbdd15edc2d2e67b92f517e90ab5ae57a",
        "trace.csv": "9e732e256562c42c2a526040ce942af55e454bc9cbea42561a233e3605915bb3",
    },
    ("revise", "initial_model_published.pm", "data"): {
        "json": "d6b8b513e9c6d9e0758102758d877f01d0dc167cb3592f79752c646ae7c96e9f",
        "text": "92d252eecf93e05cd77d751b7442f4e63b16dbfcce4918a0506203de8381db97",
        "model.pm": "0bb1423fb5172eef6db301dceba3b8d30aaa9965027c3a36ea0ff403aab5b5b1",
        "trace.csv": "21825d7917a85d785e8de84bc417567a136fda0d171f79c92e3aefdf5d038a1f",
    },
    ("revise", "revised_model.pm", "corr"): {
        "json": "872d4d3ab65b8ddd081bc53dc855a11eaa9dceaefd2913528fcc8459e96586c0",
        "text": "3c53f6a356f4b03be2c98179da81788931f45b4dcacdb60c5597fb96528ea8c8",
        "model.pm": "8704b2b331874f2d79a0b582906193dbbdd15edc2d2e67b92f517e90ab5ae57a",
        "trace.csv": "d5309e74a2d6efff0fe2562c8ad209242eea901c2fad790cfd186120404071e5",
    },
    ("revise", "revised_model.pm", "data"): {
        "json": "23001e8ba7731dbae3a89416ead693a9045b9d941f5c077113f167b886bedb8a",
        "text": "12f3b5a39f782191dee186ddb4375afca30190acc6b9f9e0cdebe7c46dc356a0",
        "model.pm": "0bb1423fb5172eef6db301dceba3b8d30aaa9965027c3a36ea0ff403aab5b5b1",
        "trace.csv": "d5309e74a2d6efff0fe2562c8ad209242eea901c2fad790cfd186120404071e5",
    },
    ("revise", "revised_model_published.pm", "corr"): {
        "json": "8daa17f8439e1ab65ce439d8cfd6f814bb2d07bdf0772b81b06dd981bea30103",
        "text": "23966443917fe2fa94225ae8c164a0e4db22ed95bca98837e87bb12ea8e18260",
        "model.pm": "8704b2b331874f2d79a0b582906193dbbdd15edc2d2e67b92f517e90ab5ae57a",
        "trace.csv": "d5309e74a2d6efff0fe2562c8ad209242eea901c2fad790cfd186120404071e5",
    },
    ("revise", "revised_model_published.pm", "data"): {
        "json": "cfda2273f78c3113fab1979d99dd97287e3953911fe198002322ce2b6bc1e6c8",
        "text": "e616f288627b7826f0becf275901c999f76b5c0e297625b03d87df2ebcb56333",
        "model.pm": "0bb1423fb5172eef6db301dceba3b8d30aaa9965027c3a36ea0ff403aab5b5b1",
        "trace.csv": "d5309e74a2d6efff0fe2562c8ad209242eea901c2fad790cfd186120404071e5",
    },
}


@pytest.mark.parametrize("command,model,source", list(STUDY_OUTPUT_SHA256))
def test_study_outputs_pinned(tmp_path, monkeypatch, command, model, source):
    import hashlib

    monkeypatch.chdir(DATA_DIR)
    exports = []
    for flag, name in STUDY_EXPORTS[command]:
        exports += [flag, str(tmp_path / name)]
    for fmt in ("json", "text"):
        assert main([command, *STUDY_INPUTS[source], "--model", model, "--format", fmt,
                     "--out", str(tmp_path / fmt), *exports]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in STUDY_OUTPUT_SHA256[command, model, source]}
    assert digests == STUDY_OUTPUT_SHA256[command, model, source]


# sha256 of every bundled-study screen output: both reports and the
# --residuals-csv export, screened with each model and with none (its export
# is the header alone); run from data/ with relative paths like the pins above
STUDY_SCREEN_SHA256 = {
    "revised_model.pm": {
        "json": "9a89643ff67b23758f647daa7dd9945cb57adede5b11b0ed5df0bb3a9aaf3c50",
        "text": "c7d24720b141048300522b63bda5eb9af8c6390eb2987152cf447e345c8f8ce5",
        "residuals.csv": "ea1034eacae12087d85563128bf1dd1c5fe28efe34265bc81240482bef9ab074",
    },
    "initial_model.pm": {
        "json": "a8ef9d7afab05c439f951d879a498cb07a06961519efc7a12f6e8c84371c8c6f",
        "text": "922085cdb554e950753c789a48750228c47c28ff5a8df8460a7edf60686aa746",
        "residuals.csv": "4e722d375382da451f68cbd4647b2ff52c45994fb188a3676cd8fdc3ab5c04fb",
    },
    None: {
        "json": "a2cebfb09623d0e1f1ce7947f64d4addead83f4f315ab3020745567739ba55c6",
        "text": "58c7ba21fb01cb38fae9f3936180280605aa8f7a83411ebf4691478766f2793e",
        "residuals.csv": "a0d03ceaf9139cd9c095ac07694469369b3bdde39b64e0694ebe57fbb30c1f4b",
    },
}


@pytest.mark.parametrize("model", list(STUDY_SCREEN_SHA256))
def test_study_screen_outputs_pinned(tmp_path, monkeypatch, model):
    import hashlib

    monkeypatch.chdir(DATA_DIR)
    model_args = ["--model", model] if model else []
    for fmt in ("json", "text"):
        assert main(["screen", "--data", "sample_scores.csv", *model_args, "--format", fmt,
                     "--out", str(tmp_path / fmt),
                     "--residuals-csv", str(tmp_path / "residuals.csv")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in STUDY_SCREEN_SHA256[model]}
    assert digests == STUDY_SCREEN_SHA256[model]


# one process, one parser: a usage error and --version first, then every
# command on the bundled study; revise and screen run without --format after
# a json fit, so a leaked default would show in their bytes
REUSE_SEQUENCE = [
    ("usage", ["fit", "--data", "sample_scores.csv", "--corr", "observed_correlations.csv",
               "--n", "240", "--model", "revised_model.pm"], 2),
    ("version", ["--version"], 0),
    ("fit", ["fit", *STUDY_INPUTS["corr"], "--model", "revised_model.pm",
             "--format", "json", "--out", "{tmp}/fit"], 0),
    ("revise", ["revise", *STUDY_INPUTS["corr"], "--model", "initial_model.pm",
                "--out", "{tmp}/revise"], 0),
    ("screen", ["screen", "--data", "sample_scores.csv", "--model", "revised_model.pm",
                "--out", "{tmp}/screen"], 0),
    ("simulate", ["simulate", "--model", "revised_model_published.pm", "--n", "50",
                  "--seed", "7", "--out", "{tmp}/simulate"], 0),
]


def _run_reused(name, argv, tmp_path, capsys):
    """(exit code, stdout, stderr, output file bytes) of one main call."""
    argv = [a.format(tmp=tmp_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = tmp_path / name
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


def test_parser_is_built_once_and_keeps_no_state(tmp_path, monkeypatch, capsys):
    import hashlib

    from pathtrek import __version__
    from pathtrek.cli import _build_parser

    assert _build_parser() is _build_parser()
    monkeypatch.chdir(DATA_DIR)
    fresh = {}
    for name, argv, _ in REUSE_SEQUENCE:
        _build_parser.cache_clear()
        fresh[name] = _run_reused(name, argv, tmp_path, capsys)
    _build_parser.cache_clear()
    parser = _build_parser()
    for name, argv, code in REUSE_SEQUENCE:
        result = _run_reused(name, argv, tmp_path, capsys)
        assert result == fresh[name], name
        assert result[0] == code, name
    assert _build_parser() is parser
    assert fresh["usage"][2].endswith(
        "pathtrek fit: error: exactly one of --data or --corr is required\n")
    assert fresh["version"][1] == f"{__version__}\n"
    digests = {name: hashlib.sha256(fresh[name][3]).hexdigest() for name in ("fit", "revise")}
    assert digests == {
        "fit": STUDY_OUTPUT_SHA256["fit", "revised_model.pm", "corr"]["json"],
        "revise": STUDY_OUTPUT_SHA256["revise", "initial_model.pm", "corr"]["text"],
    }


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


def test_exact_fit_json_is_strict(tmp_path):
    corr_path = tmp_path / "c.csv"
    corr_path.write_text(",A,B,Y\nA,1,0,0.6\nB,0,1,-0.8\nY,0.6,-0.8,1\n", encoding="utf-8")
    model_path = tmp_path / "m.pm"
    model_path.write_text("path A -> Y\npath B -> Y\n", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["fit", "--corr", str(corr_path), "--n", "100", "--model", str(model_path),
                 "--format", "json", "--out", str(out)]) == 0

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    report = json.loads(out.read_text(), parse_constant=reject)
    (eq,) = report["coefficients"]["equations"]
    assert eq["se"] == [0.0, 0.0] and eq["t"] == [None, None] and eq["p"] == [0.0, 0.0]
    assert main(["fit", "--corr", str(corr_path), "--n", "100",
                 "--model", str(model_path), "--out", str(out)]) == 0
    assert "B          beta =   -0.800  SE = 0.000  t = -inf" in out.read_text()


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


def _count_structure_builds(monkeypatch):
    """Record every _implied call, at each name cli and effects look it up by."""
    import pathtrek.cli
    import pathtrek.effects
    import pathtrek.tracing

    builds = []
    build = pathtrek.tracing._implied

    def counted(m):
        builds.append(m)
        return build(m)

    for module in (pathtrek.tracing, pathtrek.effects, pathtrek.cli):
        monkeypatch.setattr(module, "_implied", counted, raising=False)
    return builds


@pytest.mark.parametrize("inputs,model", [
    (["--corr", CORR, "--n", "240"], INITIAL),
    (["--corr", CORR, "--n", "240"], INITIAL_PUBLISHED),
    (["--data", SCORES], REVISED),
], ids=["corr-bare", "corr-annotated", "data-bare"])
def test_fit_builds_the_structure_once(tmp_path, monkeypatch, inputs, model):
    builds = _count_structure_builds(monkeypatch)
    code = main(["fit", *inputs, "--model", model, "--out", str(tmp_path / "r.txt"),
                 "--effects-csv", str(tmp_path / "e.csv")])
    assert code == 0
    assert len(builds) == 1


@pytest.mark.parametrize("max_iter,expected_code", [("10", 0), ("1", 3)])
def test_revise_builds_one_structure_per_refit(tmp_path, monkeypatch,
                                               max_iter, expected_code):
    import pathtrek.cli

    builds = _count_structure_builds(monkeypatch)
    returned = []
    revise = pathtrek.cli.revise_model

    def recorded(*args, **kwargs):
        trace = revise(*args, **kwargs)
        returned.append((trace, len(builds)))
        return trace

    monkeypatch.setattr(pathtrek.cli, "revise_model", recorded)
    code = main(["revise", "--corr", CORR, "--n", "240", "--model", INITIAL,
                 "--max-iter", max_iter, "--out", str(tmp_path / "r.txt")])
    assert code == expected_code
    (trace, during), = returned
    assert during == 1 + len(trace.steps)  # the first refit, then one per step
    assert len(builds) == during


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
# no record loads dataclasses, nor with it inspect (unless the bare
# interpreter loads inspect itself)
assert "dataclasses" not in sys.modules, "dataclasses imported"
assert "inspect" not in sys.modules or "inspect" in BARE, "inspect imported"

# the raw-data names still resolve, and then numpy loads
assert callable(pathtrek.screen) and pathtrek.Dataset.__name__ == "Dataset"
from pathtrek import *
assert all(name in globals() for name in pathtrek.__all__)
assert "numpy" in sys.modules
"""


def test_correlation_path_imports_no_numpy(tmp_path):
    bare = run_fresh(["-c", "import sys; print(sorted(sys.modules))"], tmp_path)
    assert bare.returncode == 0, bare.stderr
    code = (f"CORR, REVISED, INITIAL = {CORR!r}, {REVISED!r}, {INITIAL!r}\n"
            f"BARE = {bare.stdout.strip()}\n" + NUMPY_GUARD)
    proc = run_fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "misfit pairs: 0/10 -> fits" in (tmp_path / "fit.txt").read_text()
    assert "converged after 2 iteration(s)" in (tmp_path / "revise.txt").read_text()
