"""A seeded fuzz run of the command line (in the manner of Miller, Fredriksen
& So 1990, "An empirical study of the reliability of UNIX utilities").

Each case draws a DAG over 2-6 variables, with coefficients from a list of
awkward values or none, and an input: a correlation table rounded to 2, 3
or 17 digits (some with a BOM, CRLF line ends, a NaN or a unit cell), or
raw rows (some with a duplicated or constant column).  It runs one command
with a random set of its side outputs, each filled beforehand with known
bytes, except sometimes one that does not exist yet; sometimes one output
is in a directory that does not exist, and sometimes two flags name one
path.  fit, revise and screen run in both formats.  Every case must keep
seven rules:

  * the exit code is 0, 1, 2 or 3, and no exception escapes `main`;
  * on exit 2, every output keeps the bytes it had;
  * on exit 2, an output that did not exist still does not;
  * two outputs on one path exit 2;
  * a JSON report parses, with NaN and Infinity refused;
  * text and JSON exit alike;
  * a JSON report is laid out as json.dumps(..., indent=2, sort_keys=True)
    lays out what json.loads reads from it.
"""

import json
import math
import random

import numpy as np

from pathtrek.cli import main

SEED = 20240611
CASES = 1600
COEFFICIENTS = (0.0, -0.9, 0.999, 5.0, 1e160, -1e160, 1e-320, math.nan, math.inf)
SIDE_OUTPUTS = {
    "fit": ("--treks-csv", "--effects-csv"),
    "revise": ("--out-model", "--trace-csv"),
    "screen": ("--residuals-csv",),
    "simulate": (),
}


def _refuse(constant):
    raise ValueError(f"JSON report holds {constant}")


def _dag(rnd, k):
    """Variable names and (source, target) arrows, sources earlier in a
    random order; the declaration order is shuffled again."""
    names = [f"V{i}" for i in range(k)]
    rnd.shuffle(names)
    arrows = [(names[i], names[j]) for j in range(k) for i in range(j)
              if rnd.random() < 0.5]
    declared = names[:]
    rnd.shuffle(declared)
    return declared, arrows


def _model_text(rnd, names, arrows, annotated):
    lines = [f"var {v}" for v in names]
    for source, target in arrows:
        if annotated:
            c = rnd.choice(COEFFICIENTS) if rnd.random() < 0.5 else rnd.uniform(-0.6, 0.6)
            lines.append(f"path {source} -> {target} : {c!r}")
        else:
            lines.append(f"path {source} -> {target}")
    return "\n".join(lines) + "\n"


def _rows(rnd, names, n):
    """n raw rows over `names`, some cases with a duplicated or constant column."""
    gen = np.random.default_rng(rnd.randrange(1 << 32))
    x = gen.standard_normal((n, len(names)))
    x[:, 1:] += 0.5 * x[:, :1]
    defect = rnd.random()
    if defect < 0.1:
        x[:, -1] = x[:, 0]
    elif defect < 0.2:
        x[:, -1] = 3.0
    return x


def _table_text(rnd, names):
    with np.errstate(invalid="ignore"):  # a constant column's cells are NaN
        r = np.corrcoef(_rows(rnd, names, 40), rowvar=False)
    digits = rnd.choice((2, 3, 17))
    cells = [[f"{v:.{digits}g}" for v in row] for row in r]
    variant = rnd.random()
    if variant < 0.05:
        cells[0][1] = cells[1][0] = "nan"
    elif variant < 0.1:
        cells[0][1] = cells[1][0] = "1"
    end = "\r\n" if rnd.random() < 0.2 else "\n"
    text = end.join(["," + ",".join(names)]
                    + [v + "," + ",".join(row) for v, row in zip(names, cells)]) + end
    return ("\ufeff" if rnd.random() < 0.2 else "") + text


def _data_text(rnd, names):
    x = _rows(rnd, names, rnd.choice((5, 30)))
    return "\n".join([",".join(names)] + [",".join(map(repr, row.tolist())) for row in x]) + "\n"


def _case(rnd, work):
    """(command, argv without --format, {flag: output path}, the output paths
    left un-created, model text) of one case."""
    k = rnd.randint(2, 6)
    names, arrows = _dag(rnd, k)
    command = rnd.choice(("fit", "fit", "revise", "revise", "screen", "simulate"))
    annotated = command == "simulate" or rnd.random() < 0.5
    model = _model_text(rnd, names, arrows, annotated)
    (work / "model.pm").write_text(model, encoding="utf-8")
    argv = [command, "--model", str(work / "model.pm")]
    if command == "simulate":
        argv += ["--n", str(rnd.choice((3, 20))), "--seed", str(rnd.randrange(1 << 16))]
    elif command == "screen" or rnd.random() < 0.4:
        (work / "data.csv").write_text(_data_text(rnd, names), encoding="utf-8")
        argv += ["--data", str(work / "data.csv")]
    else:
        (work / "corr.csv").write_text(_table_text(rnd, names), encoding="utf-8", newline="")
        argv += ["--corr", str(work / "corr.csv"), "--n", str(rnd.choice((10, 240)))]
    flags = [flag for flag in SIDE_OUTPUTS[command] if rnd.random() < 0.5]
    if command == "simulate" or rnd.random() < 0.8:
        flags.append("--out")
    outputs = {flag: work / f"out{i}" for i, flag in enumerate(flags)}
    if outputs and rnd.random() < 0.15:
        flag = rnd.choice(flags)
        outputs[flag] = work / "missing" / outputs[flag].name
    if len(outputs) > 1 and rnd.random() < 0.1:
        first, second = rnd.sample(flags, 2)
        outputs[second] = outputs[first]
    fresh = {rnd.choice(list(outputs.values()))} if outputs and rnd.random() < 0.3 else set()
    for flag, path in outputs.items():
        argv += [flag, str(path)]
    return command, argv, outputs, fresh, model


def _run(argv, outputs, fresh, capsys):
    """(problems, exit code) of one run, every output but the fresh ones
    filled beforehand."""
    known = {path: b"known bytes of %s\n" % path.name.encode()
             for path in outputs.values() if path.parent.exists() and path not in fresh}
    for path, content in known.items():
        path.write_bytes(content)
    for path in fresh:
        path.unlink(missing_ok=True)
    try:
        code = main(argv)
    except (Exception, SystemExit) as exc:  # an escape is what this looks for
        capsys.readouterr()
        return [f"uncaught {type(exc).__name__}: {exc}"], None
    stdout = capsys.readouterr().out
    problems = []
    if code not in (0, 1, 2, 3):
        problems.append(f"exit code {code!r}")
    if code == 2:
        problems += [f"exit 2 rewrote {path.name}"
                     for path, content in known.items() if path.read_bytes() != content]
        problems += [f"exit 2 left {path.name}" for path in fresh if path.exists()]
    elif "json" in argv:
        report = outputs["--out"].read_text(encoding="utf-8") if "--out" in outputs else stdout
        try:
            parsed = json.loads(report, parse_constant=_refuse)
        except ValueError as exc:
            problems.append(f"JSON report does not parse: {exc}")
        else:
            if report != json.dumps(parsed, indent=2, sort_keys=True) + "\n":
                problems.append("JSON report is not laid out as json.dumps lays it out")
    if len(set(outputs.values())) < len(outputs) and code != 2:
        problems.append(f"two outputs on one path exit {code}")
    return problems, code


def test_cli_fuzz(tmp_path, capsys):
    rnd = random.Random(SEED)
    failures = []
    for case in range(CASES):
        work = tmp_path / str(case % 8)
        work.mkdir(exist_ok=True)
        command, argv, outputs, fresh, model = _case(rnd, work)
        formats = [[]] if command == "simulate" else [["--format", "text"],
                                                      ["--format", "json"]]
        codes = []
        for fmt in formats:
            problems, code = _run(argv + fmt, outputs, fresh, capsys)
            codes.append(code)
            failures += [(problems, argv + fmt, model)] if problems else []
        if len(set(codes)) > 1:
            failures.append(([f"text exits {codes[0]}, JSON {codes[1]}"], argv, model))
    assert not failures, "\n".join(
        f"{'; '.join(problems)}\n  argv: {argv}\n  model:\n{model}"
        for problems, argv, model in failures[:5]) + f"\n({len(failures)} failures)"
