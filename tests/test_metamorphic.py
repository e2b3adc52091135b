"""Metamorphic tests of `fit`: the same question asked in another layout
gets the same answer.

Each problem is a model (its `var` and `path` lines) and an input (a
correlation CSV and n, or a raw-data CSV): the two bundled models on the
study's table and scores, and seeded DAGs at k = 6-12 with a model that
lacks some true arrows, so that pairs get flagged.  Fit runs through
`cli.main` with a JSON report, whose floats round-trip exactly.  Its
answer is read by name: each beta by (target, parent), each R² by target,
each r_hat by pair, and the set of flagged pairs.

- Shuffling the `var` lines, the `path` lines or the variables of the
  input (the order of the correlation table, or the columns of the data)
  moves no number by more than 1e-15 and flags the same pairs.  A shuffle
  changes the order of sums and solves: on these problems it moves a
  number by up to 8.9e-16 (an R² at k = 12 from data).
- Renaming the variables changes no bit.
- Negating one variable flips the sign of exactly the betas of its
  arrows and the r_hat of its pairs, bit for bit; R² and the flagged
  pairs stay.
"""

import csv
import io
import json
import random

import numpy as np
import pytest

from pathtrek.cli import main
from pathtrek.pathspec import load_model

from conftest import DATA_DIR

SHUFFLE_TOL = 1e-15
SHUFFLES = 3  # seeded shuffles of each kind per problem


def _study(model_file, source):
    model = load_model(DATA_DIR / model_file)
    arrows = [(a.source, a.target) for a in model.arrows]
    if source == "corr":
        with open(DATA_DIR / "observed_correlations.csv", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        names = header[1:]
        r = {(row[0], b): float(cell) for row in rows for b, cell in zip(names, row[1:])}
        return list(model.variables), arrows, ("corr", names, r, 240)
    with open(DATA_DIR / "sample_scores.csv", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    columns = {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}
    return list(model.variables), arrows, ("data", header, columns)


def _seeded(k, seed, source, n=300):
    """A random DAG's rows, and a model that keeps about 70% of its arrows."""
    gen = np.random.default_rng(seed)
    names = [f"V{i}" for i in range(k)]
    order = [names[i] for i in gen.permutation(k)]
    true_arrows = [(order[i], order[j]) for j in range(k) for i in range(j)
                   if gen.random() < 0.4]
    x = {}
    for name in order:
        x[name] = gen.standard_normal(n)
        for a, b in true_arrows:
            if b == name:
                x[name] = x[name] + gen.uniform(0.3, 0.9) * gen.choice((-1, 1)) * x[a]
    arrows = [arrow for arrow in true_arrows if gen.random() < 0.7]
    if source == "data":
        return names, arrows, ("data", names, {name: x[name].tolist() for name in names})
    c = np.corrcoef(np.array([x[name] for name in names]))
    r = {(a, b): 1.0 if a == b else float(c[min(i, j), max(i, j)])
         for i, a in enumerate(names) for j, b in enumerate(names)}
    return names, arrows, ("corr", names, r, n)


PROBLEMS = {
    **{f"study-{model[:-9]}-{source}": (_study, model, source)
       for model in ("initial_model.pm", "revised_model.pm") for source in ("corr", "data")},
    **{f"dag-k{k}-{source}": (_seeded, k, 100 + k, source)
       for k in (6, 8, 10, 12) for source in ("corr", "data")},
}


@pytest.fixture(params=list(PROBLEMS))
def problem(request):
    build, *args = PROBLEMS[request.param]
    # only the revised study model fits its input: every other problem
    # flags pairs, so flagged sets are compared, not just two empty ones
    return (*build(*args), not request.param.startswith("study-revised"))


def _fit(tmp_path, variables, arrows, source):
    """fit's answer for a model written with these lines and an input in this layout."""
    model_path, input_path, out = (tmp_path / name for name in ("m.pm", "in.csv", "fit.json"))
    model_path.write_text("".join(f"var {v}\n" for v in variables)
                          + "".join(f"path {a} -> {b}\n" for a, b in arrows), encoding="utf-8")
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    if source[0] == "corr":
        _, names, r, n = source
        writer.writerow(["", *names])
        writer.writerows([a, *(repr(r[a, b]) for b in names)] for a in names)
        argv = ["--corr", str(input_path), "--n", str(n)]
    else:
        _, names, columns = source
        writer.writerow(names)
        writer.writerows(map(list, zip(*(map(repr, columns[name]) for name in names))))
        argv = ["--data", str(input_path)]
    input_path.write_text(text.getvalue(), encoding="utf-8")
    assert main(["fit", *argv, "--model", str(model_path), "--format", "json",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    equations = report["coefficients"]["equations"]
    names, r_hat = report["reproduced"]["variables"], report["reproduced"]["r_hat"]
    return {
        "beta": {(eq["target"], p): b for eq in equations
                 for p, b in zip(eq["parents"], eq["beta"])},
        "r_squared": {eq["target"]: eq["r_squared"] for eq in equations},
        "r_hat": {(a, b): r_hat[i][j] for i, a in enumerate(names)
                  for j, b in enumerate(names) if i != j},
        "flagged": {frozenset((pair["a"], pair["b"])) for pair in report["fit"]["pairs"]
                    if pair["flagged"]},
    }


def _assert_agrees(base, other, tol=0.0, name=lambda v: v, sign=lambda v: 1.0):
    """other equals base within tol, read with each variable v renamed
    name(v), and each beta and r_hat times the sign(v) of both its variables."""
    for part in ("beta", "r_squared", "r_hat"):
        if part == "r_squared":
            expected = {name(v): value for v, value in base[part].items()}
        else:
            expected = {(name(a), name(b)): value * sign(a) * sign(b)
                        for (a, b), value in base[part].items()}
        assert expected.keys() == other[part].keys(), part
        worst = max((abs(other[part][key] - value) for key, value in expected.items()),
                    default=0.0)
        assert worst <= tol, (part, worst)
    assert other["flagged"] == {frozenset(map(name, pair)) for pair in base["flagged"]}


def _shuffled(rnd, items):
    items = list(items)
    rnd.shuffle(items)
    return items


def test_fit_ignores_the_order_of_lines_and_columns(tmp_path, problem):
    variables, arrows, source, flags = problem
    base = _fit(tmp_path, variables, arrows, source)
    assert bool(base["flagged"]) == flags
    rnd = random.Random(25)
    for _ in range(SHUFFLES):
        for other in (_fit(tmp_path, _shuffled(rnd, variables), arrows, source),
                      _fit(tmp_path, variables, _shuffled(rnd, arrows), source),
                      _fit(tmp_path, variables, arrows,
                           (source[0], _shuffled(rnd, source[1]), *source[2:]))):
            _assert_agrees(base, other, SHUFFLE_TOL)


def test_fit_ignores_names(tmp_path, problem):
    variables, arrows, source, _ = problem
    base = _fit(tmp_path, variables, arrows, source)
    # new names whose sorted order is not the old one
    new = dict(zip(variables, (f"n{j}_{v}" for j, v in
                               zip(_shuffled(random.Random(7), range(len(variables))),
                                   variables))))
    if source[0] == "corr":
        _, names, r, n = source
        renamed = ("corr", [new[v] for v in names],
                   {(new[a], new[b]): value for (a, b), value in r.items()}, n)
    else:
        _, names, columns = source
        renamed = ("data", [new[v] for v in names], {new[v]: col for v, col in columns.items()})
    other = _fit(tmp_path, [new[v] for v in variables],
                 [(new[a], new[b]) for a, b in arrows], renamed)
    _assert_agrees(base, other, name=new.get)


def test_fit_negating_a_variable_flips_its_signs(tmp_path, problem):
    variables, arrows, source, _ = problem
    base = _fit(tmp_path, variables, arrows, source)
    flips = 0
    for flipped in random.Random(3).sample(variables, 3):
        if source[0] == "corr":
            _, names, r, n = source
            negated = ("corr", names,
                       {(a, b): -value if (a == flipped) != (b == flipped) else value
                        for (a, b), value in r.items()}, n)
        else:
            _, names, columns = source
            negated = ("data", names, {v: [-x for x in col] if v == flipped else col
                                       for v, col in columns.items()})
        other = _fit(tmp_path, variables, arrows, negated)
        _assert_agrees(base, other, sign=lambda v: -1.0 if v == flipped else 1.0)
        flips += sum(flipped in key and value != 0.0 for key, value in base["beta"].items())
    assert flips > 0
