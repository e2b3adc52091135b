"""Seeded, program-independent inputs for the pathtrek benchmark.

Built from numpy and the standard library only, so a change to pathtrek can
never change its own inputs.  `make_inputs(workload, seed, out, root)` writes
model (.pm) and CSV files under `out` and returns the plan: the files with
their sha256, and the operations the workload runs on them.  The same seed
gives the same bytes.

Random DAGs follow one recipe: node j > 0 takes each earlier node as a
parent with probability d and always gets at least one parent (so node 0 is
the single root).  Coefficients are ±U(0.15, 0.45), redrawn per node until
its residual variance psi is positive; the population correlation matrix is
Sigma = (I-B)^-1 Psi (I-B)^-T.

Which parts follow the run seed:
  * paper-study: the bundled study files, copied byte for byte; the seed
    sets the operation order and the simulation/recovery seeds.
  * dag-search: a fixed pool of DAG problems (so revise outcomes can be
    recorded); the seed sets the operation order and the
    simulation/recovery seeds.
  * raw-data: a fixed k=8 DAG; the seed draws the 2*10^4 raw rows, the
    operation order and the simulation/recovery seeds.
"""

import hashlib
import os
import shutil

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
STUDY_DIR = os.path.join(HERE, "study")

WORKLOADS = ("paper-study", "dag-search", "raw-data")

# Structural seed of the fixed DAG pools; changing it invalidates expected.json.
POOL_SEED = 20210512
# simulate runs rotate through this many recorded seeds.
SIM_SEED_TABLE = 16
RECOVERY_N = 2000
RECOVERY_TOLERANCE = 0.25

DAG_SIZES = ((12, 0.5), (16, 0.25), (20, 0.2))
DAG_POOL = 2  # problems per size
DAG_ROWS = 5000
DAG_SCREEN_ROWS = 1000  # leading rows of k12-0 for its screen op
COMPLETE_K = 10

RAW_K = 8
RAW_ROWS = 20000
RAW_DENSITY = 0.4
RAW_OUTLIERS = 6
SIM_ROWS_RAW = 100000


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Models.

def random_dag(rng, k, d):
    """Parent lists of a single-root DAG over nodes 0..k-1 in causal order."""
    parents = [[]]
    for j in range(1, k):
        ps = [i for i in range(j) if rng.random() < d]
        if not ps:
            ps = [int(rng.integers(j))]
        parents.append(ps)
    return parents


def complete_dag(k):
    return [list(range(j)) for j in range(k)]


def draw_coefficients(rng, parents, psi_floor=0.05, tries=10000):
    """B[target, source] with ±U(0.15, 0.45) entries; every psi >= psi_floor."""
    k = len(parents)
    b = np.zeros((k, k))
    sigma = np.zeros((k, k))
    for j, ps in enumerate(parents):
        if not ps:
            sigma[j, j] = 1.0
            continue
        for _ in range(tries):
            beta = rng.uniform(0.15, 0.45, len(ps)) * rng.choice((-1.0, 1.0), len(ps))
            explained = beta @ sigma[np.ix_(ps, ps)] @ beta
            if 1.0 - explained >= psi_floor:
                break
        else:
            raise RuntimeError(f"no admissible coefficients for node {j}")
        b[j, ps] = beta
        row = beta @ sigma[ps, :]
        sigma[j, :] = row
        sigma[:, j] = row
        sigma[j, j] = 1.0
    return b


def implied_sigma(b):
    """Sigma = (I-B)^-1 Psi (I-B)^-T with Psi chosen for a unit diagonal.

    Works in causal order (rows of B only reference earlier columns); psi may
    come out non-positive for hypothesis coefficients, which is allowed here.
    """
    k = b.shape[0]
    a = np.linalg.inv(np.eye(k) - b)
    psi = np.zeros(k)
    for j in range(k):
        partial = a[j, :j] @ np.diag(psi[:j]) @ a[j, :j]
        psi[j] = 1.0 - partial
    return a @ np.diag(psi) @ a.T, psi


def names_for(k):
    width = len(str(k))
    return [f"V{i + 1:0{width}d}" for i in range(k)]


def write_model(path, names, parents, b=None, comment=None):
    lines = [f"# {comment}"] if comment else []
    lines += [f"var {v}" for v in names]
    for j, ps in enumerate(parents):
        for p in ps:
            if b is None:
                lines.append(f"path {names[p]} -> {names[j]}")
            else:
                lines.append(f"path {names[p]} -> {names[j]} : {float(b[j, p])!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_corr(path, names, r):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("," + ",".join(names) + "\n")
        for i, v in enumerate(names):
            fh.write(v + "," + ",".join("%.12f" % x for x in r[i]) + "\n")


def write_rows(path, names, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names) + "\n")
        np.savetxt(fh, rows, fmt="%.10f", delimiter=",")


def mvn_rows(rng, sigma, n):
    chol = np.linalg.cholesky(sigma)
    return rng.standard_normal((n, sigma.shape[0])) @ chol.T


def remove_quarter(rng, parents):
    arrows = [(p, j) for j, ps in enumerate(parents) for p in ps]
    drop = {arrows[i] for i in rng.permutation(len(arrows))[: len(arrows) // 4]}
    return [[p for p in ps if (p, j) not in drop] for j, ps in enumerate(parents)]


# ---------------------------------------------------------------------------
# Workloads.

def _rel(path, root):
    return os.path.relpath(path, root)


def _paper_study(seed, out, root):
    files = {}
    for name in sorted(os.listdir(STUDY_DIR)):
        dst = os.path.join(out, name)
        shutil.copyfile(os.path.join(STUDY_DIR, name), dst)
        files[name] = _rel(dst, root)
    corr = ["--corr", files["observed_correlations.csv"], "--n", "240"]
    fits = [
        {"id": "fit-revised", "input": corr, "model": files["revised_model.pm"]},
        {"id": "fit-initial-published", "input": corr,
         "model": files["initial_model_published.pm"]},
    ]
    revises = [
        {"id": "revise-initial", "input": corr, "model": files["initial_model.pm"],
         "expect": {"exit": 0, "arrows_of": files["revised_model.pm"]}},
    ]
    screens = [
        {"id": "screen-scores", "data": files["sample_scores.csv"],
         "model": files["revised_model.pm"], "rows": 240},
    ]
    simulate = {"id": "simulate-revised", "model": files["revised_model_published.pm"],
                "n": 240}
    recovery = {"id": "recovery-revised", "model": files["revised_model_published.pm"]}
    cli = [dict(fits[0], id="cli-fit-revised", command="fit"),
           dict(revises[0], id="cli-revise-initial", command="revise")]
    return fits, revises, screens, simulate, recovery, cli


def _dag_pool(out, root):
    """The fixed dag-search problems: one file set per pool entry."""
    problems = []
    for k, d in DAG_SIZES:
        for i in range(DAG_POOL):
            rng = np.random.default_rng([POOL_SEED, k, i])
            problems.append((f"k{k}-{i}", k, random_dag(rng, k, d), rng))
    rng = np.random.default_rng([POOL_SEED, COMPLETE_K, 99])
    problems.append((f"complete{COMPLETE_K}", COMPLETE_K, complete_dag(COMPLETE_K), rng))
    built = []
    for pid, k, parents, rng in problems:
        names = names_for(k)
        b = draw_coefficients(rng, parents)
        sigma, _ = implied_sigma(b)
        rows = mvn_rows(rng, sigma, DAG_ROWS)
        r = np.corrcoef(rows, rowvar=False)
        paths = {
            "true": os.path.join(out, f"{pid}_true.pm"),
            "annotated": os.path.join(out, f"{pid}_annotated.pm"),
            "start": os.path.join(out, f"{pid}_start.pm"),
            "corr": os.path.join(out, f"{pid}_corr.csv"),
        }
        write_model(paths["true"], names, parents, comment=f"{pid}: true topology")
        write_model(paths["annotated"], names, parents, b,
                    comment=f"{pid}: true topology with its coefficients")
        write_model(paths["start"], names, remove_quarter(rng, parents),
                    comment=f"{pid}: true topology less a quarter of its arrows")
        write_corr(paths["corr"], names, r)
        entry = {"id": pid, "k": k, "paths": {kk: _rel(v, root) for kk, v in paths.items()}}
        if pid == "k12-0":
            paths["rows"] = os.path.join(out, f"{pid}_rows.csv")
            write_rows(paths["rows"], names, rows[:DAG_SCREEN_ROWS])
            entry["rows"] = _rel(paths["rows"], root)
        built.append(entry)
    return built


def _dag_search(seed, out, root):
    pool = _dag_pool(out, root)
    fits, revises = [], []
    for p in pool:
        corr = ["--corr", p["paths"]["corr"], "--n", str(DAG_ROWS)]
        fits.append({"id": f"fit-{p['id']}", "input": corr, "model": p["paths"]["true"]})
        if not p["id"].startswith("complete"):
            revises.append({"id": f"revise-{p['id']}", "input": corr,
                            "model": p["paths"]["start"],
                            "expect": {"recorded": f"revise-{p['id']}"}})
    by_id = {p["id"]: p for p in pool}
    screens = [{"id": "screen-k12-0", "data": by_id["k12-0"]["rows"],
                "model": by_id["k12-0"]["paths"]["true"], "rows": DAG_SCREEN_ROWS}]
    annotated = by_id["k16-0"]["paths"]["annotated"]
    simulate = {"id": "simulate-k16-0", "model": annotated, "n": DAG_ROWS}
    recovery = {"id": "recovery-k16-0", "model": annotated}
    cli = [dict(next(r for r in revises if r["id"] == "revise-k16-0"),
                id="cli-revise-k16-0", command="revise")]
    return fits, revises, screens, simulate, recovery, cli


def _raw_data(seed, out, root):
    structure = np.random.default_rng([POOL_SEED, RAW_K, 7])
    parents = random_dag(structure, RAW_K, RAW_DENSITY)
    b = draw_coefficients(structure, parents)
    start = remove_quarter(structure, parents)
    shift = structure.uniform(-50.0, 50.0, RAW_K)
    scale = structure.uniform(0.5, 20.0, RAW_K)
    sigma, _ = implied_sigma(b)
    names = names_for(RAW_K)

    rng = np.random.default_rng([seed, RAW_K, RAW_ROWS])
    z = mvn_rows(rng, sigma, RAW_ROWS)
    # The sink is skewed by a monotone transform; for Gaussian parents this
    # scales all its correlations alike, so the topology still fits.
    z[:, -1] = np.exp(0.5 * z[:, -1])
    # Planted outliers: moderate values with signs against the correlations.
    rows_at = rng.choice(RAW_ROWS, RAW_OUTLIERS, replace=False)
    pattern = np.where(np.arange(RAW_K) % 2 == 0, 3.5, -3.5)
    z[rows_at] = pattern
    data = z * scale + shift

    paths = {
        "true": os.path.join(out, "raw_true.pm"),
        "annotated": os.path.join(out, "raw_annotated.pm"),
        "start": os.path.join(out, "raw_start.pm"),
        "rows": os.path.join(out, "raw_rows.csv"),
    }
    write_model(paths["true"], names, parents, comment="raw-data: true topology")
    write_model(paths["annotated"], names, parents, b,
                comment="raw-data: true topology with its coefficients")
    write_model(paths["start"], names, start,
                comment="raw-data: true topology less a quarter of its arrows")
    write_rows(paths["rows"], names, data)
    rel = {kk: _rel(v, root) for kk, v in paths.items()}

    inp = ["--data", rel["rows"]]
    fits = [{"id": "fit-raw", "input": inp, "model": rel["true"]}]
    revises = [{"id": "revise-raw", "input": inp, "model": rel["start"],
                "expect": {"exit": 0, "arrows_of": rel["true"]}}]
    screens = [{"id": "screen-raw", "data": rel["rows"], "model": rel["true"],
                "rows": RAW_ROWS}]
    simulate = {"id": "simulate-raw", "model": rel["annotated"], "n": SIM_ROWS_RAW}
    recovery = {"id": "recovery-raw", "model": rel["annotated"]}
    cli = [dict(fits[0], id="cli-fit-raw", command="fit")]
    return fits, revises, screens, simulate, recovery, cli


_GENERATORS = {"paper-study": _paper_study, "dag-search": _dag_search, "raw-data": _raw_data}


def make_inputs(workload, seed, out, root):
    """Write the workload's inputs under `out`; paths in the plan are relative to `root`."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(out, exist_ok=True)
    fits, revises, screens, simulate, recovery, cli = _GENERATORS[workload](seed, out, root)
    order = np.random.default_rng([seed, 1])
    plan = {
        "workload": workload,
        "seed": seed,
        "ops": {
            "fit": [fits[i] for i in order.permutation(len(fits))],
            "revise": [revises[i] for i in order.permutation(len(revises))],
            "screen": screens,
            "simulate": dict(simulate, seed_offset=int(order.integers(SIM_SEED_TABLE)),
                             table=SIM_SEED_TABLE),
            "recovery": dict(recovery, n=RECOVERY_N, tolerance=RECOVERY_TOLERANCE,
                             first_seed=int(order.integers(1 << 31))),
            "cli": [cli[i] for i in order.permutation(len(cli))],
        },
    }
    plan["files"] = {
        _rel(os.path.join(out, name), root): sha256_file(os.path.join(out, name))
        for name in sorted(os.listdir(out))
    }
    return plan
