"""One workload process: import pathtrek, warm up, then run and check ops.

    python3 perfbench/workload.py PLAN ROLE RESULT [--seconds S] [--plant]

run.py starts this with PYTHONPATH pointing at the checkout's src/.  ROLE is
`setup` (import and one warm-up pass of every op kind), `measure` (set-up,
then the timed closed loop for S seconds) or `trace` (set-up, every op run
once untraced and once traced, then the per-layer metrics).  The result
is written as JSON to RESULT.  --plant perturbs every reported r-hat before
it is checked, to show that the checks count a wrong answer as a failure.

Ops go through pathtrek's public entry points only: `pathtrek.cli.main`,
a `python -m pathtrek.cli` child process, and `pathtrek.recovery_check`.
numpy is not imported before pathtrek, so set-up time includes its import.
"""

import gc
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

KINDS = ("fit", "revise", "screen", "simulate", "recovery", "cli")

# Share of the measured seconds each op kind gets, per workload.  A round
# runs every input of a kind once; latency metrics are the median over rounds
# of the round's mean op time, so a pool of inputs with different costs
# still gives a steady median.
WEIGHTS = {
    "paper-study": {"fit": 0.2, "revise": 0.15, "screen": 0.15, "simulate": 0.1,
                    "recovery": 0.1, "cli": 0.3},
    "dag-search": {"fit": 0.2, "revise": 0.35, "screen": 0.1, "simulate": 0.1,
                   "recovery": 0.1, "cli": 0.15},
    "raw-data": {"fit": 0.06, "revise": 0.06, "screen": 0.35, "simulate": 0.4,
                 "recovery": 0.05, "cli": 0.08},
}

P90_MIN_SAMPLES = 100

# Machine-speed calibration.  The speed of a small shared host drifts by up
# to 1.7x over tens of seconds (other tenants share its cores), which no run
# length averages away.  A fixed probe is timed between ops, and each op time
# is scaled by PROBE_REF_S / (median probe time near the op, within the op's
# own duration but at least PROBE_WINDOW_S on either side): the result is
# the op's time at the speed where the probe takes PROBE_REF_S.  The probe
# runs no pathtrek code, so any change to pathtrek moves the scaled times in
# full.
PROBE_REF_S = 0.004
PROBE_EVERY_S = 0.2
PROBE_WINDOW_S = 0.5


def probe(np):
    """Seconds taken by fixed Python and numpy work, garbage collector paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table, acc, items = {}, 0.0, []
        for i in range(6000):
            x = (i % 97) * 0.01 + 0.5
            acc += math.exp(-x) * math.log(x + 1.0)
            table[i % 211] = acc
            items.append((i, x))
        a = np.arange(64.0).reshape(8, 8) + 100.0 * np.eye(8)
        for _ in range(60):
            np.linalg.solve(a, np.ones(8))
            a.T @ a
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs the plan's ops, times them and checks every output."""

    def __init__(self, plan, work, expected, plant, pathtrek, oracles):
        self.plan = plan
        self.ops = plan["ops"]
        self.out = os.path.join(work, "out")
        os.makedirs(self.out, exist_ok=True)
        self.expected = expected
        self.plant = plant
        self.pt = pathtrek
        self.orc = oracles
        self.samples = {kind: [] for kind in KINDS}  # (seconds, began, ended, work, round)
        self.attempted = 0
        self.failed = 0
        self.failures = []  # (op id, first problem) per failed op
        self.digests = {}  # op id -> sha256 of its last report
        self.sim_rep = 0
        self.rec_rep = 0
        self._inputs = {}
        self._recovery_model = pathtrek.load_model(self.ops["recovery"]["model"])
        self.probes = []

    # -- op lists ------------------------------------------------------

    def instances(self, kind):
        op = self.ops[kind]
        return op if isinstance(op, list) else [op]

    def run(self, kind, op, span=None, extra=()):
        """Run one op and check it; returns its timed seconds, None if it raised."""
        self.attempted += 1
        call = getattr(self, f"_{kind}")
        try:
            if span is None:
                seconds, check = call(op, *extra)
            else:
                seconds, check = span(f"op.{kind}", call, op, *extra)
            problems = check()
        except Exception as exc:  # an op that raises is a failed op
            seconds, problems = None, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.failures.append((op["id"], problems[0]))
        return seconds

    # -- timed calls: each returns (seconds, deferred check) -----------

    def _cli_main(self, argv):
        start = time.perf_counter()
        code = self.pt.cli.main(argv)
        return time.perf_counter() - start, code

    def _report_argv(self, op, command, out):
        return [command, *op["input"], "--model", op["model"], "--format", "json",
                "--out", out]

    def _fit(self, op, argv_extra=()):
        out = os.path.join(self.out, f"{op['id']}.json")
        seconds, code = self._cli_main(self._report_argv(op, "fit", out) + list(argv_extra))
        return seconds, lambda: self._check_report(op, "fit", code, out)

    def _revise(self, op):
        out = os.path.join(self.out, f"{op['id']}.json")
        seconds, code = self._cli_main(self._report_argv(op, "revise", out))
        return seconds, lambda: self._check_report(op, "revise", code, out)

    def _screen(self, op):
        out = os.path.join(self.out, f"{op['id']}.json")
        argv = ["screen", "--data", op["data"], "--model", op["model"],
                "--format", "json", "--out", out]
        seconds, code = self._cli_main(argv)
        return seconds, lambda: self._check_screen(op, code, out)

    def _simulate(self, op):
        seed = (op["seed_offset"] + self.sim_rep) % op["table"]
        self.sim_rep += 1
        out = os.path.join(self.out, f"{op['id']}.csv")
        argv = ["simulate", "--model", op["model"], "--n", str(op["n"]),
                "--seed", str(seed), "--out", out]
        seconds, code = self._cli_main(argv)
        return seconds, lambda: self._check_simulate(op, seed, code, out)

    def _recovery(self, op):
        seed = (op["first_seed"] + self.rec_rep) % (1 << 31)
        self.rec_rep += 1
        spec = self.pt.SimulationSpec(self._recovery_model, op["n"], seed)
        start = time.perf_counter()
        result = self.pt.recovery_check(spec, op["tolerance"])
        seconds = time.perf_counter() - start
        arrows = self.orc.read_model(op["model"])[1]
        return seconds, lambda: self.orc.check_recovery(result, arrows, op["tolerance"])

    def _cli(self, op):
        out = os.path.join(self.out, f"{op['id']}.json")
        argv = [sys.executable, "-m", "pathtrek.cli",
                *self._report_argv(op, op["command"], out)]
        start = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        seconds = time.perf_counter() - start
        return seconds, lambda: self._check_report(op, op["command"], proc.returncode, out)

    # -- checks --------------------------------------------------------

    def _input(self, op_input):
        key = tuple(op_input)
        if key not in self._inputs:
            if op_input[0] == "--corr":
                names, r = self.orc.read_corr(op_input[1])
            else:
                names, x = self.orc.read_rows(op_input[1])
                r = self.orc.np.corrcoef(x, rowvar=False)
            self._inputs[key] = (names, r)
        return self._inputs[key]

    def _load_report(self, op, out):
        with open(out, "rb") as fh:
            raw = fh.read()
        self.digests[op["id"]] = hashlib.sha256(raw).hexdigest()
        report = json.loads(raw)
        if self.plant and "reproduced" in report:
            report["reproduced"]["r_hat"][0][1] += 1e-6
        return report

    def _expectation(self, op):
        expect = op["expect"]
        if "recorded" in expect:
            rec = self.expected["revise"][expect["recorded"]]
            have = {os.path.basename(p): d for p, d in self.plan["files"].items()}
            for name, digest in rec["inputs"].items():
                if have.get(name) != digest:
                    raise RuntimeError(f"recorded outcome is for another {name}")
            return rec["exit"], {tuple(a.split("->")) for a in rec["arrows"]}
        arrows = self.orc.read_model(expect["arrows_of"])[1]
        return expect["exit"], {(s, t) for s, t, _ in arrows}

    def _check_report(self, op, command, code, out):
        if command == "revise":
            want_exit, want_arrows = self._expectation(op)
        else:
            want_exit, want_arrows = 0, None
        if code != want_exit:
            return [f"exit code {code}, expected {want_exit}"]
        report = self._load_report(op, out)
        names, r = self._input(op["input"])
        _, arrows = self.orc.read_model(op["model"])
        if command == "revise":
            got = self.orc.fitted_arrows(report)
            if got != want_arrows:
                return ["revise ended on another arrow set than recorded"]
            return self.orc.check_analysis(report, names, r, got, None)
        annotated = arrows if all(c is not None for _, _, c in arrows) else None
        return self.orc.check_analysis(report, names, r, {(s, t) for s, t, _ in arrows},
                                       annotated)

    def _check_screen(self, op, code, out):
        if code != 0:
            return [f"exit code {code}, expected 0"]
        report = self._load_report(op, out)
        if op["data"] not in self._inputs:
            self._inputs[op["data"]] = self.orc.read_rows(op["data"])
        names, x = self._inputs[op["data"]]
        _, arrows = self.orc.read_model(op["model"])
        return self.orc.check_screen(report, names, x, arrows)

    def _check_simulate(self, op, seed, code, out):
        if code != 0:
            return [f"exit code {code}, expected 0"]
        key = f"{self.plan['files'][op['model']]}:{op['n']}"
        digest = _sha256(out)
        self.digests[op["id"]] = digest
        want = self.expected["simulate"].get(key, {}).get(str(seed))
        if want is None:
            return [f"no recorded sha256 for simulate {key} seed {seed}"]
        return [] if digest == want else [f"simulate seed {seed} sha256 differs from recorded"]

    # -- passes --------------------------------------------------------

    def warm_up(self):
        """One op of every kind; returns the summed op seconds."""
        return sum(self.run(kind, self.instances(kind)[0]) or 0.0 for kind in KINDS)

    def _probe(self):
        took = probe(self.orc.np)
        self.probes.append((time.perf_counter(), took))

    def measure(self, seconds, weights):
        """Closed loop of whole rounds, always of the kind furthest behind its share.

        Picking by share used spreads every kind's samples over the whole run.
        A probe runs between ops once PROBE_EVERY_S has passed since the last,
        and before the first op and after the last.
        """
        budget = {kind: weights[kind] * seconds for kind in KINDS}
        spent = dict.fromkeys(KINDS, 0.0)
        self._probe()
        for round_no in itertools.count():
            kind = min(KINDS, key=lambda k: spent[k] / budget[k])
            if spent[kind] >= budget[kind]:
                break
            for op in self.instances(kind):
                began = time.perf_counter()
                took = self.run(kind, op)
                ended = time.perf_counter()
                spent[kind] += ended - began
                if took is not None:
                    work = {"screen": op.get("rows"), "simulate": op.get("n")}.get(kind, 1)
                    self.samples[kind].append((took, began, ended, work, round_no))
                if ended - self.probes[-1][0] >= PROBE_EVERY_S:
                    self._probe()
        self._probe()

    def _scale(self, began, ended):
        """PROBE_REF_S over the median probe time near [began, ended]."""
        reach = max(PROBE_WINDOW_S, ended - began)
        near = [took for at, took in self.probes if began - reach <= at <= ended + reach]
        if not near:  # no probe close by: use the nearest on each side
            near = [min(self.probes, key=lambda p: abs(p[0] - began))[1],
                    min(self.probes, key=lambda p: abs(p[0] - ended))[1]]
        return PROBE_REF_S / statistics.median(near)

    def summary(self):
        out = {"attempted": self.attempted, "failed": self.failed,
               "failures": self.failures[:20], "digests": self.digests, "samples": {}}
        if not self.probes:
            return out
        out["speed_index"] = statistics.median(t for _, t in self.probes) / PROBE_REF_S
        for kind, xs in self.samples.items():
            if not xs:
                continue
            raw = [x[0] for x in xs]
            scaled = [took * self._scale(began, ended) for took, began, ended, _, _ in xs]
            rounds, raw_rounds = {}, {}
            for x, s in zip(xs, scaled):
                rounds.setdefault(x[4], []).append(s)
                raw_rounds.setdefault(x[4], []).append(x[0])
            entry = {"n": len(xs), "rounds": len(rounds), "work": sum(x[3] for x in xs),
                     "total_s": sum(scaled), "raw_total_s": sum(raw),
                     "p50_ms": 1000 * statistics.median(map(statistics.fmean, rounds.values())),
                     "raw_p50_ms": 1000 * statistics.median(
                         map(statistics.fmean, raw_rounds.values()))}
            if len(xs) >= P90_MIN_SAMPLES:
                entry["p90_ms"] = 1000 * statistics.quantiles(scaled, n=10)[8]
            out["samples"][kind] = entry
        return out


def _import_ms(rounds=7):
    """Median wall ms of bare interpreters: empty, importing numpy, importing pathtrek.cli."""
    argvs = {"pass": "pass", "numpy": "import numpy", "pathtrek": "import pathtrek.cli"}
    times = {key: [] for key in argvs}
    for _ in range(rounds):  # interleaved, so drift in machine speed hits all three
        for key, code in argvs.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True)
            times[key].append(1000 * (time.perf_counter() - start))
    return {key: statistics.median(xs) for key, xs in times.items()}


def _trace(runner, tracer, plan):
    """Each op untraced then traced, the trek export op, and import timings.

    Alternating per op keeps drift in machine speed out of the overhead ratio.
    """
    untraced = traced = 0.0
    for kind in KINDS:
        for op in runner.instances(kind):
            untraced += runner.run(kind, op) or 0.0
            tracer.install()
            try:
                traced += runner.run(kind, op, tracer.span) or 0.0
            finally:
                tracer.uninstall()
    export = min(plan["ops"]["fit"], key=lambda op: op["id"])
    treks_csv = os.path.join(runner.out, "treks.csv")
    tracer.install()
    try:
        runner.run("fit", export, tracer.span, extra=[("--treks-csv", treks_csv)])
    finally:
        tracer.uninstall()
    exported = 0
    if os.path.exists(treks_csv):  # missing when the export op failed
        with open(treks_csv, encoding="utf-8") as fh:
            exported = sum(1 for _ in fh) - 1
    enumerated = tracer.counts.get("tracing.treks_enumerated", 0)
    imports = _import_ms()
    extra = {
        "tracing.trek_use_ratio": exported / enumerated if enumerated else 1.0,
        "cli.interpreter_ms": imports["pass"],
        "cli.numpy_import_ms": imports["numpy"] - imports["pass"],
        "cli.pathtrek_import_ms": imports["pathtrek"] - imports["numpy"],
        "trace.overhead_ratio": traced / untraced,
    }
    return {"per_layer": tracer.metrics(extra), "absent": tracer.absent_metrics(),
            "passes_s": {"untraced": untraced, "traced": traced}}


def _environment(pathtrek, np):
    try:
        import pathtrek.rng as rng_mod
        backend = getattr(rng_mod, "backend", None)
        rng_path = backend() if callable(backend) else "not exposed"
    except ImportError:
        rng_path = "not exposed"
    return {"pathtrek_file": pathtrek.__file__, "numpy": np.__version__,
            "rng_path": rng_path}


def main(argv):
    plan_path, role, result_path = argv[:3]
    seconds = float(argv[argv.index("--seconds") + 1]) if "--seconds" in argv else 0.0
    plant = "--plant" in argv
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this process and its children, so probes and ops share it.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    start = time.perf_counter()
    import pathtrek
    import pathtrek.cli
    import_s = time.perf_counter() - start

    import oracles
    import layers

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    work = os.path.dirname(os.path.abspath(plan_path))
    runner = Runner(plan, work, expected, plant, pathtrek, oracles)
    probes = [probe(oracles.np)]
    warm_s = runner.warm_up()
    probes += [probe(oracles.np) for _ in range(2)]
    setup_probe = statistics.median(probes)
    result = {"setup_s": (import_s + warm_s) * PROBE_REF_S / setup_probe,
              "raw_setup_s": import_s + warm_s, "import_s": import_s,
              "env": _environment(pathtrek, oracles.np)}
    if role == "measure":
        runner.measure(seconds, WEIGHTS[plan["workload"]])
    elif role == "trace":
        tracer = layers.Tracer()
        result.update(_trace(runner, tracer, plan))
        tracer.write_spans(os.path.join(work, "spans.csv"))
    result.update(runner.summary())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
