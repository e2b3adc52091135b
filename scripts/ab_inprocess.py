#!/usr/bin/env python3
"""Time two pathtrek trees on one benchmark plan, alternating, in one process
or, for KIND cli, in one child process per op.

    python3 scripts/ab_inprocess.py PARENT_SRC CHANGE_SRC PLAN KIND [--rounds N]

PARENT_SRC and CHANGE_SRC are directories that each hold a `pathtrek`
package (a checkout's `src/`).  Each package is copied to a temporary
directory under its own name, `pathtrek_parent` and `pathtrek_change`; this
works because every import inside the package is relative.  Both copies are
imported into this process, and child processes find them on a PYTHONPATH
that holds that directory.

PLAN is a `plan.json` that `perfbench/run.py` wrote under
`.perfbench/WORKLOAD/`; its input paths are relative to the checkout it ran
in, so run this script from there.  KIND is one of fit, revise, screen,
simulate, recovery and cli.  The first four run every op of that kind in
the plan through `cli.main`.  recovery runs `recovery_check` on the plan's
recovery model and n for RECOVERY_SEEDS seeds, the ones perfbench's first
replications take.  cli runs each op of the plan's `cli` list as a child
process, `python -m pathtrek_parent.cli ...` or `python -m
pathtrek_change.cli ...`, and times it from start to exit, as perfbench's
cli_ms_p50 does but with no speed probe: this is the regime where
interpreter start-up and shutdown, not the analysis, set the time.  One
untimed round runs every op on both sides and compares their outputs: the
files written, byte for byte, and each op's exit code, or each
`RecoveryReport`'s errors and the bytes of the rows it drew (the errors
alone can hide a last-bit change in a few draws).  Then each round times
every op on both sides, the side that goes first alternating from round to
round.  It prints each side's median over rounds of the mean op time with
its first and third quartiles, in how many rounds the change was faster,
and whether the gain rule holds (`gain_rule`): the change faster in at
least 9 of every 10 rounds, and its median below the parent's by more than
the parent's quartile gap; then, per op id (per seed for recovery), each side's median time
over rounds, which shows a change whose gain grows with the input, such as
k = 20 against k = 10.

No speed probe scales these times.  Both sides run interleaved in the same
process, so a drift of the machine's speed reaches both alike.  As
perfbench does, the process runs on one CPU with one BLAS and OpenMP thread
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 before
numpy loads): a threaded dgemm on screen's (n, k) by (k, k) product would
otherwise add milliseconds of noise.  Child processes inherit the CPU and
the thread variables.  The exit status is 1 when the two sides' outputs
differ.
"""

import argparse
import functools
import gc
import hashlib
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
KINDS = ("fit", "revise", "screen", "simulate", "recovery", "cli")
SIDES = ("parent", "change")
RECOVERY_SEEDS = 10


def load_side(src, name, into):
    """Import the `pathtrek` package under `src` as module `name`."""
    shutil.copytree(os.path.join(src, "pathtrek"), os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def run_child(argv, env):
    """The exit code of a child process that runs argv."""
    return subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode


def side_ops(package, plan, kind, out):
    """Op id -> one zero-argument call, for every op of `kind`, writing under `out`;
    each call of a cli-driven kind returns the op's exit code."""
    if kind == "cli":
        path = os.path.dirname(os.path.dirname(package.__file__))
        env = dict(os.environ, PYTHONPATH=path)
        return {op_id: functools.partial(run_child, [sys.executable, "-m",
                                                     f"{package.__name__}.cli", *argv], env)
                for op_id, argv in op_argvs(plan, kind, out).items()}
    if kind != "recovery":
        cli = importlib.import_module(f"{package.__name__}.cli")
        return {op_id: functools.partial(cli.main, argv)
                for op_id, argv in op_argvs(plan, kind, out).items()}
    op = plan["ops"]["recovery"]
    model = package.load_model(op["model"])
    seeds = [(op["first_seed"] + rep) % (1 << 31) for rep in range(RECOVERY_SEEDS)]
    return {f"seed {seed}": functools.partial(package.recovery_check,
                                              package.SimulationSpec(model, op["n"], seed),
                                              op["tolerance"])
            for seed in seeds}


def op_argvs(plan, kind, out):
    """Op id -> the argv of every op of `kind` in the plan, writing under `out`."""
    ops = plan["ops"][kind]
    ops = ops if isinstance(ops, list) else [ops]
    argvs = {}
    for op in ops:
        path = os.path.join(out, op["id"])
        if kind == "screen":
            argv = ["screen", "--data", op["data"], "--model", op["model"],
                    "--format", "json", "--out", path]
        elif kind == "simulate":
            argv = ["simulate", "--model", op["model"], "--n", str(op["n"]),
                    "--seed", str(op["seed_offset"]), "--out", path]
        else:
            argv = [op["command"] if kind == "cli" else kind, *op["input"],
                    "--model", op["model"], "--format", "json", "--out", path]
        argvs[op["id"]] = argv
    return argvs


def gain_rule(parent, change):
    """(rounds won, median gap, quartile gap, holds) for paired per-round times.

    The change wins a round when its time is below the parent's in that
    round.  The median gap is the parent's median minus the change's, the
    quartile gap the parent's Q3 - Q1.  The rule holds when the change wins
    at least 9 of every 10 rounds and the median gap exceeds the quartile gap.
    """
    won = sum(c < p for p, c in zip(parent, change, strict=True))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = statistics.median(parent) - statistics.median(change)
    return won, gap, q3 - q1, 10 * won >= 9 * len(parent) and gap > q3 - q1


def run_round(ops):
    """The seconds each op took, in one run of every op."""
    gc.collect()
    seconds = []
    for op in ops:
        start = time.perf_counter()
        op()
        seconds.append(time.perf_counter() - start)
    return seconds


def outputs(package, kind, ops, out):
    """Run every op once: each op's exit code and the sha256 of each file
    written, or each recovery's errors and rows."""
    results = [op() for op in ops.values()]
    if kind == "recovery":
        return {f"seed {report.spec.seed}":
                (report.errors, package.simulate_dataset(report.spec).rows.tobytes())
                for report in results}
    found = {f"exit code of {op_id}": code for op_id, code in zip(ops, results)}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            found[name] = hashlib.sha256(fh.read()).hexdigest()
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("plan")
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for the quartiles")
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy is imported
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        ops, written = {}, {}
        for side, src in zip(SIDES, (args.parent_src, args.change_src)):
            package = load_side(src, f"pathtrek_{side}", tmp)
            out = os.path.join(tmp, f"out-{side}")
            os.makedirs(out)
            ops[side] = side_ops(package, plan, args.kind, out)
            written[side] = outputs(package, args.kind, ops[side], out)
        differ = sorted(name for name in written["parent"].keys() | written["change"].keys()
                        if written["parent"].get(name) != written["change"].get(name))

        op_times = {side: [] for side in SIDES}  # per round, the seconds of each op
        for round_no in range(args.rounds):
            for side in SIDES if round_no % 2 == 0 else SIDES[::-1]:
                op_times[side].append(run_round(ops[side].values()))

    times = {side: [statistics.fmean(round_) for round_ in op_times[side]] for side in SIDES}
    medians = {side: 1000.0 * statistics.median(times[side]) for side in SIDES}
    won, gap, spread, holds = gain_rule(times["parent"], times["change"])
    change = 100.0 * (medians["change"] / medians["parent"] - 1.0)
    print(f"{args.kind}: {len(ops['parent'])} ops x {args.rounds} rounds")
    for side in SIDES:
        q1, _, q3 = (1000.0 * q for q in statistics.quantiles(times[side], n=4))
        note = f" ({change:+.1f}%)" if side == "change" else ""
        print(f"{side:<7} median {medians[side]:.3f} ms/op{note}, quartiles {q1:.3f}-{q3:.3f}")
    print(f"change faster in {won}/{args.rounds} rounds")
    print(f"gain rule {'holds' if holds else 'fails'}: {won}/{args.rounds} rounds won "
          f"(9/10 needed), median gap {1000.0 * gap:.3f} ms against the parent's "
          f"quartile gap {1000.0 * spread:.3f} ms")
    width = max(map(len, ops["parent"]))
    for i, op_id in enumerate(ops["parent"]):
        parent, change = (1000.0 * statistics.median(round_[i] for round_ in op_times[side])
                          for side in SIDES)
        print(f"  {op_id:<{width}}  parent {parent:.3f} ms, change {change:.3f} ms "
              f"({100.0 * (change / parent - 1.0):+.1f}%)")
    if differ:
        print(f"outputs differ: {', '.join(differ)}")
        return 1
    if args.kind == "recovery":
        count = f"{len(written['parent'])} recovery reports"
    else:
        codes = len(ops["parent"])
        count = f"{len(written['parent']) - codes} files, {codes} exit codes"
    print(f"outputs identical on both sides ({count})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
