#!/usr/bin/env python3
"""Time two pathtrek trees on one benchmark plan, in one process, alternating.

    python3 scripts/ab_inprocess.py PARENT_SRC CHANGE_SRC PLAN KIND [--rounds N]

PARENT_SRC and CHANGE_SRC are directories that each hold a `pathtrek`
package (a checkout's `src/`).  Each package is copied to a temporary
directory under its own name, `pathtrek_parent` and `pathtrek_change`; this
works because every import inside the package is relative.  Both copies are
imported into this process.

PLAN is a `plan.json` that `perfbench/run.py` wrote under
`.perfbench/WORKLOAD/`; its input paths are relative to the checkout it ran
in, so run this script from there.  KIND is one of fit, revise, screen and
simulate.  One untimed round runs every op of that kind on both sides and
compares their output files byte for byte.  Then each round times every op
of the kind on both sides through `cli.main`, the side that goes first
alternating from round to round.  It prints each side's median over rounds
of the mean op time, and in how many rounds the change was faster.

No speed probe scales these times.  Both sides run interleaved in the same
process, so a drift of the machine's speed reaches both alike.  The exit
status is 1 when the two sides wrote different bytes.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

KINDS = ("fit", "revise", "screen", "simulate")
SIDES = ("parent", "change")


def load_side(src, name, into):
    """Import the `pathtrek` package under `src` as module `name`."""
    shutil.copytree(os.path.join(src, "pathtrek"), os.path.join(into, name),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def op_argvs(plan, kind, out):
    """The argv of every op of `kind` in the plan, writing under `out`."""
    ops = plan["ops"][kind]
    ops = ops if isinstance(ops, list) else [ops]
    argvs = []
    for op in ops:
        path = os.path.join(out, op["id"])
        if kind == "screen":
            argv = ["screen", "--data", op["data"], "--model", op["model"],
                    "--format", "json", "--out", path]
        elif kind == "simulate":
            argv = ["simulate", "--model", op["model"], "--n", str(op["n"]),
                    "--seed", str(op["seed_offset"]), "--out", path]
        else:
            argv = [kind, *op["input"], "--model", op["model"], "--format", "json",
                    "--out", path]
        argvs.append(argv)
    return argvs


def run_round(cli, argvs):
    """Seconds per op, averaged over one run of every op."""
    gc.collect()
    start = time.perf_counter()
    for argv in argvs:
        cli.main(argv)
    return (time.perf_counter() - start) / len(argvs)


def digests(out):
    found = {}
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
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        clis, argvs = {}, {}
        for side, src in zip(SIDES, (args.parent_src, args.change_src)):
            clis[side] = load_side(src, f"pathtrek_{side}", tmp)
            out = os.path.join(tmp, f"out-{side}")
            os.makedirs(out)
            argvs[side] = op_argvs(plan, args.kind, out)
        for side in SIDES:
            run_round(clis[side], argvs[side])
        written = {side: digests(os.path.join(tmp, f"out-{side}")) for side in SIDES}
        differ = sorted(name for name in written["parent"].keys() | written["change"].keys()
                        if written["parent"].get(name) != written["change"].get(name))

        times = {side: [] for side in SIDES}
        for round_no in range(args.rounds):
            for side in SIDES if round_no % 2 == 0 else SIDES[::-1]:
                times[side].append(run_round(clis[side], argvs[side]))

    medians = {side: 1000.0 * statistics.median(times[side]) for side in SIDES}
    won = sum(c < p for p, c in zip(times["parent"], times["change"]))
    change = 100.0 * (medians["change"] / medians["parent"] - 1.0)
    print(f"{args.kind}: {len(argvs['parent'])} ops x {args.rounds} rounds")
    print(f"parent  median {medians['parent']:.3f} ms/op")
    print(f"change  median {medians['change']:.3f} ms/op ({change:+.1f}%)")
    print(f"change faster in {won}/{args.rounds} rounds")
    if differ:
        print(f"outputs differ: {', '.join(differ)}")
        return 1
    print(f"outputs identical on both sides ({len(written['parent'])} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
