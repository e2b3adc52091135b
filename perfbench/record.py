"""Record the expected outputs that have no closed-form oracle.

    python3 perfbench/record.py

Run from the root of a pathtrek checkout; rewrites perfbench/expected.json
with, for the current pathtrek:

  * revise: exit code and final arrow set of every dag-search revise op,
    keyed by op id, with the sha256 of the input files (by name) they
    were recorded on;
  * simulate: sha256 of the `simulate` CSV for every seed in the rotation
    table of each workload's simulation model.

Re-record only when a change is meant to alter these outputs, and say so.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    import gen
    from pathtrek import cli

    expected = {"revise": {}, "simulate": {}}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for workload in gen.WORKLOADS:
            plan = gen.make_inputs(workload, 0, os.path.join(tmp, workload), root)
            for op in plan["ops"]["revise"]:
                if "recorded" not in op["expect"]:
                    continue
                out = os.path.join(tmp, "revise.json")
                code = cli.main(["revise", *op["input"], "--model", op["model"],
                                 "--format", "json", "--out", out])
                with open(out, encoding="utf-8") as fh:
                    report = json.load(fh)
                arrows = sorted(f"{p}->{eq['target']}"
                                for eq in report["coefficients"]["equations"]
                                for p in eq["parents"])
                expected["revise"][op["expect"]["recorded"]] = {
                    "inputs": {os.path.basename(path): plan["files"][path]
                               for path in (op["input"][1], op["model"])},
                    "exit": code,
                    "arrows": arrows,
                }
            sim = plan["ops"]["simulate"]
            table = {}
            for seed in range(sim["table"]):
                out = os.path.join(tmp, "sim.csv")
                cli.main(["simulate", "--model", sim["model"], "--n", str(sim["n"]),
                          "--seed", str(seed), "--out", out])
                table[str(seed)] = gen.sha256_file(out)
            expected["simulate"][f"{plan['files'][sim['model']]}:{sim['n']}"] = table
            print(f"recorded {workload}", file=sys.stderr)
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
