"""pathtrek benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a pathtrek checkout.  It byte-compiles src/, writes
the workload's inputs under .perfbench/NAME/ from the seed (gen.py), and
starts workload processes (workload.py) that drive pathtrek through its
public entry points and check every output against independent oracles
(oracles.py).  Every workload runs every op kind (fit, revise, screen,
simulate, recovery, CLI process); the inputs decide which layers dominate:

  paper-study  the bundled five-variable study (n=240); per-call overhead,
               t tails, report rendering and process start-up dominate
  dag-search   a fixed pool of random DAGs at k=12/16/20 plus a complete
               k=10 DAG; exhaustive trek sums dominate fit and revise
  raw-data     a seeded k=8 raw CSV with 2*10^4 rows; per-value tail
               probabilities, CSV I/O and the variate stream dominate

With --trace 0 it prints the end-to-end metrics, all measured closed loop
(one client, each op started when the previous one ended):

  setup_s              median over three workload processes of the time from
                       `import pathtrek` through one warm-up op of each kind
                       (inputs are generated before and not counted)
  fit_ms_p50           `fit ... --format json --out F` via pathtrek.cli.main
  revise_ms_p50        `revise ... --format json --out F` via pathtrek.cli.main
  screen_rows_per_s    rows screened by `screen --data --model`, CSV load included
  simulate_rows_per_s  rows written by `simulate`, CSV write included
  recovery_reps_per_s  pathtrek.recovery_check replications at n=2000
  cli_ms_p50           wall time of a `python -m pathtrek.cli` child process
  peak_rss_mb          peak resident set of the measuring workload process

A round runs every input of an op kind once, and each *_ms_p50 is the median
over rounds of the round's mean op time.  Printed beside them but not in the
JSON: a p90 over single ops for each kind with at least 100 of them, and
failed_ratio (failed ops / attempted ops).  --self-test shows that a planted
wrong r-hat is counted as failed ops.  With --trace 1 it runs every op
once untraced and once with spans around pathtrek's public functions
(layers.py) and prints the per-layer metrics and trace.overhead_ratio.

Times are scaled to a reference machine speed.  On a small shared host the
speed of a core drifts by up to 1.7x over tens of seconds, so the workload
process times a fixed probe (Python and numpy work, no pathtrek code)
between ops and scales each op by reference probe time / probe time around
it; see workload.py.  The unscaled figures and the speed index are printed
beside the scaled ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  BLAS and OpenMP thread pools are pinned to
one thread in this process and every child; each workload process and its
children run on one CPU.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper-study", "dag-search", "raw-data")
SETUP_PROCESSES = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "fit_ms_p50": "ms",
    "revise_ms_p50": "ms",
    "screen_rows_per_s": "rows/s",
    "simulate_rows_per_s": "rows/s",
    "recovery_reps_per_s": "reps/s",
    "cli_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _build(root, env):
    """Byte-compile src/ so no workload process pays for compiling it."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pathtrek", "cli.py")):
        raise BenchError(f"no pathtrek sources under {src}; run from a checkout root")
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", src], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise BenchError(f"byte-compiling src/ failed:\n{proc.stdout}")


def _child(plan_path, role, env, deadline, extra=()):
    """Run one workload process to completion and return its result."""
    result_path = os.path.join(os.path.dirname(plan_path), f"result-{role}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    argv = [sys.executable, os.path.join(HERE, "workload.py"), plan_path, role,
            result_path, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    # Its own session, so a timeout also stops the CLI processes it started.
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"workload process ({role}) ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process ({role}) exited {proc.returncode}:\n"
                         f"{stderr[-4000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _prepare(root, workload, seed):
    sys.path.insert(0, HERE)
    import gen

    work = os.path.join(root, ".perfbench", workload)
    shutil.rmtree(work, ignore_errors=True)
    plan = gen.make_inputs(workload, seed, os.path.join(work, "inputs"), root)
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1, sort_keys=True)
    return plan, plan_path


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _print_env(args, plan, env_info):
    print(f"pathtrek benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"environment: nproc={os.cpu_count()} cpu=\"{_cpu_model()}\" "
          f"python={platform.python_version()} numpy={env_info['numpy']} "
          f"rng_path={env_info['rng_path']} "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS))
    print(f"pathtrek imported from {env_info['pathtrek_file']}")
    for path, digest in sorted(plan["files"].items()):
        print(f"input {path} sha256:{digest}")


def _end_to_end(results):
    """End-to-end metrics, with notes, from the setup and measuring processes."""
    measured = results[-1]
    samples = measured["samples"]
    missing = [kind for kind in ("fit", "revise", "screen", "simulate", "recovery", "cli")
               if kind not in samples]
    if missing:
        raise BenchError(f"no op of kind {', '.join(missing)} completed: "
                         f"{measured['failures'][:5]}")
    setups = [r["setup_s"] for r in results]
    metrics = {"setup_s": statistics.median(setups)}
    notes = {"setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups)
             + "; unscaled " + ", ".join(f"{r['raw_setup_s']:.4f}" for r in results)}
    for kind in ("fit", "revise"):
        metrics[f"{kind}_ms_p50"] = samples[kind]["p50_ms"]
    for name, kind in (("screen_rows_per_s", "screen"), ("simulate_rows_per_s", "simulate"),
                       ("recovery_reps_per_s", "recovery")):
        count = samples[kind]["work"]  # rows, or replications for recovery
        metrics[name] = count / samples[kind]["total_s"]
        notes[name] = (f"n={samples[kind]['n']}, "
                       f"unscaled {count / samples[kind]['raw_total_s']:.6g}")
    metrics["cli_ms_p50"] = samples["cli"]["p50_ms"]
    for kind in ("fit", "revise", "cli"):
        notes[f"{kind}_ms_p50"] = (f"n={samples[kind]['n']} in {samples[kind]['rounds']} "
                                   f"rounds, unscaled {samples[kind]['raw_p50_ms']:.4g} ms")
    metrics["peak_rss_mb"] = measured["peak_rss_mb"]
    return metrics, notes


def _print_metrics(metrics, units, notes):
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<38} {value:>16.6g} {units[name]}{note}")


def run_benchmark(args, root):
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    env = _child_env(root)
    _build(root, env)
    plan, plan_path = _prepare(root, args.workload, args.seed)

    if args.trace:
        traced = _child(plan_path, "trace", env, deadline)
        results = [traced]
        sys.path.insert(0, HERE)
        from layers import METRICS

        metrics = traced["per_layer"]
        units = METRICS
        notes = {name: "absent: target gone" for name in traced["absent"]}
        notes["trace.overhead_ratio"] = (
            f"{traced['passes_s']['traced']:.3f} s traced / "
            f"{traced['passes_s']['untraced']:.3f} s untraced")
    else:
        results = [_child(plan_path, "setup", env, deadline)
                   for _ in range(SETUP_PROCESSES - 1)]
        measured = _child(plan_path, "measure", env, deadline,
                          ["--seconds", str(args.seconds)])
        results.append(measured)
        metrics, notes = _end_to_end(results)
        units = END_TO_END
        samples = measured["samples"]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    _print_env(args, plan, results[-1]["env"])
    if not args.trace:
        print(f"machine speed index {measured['speed_index']:.4f} "
              f"(median probe time / reference probe time; times below are scaled by it)")
    _print_metrics(metrics, units, notes)
    if not args.trace:
        for kind in ("fit", "revise", "cli"):
            if "p90_ms" in samples[kind]:
                print(f"{kind + '_ms_p90':<38} {samples[kind]['p90_ms']:>16.6g} ms"
                      f"  (n={samples[kind]['n']})")
    print(f"{'failed_ratio':<38} {failed / max(attempted, 1):>16.6g} ratio"
          f"  ({failed} of {attempted} ops)")
    for result in results:
        for op_id, problem in result["failures"]:
            print(f"FAILED {op_id}: {problem}")
    for op_id, digest in sorted(results[-1]["digests"].items()):
        print(f"output {op_id} sha256:{digest} (informational)")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(v), "unit": units[name]}
                    for name, v in metrics.items()},
    }


def self_test(root):
    """A planted r-hat perturbation must be counted as failed ops."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    env = _child_env(root)
    _build(root, env)
    _, plan_path = _prepare(root, "paper-study", 0)
    clean = _child(plan_path, "measure", env, deadline, ["--seconds", "1"])
    planted = _child(plan_path, "measure", env, deadline, ["--seconds", "1", "--plant"])
    print(f"clean run:   {clean['failed']} of {clean['attempted']} ops failed")
    print(f"planted run: {planted['failed']} of {planted['attempted']} ops failed")
    for op_id, problem in planted["failures"][:3]:
        print(f"  {op_id}: {problem}")
    ok = clean["failed"] == 0 and planted["failed"] > 0
    print("self-test " + ("passed" if ok else "FAILED"))
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that a planted wrong answer is counted as a failure")
    args = parser.parse_args(argv)
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy is imported
    root = os.getcwd()
    try:
        if args.self_test:
            return 0 if self_test(root) else 1
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        result = run_benchmark(args, root)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
