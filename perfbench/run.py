"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload deeptune-linux --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, ``--trace 1``
every per-layer metric (from a traced pass that is checked against an
untraced one).  The last line of standard output is the result object;
the lines before it are the environment stamp and, for traced runs, the
phase table.  A copy of everything goes to ``.perfbench/runs/``.

The command exits non-zero, without a result line, when the program's
sources are missing or a workload crashes, and non-zero after printing
``"correct": false`` when a correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from typing import Dict, List

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = harness.ROOT

WORKER_TIMEOUT_S = 170


def run_worker(command: List[str], env: Dict[str, str]) -> tuple:
    """Run the workload child in its own session; on timeout, kill the
    whole session so no server it started outlives it."""
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               env=env, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        stdout, _ = process.communicate()
        return "timeout", stdout
    return process.returncode, stdout


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: program sources (src/repro) not found next to {}".format(
            HERE), file=sys.stderr)
        return 2

    env = harness.child_environment(ROOT)
    tag = "{}-s{}-t{}".format(args.workload, args.seed, args.trace)
    runs = os.path.join(ROOT, ".perfbench", "runs")
    work = os.path.join(ROOT, ".perfbench", "work", "{}-{}".format(tag, os.getpid()))
    os.makedirs(runs, exist_ok=True)
    os.makedirs(work)
    try:
        returncode, stdout = run_worker(
            [sys.executable, os.path.join(HERE, "workloads.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work", os.path.join(work, "run")], env)
        if returncode != 0 or not stdout.strip():
            print("error: workload exited with {}".format(returncode),
                  file=sys.stderr)
            return 1
        measured = json.loads(stdout.strip().splitlines()[-1])
        if args.trace:
            shutil.copyfile(os.path.join(work, "run", "spans.jsonl"),
                            os.path.join(runs, tag + ".spans.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = harness.metrics_block(
        measured["metrics"], harness.PER_LAYER if args.trace else harness.END_TO_END)
    problems = measured["problems"]
    correct = not problems
    stamp = harness.environment_stamp(ROOT, env)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": stamp, "setup_samples_s": measured.get("setup_samples_s"),
              "rounds": measured["rounds"], "samples": measured["samples"],
              "digests": measured["digests"], "problems": problems,
              "phases": measured.get("phases"), "metrics": metrics}
    with open(os.path.join(runs, tag + ".json"), "w") as handle:
        json.dump(record, handle, indent=2)
    print("env " + json.dumps(stamp, sort_keys=True))
    for name, seconds, share in measured.get("phases") or ():
        print("phase {:<24} {:9.3f} s {:6.1%}".format(name, seconds, share))
    for problem in problems:
        print("FAILED " + problem)
    print(harness.result_line(correct, measured["attempted"], measured["failed"],
                              metrics), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
