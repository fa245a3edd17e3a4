"""Run one benchmark workload (or all of them) and print the result.

Usage, from the repository root::

    python3 perfbench/run.py --workload case-a --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

A single workload prints a human-readable table and, as its last line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics.  A failed
output check still prints the result, then exits with status 1.

``--workload all`` runs each workload in its own interpreter, so that
peak RSS and garbage-collector state never carry over between them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("case-a", "serve-ingest", "scale-world")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    module = importlib.import_module("perfbench." + workload.replace("-", "_"))
    return module.run(seed, seconds, trace)


def run_all(args) -> int:
    """Each workload in a fresh interpreter; a summary table at the end."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or completed.returncode
        if lines:
            results[workload] = json.loads(lines[-1])
    print("summary (metrics that read 0 omitted)")
    for workload, result in results.items():
        metrics = ", ".join(
            f"{name}={entry['value']:.6g} {entry['unit']}"
            for name, entry in result["metrics"].items()
            if entry["value"]
        )
        print(f"  {workload}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}  {metrics}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    from perfbench.common import emit, load_spec

    spec = load_spec()
    outcome = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    emit(outcome, spec["per_layer"] if args.trace else spec["end_to_end"])
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    # Run as a script, the interpreter puts perfbench/ itself first on
    # the path; the package and the program under test live above it.
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]
    sys.exit(main())
