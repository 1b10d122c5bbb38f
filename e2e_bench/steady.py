#!/usr/bin/env python3
"""Steadiness self-check: back-to-back sets of benchmark runs must agree.

Usage, from the root of a checkout:

    python3 e2e_bench/steady.py [--runs 10] [--sets 2] [--workloads a,b] [--first-seed 1]

Runs every workload of ``BENCHMARK.json`` ``--runs`` times per set, each
run with another seed, for ``--sets`` sets in a row. For every
end-to-end metric it prints each set's median and quartiles
(``statistics.quantiles(values, n=4)``), the spread (the distance between
the quartiles as a share of the median) and the drift of each later
set's median against the first set's. A spread above the metric's bound
(``setup_s`` excepted) or a drift worse than the bound is a failure, and
the exit code is 1. A spread above a third of the bound is flagged as
marginal. Every run's result line is kept in ``.bench_out/steady.jsonl``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"steady.py: {workload} seed {seed} failed (exit {proc.returncode})")
    return result


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as file:
        bench = json.load(file)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = open(os.path.join(ROOT, ".bench_out", "steady.jsonl"), "a")

    failures = []
    for workload in workloads:
        sets = []
        for set_index in range(args.sets):
            results = []
            for run in range(args.runs):
                seed = args.first_seed + run
                result = run_once(bench["command"], workload, seed, bench["run_seconds"])
                log.write(json.dumps({"workload": workload, "set": set_index, "seed": seed, "result": result}) + "\n")
                log.flush()
                results.append(result)
            sets.append(results)
        print(f"\n{workload}: {args.sets} sets of {args.runs} runs")
        print(f"  {'metric':<18} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>7} {'bound':>6} {'drift':>7}")
        for metric in metrics:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            first_median = None
            for set_index, results in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in results]
                q1, q2, q3, spread = summary(values)
                if first_median is None:
                    first_median = q2
                    drift = 0.0
                else:
                    change = (q2 - first_median) / first_median if first_median else 0.0
                    drift = change if lower else -change
                verdict = ""
                if name != "setup_s" and spread > bound:
                    verdict = "SPREAD"
                    failures.append(f"{workload} {name} set {set_index} spread {spread:.3f} > {bound}")
                elif drift > bound:
                    verdict = "DRIFT"
                    failures.append(f"{workload} {name} set {set_index} drift {drift:.3f} > {bound}")
                elif name != "setup_s" and spread > bound / 3:
                    verdict = "marginal"
                print(
                    f"  {name:<18} {set_index:>3} {q1:>12.5g} {q2:>12.5g} {q3:>12.5g}"
                    f" {spread:>7.3f} {bound:>6} {drift:>+7.3f} {verdict}"
                )
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
