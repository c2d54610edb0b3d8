#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs two sets of N runs per workload (each run with its own --seed, the
same seeds in both sets), prints each end-to-end metric's median and
quartiles per set, and checks it against the bound in BENCHMARK.json:

* spread: (q3 - q1) / median of each set must stay within the bound;
* drift: the second set's median may be worse than the first's by at
  most the bound.

Run from the repository root:

    python3 e2e-bench/steady.py --runs 10
    python3 e2e-bench/steady.py --runs 5 --sets 1 --workloads serve

Exits 1 when a run fails its output checks or a metric misses its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, env):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed}: output checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--workloads", default="", help="comma-separated subset")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if opts.workloads:
        workloads = [w for w in workloads if w in opts.workloads.split(",")]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    sets = []
    for s in range(opts.sets):
        runs = {w: [] for w in workloads}
        for w in workloads:
            for i in range(opts.runs):
                seed = 1 + i
                runs[w].append(run_once(spec["command"], w, seed, seconds, env))
                print(f"set {s + 1} {w} seed {seed} done", file=sys.stderr, flush=True)
        sets.append(runs)

    ok = True
    for w in workloads:
        print(f"\n{w}: {opts.runs} runs per set, {seconds} s each")
        print(f"  {'metric':<24} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds = []
            for s, runs in enumerate(sets):
                med, q1, q3, spread = summary([r[name] for r in runs[w]])
                meds.append(med)
                verdict = "ok"
                if spread > bound:
                    verdict, ok = "SPREAD", False
                elif spread > bound / 3:
                    verdict = "ok (over a third of bound)"
                print(f"  {name:<24} {s + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound:>6}  {verdict}")
            if len(meds) == 2 and meds[0]:
                worse = (meds[1] - meds[0]) / meds[0]
                if m["better"] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= bound else "DRIFT"
                ok = ok and worse <= bound
                print(f"  {name:<24} set 2 vs set 1: {100 * worse:+.2f}% worse  {verdict}")
    print("\nsteady: " + ("OK" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
