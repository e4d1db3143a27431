#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the way they are judged.

    python3 perfbench/spread.py --workload serve --runs 10 [--first-seed 1]

Runs the benchmark once per seed (seeds first-seed .. first-seed+runs-1),
then prints, for every end-to-end metric, the median of the runs and the
distance between the first and third quartile as a share of that median
(statistics.quantiles(values, n=4)), beside the metric's bound from
BENCHMARK.json. A metric is steady when its spread stays under a third of
its bound. Exits non-zero if any run fails or reports an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--show", action="store_true",
                    help="also print every run's value")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = a.seconds or bench["run_seconds"]
    values = {}
    ok = True
    for seed in range(a.first_seed, a.first_seed + a.runs):
        out = subprocess.run(
            ["python3", os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode or not lines:
            print("seed %d: exit %d" % (seed, out.returncode))
            ok = False
            continue
        res = json.loads(lines[-1])
        ok &= res["correct"] and res["failed"] == 0
        print("seed %d: correct=%s attempted=%d failed=%d" %
              (seed, res["correct"], res["attempted"], res["failed"]),
              flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-14s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for m in bench["end_to_end"]:
        xs = values.get(m["name"], [])
        if len(xs) < 2:
            print("%-14s missing" % m["name"])
            continue
        q = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        spread = (q[2] - q[0]) / med if med else float("inf")
        flag = "" if spread < m["bound"] / 3 else "  <-- over a third"
        print("%-14s %12.6g %8.3f %8.3f%s" %
              (m["name"], med, spread, m["bound"], flag))
        if a.show:
            print("    " + " ".join("%.4g" % x for x in xs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
