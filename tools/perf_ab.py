#!/usr/bin/env python3
"""The one judge of wall time: a base revision against the working tree.

    python3 tools/perf_ab.py BASE

1. Exports BASE (usually the parent commit) with `git archive` into
   build/perf_ab/.
2. Copies the working tree's perfbench/ and BENCHMARK.json over the
   export, so both sides run the same benchmark.
3. Discards one short warm-up run per side (it also builds the side).
4. Runs ten pairs of every BENCHMARK.json workload at run_seconds: pair i
   uses seed i, and the side that runs first alternates.
5. Judges each end-to-end metric (judge()) and prints one table per
   workload.

Exits 1 if any metric is worse or missing, any run is incorrect, or the
change fails a larger share of operations than BASE; 2 on a usage error.
Run nothing else on the host meanwhile: both sides share it.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPORT = os.path.join(ROOT, "build", "perf_ab")
PAIRS = 10
WARMUP_SECONDS = 2


def quartiles(xs):
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def share(x, median):
    """x as a share of a median."""
    if median:
        return x / abs(median)
    return 0.0 if x == 0 else math.copysign(math.inf, x)


def gain(metric, c, b):
    """How much value c reads better than value b of metric (> 0: better)."""
    return b - c if metric["better"] == "lower" else c - b


def wins(metric, base, change):
    """Pairs the change wins; a tie counts for neither side."""
    return sum(gain(metric, c, b) > 0 for b, c in zip(base, change))


def judge(metric, base, change):
    """The verdict on one end-to-end metric: worse, unresolved, better or
    same. base[i] and change[i] are the two sides' values in pair i;
    metric is the metric's BENCHMARK.json entry (better, bound)."""
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    if share(-gain(metric, mc, mb), mb) > metric["bound"]:
        return "worse"
    every_run_better = all(gain(metric, c, b) > 0
                           for c in change for b in base)
    if share(q3 - q1, mb) > metric["bound"] and not every_run_better:
        return "unresolved"
    if (wins(metric, base, change) >= 0.9 * len(base)
            and gain(metric, mc, mb) > q3 - q1):
        return "better"
    return "same"


def judge_workload(bench, base_runs, change_runs):
    """Judges one workload's pairs, given each side's perfbench results in
    pair order (None for a run that gave none). Returns the table to print
    and whether the workload passes."""
    ok = True
    lines = []
    shares = []
    for side, runs in (("parent", base_runs), ("change", change_runs)):
        bad = sum(not r or not r["correct"] for r in runs)
        if bad:
            lines.append("%s: %d of %d runs incorrect or without a result"
                         % (side, bad, len(runs)))
            ok = False
        failed = sum(r["failed"] for r in runs if r)
        attempted = sum(r["attempted"] for r in runs if r)
        shares.append(failed / attempted if attempted else 1.0)
        lines.append("%s: %d of %d operations failed"
                     % (side, failed, attempted))
    if shares[1] > shares[0]:
        lines.append("FAIL: the change fails a larger share of operations")
        ok = False
    lines.append("%-12s %-5s %27s %27s %7s %5s %6s %5s  %s" % (
        "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]",
        "delta", "wins", "spread", "bound", "verdict"))
    for m in bench["end_to_end"]:
        name = m["name"]
        base, change = ([r["metrics"][name]["value"] for r in runs
                         if r and name in r["metrics"]]
                        for runs in (base_runs, change_runs))
        if len(base) != len(base_runs) or len(change) != len(change_runs):
            lines.append("%-12s missing" % name)
            ok = False
            continue
        verdict = judge(m, base, change)
        ok &= verdict != "worse"
        mb, mc = statistics.median(base), statistics.median(change)
        (b1, b3), (c1, c3) = quartiles(base), quartiles(change)
        lines.append("%-12s %-5s %9.4g [%7.4g, %7.4g] %9.4g [%7.4g, %7.4g] "
                     "%+6.1f%% %2d/%-2d %6.3f %5.2f  %s" % (
                         name, m["unit"], mb, b1, b3, mc, c1, c3,
                         100 * share(mc - mb, mb), wins(m, base, change),
                         len(base), share(b3 - b1, mb), m["bound"], verdict))
    return lines, ok


def run(root, workload, seed, seconds):
    """One perfbench run in checkout root: its result, or None."""
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.stderr.write(out.stderr[-4000:])
        print("perf_ab: %s seed %d in %s exited %d" %
              (workload, seed, root, out.returncode), file=sys.stderr)
        return None
    return json.loads(lines[-1])


def export(base):
    """build/perf_ab/ := BASE's tree with the working tree's benchmark."""
    shutil.rmtree(EXPORT, ignore_errors=True)
    os.makedirs(EXPORT)
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", base],
                         stdout=subprocess.PIPE)
    if tar.returncode or subprocess.run(["tar", "-x", "-C", EXPORT],
                                        input=tar.stdout).returncode:
        return False
    shutil.rmtree(os.path.join(EXPORT, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(EXPORT, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), EXPORT)
    return True


def main(args):
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: python3 tools/perf_ab.py BASE", file=sys.stderr)
        return 2
    base = args[0]
    if subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
                       base + "^{commit}"], stdout=subprocess.DEVNULL).returncode:
        print("perf_ab: '%s' is not a commit" % base, file=sys.stderr)
        return 2
    start = time.monotonic()
    if not export(base):
        print("perf_ab: cannot export %s" % base, file=sys.stderr)
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sides = (("parent", EXPORT), ("change", ROOT))
    workloads = [w["name"] for w in bench["workloads"]]
    for side, root in sides:
        print("perf_ab: warm-up run of the %s" % side, file=sys.stderr,
              flush=True)
        if not run(root, workloads[0], 0, WARMUP_SECONDS):
            return 1
    results = {(side, w): [] for side, _ in sides for w in workloads}
    for seed in range(1, PAIRS + 1):
        order = sides if seed % 2 else sides[::-1]
        for w in workloads:
            for side, root in order:
                results[side, w].append(
                    run(root, w, seed, bench["run_seconds"]))
            print("perf_ab: pair %d/%d %s done (%s first)" %
                  (seed, PAIRS, w, order[0][0]), file=sys.stderr, flush=True)
    ok = True
    for w in workloads:
        lines, w_ok = judge_workload(bench, results["parent", w],
                                     results["change", w])
        ok &= w_ok
        print("== %s: %s (parent) vs working tree, %d pairs of %d s ==" %
              (w, base, PAIRS, bench["run_seconds"]))
        print("\n".join(lines))
    print("perf_ab: %s in %.0f s" % ("ok" if ok else "FAIL",
                                     time.monotonic() - start))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
