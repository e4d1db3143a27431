#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload <fj-pure|fj-entangled|pml> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds the runtime and the benchmark from source into .bench_build/ at the
root of the checkout (the first run pays for the build), then runs one
workload. The last line of stdout is the result as one JSON object; build
output and the readable summary go to stderr. A traced run (--trace 1) also
writes its spans to .bench_build/spans/<workload>-seed<n>.json.

The program's own observability planes and JIT switches (every MPL_*
variable) are cleared, so a run measures the runtime at its defaults.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no runtime sources at src/ in this checkout",
              file=sys.stderr)
        return None
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "--build", BUILD, "--target", target, "--parallel", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(BUILD, target)


def flag(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPL_")}
    if args == ["--self-test"]:
        test = build("perfbench_test")
        return subprocess.run([test], env=env).returncode if test else 1

    for required in ("--workload", "--seed", "--seconds", "--trace"):
        if flag(args, required) is None:
            print("perfbench: missing " + required, file=sys.stderr)
            return 2
    binary = build("perfbench")
    if not binary:
        return 1
    cmd = [binary] + args
    if flag(args, "--trace") == "1":
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%s.json" % (flag(args, "--workload"),
                                      flag(args, "--seed")))]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
