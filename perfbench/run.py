#!/usr/bin/env python3
"""Build and run the srpc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py selftest

Run from the root of a checkout. The benchmark executable is built from
source with dune, run with the given arguments, and its result -- the
last line of standard output, one JSON object -- is checked against the
metric names and units declared in BENCHMARK.json before it is passed
on. The exit code is non-zero when the build fails, a check inside the
benchmark fails, or the result does not match the declaration.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def declared():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def check_result(line, spec, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys %s" % sorted(res))
    want = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in want}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items())))
    for k, v in res["metrics"].items():
        if not isinstance(v.get("value"), (int, float)):
            fail("metric %s has no numeric value" % k)
    return res


def main():
    if sys.argv[1:] == ["selftest"]:
        build()
        sys.exit(subprocess.run([EXE, "selftest"], cwd=ROOT, timeout=900).returncode)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()
    spec = declared()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)
    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result (exit code %d)" % proc.returncode)
    res = check_result(lines[-1], spec, args.trace == 1)
    print(proc.stdout, end="")
    if proc.returncode != 0 or not res["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
