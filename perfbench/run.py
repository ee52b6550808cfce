#!/usr/bin/env python3
"""Real-clock benchmark of the warpcc compiler.

Builds perfbench/harness.exe from this checkout with dune (into
.bench_build) and runs one workload:

    python3 perfbench/run.py --workload fine|coarse --seed N \
        --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
A traced run also leaves its spans, as Chrome trace-event JSON, in
.bench_build/perfbench/.  See perfbench/README.md.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD_DIR, "default", "perfbench", "harness.exe")
BUILD_TIMEOUT_S = 850
HARNESS_SLACK_S = 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    if os.environ.get("OPAM_SWITCH_PREFIX"):
        candidates.append(os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for path in candidates:
        if os.access(path, os.X_OK):
            return path
    fail("dune not found on PATH or in an opam switch")


def build():
    dune = find_dune()
    env = dict(os.environ)
    # dune finds the OCaml compilers next to itself; the shared dune
    # cache would write outside the checkout.
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    env["DUNE_CACHE"] = "disabled"
    cmd = [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/harness.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0 or not os.path.exists(HARNESS):
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec, names = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload " + args.workload)
    build()
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD_DIR, "perfbench",
                             "spans-%s-%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=args.seconds + HARNESS_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    if done.returncode != 0:
        fail("harness exited with code %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    result = json.loads(lines[-1])
    if set(result["metrics"]) != names:
        fail("harness metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(names)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
