#!/usr/bin/env python3
"""The benchmark's own test: counters repeat exactly, traced or not.

Runs `run.py` three times on each chosen workload: traced with two
different seeds, and untraced.  Checks that

* the two traced runs report the same kernel.keys, kernel.zone_states,
  kernel.transitions and every `.calls` count (the seed only reorders
  the verifications);
* the untraced run reports the same keys, zone states and transitions
  as the traced ones (the spans change no behaviour);
* every run is correct.

It also prints the tracing overhead: traced verify_s over untraced
verify_s.  Usage, from the root of a checkout:

    python3 perfbench/check_determinism.py [--workload NAME ...]

Each run measures one pass.  Exits 1 when a check fails.  The newscs
workloads take minutes each.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNTERS = ("kernel.keys", "kernel.zone_states", "kernel.transitions")


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.splitlines()
    detail = json.loads(out[-2][len("detail "):])
    return detail, json.loads(out[-1])


def check_workload(workload):
    problems = []
    traced = [bench(workload, seed, 1) for seed in (1, 2)]
    plain, plain_result = bench(workload, 1, 0)

    for detail, result in traced + [(plain, plain_result)]:
        if not result["correct"]:
            problems.append("seed %d trace %d: not correct" % (detail["seed"], detail["trace"]))

    (a, _), (b, _) = traced
    layer_a, layer_b = a["per_layer"], b["per_layer"]
    exact = [n for n in layer_a if n in COUNTERS or n.endswith(".calls")]
    for name in exact:
        if layer_a[name]["value"] != layer_b[name]["value"]:
            problems.append("%s: %r with seed 1, %r with seed 2"
                            % (name, layer_a[name]["value"], layer_b[name]["value"]))
    for name in COUNTERS:
        untraced = plain["per_pass"][name.split(".", 1)[1]]
        if layer_a[name]["value"] != untraced:
            problems.append("%s: %r traced, %r untraced"
                            % (name, layer_a[name]["value"], untraced))

    overhead = a["verify_s"] / plain["verify_s"]
    print("%s: %d exact counts compared, tracing overhead %.2fx verify_s "
          "(traced %.3f s, untraced %.3f s)"
          % (workload, len(exact), overhead, a["verify_s"], plain["verify_s"]))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]],
                        help="repeatable; default cs-suite")
    args = parser.parse_args()
    problems = []
    for workload in args.workload or ["cs-suite"]:
        problems += ["%s: %s" % (workload, p)
                     for p in check_workload(workload)]
    for p in problems:
        print("FAIL " + p)
    print("determinism: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
