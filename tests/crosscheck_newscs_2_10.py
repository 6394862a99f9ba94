#!/usr/bin/env python3
"""Zone/discrete reachable-set cross-check at newscs(2,10), adversary Alice.

Explores the scenario with the zone engine (`kernel.explore`) and with
the discrete-time oracle (`oracle.explore_discrete`), both without
queries and with the debug checks off, and compares the reachable
(locations, data) sets.  Too slow for the default test run, so the name
keeps pytest from collecting it.  Usage, from the root of a checkout:

    python3 tests/crosscheck_newscs_2_10.py

Each engine runs in its own child process, the oracle first and then
the zone engine, one after the other.  A child sends back its counters
and its reachable set, with each valuation as plain bytes; the parent
prints keys, transitions, seconds and that child's peak resident set
size after each engine, so each figure is the engine's own peak.  The
parent compares the two sets and exits 1 when they differ.
"""

import os
import pickle
import resource
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from tacv.contracts import instantiate  # noqa: E402
from tacv.kernel import explore  # noqa: E402
from tacv.modelio import contract_model  # noqa: E402
from tacv.oracle import explore_discrete  # noqa: E402


def run_engine(name):
    """Run one engine; write (transitions, seconds, peak RSS in MB,
    reachable set) to standard output as a pickle."""
    model = contract_model("newscs", {"MAX_LATENCY": 2, "PROT_TIMELOCK": 10})
    net, _ctx = instantiate(model, adversary="ALICE", run_world_checks=False)
    t0 = time.monotonic()
    if name == "oracle":
        res, _verdicts = explore_discrete(net)
    else:
        res = explore(net, run_checks=False, collect_reachable=True)
    seconds = time.monotonic() - t0
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reachable = frozenset((locs, bytes(data)) for locs, data in res.reachable)
    pickle.dump((res.transitions, seconds, peak, reachable), sys.stdout.buffer)


def engine_child(name):
    """Run `name` in a child process and print its line; its reachable set."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), name],
                         stdout=subprocess.PIPE, check=True).stdout
    transitions, seconds, peak, reachable = pickle.loads(out)
    print("%-7s %d keys, %d transitions, %.1f s, peak RSS %.0f MB"
          % (name + ":", len(reachable), transitions, seconds, peak), flush=True)
    return reachable


def main():
    ores = engine_child("oracle")
    zres = engine_child("zone")
    if zres != ores:
        print("reachable sets differ: %d keys only in the zone engine, "
              "%d only in the oracle" % (len(zres - ores), len(ores - zres)))
        return 1
    print("reachable sets equal")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] in (["oracle"], ["zone"]):  # a child of `engine_child`
        run_engine(sys.argv[1])
    else:
        sys.exit(main())
