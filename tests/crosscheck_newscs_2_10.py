#!/usr/bin/env python3
"""Zone/discrete reachable-set cross-check at newscs(2,10), adversary Alice.

Explores the scenario with the zone engine (`kernel.explore`) and with
the discrete-time oracle (`oracle.explore_discrete`), both without
queries and with the debug checks off, and compares the reachable
(locations, data) sets.  Too slow for the default test run, so the name
keeps pytest from collecting it.  Usage, from the root of a checkout:

    python3 tests/crosscheck_newscs_2_10.py

Prints keys, transitions, seconds and the peak resident set size so
far after each engine, and exits 1 when the reachable sets differ.  The
peak is cumulative over the process, so the oracle runs first and its
figure is its own peak.  The zone engine's figure is the peak of the
whole process, which also counts the oracle's reachable set, held for
the comparison.
"""

import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from tacv.contracts import instantiate  # noqa: E402
from tacv.kernel import explore  # noqa: E402
from tacv.modelio import contract_model  # noqa: E402
from tacv.oracle import explore_discrete  # noqa: E402


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    model = contract_model("newscs", {"MAX_LATENCY": 2, "PROT_TIMELOCK": 10})
    net, _ctx = instantiate(model, adversary="ALICE", run_world_checks=False)

    t0 = time.monotonic()
    ores, _verdicts = explore_discrete(net)
    oracle_s = time.monotonic() - t0
    print("oracle: %d keys, %d transitions, %.1f s, peak RSS %.0f MB"
          % (len(ores.reachable), ores.transitions, oracle_s, peak_rss_mb()))

    t0 = time.monotonic()
    zres = explore(net, run_checks=False, collect_reachable=True)
    zone_s = time.monotonic() - t0
    print("zone:   %d keys, %d transitions, %.1f s, peak RSS %.0f MB"
          % (len(zres.reachable), zres.transitions, zone_s, peak_rss_mb()))

    if zres.reachable != ores.reachable:
        print("reachable sets differ: %d keys only in the zone engine, "
              "%d only in the oracle"
              % (len(zres.reachable - ores.reachable),
                 len(ores.reachable - zres.reachable)))
        return 1
    print("reachable sets equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
