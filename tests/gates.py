#!/usr/bin/env python3
"""Run the opt-in gates, one subprocess each.

The gates are the scripts too slow for the default test run: the
zone/discrete cross-check at newscs(2,10), the paper-scale newscs
verdicts, the static domains against the full loops at newscs(1,5), and
3000 random networks.  Its name keeps pytest from collecting it.  Usage,
from the root of a checkout:

    python3 tests/gates.py

Prints one line per gate with its exit code and seconds, and exits 1
when any gate failed.  Each gate's own output goes to the terminal as
it runs.
"""

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GATES = [
    ["crosscheck_newscs_2_10.py"],
    ["paper_scale_newscs.py"],
    ["crosscheck_pruning.py"],
    ["test_random_networks.py", "3000"],
]


def main():
    results = []
    for script, *args in GATES:
        t0 = time.monotonic()
        code = subprocess.call([sys.executable, os.path.join(HERE, script)] + args)
        results.append((" ".join([script] + args), code, time.monotonic() - t0))
    for name, code, seconds in results:
        print("%-32s exit %d  %6.1f s" % (name, code, seconds))
    return 1 if any(code for _name, code, _s in results) else 0


if __name__ == "__main__":
    sys.exit(main())
