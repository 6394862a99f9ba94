#!/usr/bin/env python3
"""The static select domains against the full loops at newscs(1,5).

For Bob and then Alice as the adversary, explores the network of
`contracts.instantiate` and the network whose adversary loop and chain
agent cover every transaction (`full_loop` in tests/test_adversary.py).
The first leaves out of the adversary's loop the sweeps no guard,
holding or query can observe and the transactions it can never script,
and the chain agent confirms only the transactions that can be sent.
It compares the verdicts of the model's default queries and the
reachable keys projected onto what a guard, holding or query can see
(see `observable` in tests/test_adversary.py).  The full loops with
Alice take about half a minute, so the name keeps pytest from
collecting it.  Usage, from the root of a checkout:

    python3 tests/crosscheck_pruning.py

Prints the verdicts, the projected key counts (static/full) and the
seconds per adversary, and exits 1 when anything differs.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from tacv.modelio import contract_model  # noqa: E402
from test_adversary import compare_with_full_loop  # noqa: E402


def main():
    model = contract_model("newscs", {"MAX_LATENCY": 1, "PROT_TIMELOCK": 5})
    problems = 0
    for adversary in ("BOB", "ALICE"):
        t0 = time.monotonic()
        (pruned_verdicts, pruned), (full_verdicts, full) = compare_with_full_loop(
            model, adversary)
        print("%s: verdicts %s / %s, projected keys %d/%d, %.1f s"
              % (adversary, ",".join(pruned_verdicts), ",".join(full_verdicts),
                 len(pruned), len(full), time.monotonic() - t0))
        if pruned_verdicts != full_verdicts or pruned != full:
            print("%s: the domains differ from the full loops: %d projected keys "
                  "only static, %d only full"
                  % (adversary, len(pruned - full), len(full - pruned)))
            problems += 1
    print("%d problems" % problems)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
