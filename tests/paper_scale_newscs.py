#!/usr/bin/env python3
"""The newscs verdicts at the paper's constants, MAX_LATENCY 10 and
PROT_TIMELOCK 100.

Runs the zone engine on eight scenarios: no adversary, Alice and Bob,
each with the shipped model, with `buggy_bob` (Bob's single-shot
recovery) and with `abort_margin = 2` (the abort deadline one latency
later), except `buggy_bob` against adversary Bob.  One pass per
scenario checks every named query with the debug checks on.  Too slow
for the default test run, so the name keeps pytest from collecting it.
Usage, from the root of a checkout:

    python3 tests/paper_scale_newscs.py

Prints keys, transitions, seconds and verdicts per scenario, and exits
1 when a key count or a verdict differs from `EXPECTED`, or when a
counterexample, written as a trace document and read back from JSON,
fails `modelio.replay_document`.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from tacv import queries as Q  # noqa: E402
from tacv.contracts import instantiate  # noqa: E402
from tacv.kernel import explore  # noqa: E402
from tacv.modelio import (  # noqa: E402
    TraceReplayError, contract_model, replay_document, trace_to_document,
)

CONSTANTS = {"MAX_LATENCY": 10, "PROT_TIMELOCK": 100}
VARIANTS = {"shipped": {}, "buggy_bob": {"buggy_bob": True},
            "abort_margin=2": {"abort_margin": 2}}

# (adversary, variant) -> (keys, the queries VIOLATED); every other
# query is SATISFIED
EXPECTED = {
    (None, "shipped"): (308, set()),
    (None, "buggy_bob"): (300, set()),
    (None, "abort_margin=2"): (308, set()),
    ("ALICE", "shipped"): (36756, {"alice_no_loss", "both_recover"}),
    ("ALICE", "buggy_bob"): (35476, {"alice_no_loss", "both_recover",
                                     "bob_compensated"}),
    ("ALICE", "abort_margin=2"): (36756, {"alice_no_loss", "both_recover"}),
    ("BOB", "shipped"): (20022, {"bob_no_loss", "both_recover"}),
    ("BOB", "abort_margin=2"): (34470, {"bob_no_loss", "both_recover",
                                        "alice_no_loss", "alice_compensated"}),
}


def scenario_problems(adversary, variant):
    """Run one scenario, print its row and return its problems as text."""
    model = contract_model("newscs", CONSTANTS, VARIANTS[variant])
    net, ctx = instantiate(model, adversary=adversary)
    names = sorted(model.queries)
    asts = [Q.parse_query(model.queries[name], ctx) for name in names]
    t0 = time.monotonic()
    res = explore(net, check=Q.make_checkers(asts))
    seconds = time.monotonic() - t0
    violated = {name for name, v in zip(names, res.verdicts) if v == "VIOLATED"}
    print("%-5s %-14s %6d keys, %7d transitions, %5.1f s, VIOLATED: %s"
          % (adversary or "none", variant, res.states, res.transitions,
             seconds, ", ".join(sorted(violated)) or "none"), flush=True)

    keys, expected = EXPECTED[adversary, variant]
    found = []
    if res.states != keys:
        found.append("%d keys, expected %d" % (res.states, keys))
    if violated != expected:
        found.append("verdicts %s, expected VIOLATED: %s"
                     % (dict(zip(names, res.verdicts)), sorted(expected)))
    for name, ast, trace in zip(names, asts, res.traces):
        if trace is None:
            continue
        doc = trace_to_document(trace, net, model, adversary, ast.source)
        try:
            replay_document(json.loads(json.dumps(doc)))
        except TraceReplayError as exc:
            found.append("counterexample to %s does not replay: %s" % (name, exc))
    return ["%s %s: %s" % (adversary or "none", variant, p) for p in found]


def main():
    problems = []
    for adversary, variant in EXPECTED:
        problems += scenario_problems(adversary, variant)
    for p in problems:
        print(p)
    print("%d problems" % len(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
