"""Acceptance suite: one test per criterion, one printed line each.

Every criterion runs at its stated tolerance (exact verdicts, set
equality, runtime bounds where given).  Heavy scenario explorations are
shared through session fixtures.  Lines are written through the capture
so they are visible in normal pytest runs.
"""

import random
import sys
import time

import pytest

from tacv import queries as Q
from tacv import world as w
from tacv.contracts import build_cs_model, build_newscs_model, instantiate
from tacv.kernel import explore, replay_trace
from tacv.oracle import explore_discrete
from tacv.world import WorldConstants

from conftest import automaton_index
from zonekit import canonicalize, from_constraints

CS_PAPER = WorldConstants(10, 100)
CS_REDUCED = WorldConstants(2, 5)
NEWSCS_REDUCED = WorldConstants(1, 5)
MARGIN_CONSTANTS = WorldConstants(3, 13)


def report(criterion, ok, detail):
    line = "[criterion %s] %s - %s" % (criterion, "PASS" if ok else "FAIL", detail)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def run_query(model, adversary, name, **kw):
    net, ctx = instantiate(model, adversary=adversary)
    q = Q.parse_query(model.queries[name], ctx)
    res = explore(net, check=Q.make_checker(q), **kw)
    return res, net, q


@pytest.fixture(scope="session")
def newscs_fixed():
    return build_newscs_model(NEWSCS_REDUCED)


def test_criterion_1_cs_bob_security(capsys):
    """CS, adversary Alice, Bob's security property: SATISFIED at paper
    and reduced constants, well under a minute each."""
    timings = []
    for constants in (CS_PAPER, CS_REDUCED):
        t0 = time.monotonic()
        res, _n, _q = run_query(build_cs_model(constants), "ALICE", "bob_security")
        dt = time.monotonic() - t0
        timings.append(dt)
        assert res.verdict == "SATISFIED", constants
        assert dt < 60, "took %.1fs at %s" % (dt, constants)
    report(1, True, "bob_security SATISFIED at (10,100) in %.2fs and (2,5) in %.2fs"
           % (timings[0], timings[1]))


def test_criterion_2_cs_negative_properties(capsys):
    """The two diagnostic properties are violated with a replayable
    trace when a party is adversarial and hold when both are honest."""
    for constants in (CS_PAPER, CS_REDUCED):
        model = build_cs_model(constants)
        for name in ("bob_knows_secret", "alice_holds_deposit"):
            res, net, q = run_query(model, "ALICE", name)
            assert res.verdict == "VIOLATED", (name, constants)
            final = replay_trace(net, res.trace)
            assert Q.evaluate(final, q) is not None
            res_h, _n, _q = run_query(model, None, name)
            assert res_h.verdict == "SATISFIED", (name, constants)
    report(2, True, "negative properties VIOLATED+replayable vs adversary, "
                    "SATISFIED honest-honest, both scales")


def test_criterion_3_cs_alice_safety(capsys):
    """CS, adversary Bob: Alice ends holding her coin."""
    for constants in (CS_PAPER, CS_REDUCED):
        res, _n, _q = run_query(build_cs_model(constants), "BOB", "alice_security")
        assert res.verdict == "SATISFIED", constants
    report(3, True, "alice_security SATISFIED vs adversary Bob, both scales")


def test_criterion_4_newscs_properties(capsys, newscs_fixed):
    """NewSCS properties hold for honest execution and in both
    adversarial directions at reduced constants, under 5 minutes each."""
    runs = [
        (None, "both_recover"),
        (None, "bob_no_loss"),
        (None, "alice_no_loss"),
        ("ALICE", "bob_no_loss"),
        ("ALICE", "bob_compensated"),
        ("BOB", "alice_no_loss"),
        ("BOB", "alice_compensated"),
    ]
    worst = 0.0
    for adversary, name in runs:
        t0 = time.monotonic()
        res, _n, _q = run_query(newscs_fixed, adversary, name)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        assert res.verdict == "SATISFIED", (adversary, name)
        assert dt < 300, "%s/%s took %.0fs" % (adversary, name, dt)
    report(4, True, "all NewSCS properties SATISFIED both directions at (1,5), "
                    "worst run %.1fs" % worst)


def test_criterion_5_bug_regression(capsys, newscs_fixed):
    """The single-shot recovery violates property 3 with a trace in
    which neither fuse path confirms; the retrying recovery satisfies it."""
    buggy = build_newscs_model(NEWSCS_REDUCED, buggy_bob=True)
    res, net, q = run_query(buggy, "ALICE", "bob_compensated")
    assert res.verdict == "VIOLATED"
    final = replay_trace(net, res.trace)
    assert Q.evaluate(final, q) is not None
    t = buggy.tx_names
    assert final.data[t["FUSE_A"]] != w.CONFIRMED
    assert final.data[t["CSA_FUSE"]] != w.CONFIRMED

    res_fixed, _n, _q = run_query(newscs_fixed, "ALICE", "bob_compensated")
    assert res_fixed.verdict == "SATISFIED"
    report(5, True, "buggy recovery VIOLATED (no fuse confirmed in trace), "
                    "fixed recovery SATISFIED")


def test_criterion_6_abort_margin_strict(capsys):
    """Abort deadline strictness: margin 3 is safe, margin 2 flips the
    compensation property of the party whose abort rule it is."""
    safe = build_newscs_model(MARGIN_CONSTANTS, abort_margin=3)
    res_safe, _n, _q = run_query(safe, "BOB", "alice_compensated")
    assert res_safe.verdict == "SATISFIED"

    tight = build_newscs_model(MARGIN_CONSTANTS, abort_margin=2)
    res_tight, net, q = run_query(tight, "BOB", "alice_compensated")
    assert res_tight.verdict == "VIOLATED"
    final = replay_trace(net, res_tight.trace)
    assert Q.evaluate(final, q) is not None
    report(6, True, "alice_compensated flips SATISFIED -> VIOLATED when the "
                    "abort moves from t-3L to t-2L at (3,13)")


def test_criterion_7_oracle_equivalence(capsys, newscs_fixed):
    """Zone engine and discrete oracle agree on verdicts and reachable
    (locations, data) sets over the full scenario matrix, plus newscs
    points whose transaction clocks reach 1 (MAX_LATENCY 2), where the
    zone engine extrapolates them."""
    every = (None, "ALICE", "BOB")
    matrix = [
        (build_cs_model(CS_REDUCED), "cs(2,5)", every),
        (newscs_fixed, "newscs(1,5)", every),
        (build_newscs_model(WorldConstants(2, 8)), "newscs(2,8)", (None, "BOB")),
        (build_newscs_model(WorldConstants(2, 7)), "newscs(2,7)", (None,)),
    ]
    checked = 0
    for model, label, adversaries in matrix:
        for adversary in adversaries:
            net, ctx = instantiate(model, adversary=adversary)
            asts, names = [], []
            for qname in sorted(model.queries):
                try:
                    asts.append(Q.parse_query(model.queries[qname], ctx))
                    names.append(qname)
                except Q.QueryError:
                    continue  # references an automaton absent here

            # one zone pass: reachable set plus per-query verdicts
            violated = set()
            checkers = [(i, Q.make_checker(a)) for i, a in enumerate(asts)]

            def watch(state):
                for i, chk in checkers:
                    if i not in violated and chk(state) is not None:
                        violated.add(i)
                return None

            zres = explore(net, check=watch, collect_reachable=True)
            assert zres.verdict == "SATISFIED"
            zone_verdicts = tuple(
                "VIOLATED" if i in violated else "SATISFIED"
                for i in range(len(asts))
            )
            ores, oracle_verdicts = explore_discrete(net, queries=asts)
            assert zres.reachable == ores.reachable, (label, adversary)
            assert zone_verdicts == oracle_verdicts, (label, adversary, names)
            checked += len(asts)
    report(7, True, "verdicts (%d) and reachable sets equal across "
                    "{cs(2,5),newscs(1,5)} x {honest,advA,advB}, newscs(2,8) "
                    "x {honest,advB} and newscs(2,7) honest" % checked)


def test_criterion_8_property_suites(capsys):
    """Randomized DBM oracle (10^4 cases) plus world and location
    invariants (deadlines included) asserted across full CS exploration:
    zero violations."""
    rng = random.Random(8_2026)
    cases = 0
    for _ in range(10_000):
        dim = rng.randint(2, 6)
        atoms = []
        for _a in range(rng.randint(1, 2 * dim)):
            i = rng.randrange(dim)
            j = rng.randrange(dim)
            while j == i:
                j = rng.randrange(dim)
            op = rng.choice(["<=", ">=", "==", "<", ">"])
            atoms.append((i, j, op, rng.randint(-20, 20)))
        z = from_constraints(dim, atoms)
        assert canonicalize(z) == z
        vals = (0,) + tuple(rng.randint(0, 22) for _ in range(dim - 1))
        direct = all(
            {"<": d < k, "<=": d <= k, "==": d == k, ">=": d >= k, ">": d > k}[op]
            for (i, j, op, k) in atoms
            for d in (vals[i] - vals[j],)
        )
        assert z.contains(vals) == direct, atoms
        cases += 1

    # value conservation, status machine, eavesdropping, nonce
    # consistency and the location invariants (the helper's deadlines
    # among them) are asserted on every reachable state
    for adversary in (None, "ALICE", "BOB"):
        net, _ctx = instantiate(
            build_cs_model(CS_REDUCED), adversary=adversary,
            run_world_checks=True,
        )
        res = explore(net, check=None, run_checks=True)
        assert res.verdict == "SATISFIED"
    report(8, True, "%d randomized DBM cases and exhaustive CS invariant "
                    "checks, zero violations" % cases)


def test_criterion_9_malleability(capsys):
    """A stored nonce-0 signature dies when the commitment confirms with
    nonce 1; pre-broadcast signing is exploitable, the shipped committer
    is immune."""
    model = build_cs_model(CS_PAPER)
    net, _ctx = instantiate(model, adversary=None)
    world = net.initial_data
    (_ins, slots), = world.T.sig_slots.values()  # C_KEY over FUSE
    world = w.broadcast_signature(world, 0, 3)
    assert [nonces for nonces, o in slots.items() if world[o]] == [(0,)]
    assert w.know_signature(world, 1, 3, 0)
    world = w.try_to_send(world, 0, 1)
    world = w.try_to_confirm(world, 1, 1)  # malleated confirmation
    assert not w.know_signature(world, 1, 3, 0)

    weakened = build_cs_model(CS_PAPER, weakened_alice=True)
    res_weak, net_w, q = run_query(weakened, None, "bob_accepts")
    assert res_weak.verdict == "VIOLATED"
    final = replay_trace(net_w, res_weak.trace)
    assert final.locs[automaton_index(net_w, "BobTA")] == 2  # failure

    res_shipped, _n, _q = run_query(model, None, "bob_accepts")
    assert res_shipped.verdict == "SATISFIED"
    report(9, True, "nonce mismatch invalidates stored signature; "
                    "pre-broadcast signing VIOLATED, shipped committer immune")
