"""The timed commitment scheme: verdicts, traces, invariants.

The verdict matrix mirrors the verification results reported for the
scheme: the recipient's security property holds against a malicious
committer, the committer never loses her deposit against a malicious
recipient, and the two diagnostic properties (recipient learns the
secret / committer holds her coin) hold exactly when both parties are
honest.
"""

import pytest

from tacv import queries as Q
from tacv import world as w
from tacv.contracts import build_cs_model, instantiate
from tacv.kernel import explore, replay_trace
from tacv.world import WorldConstants

from zonekit import min_value

REDUCED = WorldConstants(2, 5)
PAPER = WorldConstants(10, 100)


def verdict(model, adversary, query_name, **kw):
    net, ctx = instantiate(model, adversary=adversary)
    q = Q.parse_query(model.queries[query_name], ctx)
    return explore(net, check=Q.make_checker(q), **kw), net, q


@pytest.fixture(scope="module", params=[REDUCED, PAPER], ids=["reduced", "paper"])
def constants(request):
    return request.param


class TestVerdictMatrix:
    def test_bob_security_holds_against_adversary(self, constants):
        res, _n, _q = verdict(build_cs_model(constants), "ALICE", "bob_security")
        assert res.verdict == "SATISFIED"

    def test_negatives_violated_with_adversary(self, constants):
        model = build_cs_model(constants)
        for name in ("bob_knows_secret", "alice_holds_deposit"):
            res, net, q = verdict(model, "ALICE", name)
            assert res.verdict == "VIOLATED"
            final = replay_trace(net, res.trace)
            assert Q.evaluate(final, q) is not None  # genuinely violating

    def test_negatives_hold_honest_honest(self, constants):
        model = build_cs_model(constants)
        for name in ("bob_knows_secret", "alice_holds_deposit"):
            res, _n, _q = verdict(model, None, name)
            assert res.verdict == "SATISFIED"

    def test_alice_never_loses_against_adversary_bob(self, constants):
        res, _n, _q = verdict(build_cs_model(constants), "BOB", "alice_security")
        assert res.verdict == "SATISFIED"

    def test_honest_honest_never_fails(self, constants):
        res, _n, _q = verdict(build_cs_model(constants), None, "bob_accepts")
        assert res.verdict == "SATISFIED"


class TestMalleability:
    def test_weakened_alice_loses_acceptance(self):
        model = build_cs_model(PAPER, weakened_alice=True)
        res, net, _q = verdict(model, None, "bob_accepts")
        assert res.verdict == "VIOLATED"
        # the losing run confirms the commitment with a fresh nonce,
        # killing the pre-broadcast signature, which the pool still holds
        final = replay_trace(net, res.trace)
        T = final.data.T
        assert final.data[T.nonce + 1] == 1
        (_ins, slots), = T.sig_slots.values()  # C_KEY over FUSE
        assert [n for n, o in slots.items() if final.data[o]] == [(0,)]
        assert not w.know_signature(final.data, 1, 3, 0)

    def test_shipped_alice_immune(self):
        res, _n, _q = verdict(build_cs_model(PAPER), None, "bob_accepts")
        assert res.verdict == "SATISFIED"


class TestExplorationInvariants:
    """World invariants asserted on every reachable state (criterion 8)."""

    @pytest.mark.parametrize("adversary", [None, "ALICE", "BOB"])
    def test_full_exploration_with_checks(self, adversary):
        model = build_cs_model(REDUCED)
        net, _ctx = instantiate(model, adversary=adversary,
                                run_world_checks=True)
        res = explore(net, check=None, run_checks=True)
        assert res.verdict == "SATISFIED"

    def test_deposit_always_exactly_one_btc(self):
        model = build_cs_model(REDUCED)
        net, _ctx = instantiate(model, adversary="ALICE")

        def check(state):
            data = state.data
            live = sum(
                out.value
                for tx in data.T.txs if data[tx.num] == w.CONFIRMED
                for out, spent in zip(tx.outputs, data.T.spent[tx.num])
                if not data[spent]
            )
            assert live == 1
            return None

        explore(net, check=check)


class TestTraces:
    def test_violation_trace_replays_deterministically(self):
        model = build_cs_model(REDUCED)
        res, net, _q = verdict(model, "ALICE", "bob_knows_secret")
        res2, _n2, _q2 = verdict(model, "ALICE", "bob_knows_secret")
        assert [s.descriptor for s in res.trace.steps] == \
               [s.descriptor for s in res2.trace.steps]
        final = replay_trace(net, res.trace)
        assert not w.know_secret(final.data, 1, 0)

    def test_honest_run_ends_with_open_confirmed(self):
        model = build_cs_model(REDUCED)
        net, _ctx = instantiate(model, adversary=None)

        def check(state):
            # final settled states: OPEN confirmed, FUSE never confirmed
            if state.data[2] == w.CONFIRMED:
                assert state.data[3] in (w.UNSENT, w.CANCELED)
            return None

        res = explore(net, check=check)
        assert res.verdict == "SATISFIED"

    def test_subsumption_invariant(self):
        model = build_cs_model(REDUCED)
        net, ctx = instantiate(model, adversary="ALICE")
        q = Q.parse_query(model.queries["bob_security"], ctx)
        with_sub = explore(net, check=Q.make_checker(q), subsumption=True)
        without = explore(net, check=Q.make_checker(q), subsumption=False)
        assert with_sub.verdict == without.verdict == "SATISFIED"
        qn = Q.parse_query(model.queries["bob_knows_secret"], ctx)
        v1 = explore(net, check=Q.make_checker(qn), subsumption=True)
        v2 = explore(net, check=Q.make_checker(qn), subsumption=False)
        assert v1.verdict == v2.verdict == "VIOLATED"


class TestAliceWindow:
    def test_alice_opens_by_the_deadline(self):
        # in every honest branch the reveal is broadcast no later than
        # PROT_TIMELOCK - MAX_LATENCY and confirmed before the timelock
        model = build_cs_model(REDUCED)
        net, _ctx = instantiate(model, adversary=None)

        def check(state):
            deadline_passed = state.data[state.data.T.timers]
            if deadline_passed and min_value(state.zone, 1) > REDUCED.prot_timelock - REDUCED.max_latency:
                assert state.data[2] != w.UNSENT
            return None

        explore(net, check=check)
