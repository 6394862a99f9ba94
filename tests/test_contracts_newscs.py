"""The simultaneous commitment scheme: structure, verdicts, regressions.

Reduced constants (1, 5) keep every confirmation race (same-instant
resolution orders) while collapsing waiting-window interleavings, so the
adversarial matrices verify in seconds.  The abort-margin experiment
needs MAX_LATENCY >= 3: the exploit chains three sequential
confirmations, each gaining at most MAX_LATENCY - 1.
"""

import json
import os

import pytest

from tacv import modelio as M
from tacv import queries as Q
from tacv import world as w
from tacv.contracts import build_newscs_model, instantiate
from tacv.kernel import ModelError, explore, replay_trace
from tacv.world import WorldConstants

REDUCED = WorldConstants(1, 5)


def verdict(model, adversary, query_name, **kw):
    net, ctx = instantiate(model, adversary=adversary)
    q = Q.parse_query(model.queries[query_name], ctx)
    return explore(net, check=Q.make_checker(q), **kw), net, q


@pytest.fixture(scope="module")
def fixed_model():
    return build_newscs_model(REDUCED)


class TestStructure:
    def test_transaction_inventory(self, fixed_model):
        """Sixteen semantically distinct records: four deposits, two
        three-transaction commitment instances, the joint commit with
        its two opens and two fuses, and the abort redeem."""
        t = fixed_model.tx_names
        txs = fixed_model.protocol_txs
        assert len(txs) == 16
        deposits = [txs[t[k]] for k in ("TA1", "TA2", "TB1", "TB2")]
        assert fixed_model.confirmed == tuple(d.num for d in deposits)
        assert all(d.outputs[0].value == 1 for d in deposits)
        joint = txs[t["COMMIT"]]
        assert len(joint.inputs) == 2 and len(joint.outputs) == 2
        assert {o.script_kind for o in joint.outputs} == {"nss"}
        for fuse in ("CSA_FUSE", "CSB_FUSE", "FUSE_A", "FUSE_B"):
            assert txs[t[fuse]].timelock == REDUCED.prot_timelock
        assert txs[t["FUSE_A"]].reveals == (fixed_model.secret_names["RA_SEC"],)
        assert txs[t["REDEEM_A2"]].inputs == ((t["TA2"], 0),)

    def test_joint_outputs_interlock_secrets(self, fixed_model):
        sn = fixed_model.secret_names
        kn = fixed_model.key_names
        out1, out2 = fixed_model.protocol_txs[fixed_model.tx_names["COMMIT"]].outputs
        c1 = fixed_model.nss_table[out1.script_ref]
        c2 = fixed_model.nss_table[out2.script_ref]
        assert c1 == (
            w.NssClause((kn["A_KEY"],), (sn["SA_SEC"],)),
            w.NssClause((kn["B_KEY"],), (sn["RA_SEC"],)),
        )
        assert c2 == (
            w.NssClause((kn["B_KEY"],), (sn["SB_SEC"],)),
            w.NssClause((kn["A_KEY"],), (sn["RB_SEC"],)),
        )

    def test_initial_holdings_two_each(self, fixed_model):
        net, _ctx = instantiate(fixed_model, adversary=None)
        assert w.hold_bitcoins(net.initial_data, 0) == 2
        assert w.hold_bitcoins(net.initial_data, 1) == 2

    def test_margin_requires_room(self):
        with pytest.raises(ModelError):
            build_newscs_model(WorldConstants(2, 6), abort_margin=3)


class TestHonestHonest:
    def test_all_properties_hold(self, fixed_model):
        for name in sorted(fixed_model.queries):
            res, _n, _q = verdict(fixed_model, None, name)
            assert res.verdict == "SATISFIED", name

    def test_world_invariants_across_exploration(self, fixed_model):
        net, _ctx = instantiate(fixed_model, adversary=None,
                                run_world_checks=True)
        res = explore(net, check=None, run_checks=True)
        assert res.verdict == "SATISFIED"


class TestAdversarial:
    def test_bob_safe_against_adversary_alice(self, fixed_model):
        for name in ("bob_no_loss", "bob_compensated"):
            res, _n, _q = verdict(fixed_model, "ALICE", name)
            assert res.verdict == "SATISFIED", name

    def test_alice_safe_against_adversary_bob(self, fixed_model):
        for name in ("alice_no_loss", "alice_compensated"):
            res, _n, _q = verdict(fixed_model, "BOB", name)
            assert res.verdict == "SATISFIED", name


class TestBugRegression:
    def test_buggy_bob_violates_compensation(self):
        buggy = build_newscs_model(REDUCED, buggy_bob=True)
        res, net, q = verdict(buggy, "ALICE", "bob_compensated")
        assert res.verdict == "VIOLATED"
        final = replay_trace(net, res.trace)
        assert Q.evaluate(final, q) is not None
        # the losing run confirms neither the joint fuse nor the
        # sub-commitment fuse for Bob
        t = buggy.tx_names
        assert final.data[t["FUSE_A"]] != w.CONFIRMED
        assert final.data[t["CSA_FUSE"]] != w.CONFIRMED

    def test_buggy_bob_still_keeps_two(self):
        buggy = build_newscs_model(REDUCED, buggy_bob=True)
        res, _n, _q = verdict(buggy, "ALICE", "bob_no_loss")
        assert res.verdict == "SATISFIED"

    def test_fixed_bob_satisfies_compensation(self, fixed_model):
        res, _n, _q = verdict(fixed_model, "ALICE", "bob_compensated")
        assert res.verdict == "SATISFIED"


class TestAbortMargin:
    """The abort deadline PROT_TIMELOCK - 3*MAX_LATENCY is strict."""

    CONSTANTS = WorldConstants(3, 13)

    def test_protocol_margin_safe(self):
        model = build_newscs_model(self.CONSTANTS, abort_margin=3)
        res, _n, _q = verdict(model, "BOB", "alice_compensated")
        assert res.verdict == "SATISFIED"

    def test_tighter_margin_exploitable(self):
        # one pass checks alice_compensated and alice_no_loss together
        model = build_newscs_model(self.CONSTANTS, abort_margin=2)
        net, ctx = instantiate(model, adversary="BOB")
        q, no_loss = (Q.parse_query(model.queries[n], ctx)
                      for n in ("alice_compensated", "alice_no_loss"))
        res = explore(net, check=[Q.make_checker(q), Q.make_checker(no_loss)])
        assert res.verdicts == ("VIOLATED", "VIOLATED")
        trace = res.traces[0]
        final = replay_trace(net, res.traces[1])
        assert Q.evaluate(final, no_loss) is not None
        final = replay_trace(net, trace)
        assert Q.evaluate(final, q) is not None
        # the attack waits with the commit broadcast until her abort
        # instant, then races her sequenced sub-commitment open
        t = model.tx_names
        assert final.data[t["CSA_OPEN"]] == w.CANCELED
        assert final.data[t["CSA_FUSE"]] == w.CONFIRMED
        # the counterexample replays on its own, with the margin it was
        # found at; without its variant it meets margin 3, whose abort
        # deadline 13 - 3*3 = 4 it overruns
        doc = json.loads(json.dumps(M.trace_to_document(
            trace, net, model, "BOB", model.queries["alice_compensated"])))
        assert doc["variant"]["abort_margin"] == 2
        final = M.replay_document(doc)
        assert Q.evaluate(final, q) is not None
        del doc["variant"]
        with pytest.raises(M.TraceReplayError, match="invariant time <= 4 broken"):
            M.replay_document(doc)


class TestAbortDeadlineLaw:
    """`alice_compensated` and `alice_no_loss` against adversary Bob hold
    exactly when the abort deadline lies at least 3*(MAX_LATENCY - 1) + 1
    before PROT_TIMELOCK; the pair at MAX_LATENCY = 2, PROT_TIMELOCK = 9."""

    CONSTANTS = {"MAX_LATENCY": 2, "PROT_TIMELOCK": 9}
    QUERIES = ("alice_compensated", "alice_no_loss")

    def explored(self, model):
        # one pass checks both queries
        net, ctx = instantiate(model, adversary="BOB")
        asts = [Q.parse_query(model.queries[n], ctx) for n in self.QUERIES]
        return explore(net, check=[Q.make_checker(q) for q in asts]), net, asts

    def test_offset_three_violated_and_replays(self):
        # no abort_margin gives offset 3 at MAX_LATENCY = 2: edit the line
        line = "abort = PROT_TIMELOCK - ABORT_MARGIN*MAX_LATENCY"
        with open(os.path.join(M.MODELS_DIR, "newscs.model")) as f:
            text = f.read()
        assert line in text
        model = M.build_model(text.replace(line, "abort = PROT_TIMELOCK - 3"),
                              "newscs_abort_offset_3", self.CONSTANTS)
        res, net, asts = self.explored(model)
        assert res.verdicts == ("VIOLATED", "VIOLATED")
        assert [len(t.steps) for t in res.traces] == [36, 24]
        for trace, q in zip(res.traces, asts):
            final = replay_trace(net, trace)
            assert Q.evaluate(final, q) is not None

    def test_offset_four_satisfied(self):
        # abort margin 2 is an offset of 4
        model = build_newscs_model(WorldConstants(2, 9), abort_margin=2)
        res, _n, _q = self.explored(model)
        assert res.verdicts == ("SATISFIED", "SATISFIED")
        assert res.states == 21030


class TestTimelockLaw:
    """`bob_no_loss` against adversary Alice holds exactly when
    PROT_TIMELOCK >= 4*MAX_LATENCY; the pair at MAX_LATENCY = 2."""

    def test_one_below_violated_and_replays(self):
        model = build_newscs_model(WorldConstants(2, 7))
        res, net, q = verdict(model, "ALICE", "bob_no_loss")
        assert res.verdict == "VIOLATED"
        doc = json.loads(json.dumps(M.trace_to_document(
            res.trace, net, model, "ALICE", model.queries["bob_no_loss"])))
        steps = doc["steps"]
        assert len(steps) == 13
        # Bob quits at the abort tick T - 3L = 1, while his sub-commitment
        # is still SENT, and the chain confirms it at the same instant
        quit_at = [step["label"] for step in steps].index("BobJointTA.quit")
        quit, confirm = steps[quit_at:quit_at + 2]
        assert confirm["label"] == "BlockChainAgentTA.confirm"
        assert quit["clocks"]["time"] == confirm["clocks"]["time"] == 1
        assert quit["statuses"]["CSB_COMMIT"] == "SENT"
        assert confirm["statuses"]["CSB_COMMIT"] == "CONFIRMED"
        final = M.replay_document(doc)
        assert Q.evaluate(final, q) is not None

    def test_boundary_satisfied(self):
        model = build_newscs_model(WorldConstants(2, 8))
        res, _n, _q = verdict(model, "ALICE", "bob_no_loss")
        assert res.verdict == "SATISFIED"
        assert res.states == 46774
