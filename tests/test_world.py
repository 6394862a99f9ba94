"""Block-chain world semantics: signatures, scripts, sending, confirmation."""

import pytest

from tacv import queries as Q
from tacv import world as w
from tacv.contracts import build_cs_model, build_newscs_model, instantiate
from tacv.kernel import ModelError, ModelInvariantError, explore
from tacv.modelio import build_model
from tacv.oracle import explore_discrete


C_KEY, R_KEY = 0, 1
C_SEC = 0
ALICE, BOB, ADV = 0, 1, 2
INPUT, COMMIT, OPEN, FUSE = 0, 1, 2, 3

# NSS 0: reveal the committed secret under the committer's key, or both keys
NSS = (
    (
        w.NssClause(keys=(C_KEY,), secrets=(C_SEC,)),
        w.NssClause(keys=(C_KEY, R_KEY), secrets=()),
    ),
)


def cs_world(prot_timelock=100):
    def out(kind, ref):
        return (w.Output(kind, ref, 1),)

    txs = (
        w.TxRecord(INPUT, ((INPUT, 0),), out("key", C_KEY),
                   status=w.CONFIRMED, timelock_passed=True),
        w.TxRecord(COMMIT, ((INPUT, 0),), out("nss", 0), timelock_passed=True),
        w.TxRecord(OPEN, ((COMMIT, 0),), out("key", C_KEY),
                   timelock_passed=True, reveals=(C_SEC,)),
        w.TxRecord(FUSE, ((COMMIT, 0),), out("key", R_KEY),
                   timelock=prot_timelock),
    )
    parties = (
        w.PartyKnowledge((True, False), (True,)),   # Alice: C_KEY, C_SEC
        w.PartyKnowledge((False, True), (False,)),  # Bob: R_KEY
        w.PartyKnowledge((False, False), (False,)),
    )
    return w.World(txs, parties, timers=(False,))


class TestSignatures:
    def test_key_knowledge_suffices(self):
        ww = cs_world()
        assert w.know_signature(ww, BOB, ww.txs[FUSE], R_KEY)

    def test_stored_signature_checked_against_current_nonce(self):
        ww = cs_world()
        sig = w.SignatureRec(C_KEY, FUSE, (0,))
        ww = w.broadcast_signature(ww, sig, capacity=1)
        assert w.know_signature(ww, BOB, ww.txs[FUSE], C_KEY)
        # malleability: COMMIT confirms with nonce 1, invalidating the record
        ww = ww.replace_tx(COMMIT, ww.txs[COMMIT]._replace(
            status=w.CONFIRMED, nonce=1))
        assert not w.know_signature(ww, BOB, ww.txs[FUSE], C_KEY)

    def test_pool_serves_every_party(self):
        ww = cs_world()
        ww = w.broadcast_signature(ww, w.make_signature(ww, C_KEY, FUSE), 1)
        assert ww.sigs == (w.SignatureRec(C_KEY, FUSE, (0,)),)
        for p in (ALICE, BOB, ADV):
            assert w.know_signature(ww, p, ww.txs[FUSE], C_KEY)

    def test_empty_set_unknown_key(self):
        ww = cs_world()
        assert not w.know_signature(ww, BOB, ww.txs[OPEN], C_KEY)

    def test_capacity_overflow_is_model_error(self):
        ww = cs_world()
        ww = w.broadcast_signature(ww, w.SignatureRec(C_KEY, FUSE, (0,)), 1)
        with pytest.raises(ModelError):
            w.broadcast_signature(ww, w.SignatureRec(C_KEY, FUSE, (1,)), 1)

    def test_duplicate_signature_is_idempotent(self):
        ww = cs_world()
        sig = w.SignatureRec(C_KEY, FUSE, (0,))
        w1 = w.broadcast_signature(ww, sig, 1)
        assert w.broadcast_signature(w1, sig, 1) is w1


# T spends S0 and S1.  Alice signs T once S0 is on chain and before she
# sends S1, and she signs PROBE, which spends S1 alone, before either is
# sent: PROBE's signature stays valid exactly when S1 confirms plain.
# Bob judges T's signature once S1 is on chain, and his location says
# what he found and whether S1 confirmed plain.
TWO_INPUT_MODEL = """
[constants]
MAX_LATENCY = 2
PROT_TIMELOCK = 5

[keys]
A_KEY
B_KEY

[parties]
ALICE: keys = A_KEY
BOB: keys = B_KEY
capacity = 2

[transactions]
F0: inputs = F0:0; outputs = key(A_KEY):1; confirmed
F1: inputs = F1:0; outputs = key(A_KEY):1; confirmed
S0: inputs = F0:0; outputs = key(A_KEY):1
S1: inputs = F1:0; outputs = key(A_KEY):1
T: inputs = S0:0 S1:0; outputs = key(B_KEY):2
PROBE: inputs = S1:0; outputs = key(B_KEY):1

[automaton AliceTA party=ALICE]
location init initial
location sent
location done
edge init -> sent urgent update "broadcast_signature(A_KEY, PROBE); try_to_send(ALICE, S0)"
edge sent -> done urgent guard "on_chain(S0)" update "broadcast_signature(A_KEY, T); try_to_send(ALICE, S1)"

[automaton BobTA party=BOB]
location wait initial
location accepted_plain named
location accepted_malleated named
location refused_plain named
location refused_malleated named
edge wait -> accepted_plain urgent guard "on_chain(S1) and can_create_input_script(BOB, T) and know_signature(BOB, PROBE, A_KEY)"
edge wait -> accepted_malleated urgent guard "on_chain(S1) and can_create_input_script(BOB, T) and not know_signature(BOB, PROBE, A_KEY)"
edge wait -> refused_plain urgent guard "on_chain(S1) and not can_create_input_script(BOB, T) and know_signature(BOB, PROBE, A_KEY)"
edge wait -> refused_malleated urgent guard "on_chain(S1) and not can_create_input_script(BOB, T) and not know_signature(BOB, PROBE, A_KEY)"

[queries]
plain_input_keeps_signature: A[] not BobTA.refused_plain
malleated_input_kills_signature: A[] not BobTA.accepted_malleated
never_accepts: A[] not BobTA.accepted_plain
never_refuses: A[] not BobTA.refused_malleated
"""


class TestTwoInputSignatures:
    """A signature covers every input of the signed transaction: it
    stays valid while each input's nonce is the one recorded at
    signing, whichever input confirms malleated."""

    @pytest.mark.parametrize("s1_nonce,valid", [(0, True), (1, False)],
                             ids=["s1-plain", "s1-malleated"])
    def test_validity_follows_every_input(self, s1_nonce, valid):
        # S0 confirms malleated, then Alice signs T
        model = build_model(TWO_INPUT_MODEL)
        tx, a_key, nss = model.tx_names, model.key_names["A_KEY"], model.nss_table
        ww = instantiate(model)[0].initial_data
        ww = w.try_to_confirm(w.try_to_send(ww, ALICE, tx["S0"], nss), tx["S0"], 1)
        ww = w.broadcast_signature(ww, w.make_signature(ww, a_key, tx["T"]),
                                   model.sig_capacity)
        assert ww.sigs == (w.SignatureRec(a_key, tx["T"], (1, 0)),)
        ww = w.try_to_confirm(w.try_to_send(ww, ALICE, tx["S1"], nss), tx["S1"], s1_nonce)
        assert w.know_signature(ww, BOB, ww.txs[tx["T"]], a_key) is valid
        assert w.can_create_input_script(ww, BOB, ww.txs[tx["T"]], nss) is valid

    def test_engines_agree_on_the_model(self):
        model = build_model(TWO_INPUT_MODEL)
        assert model.signed_txs == (model.tx_names["T"], model.tx_names["PROBE"])
        net, ctx = instantiate(model)
        names = sorted(model.queries)
        asts = [Q.parse_query(model.queries[n], ctx) for n in names]
        zone = explore(net, check=[Q.make_checker(a) for a in asts],
                       collect_reachable=True)
        oracle, verdicts = explore_discrete(net, queries=asts)
        assert zone.reachable == oracle.reachable
        assert dict(zip(names, zone.verdicts)) == dict(zip(names, verdicts)) == {
            "plain_input_keeps_signature": "SATISFIED",
            "malleated_input_kills_signature": "SATISFIED",
            "never_accepts": "VIOLATED",
            "never_refuses": "VIOLATED",
        }


class TestInputScripts:
    def test_alice_can_open_with_secret(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT, NSS)
        ww = w.try_to_confirm(ww, COMMIT, 0)
        assert w.can_create_input_script(ww, ALICE, ww.txs[OPEN], NSS)

    def test_bob_needs_alices_signature_for_fuse(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT, NSS)
        ww = w.try_to_confirm(ww, COMMIT, 0)
        assert not w.can_create_input_script(ww, BOB, ww.txs[FUSE], NSS)
        ww = w.broadcast_signature(ww, w.make_signature(ww, C_KEY, FUSE), 1)
        assert w.can_create_input_script(ww, BOB, ww.txs[FUSE], NSS)

    def test_zero_inputs_vacuously_true(self):
        ww = cs_world()
        ghost = w.TxRecord(9, (), (w.Output("key", C_KEY, 1),))
        assert w.can_create_input_script(ww, BOB, ghost, NSS)

    def test_reveal_required_in_spending_tx(self):
        # a transaction that does not itself reveal the secret cannot use
        # the reveal clause, whatever the party knows
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT, NSS)
        ww = w.try_to_confirm(ww, COMMIT, 0)
        sweep = w.TxRecord(9, ((COMMIT, 0),), (w.Output("key", C_KEY, 1),),
                           timelock_passed=True)
        assert not w.can_create_input_script(ww, ALICE, sweep, NSS)


class TestSendConfirm:
    def test_send_reveals_secret_to_everyone(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT, NSS)
        ww = w.try_to_confirm(ww, COMMIT, 0)
        ww = w.try_to_send(ww, ALICE, OPEN, NSS)
        assert ww.txs[OPEN].status == w.SENT
        for p in range(3):
            assert ww.parties[p].know_secret[C_SEC]

    def test_send_respects_timelock(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT, NSS)
        ww = w.try_to_confirm(ww, COMMIT, 0)
        ww = w.broadcast_signature(ww, w.make_signature(ww, C_KEY, FUSE), 1)
        before = ww
        assert w.try_to_send(ww, BOB, FUSE, NSS) == before  # timelock pending
        ww = ww.replace_tx(FUSE, ww.txs[FUSE]._replace(timelock_passed=True))
        assert w.try_to_send(ww, BOB, FUSE, NSS).txs[FUSE].status == w.SENT

    def test_already_sent_is_noop(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT, NSS)
        assert w.try_to_send(ww, ALICE, COMMIT, NSS) == ww

    def test_double_spend_race_cancels_loser(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT, NSS)
        ww = w.try_to_confirm(ww, COMMIT, 0)
        ww = w.try_to_send(ww, ALICE, OPEN, NSS)
        ww = ww.replace_tx(FUSE, ww.txs[FUSE]._replace(timelock_passed=True))
        ww = w.broadcast_signature(ww, w.make_signature(ww, C_KEY, FUSE), 1)
        ww = w.try_to_send(ww, BOB, FUSE, NSS)
        assert ww.txs[OPEN].status == w.SENT and ww.txs[FUSE].status == w.SENT
        ww = w.try_to_confirm(ww, OPEN, 0)
        ww = w.try_to_confirm(ww, FUSE, 0)
        assert ww.txs[OPEN].status == w.CONFIRMED
        assert ww.txs[FUSE].status == w.CANCELED
        assert ww.txs[COMMIT].status == w.SPENT

    def test_confirm_with_nonce_marks_malleation(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT, NSS)
        ww = w.try_to_confirm(ww, COMMIT, 1)
        assert ww.txs[COMMIT].nonce == 1
        w.check_nonce_consistency(ww)


class TestHoldings:
    def test_initial_alice_holds_deposit(self):
        ww = cs_world()
        assert w.hold_bitcoins(ww, ALICE) == 1
        assert w.hold_bitcoins(ww, BOB) == 0

    def test_cloned_keys_count_for_nobody(self):
        ww = cs_world()
        adv = ww.parties[ALICE]
        ww = ww.replace_party(ADV, adv)
        assert w.hold_bitcoins(ww, ALICE) == 0
        assert w.hold_bitcoins(ww, ADV) == 0

    def test_no_confirmed_outputs(self):
        ww = cs_world()
        ww = ww.replace_tx(INPUT, ww.txs[INPUT]._replace(status=w.UNSENT))
        assert w.hold_bitcoins(ww, ALICE) == 0

    def test_spent_output_of_confirmed_tx_counts_for_nobody(self):
        ww = cs_world()
        split = ww.txs[INPUT]._replace(outputs=(
            w.Output("key", C_KEY, 1, spent=True), w.Output("key", C_KEY, 2)))
        ww = ww.replace_tx(INPUT, split)
        assert w.hold_bitcoins(ww, ALICE) == 2 == reference_holdings(ww, ALICE)

    @pytest.mark.parametrize("build, constants, adversary", [
        (build_cs_model, (2, 5), "ALICE"),
        (build_newscs_model, (1, 5), None),
    ])
    def test_matches_reference_on_every_reachable_world(
            self, build, constants, adversary):
        net, _ctx = instantiate(build(w.WorldConstants(*constants)),
                                adversary=adversary)
        reachable = explore(net, collect_reachable=True).reachable
        worlds = {data for _locs, data in reachable}
        assert len(worlds) > 50
        for ww in worlds:
            for party in range(len(ww.parties)):
                assert w.hold_bitcoins(ww, party) == reference_holdings(ww, party)


def reference_holdings(world, party):
    """Holdings by their definition: an unspent standard output of a
    CONFIRMED transaction counts for a party that knows its key when no
    other party does."""
    def owns(p, out):
        return (out.script_kind == "key" and not out.spent
                and world.parties[p].know_key[out.script_ref])

    total = 0
    for tx in world.txs:
        if tx.status != w.CONFIRMED:
            continue
        for out in tx.outputs:
            owners = sum(1 for p in range(len(world.parties)) if owns(p, out))
            if owns(party, out) and owners == 1:
                total += out.value
    return total


class TestCheckers:
    def test_value_conservation_violation_detected(self):
        ww = cs_world()
        bad = ww.txs[COMMIT]._replace(
            status=w.CONFIRMED, outputs=(w.Output("nss", 0, 2),))
        ww = ww.replace_tx(COMMIT, bad)
        with pytest.raises(ModelInvariantError):
            w.check_value_conservation(ww)

    def test_status_machine_detects_resurrection(self):
        base = cs_world()
        sent = w.try_to_send(base, ALICE, COMMIT, NSS)
        canceled = sent.replace_tx(
            COMMIT, sent.txs[COMMIT]._replace(status=w.CANCELED))
        w.check_status_machine(sent, canceled)  # SENT -> CANCELED is legal
        confirmed = sent.replace_tx(
            COMMIT, sent.txs[COMMIT]._replace(status=w.CONFIRMED))
        with pytest.raises(ModelInvariantError):
            w.check_status_machine(confirmed, base)  # CONFIRMED -> UNSENT

    def test_status_machine_checks_the_one_changed_record(self):
        base = cs_world()
        jumped = base.replace_tx(
            OPEN, base.txs[OPEN]._replace(status=w.CONFIRMED))
        shared = [i for i, (a, b) in enumerate(zip(base.txs, jumped.txs))
                  if a is b]
        assert shared == [INPUT, COMMIT, FUSE]
        with pytest.raises(ModelInvariantError, match="UNSENT -> CONFIRMED"):
            w.check_status_machine(base, jumped)
        spent = base.txs[INPUT].outputs[0]._replace(spent=True)
        before = base.replace_tx(
            INPUT, base.txs[INPUT]._replace(outputs=(spent,)))
        with pytest.raises(ModelInvariantError, match="became unspent"):
            w.check_status_machine(before, base)

    def test_status_machine_skips_a_shared_table(self):
        base = cs_world()
        learned = base.replace_party(BOB, base.parties[ALICE])
        assert learned.txs is base.txs
        w.check_status_machine(base, learned)
        # records that are never read: a shared table needs no comparison
        opaque = w.World((object(),), base.parties)
        w.check_status_machine(opaque, w.World(opaque.txs, ()))

    def test_eavesdropping_checker(self):
        ww = cs_world()
        leaky = ww.replace_tx(OPEN, ww.txs[OPEN]._replace(status=w.SENT))
        with pytest.raises(ModelInvariantError):
            w.check_eavesdropping(leaky)
