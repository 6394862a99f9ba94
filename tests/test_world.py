"""Block-chain world semantics: signatures, scripts, sending, confirmation."""

import pytest

from tacv import world as w
from tacv.contracts import build_cs_model, build_newscs_model, instantiate
from tacv.kernel import ModelError, ModelInvariantError, explore


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
        assert w.know_signature(ww, BOB, ww.txs[FUSE], 0, R_KEY)

    def test_stored_signature_checked_against_current_nonce(self):
        ww = cs_world()
        sig = w.SignatureRec(C_KEY, FUSE, 0)
        ww = w.add_signature(ww, BOB, sig, capacity=1)
        assert w.know_signature(ww, BOB, ww.txs[FUSE], 0, C_KEY)
        # malleability: COMMIT confirms with nonce 1, invalidating the record
        ww = ww.replace_tx(COMMIT, ww.txs[COMMIT]._replace(
            status=w.CONFIRMED, nonce=1))
        assert not w.know_signature(ww, BOB, ww.txs[FUSE], 0, C_KEY)

    def test_empty_set_unknown_key(self):
        ww = cs_world()
        assert not w.know_signature(ww, BOB, ww.txs[OPEN], 0, C_KEY)

    def test_capacity_overflow_is_model_error(self):
        ww = cs_world()
        ww = w.add_signature(ww, BOB, w.SignatureRec(C_KEY, FUSE, 0), 1)
        with pytest.raises(ModelError):
            w.add_signature(ww, BOB, w.SignatureRec(C_KEY, FUSE, 1), 1)

    def test_duplicate_signature_is_idempotent(self):
        ww = cs_world()
        sig = w.SignatureRec(C_KEY, FUSE, 0)
        w1 = w.add_signature(ww, BOB, sig, 1)
        assert w.add_signature(w1, BOB, sig, 1) == w1


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
