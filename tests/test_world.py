"""Block-chain world semantics: signatures, scripts, sending, confirmation."""

import pytest

from tacv import queries as Q
from tacv import world as w
from tacv.contracts import build_cs_model, build_newscs_model, instantiate
from tacv.kernel import ModelError, ModelInvariantError, _intern_data, explore
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


def cs_table(prot_timelock=100, input_outputs=None, commit_value=1, extra=()):
    """The static table of a small cs world: INPUT (on chain) pays Alice's
    key, COMMIT locks it in NSS 0, OPEN reveals the secret and FUSE pays
    Bob after the timelock.  `extra` transactions follow FUSE."""
    def out(kind, ref, value=1):
        return (w.Output(kind, ref, value),)

    txs = (
        w.TxRecord(INPUT, ((INPUT, 0),), input_outputs or out("key", C_KEY)),
        w.TxRecord(COMMIT, ((INPUT, 0),), out("nss", 0, commit_value)),
        w.TxRecord(OPEN, ((COMMIT, 0),), out("key", C_KEY), reveals=(C_SEC,)),
        w.TxRecord(FUSE, ((COMMIT, 0),), out("key", R_KEY),
                   timelock=prot_timelock),
    ) + extra
    parties = (
        w.PartyKnowledge((True, False), (True,)),   # Alice: C_KEY, C_SEC
        w.PartyKnowledge((False, True), (False,)),  # Bob: R_KEY
        w.PartyKnowledge((False, False), (False,)),
    )
    return w.WorldTable(txs, NSS, parties, timer_count=1, mark_count=0,
                        confirmed=(INPUT,), signatures=((C_KEY, FUSE),),
                        capacity=1)


def cs_world(**kw):
    return cs_table(**kw).initial


def stored(ww, *fields):
    """`ww` with the value of each (offset, value) pair of `fields` stored."""
    data = bytearray(ww)
    for offset, value in fields:
        data[offset] = value
    return ww.T.World(data)


def pool(ww):
    """The pooled signatures of `ww`, as sorted (key, tx, input nonces)."""
    return sorted((key, tx, nonces)
                  for (key, tx), (_ins, slots) in ww.T.sig_slots.items()
                  for nonces, offset in slots.items() if ww[offset])


class TestSignatures:
    def test_key_knowledge_suffices(self):
        ww = cs_world()
        assert w.know_signature(ww, BOB, FUSE, R_KEY)

    def test_stored_signature_checked_against_current_nonce(self):
        ww = cs_world()
        ww = w.broadcast_signature(ww, C_KEY, FUSE)
        assert w.know_signature(ww, BOB, FUSE, C_KEY)
        # malleability: COMMIT confirms with nonce 1, invalidating the record
        ww = stored(ww, (COMMIT, w.CONFIRMED), (ww.T.nonce + COMMIT, 1))
        assert not w.know_signature(ww, BOB, FUSE, C_KEY)

    def test_pool_serves_every_party(self):
        ww = cs_world()
        ww = w.broadcast_signature(ww, C_KEY, FUSE)
        assert pool(ww) == [(C_KEY, FUSE, (0,))]
        for p in (ALICE, BOB, ADV):
            assert w.know_signature(ww, p, FUSE, C_KEY)

    def test_empty_set_unknown_key(self):
        ww = cs_world()
        assert not w.know_signature(ww, BOB, OPEN, C_KEY)

    def test_capacity_overflow_is_model_error(self):
        ww = cs_world()
        ww = w.broadcast_signature(ww, C_KEY, FUSE)
        # the same pair signed at another input nonce is another signature
        ww = stored(ww, (COMMIT, w.CONFIRMED), (ww.T.nonce + COMMIT, 1))
        with pytest.raises(ModelError, match=r"signature pool overflow \(capacity 1\)"):
            w.broadcast_signature(ww, C_KEY, FUSE)

    def test_duplicate_signature_is_idempotent(self):
        ww = cs_world()
        w1 = w.broadcast_signature(ww, C_KEY, FUSE)
        assert w.broadcast_signature(w1, C_KEY, FUSE) is w1


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
        tx, a_key = model.tx_names, model.key_names["A_KEY"]
        ww = instantiate(model)[0].initial_data
        ww = w.try_to_confirm(w.try_to_send(ww, ALICE, tx["S0"]), tx["S0"], 1)
        ww = w.broadcast_signature(ww, a_key, tx["T"])
        assert pool(ww) == [(a_key, tx["T"], (1, 0))]
        ww = w.try_to_confirm(w.try_to_send(ww, ALICE, tx["S1"]), tx["S1"], s1_nonce)
        assert w.know_signature(ww, BOB, tx["T"], a_key) is valid
        assert w.can_create_input_script(ww, BOB, tx["T"]) is valid

    def test_engines_agree_on_the_model(self):
        model = build_model(TWO_INPUT_MODEL)
        a_key, tx = model.key_names["A_KEY"], model.tx_names
        assert model.signatures == ((a_key, tx["T"]), (a_key, tx["PROBE"]))
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
        ww = w.try_to_send(ww, ALICE, COMMIT)
        ww = w.try_to_confirm(ww, COMMIT, 0)
        assert w.can_create_input_script(ww, ALICE, OPEN)

    def test_bob_needs_alices_signature_for_fuse(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT)
        ww = w.try_to_confirm(ww, COMMIT, 0)
        assert not w.can_create_input_script(ww, BOB, FUSE)
        ww = w.broadcast_signature(ww, C_KEY, FUSE)
        assert w.can_create_input_script(ww, BOB, FUSE)

    def test_zero_inputs_vacuously_true(self):
        ghost = w.TxRecord(4, (), (w.Output("key", C_KEY, 1),))
        ww = cs_world(extra=(ghost,))
        assert w.can_create_input_script(ww, BOB, ghost.num)

    def test_reveal_required_in_spending_tx(self):
        # a transaction that does not itself reveal the secret cannot use
        # the reveal clause, whatever the party knows
        sweep = w.TxRecord(4, ((COMMIT, 0),), (w.Output("key", C_KEY, 1),))
        ww = cs_world(extra=(sweep,))
        ww = w.try_to_send(ww, ALICE, COMMIT)
        ww = w.try_to_confirm(ww, COMMIT, 0)
        assert not w.can_create_input_script(ww, ALICE, sweep.num)

    def test_could_script(self):
        # Alice holds C_KEY and can reveal C_SEC only in OPEN; Bob's FUSE
        # input needs C_KEY, whose signature of FUSE the pool may hold;
        # nobody's input script for the sweep of COMMIT holds ever
        sweep = w.TxRecord(4, ((COMMIT, 0),), (w.Output("key", C_KEY, 1),))
        T = cs_table(extra=(sweep,))
        scriptable = {p: [t for t in range(5) if w.could_script(T, p, t)]
                      for p in (ALICE, BOB, ADV)}
        assert scriptable == {ALICE: [INPUT, COMMIT, OPEN], BOB: [FUSE], ADV: []}
        # the table keeps the last slot's, the adversary's
        assert T.scriptable == ()


class TestSendConfirm:
    def test_send_reveals_secret_to_everyone(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT)
        ww = w.try_to_confirm(ww, COMMIT, 0)
        ww = w.try_to_send(ww, ALICE, OPEN)
        assert ww[OPEN] == w.SENT  # a transaction's status is the byte at its id
        for p in range(3):
            assert w.know_secret(ww, p, C_SEC)

    def test_send_respects_timelock(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT)
        ww = w.try_to_confirm(ww, COMMIT, 0)
        ww = w.broadcast_signature(ww, C_KEY, FUSE)
        before = ww
        assert w.try_to_send(ww, BOB, FUSE) == before  # timelock pending
        ww = stored(ww, (ww.T.flag + FUSE, 1))
        assert w.try_to_send(ww, BOB, FUSE)[FUSE] == w.SENT

    def test_already_sent_is_noop(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT)
        assert w.try_to_send(ww, ALICE, COMMIT) == ww

    def test_double_spend_race_cancels_loser(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT)
        ww = w.try_to_confirm(ww, COMMIT, 0)
        ww = w.try_to_send(ww, ALICE, OPEN)
        ww = stored(ww, (ww.T.flag + FUSE, 1))
        ww = w.broadcast_signature(ww, C_KEY, FUSE)
        ww = w.try_to_send(ww, BOB, FUSE)
        assert ww[OPEN] == w.SENT and ww[FUSE] == w.SENT
        ww = w.try_to_confirm(ww, OPEN, 0)
        ww = w.try_to_confirm(ww, FUSE, 0)
        assert ww[OPEN] == w.CONFIRMED
        assert ww[FUSE] == w.CANCELED
        assert ww[COMMIT] == w.SPENT

    def test_confirm_with_nonce_marks_malleation(self):
        ww = cs_world()
        ww = w.try_to_send(ww, ALICE, COMMIT)
        ww = w.try_to_confirm(ww, COMMIT, 1)
        assert ww[ww.T.nonce + COMMIT] == 1
        w.check_nonce_consistency(ww)


class TestHoldings:
    def test_initial_alice_holds_deposit(self):
        ww = cs_world()
        assert w.hold_bitcoins(ww, ALICE) == 1
        assert w.hold_bitcoins(ww, BOB) == 0

    def test_cloned_keys_count_for_nobody(self):
        ww = cs_world()
        T = ww.T
        ww = stored(ww, *[(T.key_bit(ADV, k), ww[T.key_bit(ALICE, k)])
                          for k in range(T.key_count)],
                    *[(T.secret_bit(ADV, s), ww[T.secret_bit(ALICE, s)])
                      for s in range(T.secret_count)])
        assert w.hold_bitcoins(ww, ALICE) == 0
        assert w.hold_bitcoins(ww, ADV) == 0

    def test_no_confirmed_outputs(self):
        ww = cs_world()
        ww = stored(ww, (INPUT, w.UNSENT))
        assert w.hold_bitcoins(ww, ALICE) == 0

    def test_spent_output_of_confirmed_tx_counts_for_nobody(self):
        ww = cs_world(input_outputs=(w.Output("key", C_KEY, 1),
                                     w.Output("key", C_KEY, 2)))
        ww = stored(ww, (ww.T.spent[INPUT][0], 1))
        assert w.hold_bitcoins(ww, ALICE) == 2 == reference_holdings(ww, ALICE)

    def test_memo_key_covers_spent_and_key_bits(self):
        # the three valuations share their status bytes, and the last two
        # their spent bits as well, so a memo keyed on fewer bytes than
        # holdings read answers from an earlier valuation's entry
        ww = cs_world(input_outputs=(w.Output("key", C_KEY, 1),
                                     w.Output("key", C_KEY, 2)))
        T = ww.T
        spent = stored(ww, (T.spent[INPUT][0], 1))
        leaked = stored(spent, (T.key_bit(ADV, C_KEY), 1))
        worlds = (ww, spent, leaked)
        assert [w.hold_bitcoins(x, ALICE) for x in worlds] == [3, 2, 0]
        for x in worlds:
            for party in range(T.party_count):
                assert w.hold_bitcoins(x, party) == reference_holdings(x, party)

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
            for party in range(ww.T.party_count):
                assert w.hold_bitcoins(ww, party) == reference_holdings(ww, party)


def reference_holdings(world, party):
    """Holdings by their definition: an unspent standard output of a
    CONFIRMED transaction counts for a party that knows its key when no
    other party does."""
    T = world.T

    def owns(p, tx, j):
        out = tx.outputs[j]
        return (out.script_kind == "key" and not world[T.spent[tx.num][j]]
                and world[T.key_bit(p, out.script_ref)])

    total = 0
    for tx in T.txs:
        if world[tx.num] != w.CONFIRMED:
            continue
        for j, out in enumerate(tx.outputs):
            owners = sum(1 for p in range(T.party_count) if owns(p, tx, j))
            if owns(party, tx, j) and owners == 1:
                total += out.value
    return total


class TestCheckers:
    def test_value_conservation_violation_detected(self):
        # COMMIT spends one coin and pays two, and OPEN and FUSE spend
        # those two for one: the table knows the three are unbalanced, and
        # the check fails once COMMIT is on chain
        assert cs_table().unbalanced == ()
        table = cs_table(commit_value=2)
        assert table.unbalanced == (COMMIT, OPEN, FUSE)
        ww = table.initial
        w.check_value_conservation(stored(ww, (COMMIT, w.SENT)))
        for status in (w.CONFIRMED, w.SPENT):
            with pytest.raises(ModelInvariantError,
                               match="value not conserved by tx %d" % COMMIT):
                w.check_value_conservation(stored(ww, (COMMIT, status)))

    def test_status_machine_detects_resurrection(self):
        base = cs_world()
        sent = w.try_to_send(base, ALICE, COMMIT)
        canceled = stored(sent, (COMMIT, w.CANCELED))
        w.check_status_machine(sent, canceled)  # SENT -> CANCELED is legal
        confirmed = stored(sent, (COMMIT, w.CONFIRMED))
        with pytest.raises(ModelInvariantError):
            w.check_status_machine(confirmed, base)  # CONFIRMED -> UNSENT

    def test_status_machine_checks_the_one_changed_record(self):
        base = cs_world()
        jumped = stored(base, (OPEN, w.CONFIRMED))
        same = [t for t in range(base.T.tx_count) if base[t] == jumped[t]]
        assert same == [INPUT, COMMIT, FUSE]
        with pytest.raises(ModelInvariantError, match="UNSENT -> CONFIRMED"):
            w.check_status_machine(base, jumped)
        before = stored(base, (base.T.spent[INPUT][0], 1))
        with pytest.raises(ModelInvariantError, match="became unspent"):
            w.check_status_machine(before, base)

    def test_status_machine_skips_a_shared_table(self):
        base = cs_world()
        T = base.T
        learned = stored(base, (T.key_bit(BOB, C_KEY), 1))
        assert learned[:T.tx_count] == base[:T.tx_count]
        w.check_status_machine(base, learned)
        # bytes that are never read: equal status bytes need no comparison,
        # even where they hold no status at all
        opaque = stored(base, (COMMIT, 9))
        w.check_status_machine(opaque, stored(learned, (COMMIT, 9)))

    def test_eavesdropping_checker(self):
        ww = cs_world()
        leaky = stored(ww, (OPEN, w.SENT))
        with pytest.raises(ModelInvariantError):
            w.check_eavesdropping(leaky)


def shipped_scenarios():
    """Every network of the shipped models: all honest, and each party
    with an [adversary] section."""
    out = []
    for build in (build_cs_model, build_newscs_model):
        model = build()
        for adv in (None,) + tuple(model.party_names[p]
                                    for p in sorted(model.adversary_configs)):
            out.append((model, adv))
    return out


class TestEncoding:
    """The flat valuation reads back as the model declares it."""

    @pytest.mark.parametrize("model, adversary", shipped_scenarios(),
                             ids=lambda x: getattr(x, "name", None) or str(x))
    def test_initial_valuation_reads_back(self, model, adversary):
        net, _ctx = instantiate(model, adversary=adversary)
        ww, T = net.initial_data, net.initial_data.T
        assert len(ww) == T.size and type(ww) is T.World
        slot = len(model.party_names) - 1
        knowledge = list(model.initial_parties)
        if adversary is not None:
            knowledge[slot] = knowledge[model.party_names.index(adversary)]
        assert T.txs[:len(model.protocol_txs)] == model.protocol_txs
        for tx in T.txs:
            assert ww[tx.num] == (w.CONFIRMED if tx.num in model.confirmed
                                  else w.UNSENT)
            assert ww[T.flag + tx.num] == (tx.timelock == 0)
            assert ww[T.nonce + tx.num] == 0
            assert [ww[o] for o in T.spent[tx.num]] == [0] * len(tx.outputs)
        for p, know in enumerate(knowledge):
            assert tuple(ww[T.key_bit(p, k)] == 1
                         for k in range(T.key_count)) == know.know_key
            assert tuple(w.know_secret(ww, p, s)
                         for s in range(T.secret_count)) == know.know_secret
        assert ww[T.timers:T.sigs] == bytes(len(model.timers) + model.mark_count)
        assert ww[T.sigs:] == bytes(T.size - T.sigs)  # pool and messages
        assert [(k, t) for (k, t) in T.sig_slots] == list(model.signatures)
        # the fields a .model names lie where the loader compiled them
        honest = model.worlds[None]
        for field in ("flag", "nonce", "spent", "keys", "secrets", "timers",
                      "marks", "sigs"):
            assert getattr(T, field) == getattr(honest, field)

    def test_update_order_does_not_matter(self):
        model = build_newscs_model(w.WorldConstants(1, 5))
        net, _ctx = instantiate(model, adversary=None)
        t, k = model.tx_names, model.key_names
        a, b = t["CSA_COMMIT"], t["CSB_COMMIT"]
        ALICE_, BOB_ = 0, 1
        w0 = net.initial_data
        one = w.try_to_send(w.try_to_send(w0, ALICE_, a), BOB_, b)
        two = w.try_to_send(w.try_to_send(w0, BOB_, b), ALICE_, a)
        one = w.broadcast_signature(w.broadcast_signature(
            one, k["A_KEY"], t["CSA_FUSE"]), k["B_KEY"], t["CSB_FUSE"])
        two = w.broadcast_signature(w.broadcast_signature(
            two, k["B_KEY"], t["CSB_FUSE"]), k["A_KEY"], t["CSA_FUSE"])
        assert one is not two and one == two and hash(one) == hash(two)
        table = {}
        assert _intern_data(table, one) is one
        assert _intern_data(table, two) is one
        assert list(table) == [one]

    def test_full_pool_overflows(self):
        model = build_newscs_model(w.WorldConstants(1, 5))
        net, _ctx = instantiate(model, adversary=None)
        t, k = model.tx_names, model.key_names
        ww = net.initial_data
        for key, tx in (("A_KEY", "CSA_FUSE"), ("B_KEY", "CSB_FUSE"),
                        ("A_KEY", "COMMIT")):
            ww = w.broadcast_signature(ww, k[key], t[tx])
        assert model.sig_capacity == 3 and len(pool(ww)) == 3
        # CSA_COMMIT confirmed malleated: a fourth signature is possible
        ww = w.try_to_confirm(w.try_to_send(ww, 0, t["CSA_COMMIT"]),
                              t["CSA_COMMIT"], 1)
        with pytest.raises(ModelError,
                           match=r"signature pool overflow \(capacity 3\)"):
            w.broadcast_signature(ww, k["A_KEY"], t["CSA_FUSE"])
