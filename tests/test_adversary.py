"""Adversary synthesis: transaction doubling, the generic automaton,
and the exactness of the static domains `instantiate` gives the
adversary's loop and the chain agent."""

import pytest

from tacv import modelio as M
from tacv import queries as Q
from tacv import world as w
from tacv.adversary import build_adversary_automaton, derive_adversary_txset
from tacv.contracts import build_cs_model, instantiate
from tacv.kernel import Network, explore
from tacv.world import WorldConstants
from conftest import automaton_index
from test_modelio import CS_PATH, shipped_queries


def full_loop(model, adversary):
    """The network and query context of `instantiate`, with the
    adversary's generic loop (when `adversary` is not None) and the
    chain agent over every transaction in place of their static
    domains: the reference that the domains must match.  The chain
    keeps its nonce choice on the same transactions."""
    net, ctx = instantiate(model, adversary=adversary)
    every = range(len(net.initial_data.T.txs))
    chain = net.automata[automaton_index(net, "BlockChainAgentTA")]
    relevant = next((dict(e.select)["i"] for e in chain.edges if e.label == "confirm"), ())
    loops = [w.build_blockchain_agent(model.constants, every, relevant)]
    if adversary is not None:
        p = model.party_names.index(adversary)
        loops.append(build_adversary_automaton(
            model.adversary_configs[p], len(model.party_names) - 1, every,
            model.worlds[p].msgs))
    full = {a.name: a for a in loops}
    automata = [full.get(a.name, a) for a in net.automata]
    return Network(net.name, automata, net.initial_data, net.clock_owners,
                   net.state_checks, net.transition_checks, net.meta), ctx


def left_out(model, adversary):
    """(idle sweeps, unscriptable transactions): the transactions the
    instantiated adversary's try-send leaves out, split by whether
    `could_script` allows them for the adversary's slot."""
    net, _ctx = instantiate(model, adversary=adversary)
    loop = net.automata[automaton_index(net, "AdversaryTA")]
    (send,) = [e for e in loop.edges if e.label == "try_send"]
    T = net.initial_data.T
    out = set(range(len(T.txs))) - set(dict(send.select)["i"])
    scriptable = {t for t in out if w.could_script(T, T.party_count - 1, t)}
    return scriptable, out - scriptable


def observable(key, protocol_count):
    """What a guard, holding or query can see of a (locations, data) key:
    locations, protocol statuses with SPENT read as CONFIRMED, every
    party slot's holdings, and the secret bits, timers and marks."""
    locs, data = key
    T = data.T
    statuses = tuple(w.CONFIRMED if s == w.SPENT else s
                     for s in data[:protocol_count])
    holdings = tuple(w.hold_bitcoins(data, p) for p in range(T.party_count))
    return locs, statuses, holdings, data[T.secrets:T.end]


def compare_with_full_loop(model, adversary, queries=None):
    """(verdicts, observable keys) of the pruned and of the full loop,
    over `queries` (texts) or the model's default queries."""
    out = []
    for build in (instantiate, full_loop):
        net, ctx = build(model, adversary=adversary)
        asts = ([Q.parse_query(q, ctx) for q in queries] if queries
                else shipped_queries(model, ctx))
        # a check that never fails keeps the exploration whole
        checks = [Q.make_checker(q) for q in asts] + [lambda _state: None]
        res = explore(net, check=checks, collect_reachable=True)
        n = len(model.protocol_txs)
        out.append((res.verdicts[:-1], {observable(k, n) for k in res.reachable}))
    return out


def test_cs_doubling_four_to_eight():
    model = build_cs_model()
    txs = derive_adversary_txset(model.protocol_txs, adv_key=0)
    assert len(model.protocol_txs) == 4
    assert len(txs) == 8
    # identifiers continue the protocol block, one sweep per output
    for i in range(4, 8):
        assert txs[i].inputs == ((i - 4, 0),)
        assert txs[i].outputs[0].script_kind == "key"
        assert txs[i].outputs[0].script_ref == 0
        assert txs[i].timelock == 0
        assert txs[i].reveals == ()


def test_sweep_count_equals_output_count():
    # the two-output joint commit gets two sweeps
    from tacv.contracts import build_newscs_model
    model = build_newscs_model()
    txs = derive_adversary_txset(model.protocol_txs, adv_key=0)
    outputs = sum(len(t.outputs) for t in model.protocol_txs)
    assert len(txs) == len(model.protocol_txs) + outputs
    assert outputs == 17


def test_empty_protocol_set_unchanged():
    assert derive_adversary_txset((), adv_key=0) == ()


def test_sweep_values_copied():
    model = build_cs_model()
    txs = derive_adversary_txset(model.protocol_txs, adv_key=1)
    for i in range(4, 8):
        src, oi = txs[i].inputs[0]
        assert txs[i].outputs[0].value == txs[src].outputs[oi].value


class TestAdversaryReach:
    """What the corrupted party can actually broadcast."""

    def reachable_sends(self, build, adversary):
        model = build_cs_model(WorldConstants(2, 5))
        net, _ctx = build(model, adversary=adversary)
        sent = set()

        def watch(state):
            for tx in state.data.T.txs:
                if state.data[tx.num] != w.UNSENT:
                    sent.add(tx.num)
            return None

        explore(net, check=watch)
        return sent

    def test_adv_alice_send_set(self):
        # with the full loop she reaches COMMIT, OPEN and the sweeps she
        # can script: INPUT's and OPEN's (standard to her key); the
        # COMMIT sweep needs an in-transaction reveal or Bob's key and
        # stays out of reach, as does FUSE alone
        INPUT, COMMIT, OPEN, FUSE = 0, 1, 2, 3
        sent = self.reachable_sends(full_loop, "ALICE")
        assert COMMIT in sent and OPEN in sent
        assert 4 + INPUT in sent
        assert 4 + OPEN in sent
        assert 4 + COMMIT not in sent
        assert FUSE in sent  # only after Bob received her broadcast signature
        assert 4 + FUSE not in sent
        # the instantiated loop leaves out the sweep of OPEN's output
        assert self.reachable_sends(instantiate, "ALICE") == sent - {4 + OPEN}

    def test_no_key_material_created(self):
        # the adversary never comes to know keys it was not given
        model = build_cs_model(WorldConstants(2, 5))
        net, _ctx = instantiate(model, adversary="ALICE")
        adv = len(model.party_names) - 1

        def watch(state):
            T = state.data.T
            assert [state.data[T.key_bit(adv, k)] for k in range(T.key_count)] == [1, 0]
            return None

        explore(net, check=watch)

    def test_message_action_fires_once(self):
        model = build_cs_model(WorldConstants(2, 5))
        net, _ctx = instantiate(model, adversary="ALICE")

        def watch(state):
            T = state.data.T
            assert state.data.count(1, T.sigs, T.sig_end) <= 1
            return None

        explore(net, check=watch)


def test_saturation_second_sweep_does_not_change_verdicts():
    """Doubling the sweep set again leaves every cs verdict unchanged.

    The saturated model declares one sweep of each protocol output as a
    protocol transaction of its own, so the adversary's doubling sweeps
    those too.  It is built from text: the honest automata are compiled
    to the offsets of the model's own layout."""
    fuse = "FUSE: inputs = COMMIT:0; outputs = key(R_KEY):1; timelock = PROT_TIMELOCK\n"
    text = open(CS_PATH).read()
    assert fuse in text
    sweeps = "".join("SW_%s: inputs = %s:0; outputs = key(C_KEY):1\n" % (t, t)
                     for t in ("INPUT", "COMMIT", "OPEN", "FUSE"))
    saturated = M.build_model(text.replace(fuse, fuse + sweeps), "cs",
                              {"MAX_LATENCY": 2, "PROT_TIMELOCK": 5})
    model = build_cs_model(WorldConstants(2, 5))

    verdicts = []
    for m, tx_count in ((model, 8), (saturated, 16)):
        net, ctx = instantiate(m, adversary="ALICE")
        assert len(net.initial_data.T.txs) == tx_count
        asts = shipped_queries(m, ctx)
        assert len(asts) == 5
        verdicts.append(explore(net, check=[Q.make_checker(q) for q in asts]).verdicts)
    assert verdicts[0] == verdicts[1]


class TestSweepPruningExact:
    """The adversary's loop leaves out only sweeps no guard, holding or
    query can observe and transactions it can never script, and the
    chain agent only transactions nobody sends: verdicts and observable
    reachable keys equal those of the full loops over every
    transaction."""

    @pytest.mark.parametrize("variant", [{}, {"weakened_alice": True}],
                             ids=["shipped", "weakened_alice"])
    @pytest.mark.parametrize("adversary", ["ALICE", "BOB"])
    def test_cs_agrees_with_full_loop(self, variant, adversary):
        model = build_cs_model(WorldConstants(2, 5), **variant)
        pruned, full = compare_with_full_loop(model, adversary)
        assert pruned == full

    @pytest.mark.parametrize("contract,adversary,sweeps", [
        ("cs", "ALICE", {6}),
        ("cs", "BOB", {7}),
        ("newscs", "ALICE", {21, 25, 28, 31, 32}),
        ("newscs", "BOB", {22, 24, 29, 30}),
    ])
    def test_shipped_pruned_sets(self, contract, adversary, sweeps):
        model = M.contract_model(contract)
        assert left_out(model, adversary)[0] == sweeps

    @pytest.mark.parametrize("contract,adversary,unscriptable", [
        ("cs", "ALICE", {3, 5, 7}),
        ("cs", "BOB", {0, 1, 2, 4, 5, 6}),
        ("newscs", "ALICE", {2, 3, 6, 7, 8, 10, 12, 13, 18, 19, 20, 22, 23,
                             24, 26, 27, 29, 30}),
        ("newscs", "BOB", {0, 1, 4, 5, 9, 11, 14, 15, 16, 17, 20, 21, 23,
                           25, 26, 27, 28, 31, 32}),
    ])
    def test_shipped_unscriptable_sets(self, contract, adversary, unscriptable):
        model = M.contract_model(contract)
        assert left_out(model, adversary)[1] == unscriptable

    def edited_cs(self, old, new):
        text = open(CS_PATH).read()
        assert old in text
        return M.build_model(text.replace(old, new, 1), "cs",
                             {"MAX_LATENCY": 2, "PROT_TIMELOCK": 5})

    def test_guard_on_spent_status_keeps_sweep(self):
        # Bob moves when OPEN is SPENT, which only the sweep of OPEN's
        # one output brings about
        model = self.edited_cs(
            "location accepted named\n",
            "location accepted named\nlocation swept named\n"
            'edge accepted -> swept urgent guard "status(OPEN) == SPENT"\n')
        assert model.status_observed == (model.tx_names["OPEN"],)
        assert left_out(model, "ALICE") == (set(), {3, 5, 7})
        pruned, full = compare_with_full_loop(
            model, "ALICE", ["A[] not BobTA.swept"])
        assert pruned == full
        assert full[0] == ("VIOLATED",)

    def test_bob_sends_fuse_with_pooled_signature(self):
        # an Alice who never opens: once the timelock passes, adversary
        # Bob can send FUSE, and only through Alice's pooled C_KEY
        # signature (on the shipped model she opens first, and Bob can
        # send nothing on any reachable key)
        model = self.edited_cs(
            'edge signed -> opened guard "status(OPEN) == UNSENT" update '
            '"try_to_send(ALICE, OPEN)" label open\n'
            'edge signed -> opened urgent guard "timer(open_deadline) and '
            'status(OPEN) == UNSENT" update "try_to_send(ALICE, OPEN)" '
            'label open_at_deadline\n', "")
        pruned, full = compare_with_full_loop(model, "BOB", [
            model.queries["alice_security"]])
        assert pruned == full
        assert full[0] == ("VIOLATED",)

    def test_sweep_paying_one_owner_kept(self):
        # Alice's sweeps pay R_KEY, which Bob alone holds: a swept output
        # counts towards his holdings
        model = self.edited_cs("key = C_KEY", "key = R_KEY")
        assert left_out(model, "ALICE") == (set(), {3, 5, 7})
        pruned, full = compare_with_full_loop(model, "ALICE", [
            "A[] (parties[BOB].know_secret[0] and hold_bitcoins(parties[BOB]) >= 1)"
            " imply BobTA.accepted"])
        assert pruned == full
        assert full[0] == ("VIOLATED",)
