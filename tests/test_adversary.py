"""Adversary synthesis: transaction doubling and the generic automaton."""

from tacv import world as w
from tacv.adversary import derive_adversary_txset
from tacv.contracts import build_cs_model, instantiate
from tacv.kernel import explore
from tacv.world import WorldConstants


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

    def reachable_sends(self, adversary, prune=False):
        model = build_cs_model(WorldConstants(2, 5))
        net, _ctx = instantiate(
            model, adversary=adversary, prune_idle_sweeps=prune)
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
        sent = self.reachable_sends("ALICE", prune=False)
        sweeps = {4 + i for i in (INPUT, COMMIT, OPEN, FUSE)}
        assert COMMIT in sent and OPEN in sent
        assert 4 + INPUT in sent
        assert 4 + OPEN in sent
        assert 4 + COMMIT not in sent
        assert FUSE in sent  # only after Bob received her broadcast signature
        assert 4 + FUSE not in sent

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
    """Doubling the sweep set again leaves every CS verdict unchanged."""
    from tacv import queries as Q

    model = build_cs_model(WorldConstants(2, 5))
    extra = derive_adversary_txset(model.protocol_txs, adv_key=0)
    doubled_protocol = model.protocol_txs + extra[len(model.protocol_txs):]
    saturated = model._replace(protocol_txs=doubled_protocol)

    for name in ("bob_security", "bob_knows_secret", "alice_holds_deposit"):
        verdicts = []
        for m in (model, saturated):
            net, ctx = instantiate(m, adversary="ALICE")
            q = Q.parse_query(m.queries[name], ctx)
            verdicts.append(explore(net, check=Q.make_checker(q)).verdict)
        assert verdicts[0] == verdicts[1], name
