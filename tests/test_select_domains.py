"""The static select domains of the shipped networks are exact.

`contracts.instantiate` gives the chain agent's confirm edges and the
adversary's try-send loop static domains.  On every reachable key of the
scenarios below, no transaction outside the chain's domain has left
UNSENT, and each transaction outside the adversary's domain that is no
idle sweep fails `can_send` for the adversary's slot.  Without an
adversary, the chain agent over every transaction gives the same
reachable set, transitions and verdicts; the full loops of the
adversary scenarios are compared in tests/test_adversary.py.
`_invariants` remembers its
result per pattern in the intern table: a skeleton built with a table
shared by every key has the invariant atoms of a fresh build.
"""

import pytest

from tacv import kernel as K
from tacv import queries as Q
from tacv import world as w
from tacv.contracts import _idle_sweep_ids, instantiate

from conftest import automaton_index
from test_adversary import full_loop
from test_modelio import SHIPPED_IDS, SHIPPED_ROWS, shipped_net, shipped_queries

SCENARIOS = [row[:4] for row in SHIPPED_ROWS] + [
    ("cs", (2, 5), {}, None), ("cs", (2, 5), {}, "ALICE"), ("cs", (2, 5), {}, "BOB"),
    ("newscs", (1, 5), {}, "ALICE"), ("newscs", (1, 5), {}, "BOB")]
IDS = SHIPPED_IDS + ["cs-2-5-honest", "cs-2-5-ALICE", "cs-2-5-BOB",
                     "newscs-1-5-ALICE", "newscs-1-5-BOB"]

_RUNS = {}


def scenario(contract, constants, variant, adversary):
    """(model, net, reachable keys), explored once per test session."""
    key = (contract, constants, tuple(sorted(variant.items())), adversary)
    if key not in _RUNS:
        model, net, _ctx = shipped_net(contract, constants, variant, adversary)
        _RUNS[key] = model, net, K.explore(net, collect_reachable=True).reachable
    return _RUNS[key]


def domain(net, automaton, label):
    """The transactions of the `i` select of `automaton`'s edge `label`."""
    a = net.automata[automaton_index(net, automaton)]
    return {t for e in a.edges if e.label == label for t in dict(e.select)["i"]}


@pytest.mark.parametrize("contract,constants,variant,adversary", SCENARIOS, ids=IDS)
def test_no_transaction_outside_the_chain_domain_is_sent(contract, constants,
                                                         variant, adversary):
    _model, net, reach = scenario(contract, constants, variant, adversary)
    outside = sorted(set(range(len(net.initial_data.T.txs)))
                     - domain(net, "BlockChainAgentTA", "confirm")
                     - domain(net, "BlockChainAgentTA", "confirm_plain"))
    assert outside
    sent = {t for _locs, data in reach for t in outside if data[t] != w.UNSENT}
    assert sent == set()


@pytest.mark.parametrize("contract,constants,variant,adversary",
                         [s for s in SCENARIOS if not s[3]],
                         ids=[i for i, s in zip(IDS, SCENARIOS) if not s[3]])
def test_full_chain_loop_changes_nothing(contract, constants, variant, adversary):
    model, _net, _reach = scenario(contract, constants, variant, adversary)
    runs = []
    for net, ctx in (instantiate(model), full_loop(model, None)):
        checks = [Q.make_checker(q) for q in shipped_queries(model, ctx)]
        # a check that never fails keeps the exploration whole
        res = K.explore(net, check=checks + [lambda _state: None],
                        collect_reachable=True)
        runs.append((res.verdicts[:-1], res.reachable, res.transitions))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("contract,constants,variant,adversary",
                         [s for s in SCENARIOS if s[3]],
                         ids=[i for i, s in zip(IDS, SCENARIOS) if s[3]])
def test_adversary_cannot_send_outside_its_domain(contract, constants, variant,
                                                  adversary):
    model, net, reach = scenario(contract, constants, variant, adversary)
    T = net.initial_data.T
    idle = _idle_sweep_ids(model, model.party_names.index(adversary))
    outside = sorted(set(range(len(T.txs))) - domain(net, "AdversaryTA", "try_send")
                     - idle)
    assert outside
    slot = T.party_count - 1
    sendable = {t for _locs, data in reach for t in outside if w.can_send(data, slot, t)}
    assert sendable == set()


@pytest.mark.parametrize("contract,adversary,sizes", [
    ("cs", None, (1, 3, 0)),
    ("cs", "ALICE", (1, 4, 4)),
    ("cs", "BOB", (1, 3, 1)),
    ("newscs", None, (4, 12, 0)),
    ("newscs", "ALICE", (4, 14, 10)),
    ("newscs", "BOB", (4, 14, 10)),
])
def test_domain_sizes(contract, adversary, sizes):
    # (chain transactions with a nonce choice, the chain's other
    # transactions, the adversary's) out of 8 cs and 33 newscs
    # transactions; the domains do not depend on the constants
    for constants in ((1, 5), (10, 100)):
        _model, net, _ctx = shipped_net(contract, constants, {}, adversary)
        found = (len(domain(net, "BlockChainAgentTA", "confirm")),
                 len(domain(net, "BlockChainAgentTA", "confirm_plain")),
                 len(domain(net, "AdversaryTA", "try_send")) if adversary else 0)
        assert found == sizes


def test_shared_table_gives_fresh_invariants():
    # every skeleton of newscs(1,5) Bob built with one table: its own
    # and each fire's target invariants equal a build without memo
    _model, net, reach = scenario("newscs", (1, 5), {}, "BOB")
    table = {}
    patterns = set()
    for locs, data in reach:
        skel = K._build_skeleton(net, locs, data, table)
        assert skel.inv_atoms == K.invariant_indices(net, locs, data)
        owners = net.clock_owners(data)
        assert (skel.inv_atoms, skel.bounds) == K._invariants(net, locs, data, owners, {})
        for inst, _cg in skel.fires:  # every fire built, used or not
            _d, _cg, locs2, data2, _src, inv2, bounds2 = skel.build(inst)
            assert (inv2, bounds2) == K._invariants(
                net, locs2, data2, net.clock_owners(data2), {})
        patterns.add((owners, tuple(K._invariant_atoms(net, locs, data))))
    # the table remembers one result per pattern, far fewer than keys
    memo = [k for k in table if type(k) is tuple and k and k[0] is K._INVARIANTS]
    assert len(memo) >= len(patterns)
    assert len(memo) * 10 < len(reach)
