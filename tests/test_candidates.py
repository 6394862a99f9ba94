"""Work a skeleton skips or reuses on the shipped networks.

The chain agent's confirm edges and the adversary's try-send loop carry
`candidates` hooks, so `enabled_transitions` evaluates their guards only
on bindings that can hold.  On every reachable key of the scenarios
below, each hook keeps its contract (ascending indices, no enabled
binding left out), and exploring with every hook stripped gives the
same reachable set, transitions and verdicts.  `_invariants` remembers
its result per pattern in the intern table: a skeleton built with a
table shared by every key has the invariant atoms of a fresh build.
"""

import pytest

from tacv import kernel as K
from tacv import queries as Q

from test_kernel import candidate_problems, stripped
from test_modelio import shipped_net, shipped_queries

SCENARIOS = [("cs", (2, 5), None), ("cs", (2, 5), "ALICE"), ("cs", (2, 5), "BOB"),
             ("newscs", (1, 5), "ALICE"), ("newscs", (1, 5), "BOB")]
IDS = ["%s-%d-%d-%s" % (c, *k, a or "honest") for c, k, a in SCENARIOS]

_RUNS = {}


def run(net, ctx, model):
    """(verdict vector, reachable keys, transitions) of one whole
    exploration over the model's default queries."""
    checks = [Q.make_checker(q) for q in shipped_queries(model, ctx)]
    # a check that never fails keeps the exploration whole
    res = K.explore(net, check=checks + [lambda _state: None],
                    collect_reachable=True)
    return res.verdicts[:-1], res.reachable, res.transitions


def scenario(contract, constants, adversary):
    """(model, net, ctx, the net's `run`), explored once per test session."""
    key = (contract, constants, adversary)
    if key not in _RUNS:
        model, net, ctx = shipped_net(contract, constants, {}, adversary)
        _RUNS[key] = model, net, ctx, run(net, ctx, model)
    return _RUNS[key]


def hooked_edges(net):
    return ["%s.%s" % (a.name, e.label)
            for a in net.automata for e in a.edges if e.candidates is not None]


@pytest.mark.parametrize("contract,constants,adversary", SCENARIOS, ids=IDS)
def test_hooks_keep_their_contract_on_every_reachable_key(contract, constants,
                                                          adversary):
    _model, net, _ctx, (_verdicts, reach, _t) = scenario(contract, constants,
                                                           adversary)
    expected = ["BlockChainAgentTA.confirm", "BlockChainAgentTA.confirm_plain"]
    if adversary is not None:
        expected.append("AdversaryTA.try_send")
    assert hooked_edges(net) == expected
    problems = [p for locs, data in reach for p in candidate_problems(net, locs, data)]
    assert problems == []


@pytest.mark.parametrize("contract,constants,adversary", SCENARIOS, ids=IDS)
def test_stripping_hooks_changes_nothing(contract, constants, adversary):
    model, net, ctx, hooked = scenario(contract, constants, adversary)
    full = stripped(net)
    assert hooked_edges(full) == []
    assert run(full, ctx, model) == hooked


def test_shared_table_gives_fresh_invariants():
    # every skeleton of newscs(1,5) Bob built with one table: its own
    # and each fire's target invariants equal a build without memo
    _model, net, _ctx, (_verdicts, reach, _t) = scenario("newscs", (1, 5), "BOB")
    table = {}
    patterns = set()
    for locs, data in reach:
        skel = K._build_skeleton(net, locs, data, table)
        assert skel.inv_atoms == K.invariant_indices(net, locs, data)
        owners = net.clock_owners(data)
        assert (skel.inv_atoms, skel.bounds) == K._invariants(net, locs, data, owners, {})
        for _d, _cg, locs2, data2, _drop, _nnew, _perm, inv2, bounds2 in skel.fires:
            assert (inv2, bounds2) == K._invariants(
                net, locs2, data2, net.clock_owners(data2), {})
        patterns.add((owners, tuple(K._invariant_atoms(net, locs, data))))
    # the table remembers one result per pattern, far fewer than keys
    memo = [k for k in table if type(k) is tuple and k and k[0] is K._INVARIANTS]
    assert len(memo) >= len(patterns)
    assert len(memo) * 10 < len(reach)
