"""Discrete-time oracle: equivalence with the zone engine.

Every constraint in the shipped models is a non-strict integer
comparison, so unit-step exploration reaches exactly the same
(locations, data) configurations as the zone engine and must agree on
every verdict.  The full scenario matrix is exercised again in the
acceptance suite; here the mechanics are checked per piece.
"""

import gc
import os
from collections import deque

import pytest

from tacv import oracle
from tacv import queries as Q
from tacv.contracts import build_cs_model, build_newscs_model, instantiate
from tacv.kernel import (
    AutomatonTemplate, Edge, Location, ModelError, Network, explore,
)
from tacv.modelio import build_model
from tacv.oracle import (
    _clock_constants, _Concrete, default_horizon, explore_discrete,
)
from tacv.world import WorldConstants

from conftest import automaton_index
from test_modelio import SHIPPED_IDS, SHIPPED_ROWS, shipped_net, shipped_queries
from test_queries import first_meeting

CS = build_cs_model(WorldConstants(2, 5))
CS_MODEL = os.path.join(os.path.dirname(Q.__file__), "models", "cs.model")


def scenario(model, adversary):
    net, ctx = instantiate(model, adversary=adversary)
    return net, ctx


class TestReachability:
    @pytest.mark.parametrize("adversary", [None, "ALICE", "BOB"])
    def test_cs_sets_equal(self, adversary):
        net, _ctx = scenario(CS, adversary)
        zr = explore(net, collect_reachable=True)
        orr, _verdicts = explore_discrete(net)
        assert zr.reachable == orr.reachable

    def test_newscs_honest_sets_equal(self):
        model = build_newscs_model(WorldConstants(1, 5))
        net, _ctx = scenario(model, None)
        zr = explore(net, collect_reachable=True)
        orr, _verdicts = explore_discrete(net)
        assert zr.reachable == orr.reachable

    def test_empty_network_single_state(self):
        net = Network("empty", [], (), lambda d: ())
        res, _verdicts = explore_discrete(net)
        assert res.states == 1

    @pytest.mark.parametrize("contract,constants,variant,adversary,counts",
                             SHIPPED_ROWS, ids=SHIPPED_IDS)
    def test_keys_share_locations_and_valuations(self, contract, constants,
                                                 variant, adversary, counts):
        # one object per distinct locations tuple and per distinct
        # valuation among the reachable keys, as among the stored states
        _model, net, _ctx = shipped_net(contract, constants, variant, adversary)
        keys = explore_discrete(net)[0].reachable
        assert len(keys) == counts[0]
        for part in (0, 1):
            assert len({id(key[part]) for key in keys}) == len({key[part] for key in keys})
        assert len({locs for locs, _data in keys}) < len(keys)


def global_bfs(net, queries=()):
    """The reference search: one breadth-first queue over every instant
    and one set of every concrete state seen, as the oracle searched
    before its sweep.  Returns (reachable keys, transitions, verdicts,
    concrete states stored); a violated query counts as VIOLATED, any
    other as SATISFIED."""
    queries = tuple(queries)
    horizon = default_horizon(net, queries)
    regions_of = Q.region_memo(queries)
    between = {i for i, q in enumerate(queries)
               if len(_clock_constants(q.root)) >= 2}
    live = list(range(len(queries)))

    def checked(state, time, among):
        regions = regions_of(state)
        for i in among:
            if Q.in_region(regions[i], time):
                live.remove(i)
        return not live

    init = _Concrete(tuple(a.initial for a in net.automata), net.initial_data,
                     0, (0,) * len(net.clock_owners(net.initial_data)))
    seen = {init}
    keys = {(init.locs, init.data)}
    frontier = deque([init])
    transitions = 0
    done = bool(live) and checked(init, init.time, tuple(live))
    while frontier and not done:
        state = frontier.popleft()
        succ = oracle._discrete_successors(net, state)
        transitions += len(succ)
        if between and succ and succ[0].time > state.time:
            halfway = [i for i in live if i in between]
            if halfway and checked(state, state.time + 0.5, halfway):
                break
        for nxt in succ:
            if nxt.time > horizon or nxt in seen:
                continue
            seen.add(nxt)
            keys.add((nxt.locs, nxt.data))
            if live and checked(nxt, nxt.time, tuple(live)):
                done = True
                break
            frontier.append(nxt)
    verdicts = tuple("SATISFIED" if i in live else "VIOLATED"
                     for i in range(len(queries)))
    return frozenset(keys), transitions, verdicts, len(seen)


class TestSweep:
    """The oracle explores one instant of `time` at a time and keeps only
    the concrete states of the current and the next instant."""

    # a breadth-first queue over every instant expands states out of
    # `time` order on both scenarios
    @pytest.mark.parametrize("scenario", [
        ("cs", (10, 100), {}, "ALICE"), ("newscs", (1, 5), {}, "BOB"),
    ], ids=["cs-10-100-ALICE", "newscs-1-5-BOB"])
    def test_instants_in_order(self, monkeypatch, scenario):
        _model, net, _ctx = shipped_net(*scenario)
        times = []

        def successors(net, state):
            times.append(state.time)
            return expand(net, state)

        expand = oracle._discrete_successors
        monkeypatch.setattr(oracle, "_discrete_successors", successors)
        explore_discrete(net)
        assert times == sorted(times)
        assert len(set(times)) > 5

    @pytest.mark.parametrize("contract,constants,variant,adversary,counts",
                             SHIPPED_ROWS, ids=SHIPPED_IDS)
    def test_same_as_global_bfs(self, contract, constants, variant, adversary,
                                counts):
        model, net, ctx = shipped_net(contract, constants, variant, adversary)
        asts = shipped_queries(model, ctx)
        keys, transitions, verdicts, _stored = global_bfs(net, asts)
        res, got = explore_discrete(net, queries=asts)
        assert res.reachable == keys
        assert len(keys) == counts[0]
        assert res.transitions == transitions
        assert got == verdicts

    @pytest.mark.parametrize("row", [3, 6], ids=[SHIPPED_IDS[3], SHIPPED_IDS[6]])
    def test_state_budget_counts_every_instant(self, row):
        _model, net, _ctx = shipped_net(*SHIPPED_ROWS[row][:4])
        stored = global_bfs(net)[3]
        whole = explore_discrete(net, max_states=stored)[0]
        assert (whole.verdict, whole.limit_reason) == ("SATISFIED", None)
        cut = explore_discrete(net, max_states=stored - 1)[0]
        assert (cut.verdict, cut.limit_reason) == ("LIMIT", "state budget exhausted")


class TestVerdicts:
    @pytest.mark.parametrize("adversary,name,expected", [
        (None, "bob_knows_secret", "SATISFIED"),
        ("ALICE", "bob_knows_secret", "VIOLATED"),
        ("ALICE", "bob_security", "SATISFIED"),
        ("ALICE", "alice_holds_deposit", "VIOLATED"),
        ("BOB", "alice_security", "SATISFIED"),
    ])
    def test_agrees_with_zone_engine(self, adversary, name, expected):
        net, ctx = scenario(CS, adversary)
        q = Q.parse_query(CS.queries[name], ctx)
        zv = explore(net, check=Q.make_checker(q)).verdict
        ov = explore_discrete(net, queries=[q])[0].verdict
        assert zv == ov == expected


class TestMultiQuery:
    @pytest.mark.parametrize("adversary", [None, "ALICE", "BOB"])
    def test_one_pass_matches_oracle_and_single_runs(self, adversary):
        net, ctx = scenario(CS, adversary)
        asts = []
        for name in sorted(CS.queries):
            try:
                asts.append(Q.parse_query(CS.queries[name], ctx))
            except Q.QueryError:
                continue  # names BobTA, absent when Bob is the adversary
        res = explore(net, check=[Q.make_checker(a) for a in asts])
        assert res.verdicts == explore_discrete(net, queries=asts)[1]
        assert len(res.traces) == len(asts)
        for ast, verdict, trace in zip(asts, res.verdicts, res.traces):
            alone = explore(net, check=Q.make_checker(ast))
            assert alone.verdict == verdict
            assert trace == alone.trace
        violated = [t for t in res.traces if t is not None]
        assert (res.verdict == "VIOLATED") == bool(violated)
        if violated:
            assert res.trace in violated


class TestRegionMemo:
    def test_memoized_region_equals_violation_region(self):
        net, ctx = scenario(CS, "ALICE")
        asts = [Q.parse_query(CS.queries[n], ctx) for n in sorted(CS.queries)]
        states = []
        explore(net, check=states.append)
        assert len(states) > 100
        regions_of = Q.region_memo(asts)
        for state in states:
            assert regions_of(state) == tuple(
                Q.violation_region(ast, state) for ast in asts)

    def test_newscs_alice_every_reachable_state(self):
        model = build_newscs_model(WorldConstants(1, 5))
        net, ctx = scenario(model, "ALICE")
        asts = [Q.parse_query(model.queries[n], ctx) for n in sorted(model.queries)]
        asts.append(Q.parse_query(
            "A[] BobWatchTA.accepted imply "
            "(time <= PROT_TIMELOCK or hold_bitcoins(parties[BOB]) >= 1)", ctx))
        states = []
        explore(net, check=states.append)
        assert len(states) > 30000
        regions_of = Q.region_memo(asts)
        checkers = [Q.make_checker(ast) for ast in asts]
        for state in states:
            regions = tuple(Q.violation_region(ast, state) for ast in asts)
            assert regions_of(state) == regions
            for checker, region in zip(checkers, regions):
                assert checker(state) == first_meeting(state.zone, region)


class TestHorizon:
    def test_default_covers_thresholds_and_queries(self):
        net, ctx = scenario(CS, None)
        q = Q.parse_query(CS.queries["bob_security"], ctx)
        h = default_horizon(net, (q,))
        assert h > 7  # beyond the query constant PROT_TIMELOCK+MAX_LATENCY

    @staticmethod
    def late_scenario():
        """cs(2,5) where BobTA may move to `late` at 3*PROT_TIMELOCK = 15,
        past the last deadline threshold (5), and `A[] not BobTA.late`."""
        text = open(CS_MODEL).read()
        for line, extra in [
            ("location accepted named", "location late named"),
            ("[adversary ALICE]",
             'edge accepted -> late clock "time == 3*PROT_TIMELOCK" label late'),
        ]:
            assert line in text
            text = text.replace(line, extra + "\n" + line, 1)
        model = build_model(text, "late", {"MAX_LATENCY": 2, "PROT_TIMELOCK": 5})
        net, ctx = scenario(model, None)
        return net, Q.parse_query("A[] not BobTA.late", ctx)

    def test_clock_guard_beyond_every_threshold_reached(self):
        # the default horizon must cover the guard constant 15
        net, q = self.late_scenario()
        zres = explore(net, check=Q.make_checker(q))
        ores, _verdicts = explore_discrete(net, queries=[q])
        assert zres.verdict == ores.verdict == "VIOLATED"
        zone_keys = explore(net, collect_reachable=True).reachable
        assert zone_keys == explore_discrete(net)[0].reachable
        assert any(locs[automaton_index(net, "BobTA")] == 4 for locs, _d in zone_keys)

    def test_horizon_must_exceed_clock_guard_constants(self):
        # below 15 the `late` edge never fires, which would read SATISFIED
        net, q = self.late_scenario()
        with pytest.raises(ModelError, match="clock-guard constant 15"):
            explore_discrete(net, queries=[q], horizon=10)
        assert explore_discrete(net, queries=[q], horizon=16)[0].verdict == "VIOLATED"

    def test_horizon_must_exceed_query_constants(self):
        net, ctx = scenario(CS, None)
        q = Q.parse_query(CS.queries["bob_security"], ctx)
        with pytest.raises(ModelError):
            explore_discrete(net, queries=[q], horizon=5)

    def test_limit_reported(self):
        net, _ctx = scenario(CS, "ALICE")
        res, _verdicts = explore_discrete(net, max_states=10)
        assert res.verdict == "LIMIT"
        assert res.limit_reason == "state budget exhausted"

    def test_limit_reported_per_query(self):
        # a query the run did not violate before the limit is undecided
        net, ctx = scenario(CS, "ALICE")
        asts = [Q.parse_query(CS.queries[n], ctx) for n in sorted(CS.queries)]
        assert len(asts) == 5
        res, verdicts = explore_discrete(net, queries=asts, max_states=10)
        assert res.verdict == "LIMIT"
        assert verdicts == ("LIMIT",) * 5


class TestHalfIntegerTime:
    """A violation region that is an open interval between two integers
    is met halfway through a unit delay."""

    @pytest.mark.parametrize("bound,verdict", [
        (10, "VIOLATED"),   # time may pass 4.5
        (4, "SATISFIED"),   # time stops at 4
    ])
    def test_agrees_with_zone_engine(self, bound, verdict):
        inv = (("time", "<=", bound),)
        wait = AutomatonTemplate("W", [Location("w", lambda d: inv)], [])
        net = Network("wait", [wait], (), lambda d: ())
        root = Q.Or(Q.ClockAtom("<=", 4, "4"), Q.ClockAtom(">=", 5, "5"))
        q = Q.QueryAst(root, "A[] time <= 4 or time >= 5")
        assert explore(net, check=Q.make_checker(q)).verdict == verdict
        assert explore_discrete(net, queries=[q], horizon=12)[0].verdict == verdict


def strict_lower_bound_net():
    bad = AutomatonTemplate(
        "Bad", [Location("x", None)],
        [Edge(0, 0, "late", clock_guard=(("time", ">", 3),))],
    )
    return Network("bad", [bad], (), lambda d: ())


class TestClosedModelGuard:
    def test_strict_lower_bound_rejected(self):
        with pytest.raises(ModelError):
            explore_discrete(strict_lower_bound_net(), horizon=10)


class TestCollectorPause:
    """`explore_discrete` runs with the cyclic collector paused and gives
    the caller's setting back on every way out."""

    @pytest.mark.parametrize("adversary,budget,verdict", [
        (None, None, "SATISFIED"),
        ("ALICE", None, "VIOLATED"),
        (None, 3, "LIMIT"),
    ], ids=["return", "early-stop", "limit"])
    def test_caller_setting_restored(self, collector, adversary, budget, verdict):
        net, ctx = scenario(CS, adversary)
        owners, seen = net.clock_owners, []

        def clock_owners(data):
            seen.append(gc.isenabled())
            return owners(data)

        net.clock_owners = clock_owners
        q = Q.parse_query(CS.queries["bob_knows_secret"], ctx)
        res, _verdicts = explore_discrete(net, queries=[q], max_states=budget)
        assert res.verdict == verdict
        assert seen and not any(seen)
        assert gc.isenabled() == collector

    def test_raising_model(self, collector):
        with pytest.raises(ModelError, match="strict lower clock bound"):
            explore_discrete(strict_lower_bound_net(), horizon=10)
        assert gc.isenabled() == collector
