"""Kernel semantics on a small synthetic network.

A two-job system: jobs are started (their clock is born at zero) and
must finish within 3 time units of starting; a ticker sets a flag at
time 5, the way a deadline is written in UPPAAL: its location invariant
`time <= 5` holds while the flag is clear, and its edge `time == 5`
sets it.  This exercises delay bounded by invariants, urgent edges,
dynamic clock sets, exploration and trace replay without any of the
block-chain machinery.
"""

import functools
import gc
import json
import random
from collections import deque
from typing import NamedTuple

import pytest

from tacv import kernel as K
from tacv import modelio as M
from tacv import queries as Q
from tacv.contracts import build_cs_model, build_newscs_model, instantiate
from tacv.oracle import explore_discrete
from tacv.world import WorldConstants
from tacv.zones import INF, Zone, pack

from test_modelio import SHIPPED_IDS, SHIPPED_ROWS
from test_modelio import shipped_net as shipped_row_net
from zonekit import canonicalize, from_constraints, max_value, min_value


IDLE, RUNNING, DONE = 0, 1, 2


class Jobs(NamedTuple):
    statuses: tuple
    flag: bool
    ping: bool = False


def clock_owners(data):
    return tuple(i for i, s in enumerate(data.statuses) if s == RUNNING)


def set_status(data, i, s):
    st = data.statuses[:i] + (s,) + data.statuses[i + 1:]
    return data._replace(statuses=st)


def make_net(urgent_ping=False, deadline=5, bound=3, inv_op="<="):
    def finish_inv(data):
        return [(("tx", i), inv_op, bound) for i in clock_owners(data)]

    starter = K.AutomatonTemplate(
        "Starter",
        [K.Location("s", None)],
        [
            K.Edge(
                0, 0, "start",
                select=(("i", (0, 1)),),
                guard=lambda d, b: d.statuses[b["i"]] == IDLE,
                update=lambda d, b: set_status(d, b["i"], RUNNING),
            )
        ],
    )
    finisher = K.AutomatonTemplate(
        "Finisher",
        [K.Location("f", finish_inv)],
        [
            K.Edge(
                0, 0, "finish",
                select=(("i", (0, 1)),),
                guard=lambda d, b: d.statuses[b["i"]] == RUNNING,
                update=lambda d, b: set_status(d, b["i"], DONE),
            )
        ],
    )
    automata = [starter, finisher]
    if urgent_ping:
        pinger = K.AutomatonTemplate(
            "Pinger",
            [K.Location("p", None)],
            [
                K.Edge(
                    0, 0, "ping",
                    guard=lambda d, b: not d.ping,
                    urgent=True,
                    update=lambda d, b: d._replace(ping=True),
                )
            ],
        )
        automata.append(pinger)
    cap = (("time", "<=", deadline),)
    ticker = K.AutomatonTemplate(
        "Ticker",
        [K.Location("t", lambda d: () if d.flag else cap)],
        [
            K.Edge(
                0, 0, "tick",
                guard=lambda d, b: not d.flag,
                clock_guard=(("time", "==", deadline),),
                update=lambda d, b: d._replace(flag=True),
            )
        ],
    )
    automata.append(ticker)
    return K.Network(
        "jobs",
        automata,
        Jobs((IDLE, IDLE), False),
        clock_owners,
    )


def by_label(net, state, label, i=None):
    """Successor states whose label contains `label` (and binds i, if given)."""
    return [
        nxt for desc, nxt in K.successors(net, state)
        if label in K.step_label(net, desc)
        and (i is None or dict(desc[3])["i"] == i)
    ]


def delayed(net, state):
    """The delay successor of `state`, or None when time cannot pass."""
    found = by_label(net, state, "delay")
    assert len(found) <= 1
    return found[0] if found else None


class TestDelay:
    def test_delay_caps_at_pending_deadline(self):
        net = make_net()
        s0 = K.initial_state(net)
        d = delayed(net, s0)
        assert d is not None
        assert max_value(d.zone, 1) == 5
        assert delayed(net, d) is None

    def test_flip_fires_exactly_at_threshold_then_time_freed(self):
        net = make_net()
        s0 = K.initial_state(net)
        d = delayed(net, s0)
        ticks = by_label(net, d, "tick")
        assert len(ticks) == 1
        flipped = ticks[0]
        assert flipped.data.flag
        assert min_value(flipped.zone, 1) == 5 and max_value(flipped.zone, 1) == 5
        after = delayed(net, flipped)
        assert max_value(after.zone, 1) is None

    def test_running_job_caps_delay(self):
        net = make_net()
        s0 = K.initial_state(net)
        s1 = by_label(net, s0, "start", i=0)[0]
        assert K.clock_layout(net, s1.data) == {"time": 1, ("tx", 0): 2}
        d = delayed(net, s1)
        assert max_value(d.zone, 2) == 3  # job clock bound
        assert max_value(d.zone, 1) == 3  # time tied to the job clock here

    def test_urgent_pair_blocks_delay(self):
        net = make_net(urgent_ping=True)
        s0 = K.initial_state(net)
        assert delayed(net, s0) is None
        s1 = by_label(net, s0, "Pinger.ping")[0]
        assert s1.data.ping
        assert delayed(net, s1) is not None


class TestOrder:
    def test_non_urgent_instances_before_urgent(self):
        # Pinger (automaton 2) sits between Starter and Ticker (3), so an
        # order by automaton alone would put ping before tick
        net = make_net(urgent_ping=True)
        s0 = K.initial_state(net)
        insts = K.enabled_transitions(net, s0.locs, s0.data)
        assert [(K.step_label(net, ("fire", i.auto, i.edge, i.binds)),
                 i.binds, i.urgent) for i in insts] == [
            ("Starter.start", (("i", 0),), False),
            ("Starter.start", (("i", 1),), False),
            ("Ticker.tick", (), False),
            ("Pinger.ping", (), True),
        ]

    @pytest.mark.parametrize("row", [1, 5], ids=[SHIPPED_IDS[1], SHIPPED_IDS[5]])
    def test_network_instances_on_every_reachable_key(self, row):
        """The network's prebuilt instances give the list that building
        one instance per enabled binding gives, and no call builds one."""
        def rebuilt(net, locs, data):
            plain, urgent = [], []
            for ai, a in enumerate(net.automata):
                for ei, e in a.edges_from(locs[ai]):
                    for binds, bkey in a.bindings[ei]:
                        if e.guard is None or e.guard(data, binds):
                            (urgent if e.urgent else plain).append(
                                K.TransitionInstance(ai, ei, bkey, e.urgent))
            return plain + urgent

        _model, net, _ctx = shipped_row_net(*SHIPPED_ROWS[row][:4])
        reachable = K.explore(net, collect_reachable=True).reachable
        prebuilt = {id(inst) for per_auto in net.instances
                    for pairs in per_auto for _b, inst in pairs}
        for key in reachable:
            insts = K.enabled_transitions(net, *key)
            assert insts == rebuilt(net, *key)
            assert all(id(inst) in prebuilt for inst in insts)


class TestClockLifecycle:
    def test_clock_born_at_zero_and_dropped(self):
        net = make_net()
        s0 = K.initial_state(net)
        d = delayed(net, s0)  # time in [0, 5]
        s1 = by_label(net, d, "start", i=1)[0]
        assert s1.zone.dim == 3
        assert max_value(s1.zone, 2) == 0  # fresh clock pinned to zero
        s2 = by_label(net, s1, "finish", i=1)[0]
        assert s2.zone.dim == 2

    def test_two_jobs_sorted_layout(self):
        net = make_net()
        s0 = K.initial_state(net)
        s1 = by_label(net, s0, "start", i=1)[0]
        s2 = by_label(net, s1, "start", i=0)[0]
        assert K.clock_layout(net, s2.data) == {
            "time": 1, ("tx", 0): 2, ("tx", 1): 3,
        }


class TestExplore:
    def test_empty_network_single_configuration(self):
        net = K.Network("empty", [], Jobs((), True), clock_owners)
        res = K.explore(net, check=lambda s: None)
        assert res.verdict == "SATISFIED"
        assert res.states == 1

    def test_satisfied_and_counts(self):
        net = make_net()
        res = K.explore(net, check=lambda s: None)
        assert res.verdict == "SATISFIED"
        assert res.states > 1
        assert res.transitions > 0

    def test_violation_with_replayable_trace(self):
        net = make_net()

        def both_done_before_flag(state):
            # claim: the flag flips before both jobs finish (falsifiable)
            if all(s == DONE for s in state.data.statuses) and not state.data.flag:
                return state.zone
            return None

        res = K.explore(net, check=both_done_before_flag)
        assert res.verdict == "VIOLATED"
        final = K.replay_trace(net, res.trace)
        assert all(s == DONE for s in final.data.statuses)
        assert not final.data.flag
        # delays in the trace carry integer clock witnesses
        for step in res.trace.steps:
            assert step.valuation["time"] >= 0

    def test_violating_initial_state(self):
        net = make_net()
        res = K.explore(net, check=lambda s: s.zone)
        assert res.verdict == "VIOLATED"
        assert len(res.trace.steps) == 0

    def test_limit_reported_distinctly(self):
        net = make_net()
        res = K.explore(net, check=lambda s: None, max_states=3)
        assert res.verdict == "LIMIT"
        assert res.limit_reason == "state budget exhausted"

    def test_subsumption_does_not_change_verdict(self):
        net = make_net()

        def check(state):
            if state.data.statuses[0] == DONE and state.data.flag:
                return state.zone
            return None

        r1 = K.explore(net, check=check, subsumption=True)
        r2 = K.explore(net, check=check, subsumption=False)
        assert r1.verdict == r2.verdict == "VIOLATED"

    def test_deterministic_single_worker(self):
        net = make_net()

        def check(state):
            if all(s == DONE for s in state.data.statuses):
                return state.zone
            return None

        t1 = K.explore(net, check=check).trace
        t2 = K.explore(net, check=check).trace
        assert [s.descriptor for s in t1.steps] == [s.descriptor for s in t2.steps]
        assert [s.valuation for s in t1.steps] == [s.valuation for s in t2.steps]


class TestCollectorPause:
    """`explore` runs with the cyclic collector paused and gives the
    caller's setting back on every way out."""

    @pytest.mark.parametrize("violation,budget,verdict", [
        (False, None, "SATISFIED"),
        (True, None, "VIOLATED"),
        (False, 3, "LIMIT"),
    ], ids=["return", "early-stop", "limit"])
    def test_caller_setting_restored(self, collector, violation, budget, verdict):
        seen = []

        def check(state):
            seen.append(gc.isenabled())
            if violation and all(s == DONE for s in state.data.statuses):
                return state.zone
            return None

        res = K.explore(make_net(), check=check, max_states=budget)
        assert res.verdict == verdict
        assert (res.trace is not None) == violation
        assert seen and not any(seen)
        assert gc.isenabled() == collector

    def test_raising_checker(self, collector):
        def check(state):
            raise RuntimeError("checker failed")

        with pytest.raises(RuntimeError, match="checker failed"):
            K.explore(make_net(), check=check)
        assert gc.isenabled() == collector


def raw_row(passed, key):
    """The row of `key` in `passed` as stored: the bare zone or a tuple."""
    locs, data = key
    return passed._store[locs][data]


def passed_row(passed, key):
    """The stored zones of `key` in `passed` as a tuple."""
    row = raw_row(passed, key)
    return row if type(row) is tuple else (row,)


class TestPassedList:
    """The unified passed/waiting list on hand-made zones of one key: a
    row holds the key's stored zones, the bare zone while there is one,
    and an evicted zone leaves it (the state that stored it is dead)."""

    KEY = ((0,), Jobs((), True))

    def zone(self, upper, lower=0):
        # time in [lower, upper]
        return Zone.origin(2).up().constrained(
            [(1, 0, "<=", upper), (1, 0, ">=", lower)])

    def insert(self, passed, zone, key=KEY):
        return passed.insert(*key, zone)

    def test_covering_zone_marks_stored_one_dead(self):
        passed = K._Passed()
        assert self.insert(passed, self.zone(2))
        assert self.insert(passed, self.zone(5))
        assert passed_row(passed, self.KEY) == (self.zone(5),)

    def test_incomparable_zones_stay_alive_until_covered(self):
        passed = K._Passed()
        assert self.insert(passed, self.zone(2))
        assert self.insert(passed, self.zone(5, lower=4))
        assert passed_row(passed, self.KEY) == (self.zone(2), self.zone(5, lower=4))
        assert self.insert(passed, self.zone(5))
        assert passed_row(passed, self.KEY) == (self.zone(5),)

    def test_equal_or_smaller_zone_rejected(self):
        passed = K._Passed()
        assert self.insert(passed, self.zone(5))
        assert not self.insert(passed, self.zone(5))
        assert not self.insert(passed, self.zone(2))
        assert not self.insert(passed, Zone.origin(2))
        assert passed_row(passed, self.KEY) == (self.zone(5),)

    def test_insert_reports_eviction(self):
        passed = K._Passed()
        assert self.insert(passed, self.zone(2)) == K.STORED
        assert self.insert(passed, self.zone(5, lower=4)) == K.STORED
        assert self.insert(passed, self.zone(1)) == K.COVERED
        assert self.insert(passed, self.zone(5)) == K.EVICTED

    def test_without_subsumption_nothing_dies(self):
        passed = K._Passed(subsumption=False)
        assert self.insert(passed, self.zone(2))
        assert self.insert(passed, self.zone(5))
        assert not self.insert(passed, self.zone(5))
        assert self.insert(passed, Zone.origin(2))
        assert passed_row(passed, self.KEY) == (
            self.zone(2), self.zone(5), Zone.origin(2))

    def test_one_zone_row_is_the_bare_zone(self):
        passed = K._Passed()
        zone = self.zone(2)
        assert self.insert(passed, zone) == K.STORED
        assert raw_row(passed, self.KEY) is zone
        assert self.insert(passed, self.zone(5, lower=4)) == K.STORED
        assert type(raw_row(passed, self.KEY)) is tuple

    def test_eviction_back_to_one_zone_stores_it_bare(self):
        passed = K._Passed()
        self.insert(passed, self.zone(2))
        self.insert(passed, self.zone(6, lower=5))
        self.insert(passed, self.zone(8, lower=7))
        wide = self.zone(5)
        # evicts zone(2) only: two zones are left, as a tuple
        assert self.insert(passed, wide) == K.EVICTED
        assert passed_row(passed, self.KEY) == (
            self.zone(6, lower=5), self.zone(8, lower=7), wide)
        wider = self.zone(8)
        assert self.insert(passed, wider) == K.EVICTED
        assert raw_row(passed, self.KEY) is wider

    def test_without_subsumption_rows(self):
        passed = K._Passed(subsumption=False)
        small, large = self.zone(2), self.zone(5)
        assert self.insert(passed, large) == K.STORED
        assert raw_row(passed, self.KEY) is large
        assert self.insert(passed, small) == K.STORED
        assert raw_row(passed, self.KEY) == (large, small)
        assert self.insert(passed, self.zone(2)) == K.COVERED
        assert passed_row(passed, self.KEY) == (large, small)

    def test_key_count_across_two_locations_tuples(self):
        passed = K._Passed()
        other_locs = ((1,), self.KEY[1])
        other_data = (self.KEY[0], Jobs((), False))
        assert self.insert(passed, self.zone(2)) == K.STORED
        assert self.insert(passed, self.zone(2), other_locs) == K.STORED
        assert self.insert(passed, self.zone(5), other_data) == K.STORED
        assert passed.key_count == 3
        # a second zone of a stored key, covered or not, adds no key
        assert self.insert(passed, self.zone(1), other_locs) == K.COVERED
        assert self.insert(passed, self.zone(5), other_locs) == K.EVICTED
        assert passed.key_count == 3
        assert {locs: len(rows) for locs, rows in passed._store.items()} == {
            (0,): 2, (1,): 1}

    def test_rows_of_one_exploration(self, monkeypatch):
        made = []

        class Recorded(K._Passed):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(K, "_Passed", Recorded)
        net, _ctx = instantiate(build_newscs_model(WorldConstants(1, 5)),
                                adversary="BOB")
        res = K.explore(net, collect_reachable=True)
        (passed,) = made
        keys, shapes = set(), {Zone: 0, tuple: 0}
        for locs, rows in passed._store.items():
            for data, row in rows.items():
                keys.add((locs, data))
                shapes[type(row)] += 1
                if type(row) is tuple:
                    assert len(row) >= 2
                    assert all(type(z) is Zone for z in row)
        assert keys == res.reachable
        assert passed.key_count == res.states == len(keys)
        # here every key ends with one zone, stored bare
        assert shapes == {Zone: len(keys), tuple: 0}


class TestValidation:
    def test_urgent_clock_guard_rejected(self):
        bad = K.AutomatonTemplate(
            "Bad",
            [K.Location("x", None)],
            [K.Edge(0, 0, "e", urgent=True,
                    clock_guard=(("time", "<=", 1),))],
        )
        with pytest.raises(K.ModelError):
            K.Network("bad", [bad], Jobs((), False), clock_owners)

    def test_transaction_clock_guard_rejected(self):
        # a job's finishing edge guards the job's clock
        job = [K.Location("A", None), K.Location("J", None)]
        finish = K.Edge(0, 1, "finish", clock_guard=((("tx", 0), ">=", 1),))
        with pytest.raises(K.ModelError,
                           match=r"Job: edge finish guards clock \('tx', 0\)"):
            K.AutomatonTemplate("Job", job, [finish])

    @pytest.mark.parametrize("op", [">=", ">", "=="])
    def test_invariant_lower_bound_rejected(self, op):
        # the invariant ("tx", i) >= 1 is a callable of the data: it is
        # rejected once a job runs and its atoms are built
        net = make_net(inv_op=op, bound=1)
        with pytest.raises(K.ModelError, match="from below"):
            K.explore(net)


class TestInvariantMemo:
    """`_invariants` remembers its result per (clock owners, raw atoms)
    pattern in the intern table."""

    # two keys with job 0 running, the second with job 1 done: their
    # owners and raw invariant atoms are the same
    KEYS = [((0, 0, 0), Jobs((RUNNING, IDLE), False)),
            ((0, 0, 0), Jobs((RUNNING, DONE), False))]

    @staticmethod
    def memo_entries(table):
        return [k for k in table if type(k) is tuple and k and k[0] is K._INVARIANTS]

    def test_pattern_shared_by_two_keys_built_once(self):
        net = make_net()
        table = {}
        first, second = (K._invariants(net, locs, data, (0,), table)
                         for locs, data in self.KEYS)
        assert first == (((2, 0, "<=", 3), (1, 0, "<=", 5)), ((2, 7),))
        assert second[0] is first[0] and second[1] is first[1]
        assert len(self.memo_entries(table)) == 1

    def test_lower_bound_raises_for_every_key(self):
        net = make_net(inv_op=">=", bound=1)
        table = {}
        for locs, data in self.KEYS:
            with pytest.raises(K.ModelError, match="from below"):
                K._invariants(net, locs, data, (0,), table)
        assert self.memo_entries(table) == []


def random_zone(rng, dim, bound):
    """A nonempty closed zone whose clocks 2.. satisfy x <= bound."""
    while True:
        atoms = [(i, 0, "<=", bound) for i in range(2, dim)]
        for _ in range(rng.randint(0, 2 * dim)):
            i, j = rng.sample(range(dim), 2)
            atoms.append((i, j, rng.choice(["<=", "<", ">=", ">"]),
                          rng.randint(-bound - 2, bound + 2)))
        z = from_constraints(dim, atoms)
        if not z.is_empty():
            return z


class TestExtrapolation:
    """The O(n) row rewrite of `explore` on transaction clocks."""

    def reference(self, zone, x, bound):
        # Extra+_LU with L(x) = -inf forgets x's row; then x <= bound
        n = zone.dim
        work = list(zone.m)
        for j in range(n):
            if j != x:
                work[x * n + j] = INF
        forgot = canonicalize(Zone(n, tuple(work), _canonical=True))
        return forgot.constrained([(x, 0, "<=", bound)])

    def test_row_rewrite_is_extra_lu_then_invariant(self):
        rng = random.Random(11)
        for _ in range(500):
            dim = rng.randint(3, 6)
            bound = rng.randint(1, 4)
            z = random_zone(rng, dim, bound)
            x = rng.randrange(2, dim)
            got = K._extrapolate(z, ((x, pack(bound, True)),))
            assert got == self.reference(z, x, bound)
            assert got.subsumes(z)
            assert canonicalize(got) == got
            # every row at once, in either order, is one abstraction
            bounds = tuple((i, pack(bound, True)) for i in range(2, dim))
            once = K._extrapolate(z, bounds)
            assert once == K._extrapolate(z, bounds[::-1])
            assert K._extrapolate(once, bounds) is once

    def test_lower_bounded_or_pinned_clock_kept(self):
        pinned = from_constraints(3, [(2, 0, "<=", 0)])
        assert K._extrapolate(pinned, ((2, pack(0, True)),)) is pinned

    def test_same_reachable_set_fewer_transitions(self):
        net = make_net()
        on = K.explore(net, collect_reachable=True)
        off = K.explore(net, collect_reachable=True, extrapolate=False)
        assert on.reachable == off.reachable
        assert on.transitions < off.transitions


class TestRandomRun:
    def test_same_seed_same_run(self):
        net = make_net()
        t1 = K.random_run(net, seed=42, steps=6)
        t2 = K.random_run(net, seed=42, steps=6)
        assert [s.descriptor for s in t1.steps] == [s.descriptor for s in t2.steps]

    def test_zero_steps(self):
        net = make_net()
        t = K.random_run(net, seed=1, steps=0)
        assert len(t.steps) == 0


def delay_closed_net():
    """A path that delays where its exact zone is already delay-closed.

    The job's clock starts at time 0 and lives from phase 1 on.  In L1
    extrapolation loosens it to `tx <= 3`, so in L2 (`time <= 1`) the
    abstract zone still grows by delay while the exact one, with
    time = tx in [0, 1], does not.
    """
    def owners(phase):
        return (0,) if phase >= 1 else ()

    def phase(p):
        return lambda d, b: p

    walk = K.AutomatonTemplate("Walk", [
        K.Location("L0", lambda d: (("time", "<=", 0),)),
        K.Location("L1", lambda d: ((("tx", 0), "<=", 3),)),
        K.Location("L2", lambda d: (("time", "<=", 1),)),
        K.Location("L3", None),
        K.Location("L4", None),
    ], [
        K.Edge(0, 1, "start", update=phase(1)),
        K.Edge(1, 2, "enter"),
        K.Edge(2, 3, "step", update=phase(2)),
        K.Edge(3, 4, "goal", update=phase(3)),
    ])
    return K.Network("delay-closed", [walk], 0, owners)


class TestDelayClosedExactZone:
    """A counterexample whose path delays where the exact zone cannot."""

    @pytest.mark.parametrize("extrapolate", [True, False])
    def test_counterexample_replays(self, extrapolate):
        net = delay_closed_net()
        res = K.explore(net, check=lambda s: s.zone if s.locs == (4,) else None,
                        extrapolate=extrapolate)
        assert res.verdict == "VIOLATED"
        final = K.replay_trace(net, res.trace)
        assert (final.locs, final.data) == ((4,), 3)
        assert [s.label for s in res.trace.steps if s.kind == "fire"] == [
            "Walk.start", "Walk.enter", "Walk.step", "Walk.goal"]


def guard_drop_net():
    """A job whose finishing edge guards `time` and drops the job's clock.

    The data moves 'idle' -> 'job' -> 'done'; the job's clock lives only
    in 'job'.  `start` fires by time 1, J holds the clock to at most 3,
    and `finish` needs time at least 2, so the clock reads 1 to 3 when
    `finish` drops it and no value of the state after `finish` pins it.
    """
    def owners(data):
        return (0,) if data == "job" else ()

    job = K.AutomatonTemplate("Job", [
        K.Location("A", None),
        K.Location("J", lambda d: ((("tx", 0), "<=", 3),)),
        K.Location("B", None),
    ], [
        K.Edge(0, 1, "start", clock_guard=(("time", "<=", 1),),
               update=lambda d, b: "job"),
        K.Edge(1, 2, "finish", clock_guard=(("time", ">=", 2),),
               update=lambda d, b: "done"),
    ])
    return K.Network("guard-drop", [job], "idle", owners)


class TestGuardOnDroppedClock:
    """Traces through a fire whose `time` guard bounds a clock it drops."""

    def test_counterexample_replays(self):
        net = guard_drop_net()
        res = K.explore(net, check=lambda s: s.zone if s.locs == (2,) else None)
        assert res.verdict == "VIOLATED"
        assert [s.label for s in res.trace.steps if s.kind == "fire"] == [
            "Job.start", "Job.finish"]
        final = K.replay_trace(net, res.trace)
        assert (final.locs, final.data) == ((2,), "done")

    def test_random_runs_replay(self):
        net = guard_drop_net()
        finished = 0
        for seed in range(30):
            trace = K.random_run(net, seed=seed, steps=6)
            final = K.replay_trace(net, trace)
            finished += final.locs == (2,)
        assert finished > 0


# shipped scenarios small enough to explore in full with every check on
SHIPPED = {
    "newscs-1-5-honest": (build_newscs_model, (1, 5), None),
    "cs-2-5-ALICE": (build_cs_model, (2, 5), "ALICE"),
}


def shipped_net(name):
    build, constants, adversary = SHIPPED[name]
    net, _ctx = instantiate(build(WorldConstants(*constants)), adversary=adversary)
    return net


def captured_skeletons(monkeypatch):
    """Patch `_build_skeleton` to keep each skeleton it builds, as
    [(key, skeleton), ...]; its fires are built as it is applied."""
    skeletons = []
    build_skeleton = K._build_skeleton

    def captured(net, locs, data, table):
        skel = build_skeleton(net, locs, data, table)
        skeletons.append(((locs, data), skel))
        return skel

    monkeypatch.setattr(K, "_build_skeleton", captured)
    return skeletons


def built_fires(skel):
    """The `_build_fire` tuples of the fires `skel` has built."""
    return [f for f, memo in zip(skel.fires, skel.memos) if memo is not None]


class TestInterning:
    """`explore` stores each discrete state component once (module notes)."""

    def test_fires_into_one_key_share_its_objects(self, monkeypatch):
        net = shipped_net("cs-2-5-ALICE")
        skeletons = captured_skeletons(monkeypatch)
        K.explore(net)
        into = {}  # key -> [(source key, locs, data), ...] of fires reaching it
        for source, skel in skeletons:
            for _desc, _cg, locs2, data2, *_rest in built_fires(skel):
                into.setdefault((locs2, data2), []).append((source, locs2, data2))
        shared = [fires for fires in into.values()
                  if len({source for source, _l, _d in fires}) > 1]
        assert shared
        for (_source, locs, data), *rest in shared:
            assert all(l is locs and d is data for _s, l, d in rest)

    @pytest.mark.parametrize("contract,constants,variant,adversary,counts",
                             SHIPPED_ROWS, ids=SHIPPED_IDS)
    def test_table_holds_exactly_the_reachable_valuations(
            self, contract, constants, variant, adversary, counts, monkeypatch):
        # a fire is built, and its valuation interned, only on a zone
        # that meets its clock guard
        _model, net, _ctx = shipped_row_net(contract, constants, variant,
                                            adversary)
        tables = []
        build_skeleton = K._build_skeleton

        def captured(net_, locs, data, table):
            tables.append(table)
            return build_skeleton(net_, locs, data, table)

        monkeypatch.setattr(K, "_build_skeleton", captured)
        res = K.explore(net, collect_reachable=True)
        valuations = [k for k in tables[0] if type(k) is type(net.initial_data)]
        assert len(valuations) == len(set(valuations))
        assert set(valuations) == {data for _locs, data in res.reachable}

    def test_stored_states_of_a_key_share_its_objects(self):
        stored = []
        K.explore(shipped_net("cs-2-5-ALICE"), check=stored.append)
        first = {}
        for state in stored:
            locs, data = first.setdefault((state.locs, state.data),
                                          (state.locs, state.data))
            assert state.locs is locs and state.data is data
        assert len(stored) > len(first)

    def test_valuation_keeps_its_type(self):
        # the valuation Count(0) equals the initial locations (0,), which
        # the table holds first; the guard reads a field of the valuation
        class Count(NamedTuple):
            n: int

        counter = K.AutomatonTemplate("Counter", [
            K.Location("a", None), K.Location("b", None),
        ], [
            K.Edge(0, 1, "step", guard=lambda d, b: d.n == 0,
                   update=lambda d, b: d._replace(n=1)),
        ])
        net = K.Network("count", [counter], Count(0), lambda d: ())
        res = K.explore(net, check=lambda s: s.zone if s.data.n == 1 else None)
        assert res.verdict == "VIOLATED"
        assert [type(s.data) for s in res.trace.steps] == [Count]

    def test_no_module_table_grows(self):
        from tacv import oracle, queries, world, zones

        def sizes():
            return {
                (mod.__name__, name): len(value)
                for mod in (K, zones, world, queries, oracle)
                for name, value in vars(mod).items()
                if not name.startswith("__")
                and isinstance(value, (dict, list, set))
            }

        before = sizes()
        # constants no other test uses, so a table that outlives a call
        # would have to grow
        K.explore(make_net(deadline=97, bound=89))
        K.explore(shipped_net("cs-2-5-ALICE"))
        assert sizes() == before



class TestSearchOrder:
    """A state whose zone evicts a stored zone is expanded before the
    rest of the waiting queue (module notes); without subsumption the
    search is plain breadth-first."""

    def expansions(self, monkeypatch):
        """Patch `_apply_skeleton` to record each expanded (key, zone)."""
        keys, expanded = {}, []
        build_skeleton, apply_skeleton = K._build_skeleton, K._apply_skeleton

        def keyed_skeleton(net, locs, data, table):
            skel = build_skeleton(net, locs, data, table)
            # holding skel keeps its id from being reused by a later one
            keys[id(skel)] = (skel, (locs, data))
            return skel

        def recorded(skel, zone):
            expanded.append((keys[id(skel)][1], zone))
            return apply_skeleton(skel, zone)

        monkeypatch.setattr(K, "_build_skeleton", keyed_skeleton)
        monkeypatch.setattr(K, "_apply_skeleton", recorded)
        return expanded

    def test_evictors_first_expansions(self, monkeypatch):
        # plain breadth-first order expands 388 states here
        net, _ctx = instantiate(build_cs_model(WorldConstants(10, 100)),
                                adversary="ALICE")
        expanded = self.expansions(monkeypatch)
        res = K.explore(net)
        assert (res.states, len(expanded)) == (249, 287)

    def test_without_subsumption_breadth_first(self, monkeypatch):
        net, _ctx = instantiate(build_cs_model(WorldConstants(2, 5)),
                                adversary="ALICE")
        expanded = self.expansions(monkeypatch)
        stored = []
        insert = K._Passed.insert

        def recorded(passed, locs, data, zone):
            outcome = insert(passed, locs, data, zone)
            if outcome:
                assert outcome == K.STORED
                stored.append(((locs, data), zone))
            return outcome

        monkeypatch.setattr(K._Passed, "insert", recorded)
        K.explore(net, subsumption=False)
        # every stored state is expanded, in the order it was stored
        assert expanded == stored


def revisit_net():
    """A key whose last waiting state is expanded before a later zone of
    it is stored.  Flip leaves A at once (an urgent edge blocks delay
    there); B delays up to `time <= 4` and goes back to A at `time >= 3`,
    a zone of A that its first zone, `time == 0`, does not cover."""
    flip = K.AutomatonTemplate("Flip", [
        K.Location("A", None),
        K.Location("B", lambda d: (("time", "<=", 4),)),
    ], [
        K.Edge(0, 1, "go", urgent=True),
        K.Edge(1, 0, "back", clock_guard=(("time", ">=", 3),)),
    ])
    return K.Network("revisit", [flip], 0, lambda d: ())


class TestSkeletonLifetime:
    """`explore` keeps a key's skeleton only while a state of the key
    waits in its queue, and builds it again for a zone of the key stored
    after that (module notes)."""

    @staticmethod
    def counted_builds(monkeypatch):
        """Patch `_build_skeleton` to count its builds per key."""
        builds = {}
        build_skeleton = K._build_skeleton

        def counted(net, locs, data, table):
            builds[(locs, data)] = builds.get((locs, data), 0) + 1
            return build_skeleton(net, locs, data, table)

        monkeypatch.setattr(K, "_build_skeleton", counted)
        return builds

    @pytest.mark.parametrize("contract,constants,variant,adversary,counts",
                             SHIPPED_ROWS, ids=SHIPPED_IDS)
    def test_one_build_per_key_on_shipped_rows(self, contract, constants,
                                               variant, adversary, counts,
                                               monkeypatch):
        _model, net, _ctx = shipped_row_net(contract, constants, variant,
                                            adversary)
        builds = self.counted_builds(monkeypatch)
        res = K.explore(net)
        assert res.states == len(builds) == counts[0]
        assert set(builds.values()) == {1}

    def test_revisited_key_rebuilt(self, monkeypatch):
        net = revisit_net()
        builds = self.counted_builds(monkeypatch)
        res = K.explore(net, collect_reachable=True)
        assert builds == {((0,), 0): 2, ((1,), 0): 1}
        flat = K.explore(net, collect_reachable=True, subsumption=False)
        oracle = explore_discrete(net, horizon=6)[0]
        assert res.reachable == flat.reachable == oracle.reachable
        assert len(res.reachable) == 2

        def in_a(*clock):
            a = Q.LocAtom(0, "Flip", 0, "A")
            atoms = [Q.ClockAtom(op, k, str(k)) for op, k in clock]
            return functools.reduce(Q.And, atoms, a)

        asts = [Q.QueryAst(Q.Not(root), "") for root in (
            in_a((">=", 3)),              # A again from time 3 on
            in_a((">", 0), ("<", 3)),     # never in A between 0 and 3
        )]
        verdicts = [K.explore(net, check=[Q.make_checker(q) for q in asts],
                              subsumption=lu).verdicts for lu in (True, False)]
        assert verdicts[0] == verdicts[1] == ("VIOLATED", "SATISFIED")
        assert explore_discrete(net, queries=asts, horizon=6)[1] == verdicts[0]

    def test_alive_skeletons_bounded_by_waiting_keys(self, monkeypatch):
        net, _ctx = instantiate(build_cs_model(WorldConstants(10, 100)),
                                adversary="ALICE")
        alive, queues, excess = [0], [], []

        class Alive(K._Skeleton):
            def __del__(self):
                alive[0] -= 1

        class Queue(deque):
            def __init__(self, *args):
                super().__init__(*args)
                queues.append(self)

        build_skeleton, apply_skeleton = K._build_skeleton, K._apply_skeleton

        def counted(net_, locs, data, table):
            alive[0] += 1
            return Alive(*build_skeleton(net_, locs, data, table))

        def measured(skel, zone):
            # a waiting record is (locs, data, zone, parent, descriptor)
            waiting = {rec[:2] for queue in queues for rec in queue}
            excess.append(alive[0] - len(waiting))
            return apply_skeleton(skel, zone)

        monkeypatch.setattr(K, "deque", Queue)
        monkeypatch.setattr(K, "_build_skeleton", counted)
        monkeypatch.setattr(K, "_apply_skeleton", measured)
        res = K.explore(net)
        assert (res.states, len(excess)) == (249, 287)
        # the skeleton of the key being expanded may be the one more
        assert max(excess) <= 1
        assert alive[0] == 0


class TestZoneMemo:
    """`explore` remembers each zone operation per (operand zone,
    operation) in its intern table, and every zone it stores or expands
    is the table's one object (module notes): each remembered result
    equals a fresh computation."""

    @pytest.mark.parametrize("contract,constants,adversary", [
        ("cs", (10, 100), "ALICE"),
        ("newscs", (1, 5), None),
    ], ids=["cs-10-100-ALICE", "newscs-1-5-honest"])
    def test_every_entry_recomputes(self, contract, constants, adversary,
                                    monkeypatch):
        _model, net, _ctx = shipped_row_net(contract, constants, {}, adversary)
        captured = captured_skeletons(monkeypatch)
        stored = []
        res = K.explore(net, check=stored.append)
        skeletons = [skel for _key, skel in captured]
        table = skeletons[0].table
        assert all(skel.table is table for skel in skeletons)

        def interned(zone):
            return zone is None or table.get(zone) is zone

        delays, fires = {}, {}  # id -> memo: skeletons share them
        for skel in skeletons:
            delays[id(skel.delays)] = skel.delays
            for zone, succ in skel.delays.items():
                fresh = zone.up().constrained(skel.inv_atoms)
                assert succ == (None if fresh == zone else fresh)
                assert interned(zone) and interned(succ)
            for fire, memo in zip(skel.fires, skel.memos):
                if memo is None:  # never built
                    continue
                fires[id(memo)] = memo
                for zone, succ in memo.items():
                    assert succ == K._fire_successor(fire, zone)
                    assert interned(zone) and interned(succ)
        extrapolations = 0
        for key, memo in table.items():
            if type(key) is tuple and key and key[0] is K._EXTRAPOLATE:
                for zone, abstract in memo.items():
                    assert abstract == K._extrapolate(zone, key[1])
                    assert interned(zone) and interned(abstract)
                extrapolations += len(memo)
        covers = table[K._SUBSUMES]
        for (a, b), known in covers.items():
            assert a is not b and known == a.subsumes(b)
        # far fewer distinct operations than applications; at latency 1
        # every transaction clock is pinned to zero, so newscs(1,5)
        # extrapolates nothing
        assert sum(map(len, delays.values())) and covers
        assert bool(extrapolations) == (contract == "cs")
        assert sum(map(len, fires.values())) * 5 < res.transitions
        # equal stored zones are one object
        canon = {}
        for state in stored:
            assert canon.setdefault(state.zone, state.zone) is state.zone
        assert len(canon) * 5 < len(stored)


class TestCheckCounts:
    """Every check runs wherever it must on the shipped scenarios.

    Transition checks run on each fire that a skeleton builds (on the
    first zone of its key that meets its clock guard), so a rebuilt
    key's fires are checked again; the network's data checks run on
    each reachable (locations, data) key, and the kernel's zone check
    once on each distinct (zone, invariant atoms) pair of a stored zone
    state.
    """

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_checks_run_per_fire_key_and_zone_state(self, name, monkeypatch):
        net = shipped_net(name)
        assert net.state_checks and net.transition_checks
        calls = {"transition": 0, "data": 0}
        pairs = []  # the (zone, invariant atoms) pair of each zone check

        def counted(kind, chk):
            def wrapped(*args):
                calls[kind] += 1
                return chk(*args)
            return wrapped

        net.transition_checks = tuple(
            counted("transition", c) for c in net.transition_checks)
        net.state_checks = tuple(counted("data", c) for c in net.state_checks)

        skeletons = captured_skeletons(monkeypatch)
        run_state_checks = K.run_state_checks

        def zone_checks(state, inv_atoms):
            # the atoms handed over are the state's own invariants
            assert inv_atoms == K.invariant_indices(net, state.locs, state.data)
            pairs.append((state.zone, inv_atoms))
            return run_state_checks(state, inv_atoms)

        monkeypatch.setattr(K, "run_state_checks", zone_checks)
        stored = []
        res = K.explore(net, check=stored.append, collect_reachable=True)
        assert res.verdict == "SATISFIED"
        built = sum(len(built_fires(skel)) for _key, skel in skeletons)
        assert 0 < built < sum(len(skel.fires) for _key, skel in skeletons)
        assert calls["transition"] == len(net.transition_checks) * built
        assert calls["data"] == len(net.state_checks) * len(res.reachable)
        # each pair is checked once, and every stored state's pair is
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == {
            (s.zone, K.invariant_indices(net, s.locs, s.data)) for s in stored}
        assert len(pairs) < len(stored)

    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_failing_data_check_stops_exploration(self, name):
        net = shipped_net(name)
        seen = []
        K.explore(net, check=lambda s: seen.append(s.data))
        target = seen[-1]  # the data of the last zone state stored
        assert target != net.initial_data

        def refuse(data):
            if data == target:
                raise K.ModelInvariantError("refused valuation")

        net.state_checks += (refuse,)
        with pytest.raises(K.ModelInvariantError, match="refused valuation"):
            K.explore(net)


def time_cap_net(cap_op, calls):
    """A location holding `time <cap_op> 3`, and a probe whose edges guard
    `time` at and around that bound; each probe update and each
    transition check counts its calls in `calls`."""
    def counted_update(label):
        def update(d, b):
            calls[label] = calls.get(label, 0) + 1
            return d
        return update

    def check(before, after):
        calls["check"] = calls.get("check", 0) + 1

    cap = (("time", cap_op, 3),)
    capped = K.AutomatonTemplate("Cap", [K.Location("c", lambda d: cap)], [])
    guards = {"eq5": ("==", 5), "eq3": ("==", 3), "ge3": (">=", 3),
              "gt3": (">", 3), "le1": ("<=", 1)}
    probe = K.AutomatonTemplate("Probe", [K.Location("p", None)], [
        K.Edge(0, 0, label, clock_guard=(("time", op, k),),
               update=counted_update(label))
        for label, (op, k) in guards.items()
    ])
    return K.Network("time-cap", [capped, probe], 0, lambda d: (),
                     transition_checks=(check,))


def capped(guard, inv_atoms):
    """Whether clock `guard` bounds `time` from below past the packed
    upper bound on `time` of the location invariants `inv_atoms`."""
    cap = min((2 * k + (op == "<=") for idx, _z, op, k in inv_atoms if idx == 1),
              default=INF)
    return any(2 * k + (op == ">") >= cap for _i, _z, op, k in guard
               if op not in ("<=", "<"))


# fires built on each SHIPPED_ROWS row.  The skeletons hold 748 enabled
# fires on cs-10-100-ALICE and 1,884 on newscs-1-5-honest; the bound on
# `time` rules out 251 and 976 of them, and no stored zone meets the
# guards of 31 and 340 more.
FIRES_BUILT = (47, 466, 23, 49, 474, 568, 556)


class TestSkeletonTimeCap:
    """A skeleton builds a fire on the first zone of its key that meets
    the fire's clock guard, so a fire whose guard bounds `time` from
    below past the key's own invariant bound on `time` is never built."""

    @pytest.mark.parametrize("cap_op,kept", [
        ("<=", ["eq3", "ge3", "le1"]),
        ("<", ["le1"]),
    ])
    def test_only_feasible_fires_built(self, cap_op, kept):
        calls = {}
        net = time_cap_net(cap_op, calls)
        s0 = K.initial_state(net)
        skel = K._build_skeleton(net, s0.locs, s0.data, {})
        assert calls == {}  # nothing is built before a zone is applied
        # the initial zone, time == 0, meets `le1` alone; its delay
        # successor holds every time up to the bound
        top = K._apply_skeleton(skel, s0.zone)[0][3]
        K._apply_skeleton(skel, top)
        labels = [K.step_label(net, fire[0]).split(".")[1]
                  for fire in built_fires(skel)]
        assert labels == kept
        # no update and no transition check for a fire left unbuilt
        assert calls == dict({label: 1 for label in kept}, check=len(kept))
        # every built fire is enabled somewhere below the bound
        top = K.successors(net, s0)[0][1]
        assert sorted(K.step_label(net, desc).split(".")[1]
                      for desc, _nxt in K.successors(net, top)
                      if desc != K.DELAY) == kept

    def test_replay_builds_only_the_followed_fire(self):
        calls = {}
        net = time_cap_net("<=", calls)
        s0 = K.initial_state(net)
        le1 = ("fire", 1, 4, ())
        nxt, inv = K._follow(net, s0, le1, 0)
        assert (nxt.locs, inv) == (s0.locs, ((1, 0, "<=", 3),))
        assert calls == {"le1": 1, "check": 1}
        # a fire whose clock guard the zone misses is refused before its update
        calls.clear()
        with pytest.raises(K.ReplayError,
                           match=r"^step 2: transition 'Probe.eq5' not enabled here$"):
            K._follow(net, s0, ("fire", 1, 0, ()), 2)
        assert calls == {}

    # (keys, transitions) of the row, then the fires built
    @pytest.mark.parametrize("contract,constants,variant,adversary,counts",
                             [row[:4] + (row[4] + (fires,),)
                              for row, fires in zip(SHIPPED_ROWS, FIRES_BUILT)],
                             ids=SHIPPED_IDS)
    def test_dropped_fires_disabled_on_every_stored_zone(
            self, contract, constants, variant, adversary, counts, monkeypatch):
        _model, net, _ctx = shipped_row_net(contract, constants, variant,
                                            adversary)
        skeletons = captured_skeletons(monkeypatch)
        zones = {}
        res = K.explore(net, check=lambda s: zones.setdefault(
            (s.locs, s.data), []).append(s.zone))
        built = uncapped = 0
        for key, skel in skeletons:
            # a slot per enabled instance; an unbuilt one holds (instance, guard)
            assert len(skel.fires) == len(K.enabled_transitions(net, *key))
            for fire, memo in zip(skel.fires, skel.memos):
                guard = fire[1]
                meets = [not z.constrained(guard).is_empty() for z in zones[key]]
                if memo is not None:
                    built += 1
                    assert any(meets)
                else:
                    assert not any(meets)
                    uncapped += not capped(guard, skel.inv_atoms)
        assert (res.states, res.transitions, built) == counts
        assert uncapped > 0


def counterexamples(build, constants, adversary):
    """Traces of every violated default query, from one extrapolating run,
    as (model, net, [(query text, trace), ...])."""
    model = build(WorldConstants(*constants))
    net, ctx = instantiate(model, adversary=adversary)
    texts, checks = [], []
    for name in sorted(model.queries):
        try:
            checks.append(Q.make_checker(Q.parse_query(model.queries[name], ctx)))
        except Q.QueryError:
            continue  # names the adversary's own automaton
        texts.append(model.queries[name])
    res = K.explore(net, check=checks)
    return model, net, [(q, t) for q, t in zip(texts, res.traces) if t is not None]


def shifted(trace, i, by):
    """`trace` with every clock of step i moved by `by`."""
    steps = list(trace.steps)
    val = {k: v + by for k, v in steps[i].valuation.items()}
    steps[i] = steps[i]._replace(valuation=val)
    return trace._replace(steps=tuple(steps))


class TestValuations:
    """Both replays check clock valuations, not only the stored states."""

    @pytest.mark.parametrize("build,constants,adversary", [
        (build_cs_model, (2, 5), "ALICE"),
        (build_newscs_model, (2, 7), "BOB"),
        (build_newscs_model, (2, 10), "BOB"),
    ], ids=["cs-2-5-ALICE", "newscs-2-7-BOB", "newscs-2-10-BOB"])
    def test_default_query_counterexamples_replay(self, build, constants,
                                                  adversary):
        model, net, traces = counterexamples(build, constants, adversary)
        assert traces
        for query, trace in traces:
            K.replay_trace(net, trace)
            # and as a trace document, with every clock and the query
            doc = M.trace_to_document(trace, net, model, adversary, query)
            M.replay_document(json.loads(json.dumps(doc)))

    def test_delay_shifted_by_one_rejected(self):
        _model, net, traces = counterexamples(build_cs_model, (2, 5), "ALICE")
        mutants = 0
        for _query, trace in traces:
            for i, step in enumerate(trace.steps):
                if step.kind == "delay":
                    with pytest.raises(K.ReplayError) as err:
                        K.replay_trace(net, shifted(trace, i, 1))
                    # caught at the delay or at the step that follows it
                    assert err.value.step in (i, i + 1)
                    mutants += 1
                    break
        assert mutants == len(traces) > 0

    def test_fire_that_moves_a_clock_rejected(self):
        net = make_net()
        trace = K.explore(net, check=lambda s: s.zone if s.data.flag else None).trace
        i = [s.kind for s in trace.steps].index("fire")
        with pytest.raises(K.ReplayError, match="fire moves clock time"):
            K.replay_trace(net, shifted(trace, i, 1))

    def test_delay_while_urgent_edge_enabled_rejected(self):
        net = make_net(urgent_ping=True)
        s0 = K.initial_state(net)
        step = K.TraceStep("delay", ("delay",), "delay", {"time": 1},
                           s0.data, s0.locs)
        trace = K.Trace((step,), s0.data, s0.locs)
        with pytest.raises(K.ReplayError, match="urgent edge"):
            K.replay_trace(net, trace)

    def test_clock_guard_checked(self):
        net = make_net()
        trace = K.explore(net, check=lambda s: s.zone if s.data.flag else None).trace
        # the flip fires at time 5; fire it at 4 instead
        steps = [s._replace(valuation={k: v - 1 for k, v in s.valuation.items()})
                 for s in trace.steps]
        bad = trace._replace(steps=tuple(steps))
        with pytest.raises(K.ReplayError, match="clock guard time == 5"):
            K.replay_trace(net, bad)
