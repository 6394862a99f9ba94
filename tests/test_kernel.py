"""Kernel semantics on a small synthetic network.

A two-job system: jobs are started (their clock is born at zero) and
must finish within 3 time units of starting; a deadline flag flips at
time 5.  This exercises delay capping, urgent channels, dynamic clock
sets, deadline flips, exploration and trace replay without any of the
block-chain machinery.
"""

from typing import NamedTuple

import pytest

from tacv import kernel as K


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


def make_net(urgent_ping=False, deadline=5, bound=3):
    def finish_inv(data):
        return [(("tx", i), "<=", bound) for i in clock_owners(data)]

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
    channels = [K.Channel("urg", urgent=True)]
    if urgent_ping:
        pinger = K.AutomatonTemplate(
            "Pinger",
            [K.Location("p", None)],
            [
                K.Edge(
                    0, 0, "ping",
                    guard=lambda d, b: not d.ping,
                    sync=("?", "urg"),
                    update=lambda d, b: d._replace(ping=True),
                )
            ],
        )
        helper = K.AutomatonTemplate(
            "Urg", [K.Location("h", None)], [K.Edge(0, 0, "u", sync=("!", "urg"))]
        )
        automata += [pinger, helper]
    flag = K.DeadlineFlag(
        "flag", deadline,
        lambda d: d.flag,
        lambda d: d._replace(flag=True),
    )
    ticker = K.AutomatonTemplate(
        "Ticker",
        [K.Location("t", None)],
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
        channels,
        [flag],
        Jobs((IDLE, IDLE), False),
        clock_owners,
    )


def by_label(net, state, label, i=None):
    """Successor states whose label contains `label` (and binds i, if given)."""
    return [
        nxt for desc, lab, nxt in K.successors(net, state)
        if label in lab and (i is None or dict(desc[3])["i"] == i)
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
        assert d.zone.max_value(1) == 5
        assert delayed(net, d) is None

    def test_flip_fires_exactly_at_threshold_then_time_freed(self):
        net = make_net()
        s0 = K.initial_state(net)
        d = delayed(net, s0)
        ticks = by_label(net, d, "tick")
        assert len(ticks) == 1
        flipped = ticks[0]
        assert flipped.data.flag
        assert flipped.zone.min_value(1) == 5 and flipped.zone.max_value(1) == 5
        after = delayed(net, flipped)
        assert after.zone.max_value(1) is None

    def test_running_job_caps_delay(self):
        net = make_net()
        s0 = K.initial_state(net)
        s1 = by_label(net, s0, "start", i=0)[0]
        assert K.clock_layout(net, s1.data) == {"time": 1, ("tx", 0): 2}
        d = delayed(net, s1)
        assert d.zone.max_value(2) == 3  # job clock bound
        assert d.zone.max_value(1) == 3  # time tied to the job clock here

    def test_urgent_pair_blocks_delay(self):
        net = make_net(urgent_ping=True)
        s0 = K.initial_state(net)
        assert delayed(net, s0) is None
        s1 = by_label(net, s0, "[urg]")[0]
        assert s1.data.ping
        assert delayed(net, s1) is not None


class TestClockLifecycle:
    def test_clock_born_at_zero_and_dropped(self):
        net = make_net()
        s0 = K.initial_state(net)
        d = delayed(net, s0)  # time in [0, 5]
        s1 = by_label(net, d, "start", i=1)[0]
        assert s1.zone.dim == 3
        assert s1.zone.max_value(2) == 0  # fresh clock pinned to zero
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
        net = K.Network("empty", [], [], [], Jobs((), True), clock_owners)
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


class TestValidation:
    def test_urgent_clock_guard_rejected(self):
        bad = K.AutomatonTemplate(
            "Bad",
            [K.Location("x", None)],
            [K.Edge(0, 0, "e", sync=("?", "urg"),
                    clock_guard=(("time", "<=", 1),))],
        )
        with pytest.raises(K.ModelError):
            K.Network(
                "bad", [bad], [K.Channel("urg", urgent=True)], [],
                Jobs((), False), clock_owners,
            )

    def test_undeclared_channel_rejected(self):
        bad = K.AutomatonTemplate(
            "Bad", [K.Location("x", None)], [K.Edge(0, 0, "e", sync=("!", "nope"))]
        )
        with pytest.raises(K.ModelError):
            K.Network("bad", [bad], [], [], Jobs((), False), clock_owners)


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
