"""Brute-force explorer over integer time: the zone engine's oracle.

States carry concrete integer clock values; time advances in unit
steps.  All guards and invariants in the shipped models are non-strict
integer comparisons (closed timed automata), so integral-point
reachability coincides with dense reachability and this explorer is a
sound and complete oracle for discrete-state reachability on reduced
constants.  A strict lower clock bound aborts the run (`ModelError`); a
strict upper bound is evaluated over the integers, where reachability
need not match dense time, so only closed networks are cross-checked
(`tests/test_random_networks.py` runs strict ones on zones alone).

Queries are checked on the half-integer grid where they need it.  A
query's violation region can be an open interval between two integers
(`time > 4 and time < 5` violates `A[] time <= 4 or time >= 5`), which
no integer time meets.  When a state may delay by one unit it passes
every time up to the next integer, so a query with two or more clock
atoms (one atom cannot bound an interval on both sides) is also
evaluated at the state's time + 1/2, with the region of the state's
locations and data.

A horizon bounds the time dimension.  It must exceed every query
constant and every clock-guard constant (a deadline's threshold is the
constant of its `time == θ` edge): past the last of them every guard is
time-independent and invariants only bound clocks from above, so no new
discrete configuration needs a later clock.

The search is a sweep-line over `time` (Christensen, Kristensen and
Mailund, "A sweep-line method for state space exploration", TACAS
2001).  A fire keeps `time` and a unit delay adds 1, so no step leads
back to an earlier instant.  The explorer finishes one instant before
it starts the next: it expands the instant's states breadth-first,
holds the delay successors for the next instant apart, and once the
instant is done it drops that instant's states, which no later step can
reach again.  So it holds the concrete states of at most two instants,
beside the reachable (locations, data) keys and one object per distinct
locations tuple and valuation.

`explore_discrete` checks any number of queries in one pass and gives
each its own verdict, with the same rule as the zone engine: a query
not violated when a limit is hit is LIMIT, not SATISFIED.
"""

from __future__ import annotations

import time as _time
from collections import deque
from typing import NamedTuple

from . import queries as Q
from .kernel import (CMP, ModelError, TIME, VerificationResult, _intern_data,
                     gc_paused, overall_verdicts)


def _thresholds(net, query_asts):
    """(kind, constant) for each clock-guard constant of `net` and each
    clock constant of the queries: the constants a horizon must exceed."""
    out = [("clock-guard", k) for a in net.automata for e in a.edges
           for _key, _op, k in e.clock_guard]
    out.extend(("query", k) for q in query_asts for k in _clock_constants(q.root))
    return out


def default_horizon(net, query_asts=()):
    """Max of clock-guard and query constants, plus latency slack."""
    # invariants bound clocks from above only; the slack covers the
    # block-chain agent's latency bound
    return (max((k for _kind, k in _thresholds(net, query_asts)), default=0)
            + _latency_bound(net) + 2)


def _latency_bound(net):
    model = net.meta.get("model")
    return model.constants.max_latency if model else 1


def _clock_constants(node):
    """The constants of a formula's clock atoms, repeats included."""
    return [a.const for a in Q.leaves(node) if isinstance(a, Q.ClockAtom)]


def _holds(op, lhs, rhs):
    # a strict upper bound (only hand-built networks have one; the
    # shipped models are closed) digitizes exactly: over the integers,
    # value < k is value <= k - 1; a strict lower bound does not
    if op == ">":
        raise ModelError(
            "strict lower clock bound %r: the discrete oracle requires "
            "non-strict lower bounds" % (op,)
        )
    return CMP[op](lhs, rhs)


class _Concrete(NamedTuple):
    locs: tuple
    data: object
    time: int
    clocks: tuple      # values aligned with net.clock_owners(data)


def _clock_value(state, owners, key):
    if key == TIME:
        return state.time
    return state.clocks[owners.index(key[1])]


def _atoms_hold(atoms, state, owners, offset=0):
    for (key, op, k) in atoms:
        if not _holds(op, _clock_value(state, owners, key) + offset, k):
            return False
    return True


def _invariants_hold(net, state, owners, offset=0):
    for ai, a in enumerate(net.automata):
        inv = a.locations[state.locs[ai]].invariant
        if inv is not None and not _atoms_hold(inv(state.data), state, owners, offset):
            return False
    return True


def _discrete_successors(net, state):
    """Unit delay, then enabled non-urgent edges, then enabled urgent ones."""
    owners = tuple(net.clock_owners(state.data))
    fires, urgent_fires = [], []
    blocked = False  # some urgent edge's data guard holds
    for ai, a in enumerate(net.automata):
        for ei, e in a.edges_from(state.locs[ai]):
            for binds, _bkey in a.bindings[ei]:
                if e.guard is not None and not e.guard(state.data, binds):
                    continue
                blocked = blocked or e.urgent
                if e.clock_guard and not _atoms_hold(
                    e.clock_guard, state, owners
                ):
                    continue
                nxt = _apply(net, state, owners, ai, e, binds)
                if nxt is not None:
                    (urgent_fires if e.urgent else fires).append(nxt)

    # unit delay: blocked by urgency and bounded by the invariants
    out = []
    if not blocked and _invariants_hold(net, state, owners, offset=1):
        out.append(
            _Concrete(
                state.locs, state.data, state.time + 1,
                tuple(c + 1 for c in state.clocks),
            )
        )
    return out + fires + urgent_fires


def _apply(net, state, owners, ai, edge, binds):
    data = edge.update(state.data, dict(binds)) if edge.update else state.data
    locs = state.locs[:ai] + (edge.target,) + state.locs[ai + 1:]
    new_owners = tuple(net.clock_owners(data))
    old = dict(zip(owners, state.clocks))
    clocks = tuple(old.get(o, 0) for o in new_owners)
    nxt = _Concrete(locs, data, state.time, clocks)
    if not _invariants_hold(net, nxt, new_owners):
        return None
    return nxt


@gc_paused
def explore_discrete(net, queries=(), horizon=None, max_states=None,
                     max_seconds=None):
    """Sweep over unit-delay and discrete steps up to the horizon, one
    instant of `time` at a time (see the module notes).

    Each of the parsed `queries` is evaluated pointwise at every
    reachable concrete state, and one with two or more clock atoms also
    halfway through each unit delay (see the module notes); a violated
    query is not evaluated again, and exploration stops once every
    query is violated.  Returns (VerificationResult, verdicts), the
    result's `verdicts` again: the result counts (locations, data)
    configurations in `states` and the successors generated in
    `transitions`, carries the reachable (locations, data) set, and has
    no traces.  The verdicts, one per query, follow the zone engine's
    rule (`kernel.overall_verdicts`).
    `max_states` and `max_seconds` are budgets as in `kernel.explore`;
    `max_states` counts every concrete state stored, those of finished
    instants included.
    """
    started = _time.monotonic()
    queries = tuple(queries)
    if horizon is None:
        horizon = default_horizon(net, queries)
    for kind, k in _thresholds(net, queries):
        if k >= horizon:
            raise ModelError(
                "horizon %d must exceed the %s constant %d" % (horizon, kind, k))

    table = {}  # one object per distinct locations tuple and valuation

    def interned(locs, data, time, clocks):
        """The concrete state with the `table`'s locations and valuation
        (the type rule of `kernel._intern_data`)."""
        return _Concrete(table.setdefault(locs, locs), _intern_data(table, data),
                         time, clocks)

    init = interned(
        tuple(a.initial for a in net.automata),
        net.initial_data,
        0,
        (0,) * len(net.clock_owners(net.initial_data)),
    )

    regions_of = Q.region_memo(queries)
    # the queries whose violation region may hold no integer time
    between = {i for i, q in enumerate(queries)
               if len(_clock_constants(q.root)) >= 2}

    live = list(range(len(queries)))
    violated = [False] * len(queries)

    def checked(state, time, among):
        """Evaluate the live queries of `among` at `state` and `time`;
        True once no query is left."""
        regions = regions_of(state)
        for i in among:
            if Q.in_region(regions[i], time):
                violated[i] = True
                live.remove(i)
        return not live

    # the sweep (see the module notes): `now` and `seen` hold the current
    # instant's states, `ahead` and `ahead_seen` the next instant's
    now, seen = deque([init]), {init}
    ahead, ahead_seen = deque(), set()
    keys = {(init.locs, init.data)}
    stored = 1
    transitions = 0

    def result(reason=None):
        verdict, verdicts = overall_verdicts(violated, reason)
        return VerificationResult(
            verdict, len(keys), transitions, _time.monotonic() - started, None,
            reason, frozenset(keys), verdicts, (None,) * len(queries),
        ), verdicts

    if live and checked(init, init.time, tuple(live)):
        return result()
    ticks = 0
    while now or ahead:
        if not now:  # the instant is finished: none of its states recurs
            now, seen, ahead, ahead_seen = ahead, ahead_seen, deque(), set()
        ticks += 1
        if (ticks % 512 == 0 and max_seconds is not None
                and _time.monotonic() - started > max_seconds):
            return result("wall-clock budget exhausted")
        state = now.popleft()
        succ = _discrete_successors(net, state)
        transitions += len(succ)
        # a unit delay (always the first successor) passes time + 1/2
        if between and succ and succ[0].time > state.time:
            halfway = [i for i in live if i in between]
            if halfway and checked(state, state.time + 0.5, halfway):
                return result()
        for nxt in succ:
            later = nxt.time > state.time
            known = ahead_seen if later else seen
            if nxt.time > horizon or nxt in known:
                continue
            nxt = interned(*nxt)
            known.add(nxt)
            stored += 1
            keys.add((nxt.locs, nxt.data))
            if live and checked(nxt, nxt.time, tuple(live)):
                return result()
            if max_states is not None and stored > max_states:
                return result("state budget exhausted")
            (ahead if later else now).append(nxt)
    return result()
