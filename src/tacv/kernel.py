"""Networks of timed automata and symbolic reachability.

A network is a set of automaton templates over a shared immutable data
valuation plus clocks.  Clock layout is dynamic: every symbolic state
carries [reference, time, one clock per pending item], where the
pending items are reported by the network's `clock_owners(data)` hook
in sorted order (the block-chain world maps them to transactions
waiting for confirmation).

Semantics notes:

- Urgent channels block delay whenever some send/receive pair on an
  urgent channel is enabled across two distinct automata.  Edges that
  synchronize on an urgent channel must not constrain clocks.
- Deadline flags are a kernel primitive: each carries an integer
  threshold and a boolean view of the data valuation.  Delay is capped
  at the nearest pending threshold, and flip transitions (generated
  into a helper template by the model builders) fire exactly at the
  boundary, so a flag always agrees with its clock condition.
- Exploration is breadth-first with zone-inclusion subsumption on a
  passed list keyed by (locations, data), and deterministic: enabled
  transitions are ordered by (automaton index, edge index, select
  binding).
- Successors come from one routine: the zone-independent part of a
  key's successors (its "skeleton") is computed once per (locations,
  data) key and then applied to zones.  Exploration, random runs and
  trace replay all use it.
"""

from __future__ import annotations

import itertools
import time as _time
from collections import deque
from typing import Callable, NamedTuple, Optional

from .zones import Zone


class ModelError(Exception):
    """Raised for structurally invalid networks or templates."""


class ModelInvariantError(Exception):
    """Raised when a debug assertion fails during exploration."""


class ReplayError(Exception):
    """Raised when a stored trace or trace document diverges from the model."""

    def __init__(self, step, message):
        super().__init__("step %d: %s" % (step, message))
        self.step = step


class Location(NamedTuple):
    name: str
    # (data) -> iterable of clock atoms (key, op, const); None for no invariant
    invariant: Optional[Callable]
    named: bool = False


class Edge(NamedTuple):
    source: int
    target: int
    label: str
    select: tuple = ()        # ((var, (values...)), ...)
    guard: Optional[Callable] = None       # (data, binds) -> bool
    clock_guard: tuple = ()   # ((key, op, const), ...), key 'time' or ('tx', id)
    sync: Optional[tuple] = None           # ('!', chan) | ('?', chan)
    update: Optional[Callable] = None      # (data, binds) -> data


class Channel(NamedTuple):
    name: str
    urgent: bool = False


class DeadlineFlag(NamedTuple):
    """Boolean view of the data that flips exactly at `threshold`."""

    name: str
    threshold: int
    is_set: Callable       # (data) -> bool
    set: Callable          # (data) -> data


class AutomatonTemplate:
    def __init__(self, name, locations, edges, initial=0):
        self.name = name
        self.locations = tuple(locations)
        self.edges = tuple(edges)
        self.initial = initial
        self._out = {}
        for idx, e in enumerate(self.edges):
            self._out.setdefault(e.source, []).append((idx, e))
        # select domains are static: expand bindings once per edge
        self.bindings = tuple(
            tuple((b, _binds_key(b)) for b in _expand_binds(e.select))
            for e in self.edges
        )

    def edges_from(self, loc):
        return self._out.get(loc, ())

    def location_name(self, loc):
        return self.locations[loc].name


class Network:
    def __init__(
        self,
        name,
        automata,
        channels,
        deadlines,
        initial_data,
        clock_owners,
        state_checks=(),
        transition_checks=(),
        meta=None,
    ):
        self.name = name
        self.automata = tuple(automata)
        self.channels = {c.name: c for c in channels}
        self.deadlines = tuple(deadlines)
        self.initial_data = initial_data
        self.clock_owners = clock_owners
        self.state_checks = tuple(state_checks)
        self.transition_checks = tuple(transition_checks)
        self.meta = meta or {}
        self._validate()

    def _validate(self):
        names = [a.name for a in self.automata]
        if len(set(names)) != len(names):
            raise ModelError("duplicate automaton names: %r" % (names,))
        for a in self.automata:
            for e in a.edges:
                if e.sync is not None:
                    kind, chan = e.sync
                    if chan not in self.channels:
                        raise ModelError(
                            "%s: edge %s uses undeclared channel %r"
                            % (a.name, e.label, chan)
                        )
                    if self.channels[chan].urgent and e.clock_guard:
                        raise ModelError(
                            "%s: edge %s puts a clock guard on urgent channel %r"
                            % (a.name, e.label, chan)
                        )
        seen = set()
        for d in self.deadlines:
            if d.name in seen:
                raise ModelError("duplicate deadline flag %r" % (d.name,))
            seen.add(d.name)

    def automaton_index(self, name):
        for i, a in enumerate(self.automata):
            if a.name == name:
                return i
        raise ModelError("unknown automaton %r" % (name,))


class SymbolicState(NamedTuple):
    locs: tuple
    data: object
    zone: Zone


class TransitionInstance(NamedTuple):
    """One data-enabled transition: internal edge or a send/receive pair."""

    auto: int
    edge: int
    binds: tuple              # ((var, value), ...)
    partner: Optional[tuple]  # (auto, edge, binds) for the receiving side
    chan: Optional[str]
    label: str


class TraceStep(NamedTuple):
    kind: str                 # 'delay' | 'fire'
    descriptor: tuple         # () for delay; instance descriptor for fire
    label: str
    valuation: dict           # clock key -> int, after the step
    data: object              # data valuation after the step
    locs: tuple


class Trace(NamedTuple):
    steps: tuple              # TraceStep sequence, initial state excluded
    initial_data: object
    initial_locs: tuple
    final_valuation: dict


class VerificationResult(NamedTuple):
    verdict: str              # 'SATISFIED' | 'VIOLATED' | 'LIMIT'
    states: int
    transitions: int
    wall_time: float
    trace: Optional[Trace]
    limit_reason: Optional[str] = None
    reachable: Optional[frozenset] = None  # (locs, data) keys when requested


# -- clock layout ------------------------------------------------------

TIME = "time"


def clock_layout(net, data):
    """Zone index of every live clock: reference 0, time 1, owners after."""
    layout = {TIME: 1}
    for pos, owner in enumerate(net.clock_owners(data)):
        layout[("tx", owner)] = 2 + pos
    return layout


def _atoms_to_indices(atoms, layout):
    out = []
    for (key, op, k) in atoms:
        idx = layout.get(key)
        if idx is None:
            raise ModelError("clock atom for inactive clock %r" % (key,))
        out.append((idx, 0, op, k))
    return out


def _invariant_atoms(net, locs, data):
    atoms = []
    for ai, a in enumerate(net.automata):
        inv = a.locations[locs[ai]].invariant
        if inv is not None:
            atoms.extend(inv(data))
    return atoms


def initial_state(net):
    data = net.initial_data
    owners = net.clock_owners(data)
    zone = Zone.origin(2 + len(owners))
    locs = tuple(a.initial for a in net.automata)
    layout = clock_layout(net, data)
    inv = _atoms_to_indices(_invariant_atoms(net, locs, data), layout)
    z = zone.constrained(inv)
    if z.is_empty():
        raise ModelError("initial state violates a location invariant")
    return SymbolicState(locs, data, z)


# -- enabled transitions and successors --------------------------------


def _expand_binds(select):
    if not select:
        return ({},)
    names = [s[0] for s in select]
    domains = [s[1] for s in select]
    return tuple(
        dict(zip(names, combo)) for combo in itertools.product(*domains)
    )


def _binds_key(binds):
    return tuple(sorted(binds.items()))


def enabled_transitions(net, locs, data):
    """Transition instances whose data guards hold, deterministically ordered.

    Internal edges come first by (automaton, edge, binding); send/receive
    pairs follow, ordered by channel and the two sides' indices.  Guards
    never read clocks, so enabledness up to clock guards is a pure
    function of locations and data; clock guards are applied to zones by
    `_apply_skeleton`.
    """
    inst = []
    senders = {}
    receivers = {}
    for ai, a in enumerate(net.automata):
        for ei, e in a.edges_from(locs[ai]):
            guard = e.guard
            for binds, bkey in a.bindings[ei]:
                if guard is not None and not guard(data, binds):
                    continue
                if e.sync is None:
                    inst.append(
                        TransitionInstance(
                            ai, ei, bkey, None, None,
                            "%s.%s" % (a.name, e.label),
                        )
                    )
                else:
                    kind, chan = e.sync
                    side = senders if kind == "!" else receivers
                    side.setdefault(chan, []).append((ai, ei, e, bkey))
    for chan in sorted(set(senders) & set(receivers)):
        for (sa, se, sedge, sbinds) in senders[chan]:
            for (ra, re_, redge, rbinds) in receivers[chan]:
                if sa == ra:
                    continue
                label = "%s.%s -> %s.%s [%s]" % (
                    net.automata[sa].name, sedge.label,
                    net.automata[ra].name, redge.label, chan,
                )
                inst.append(
                    TransitionInstance(
                        sa, se, sbinds, (ra, re_, rbinds), chan, label,
                    )
                )
    return inst


def urgency_blocks_delay(state, net):
    """True iff an enabled urgent send/receive pair forbids letting time pass."""
    locs, data, _zone = state
    for chan_name, chan in net.channels.items():
        if not chan.urgent:
            continue
        send_autos = set()
        recv_autos = set()
        for ai, a in enumerate(net.automata):
            for ei, e in a.edges_from(locs[ai]):
                if e.sync is None or e.sync[1] != chan_name:
                    continue
                for binds, _bkey in a.bindings[ei]:
                    if e.guard is None or e.guard(data, binds):
                        (send_autos if e.sync[0] == "!" else recv_autos).add(ai)
                        break
        if any(s != r for s in send_autos for r in recv_autos):
            return True
    return False


def run_state_checks(state, net):
    for chk in net.state_checks:
        chk(state)
    # deadline flags must agree with their clock condition
    for d in net.deadlines:
        if d.is_set(state.data):
            if state.zone.min_value(1) < d.threshold:
                raise ModelInvariantError(
                    "flag %s set but zone reaches below %d"
                    % (d.name, d.threshold)
                )
        else:
            hi = state.zone.max_value(1)
            if hi is None or hi > d.threshold:
                raise ModelInvariantError(
                    "flag %s clear but zone passes %d" % (d.name, d.threshold)
                )
    # every state satisfies its location invariants
    layout = clock_layout(net, state.data)
    atoms = _atoms_to_indices(
        _invariant_atoms(net, state.locs, state.data), layout
    )
    if atoms and state.zone.constrained(atoms) != state.zone:
        raise ModelInvariantError("state escapes a location invariant")


# -- exploration -------------------------------------------------------


class _Passed:
    """Zone antichains per (locations, data) key."""

    def __init__(self, subsumption=True):
        self._store = {}
        self._subsume = subsumption
        self.count = 0

    @property
    def key_count(self):
        return len(self._store)

    def insert(self, key, zone):
        """Insert unless subsumed; drops stored zones the new one covers.

        Without subsumption only exact duplicates are rejected (used to
        validate that inclusion checking never changes a verdict).
        """
        row = self._store.get(key)
        if row is None:
            self._store[key] = [zone]
            self.count += 1
            return True
        if not self._subsume:
            if zone in row:
                return False
            row.append(zone)
            self.count += 1
            return True
        for z in row:
            if z.subsumes(zone):
                return False
        row[:] = [z for z in row if not zone.subsumes(z)]
        row.append(zone)
        self.count += 1
        return True


class _Skeleton(NamedTuple):
    """Zone-independent successor data for one (locations, data) key.

    Guards, updates, urgency and invariant atoms never read clocks, so
    sibling states that differ only in their zone share all of this.
    """

    urgent: bool
    delay_atoms: tuple
    fires: tuple   # (desc, label, cg_idx_atoms, locs2, data2, drop, nnew, perm, inv2)


def _build_skeleton(net, locs, data):
    """The skeleton of one key: computed once, applied to each of its zones.

    Delay is blocked by enabled urgent pairs and otherwise capped by the
    location invariants and the nearest pending deadline threshold, so
    that flags flip exactly on time.  A fire runs the sending side's
    update before the receiving side's; clocks of items that left the
    pending set are dropped, and items that entered it get fresh clocks
    at zero in their sorted slots.
    """
    insts = enabled_transitions(net, locs, data)
    # an enabled instance on an urgent channel IS an enabled urgent pair
    urgent = any(
        i.chan is not None and net.channels[i.chan].urgent for i in insts
    )
    layout = clock_layout(net, data)
    delay_atoms = _atoms_to_indices(_invariant_atoms(net, locs, data), layout)
    pending = [d.threshold for d in net.deadlines if not d.is_set(data)]
    if pending:
        delay_atoms.append((1, 0, "<=", min(pending)))

    before = net.clock_owners(data)
    before_set = set(before)
    fires = []
    for inst in insts:
        auto = net.automata[inst.auto]
        edge = auto.edges[inst.edge]
        data2 = edge.update(data, dict(inst.binds)) if edge.update else data
        locs2 = list(locs)
        locs2[inst.auto] = edge.target
        cg = tuple(edge.clock_guard)
        if inst.partner is not None:
            ra, re_, rbinds = inst.partner
            redge = net.automata[ra].edges[re_]
            if redge.update:
                data2 = redge.update(data2, dict(rbinds))
            locs2[ra] = redge.target
            cg = cg + tuple(redge.clock_guard)
        locs2 = tuple(locs2)
        after = net.clock_owners(data2)
        after_set = set(after)
        drop = tuple(
            2 + i for i, o in enumerate(before) if o not in after_set
        )
        kept = [o for o in before if o in after_set]
        new = [o for o in after if o not in before_set]
        if new:
            # appended clocks must move to their canonical sorted slots
            interim = kept + new
            perm = tuple([0, 1] + [2 + interim.index(o) for o in after])
        else:
            perm = None
        layout2 = clock_layout(net, data2)
        inv2 = tuple(
            _atoms_to_indices(_invariant_atoms(net, locs2, data2), layout2)
        )
        desc = ("fire", inst.auto, inst.edge, inst.binds,
                inst.partner, inst.chan)
        fires.append((
            desc, inst.label,
            tuple(_atoms_to_indices(cg, layout)) if cg else (),
            locs2, data2, drop, len(new), perm, inv2,
        ))
        for chk in net.transition_checks:
            chk(data, data2)
    return _Skeleton(urgent, tuple(delay_atoms), tuple(fires))


def _apply_skeleton(skel, zone):
    """Successors of (key, zone) from the key's skeleton.

    A fire whose clock guards or target invariants empty the zone is
    disabled.  Delay successors carry None for locations and data: the
    configuration is unchanged.
    """
    out = []
    if not skel.urgent:
        delayed = zone.up().constrained(skel.delay_atoms)
        if delayed != zone:
            if delayed.is_empty():
                raise ModelInvariantError("delay produced an empty zone")
            out.append((("delay",), "delay", None, None, delayed))
    for (desc, label, cg, locs2, data2, drop, nnew, perm, inv2) in skel.fires:
        z = zone
        if cg:
            z = z.constrained(cg)
            if z.is_empty():
                continue
        if drop:
            z = z.remove_clocks(drop)
        for _ in range(nnew):
            z = z.add_clock_zero()
        if perm is not None:
            z = _permute(z, perm)
        if inv2:
            z = z.constrained(inv2)
            if z.is_empty():
                continue
        out.append((desc, label, locs2, data2, z))
    return out


def _permute(zone, perm):
    n = zone.dim
    m = zone.m
    work = [m[perm[i] * n + perm[j]] for i in range(n) for j in range(n)]
    return Zone(n, tuple(work), _canonical=True)


def successors(net, state):
    """Successors of one symbolic state as (descriptor, label, state) triples.

    The delay successor comes first, then the fires in enabled-transition
    order.  This is the skeleton routine `explore` uses, without its
    per-key cache.
    """
    locs, data, zone = state
    out = []
    skel = _build_skeleton(net, locs, data)
    for desc, label, locs2, data2, zone2 in _apply_skeleton(skel, zone):
        if locs2 is None:  # delay successor keeps the configuration
            locs2, data2 = locs, data
        out.append((desc, label, SymbolicState(locs2, data2, zone2)))
    return out


def explore(
    net,
    check=None,
    max_states=None,
    max_seconds=None,
    subsumption=True,
    run_checks=True,
    collect_reachable=False,
):
    """Exhaustive reachability with on-the-fly safety checking.

    `check(state)` returns None when the state is fine, or a witness
    zone (the violating sub-zone) to report a violation.  Returns a
    VerificationResult; limit exhaustion is reported distinctly from
    both verdicts.
    """
    started = _time.monotonic()
    init = initial_state(net)
    passed = _Passed(subsumption=subsumption)
    meta = []  # sid -> (state, parent sid, descriptor, label)

    def out_of_time():
        return max_seconds is not None and _time.monotonic() - started > max_seconds

    def result(verdict, trace=None, reason=None):
        # states counts distinct (locations, data) configurations
        reach = frozenset(passed._store) if collect_reachable else None
        return VerificationResult(
            verdict, passed.key_count, transitions[0],
            _time.monotonic() - started, trace, reason, reach,
        )

    transitions = [0]
    if run_checks:
        run_state_checks(init, net)
    meta.append((init, None, None, "initial"))
    passed.insert((init.locs, init.data), init.zone)
    if check is not None:
        witness = check(init)
        if witness is not None:
            return result("VIOLATED", _build_trace(meta, 0, witness, net))

    frontier = deque([0])
    skeletons = {}
    ticks = 0
    while frontier:
        ticks += 1
        if ticks % 512 == 0 and out_of_time():
            return result("LIMIT", reason="wall-clock budget exhausted")
        sid = frontier.popleft()
        state = meta[sid][0]
        key = (state.locs, state.data)
        skel = skeletons.get(key)
        if skel is None:
            skel = skeletons[key] = _build_skeleton(net, state.locs, state.data)
        for desc, label, locs2, data2, zone2 in _apply_skeleton(skel, state.zone):
            transitions[0] += 1
            if locs2 is None:  # delay successor keeps the configuration
                nxt = SymbolicState(state.locs, state.data, zone2)
            else:
                nxt = SymbolicState(locs2, data2, zone2)
            if not passed.insert((nxt.locs, nxt.data), nxt.zone):
                continue
            if run_checks:
                run_state_checks(nxt, net)
            nid = len(meta)
            meta.append((nxt, sid, desc, label))
            if check is not None:
                witness = check(nxt)
                if witness is not None:
                    return result(
                        "VIOLATED", _build_trace(meta, nid, witness, net)
                    )
            if max_states is not None and len(meta) > max_states:
                return result("LIMIT", reason="state budget exhausted")
            frontier.append(nid)
    return result("SATISFIED")


# -- trace reconstruction and replay ------------------------------------


def _layout_keys(net, data):
    return (TIME,) + tuple(("tx", o) for o in net.clock_owners(data))


def _build_trace(meta, goal_sid, witness_zone, net):
    """Concretize the path to `goal_sid` with exact clock witnesses.

    The final state is pinned to the earliest point of the violating
    sub-zone; earlier states are chosen backward, keeping shared clocks
    consistent across fires and maximizing delay lengths so the run is
    the earliest one reaching the violation.  Closed zones concretize on
    integers; strict latency windows can force half-integral instants.
    """
    from fractions import Fraction

    chain = []
    sid = goal_sid
    while sid is not None:
        state, parent, desc, label = meta[sid]
        chain.append((state, desc, label))
        sid = parent
    chain.reverse()

    zones_ = [witness_zone if i == len(chain) - 1 else st.zone
              for i, (st, _d, _l) in enumerate(chain)]
    vals = [None] * len(chain)
    vals[-1] = _zone_witness_map(zones_[-1], _layout_keys(net, chain[-1][0].data))
    for i in range(len(chain) - 2, -1, -1):
        state_i = chain[i][0]
        keys_i = _layout_keys(net, state_i.data)
        desc = chain[i + 1][1]
        nxt_vals = vals[i + 1]
        if desc == ("delay",):
            vals[i] = _delay_predecessor(zones_[i], keys_i, nxt_vals)
        else:
            shared = [k for k in keys_i if k in nxt_vals]
            scale = 1
            for k in shared:
                scale = scale * nxt_vals[k].denominator // _gcd(
                    scale, nxt_vals[k].denominator)
            z = zones_[i].scaled(scale) if scale > 1 else zones_[i]
            layout = {k: idx + 1 for idx, k in enumerate(keys_i)}
            atoms = [
                (layout[k], 0, "==", int(nxt_vals[k] * scale)) for k in shared
            ]
            z = z.constrained(atoms)
            if z.is_empty():
                raise ModelInvariantError("trace concretization failed")
            vals[i] = {
                k: Fraction(v) / scale
                for k, v in _zone_witness_map(z, keys_i).items()
            }

    steps = []
    for i in range(1, len(chain)):
        state, desc, label = chain[i]
        steps.append(
            TraceStep(
                "delay" if desc == ("delay",) else "fire",
                desc, label, _display_vals(vals[i]), state.data, state.locs,
            )
        )
    first = chain[0][0]
    return Trace(tuple(steps), first.data, first.locs, _display_vals(vals[-1]))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _display_vals(vals):
    out = {}
    for k, v in vals.items():
        out[k] = int(v) if v == int(v) else float(v)
    return out


def _zone_witness_map(zone, keys):
    from fractions import Fraction

    w = zone.witness()
    return {k: Fraction(w[i + 1]) for i, k in enumerate(keys)}


def _delay_predecessor(zone, keys, nxt_vals):
    """Latest-start point of `zone` on the delay line into `nxt_vals`.

    Differences between clocks are delay-invariant, so only the bounds
    against the reference clock constrain the delay length; the feasible
    set is one interval and we take its upper end (strict ends step back
    inside by half the remaining room).
    """
    from fractions import Fraction
    from .zones import INF, unpack

    lo, lo_strict = Fraction(0), False
    hi, hi_strict = Fraction(nxt_vals[TIME]), False
    for pos, k in enumerate(keys):
        idx = pos + 1
        v = Fraction(nxt_vals[k])
        b = zone.entry(idx, 0)          # x_idx <= w: d >= v - w
        if b < INF:
            w, weak = unpack(b)
            if v - w > lo or (v - w == lo and not weak):
                lo, lo_strict = v - w, not weak
        b = zone.entry(0, idx)          # -x_idx <= w: d <= v + w
        if b < INF:
            w, weak = unpack(b)
            if v + w < hi or (v + w == hi and not weak):
                hi, hi_strict = v + w, not weak
    if lo > hi or (lo == hi and (lo_strict or hi_strict)):
        raise ModelInvariantError("no delay predecessor found")
    if not hi_strict:
        d = hi
    else:
        floor = max(lo, hi - 1)
        d = hi - (hi - floor) / 2
    out = {k: Fraction(nxt_vals[k]) - d for k in keys}
    cand = (0,) + tuple(out[k] for k in keys)
    if not zone.contains(cand):
        raise ModelInvariantError("delay predecessor fell outside the zone")
    return out


def replay_steps(net, state, steps, compare):
    """Re-execute stored steps from `state`; returns the final SymbolicState.

    `steps` yields (descriptor, label) pairs.  Each descriptor is looked
    up among the current state's successors, and `compare(i, state)`
    checks each new state against stored step i, raising ReplayError on
    a divergence.
    """
    for i, (desc, label) in enumerate(steps):
        for d, _label, nxt in successors(net, state):
            if d == desc:
                break
        else:
            if desc == ("delay",):
                raise ReplayError(i, "delay not possible here")
            raise ReplayError(i, "transition %r not enabled here" % (label,))
        compare(i, nxt)
        state = nxt
    return state


def replay_trace(net, trace):
    """Re-execute a trace's descriptors; returns the final SymbolicState.

    Raises ReplayError with the diverging step index when the stored
    data does not match the recomputed one.
    """
    state = initial_state(net)
    if trace.initial_data != state.data or trace.initial_locs != state.locs:
        raise ReplayError(0, "initial state mismatch")

    def compare(i, nxt):
        step = trace.steps[i]
        if nxt.data != step.data or nxt.locs != step.locs:
            raise ReplayError(i, "state diverges from stored trace")

    return replay_steps(
        net, state, [(s.descriptor, s.label) for s in trace.steps], compare
    )


def random_run(net, seed, steps):
    """One random maximal run (for the simulator); reproducible per seed."""
    import random as _random

    rng = _random.Random(seed)
    state = initial_state(net)
    meta = [(state, None, None, "initial")]
    sid = 0
    for _ in range(steps):
        succ = successors(net, meta[sid][0])
        if not succ:
            break
        desc, label, nxt = succ[rng.randrange(len(succ))]
        meta.append((nxt, sid, desc, label))
        sid = len(meta) - 1
    final_zone = meta[sid][0].zone
    return _build_trace(meta, sid, final_zone, net)
