"""Networks of timed automata and symbolic reachability.

A network is a set of automaton templates over a shared immutable data
valuation plus clocks.  Clock layout is dynamic: every symbolic state
carries [reference, time, one clock per pending item], where the
pending items are reported by the network's `clock_owners(data)` hook
in sorted order (the block-chain world maps them to transactions
waiting for confirmation).

Semantics notes:

- An urgent edge blocks delay while its data guard holds.  Urgent
  edges must not constrain clocks.
- Location invariants are the only bound on delay.  A deadline is no
  kernel concept: the block-chain world's helper automaton
  (`world.build_helper`) holds `time <= θ` as its invariant while a
  flag of threshold θ is clear, and sets it on an edge guarded by
  `time == θ` (as a deadline is written in UPPAAL).
- Exploration runs over one passed/waiting list keyed by (locations,
  data): a new zone is dropped when a stored zone of its key covers it,
  and stored zones it covers die, so a dead state still waiting in the
  queue is skipped rather than expanded.  The waiting queue is
  breadth-first except for evictors: a state whose zone evicted a
  stored zone is expanded before every other waiting state (first in,
  first out among evictors), after Herbreteau and Tran, "Improving
  search order for reachability testing in timed automata" (FORMATS
  2015).  Its successors then reach the keys of the evicted zone's
  waiting successors while those still wait, evict them in turn, and
  the dead-skip drops them.  Without subsumption nothing is evicted,
  so the search is plain breadth-first.  It is deterministic: non-urgent
  enabled transitions come before urgent ones, each ordered by
  (automaton index, edge index, select binding).
- Successors come from one routine: the zone-independent part of a
  key's successors (its "skeleton") is built per (locations, data) key,
  one fire at a time (`_build_fire`), and then applied to zones, one
  fire at a time (`_fire_successor`).  Exploration and random runs use
  whole skeletons; trace replay builds and applies only the fire each
  step names, and evaluates only that fire's guard (a delay step: only
  the urgent edges' guards).  A skeleton holds a slot for each
  data-enabled fire, and builds the fire (update, interning, clock map,
  target invariants, transition check) on the first zone of its key
  that meets the fire's clock guard (`_meets`, on the zone's bounds on
  `time`).  A fire that no zone of its key meets is never built: one
  whose guard bounds `time` from below past the key's own invariant
  bound on `time` (a `tick@θ` above the helper's first clear
  threshold, say), or at a time no zone of the key reaches.
  On newscs(1,5) with adversary Alice this builds 122,892 of the
  144,436 fires the time bound alone kept, and on newscs(2,10) with
  adversary Bob 54,382 of 66,540.
  Select domains are static and shared by every engine: exploration,
  the discrete oracle and replay evaluate an edge's guard on each
  binding of its domain, in domain order.  A network saves guard work
  by giving an edge only the bindings whose guard can ever hold (as
  `contracts.instantiate` does for the chain and the adversary).
- `explore` keeps a key's skeleton only while a state of the key waits
  in its queue, as the passed/waiting list of UPPAAL keeps only what
  its waiting states still need (Behrmann et al., "UPPAAL
  Implementation Secrets", FTRTFT 2002).  It counts each key's waiting
  states, dead ones included; the skeleton goes once its last waiting
  state has been expanded (unless that expansion stored another zone
  of the key), and a zone of the key stored later builds it again.
  On the shipped scenarios no key gets a zone after its last waiting
  state is expanded, so each key's skeleton is built once.  A stored
  state is one record, (locations, data, zone, parent record,
  descriptor).  A passed-list row holds only its key's zones, so a
  record lives only while it waits in the queue or is an ancestor of a
  waiting record.  Rows nest under their locations tuple and a
  one-zone row is the bare zone (a compact store after Larsen et al.,
  RTSS 1997), so no key tuple or 1-tuple is kept per stored key; only
  waiting keys have a key tuple.  Checkers and the zone check get a
  `SymbolicState` built at the call.
- Checks run at three levels.  A network's transition checks see the
  data before and after a fire, once per fire built: they run in every
  `_build_fire`, so on each fire a skeleton builds (on the first zone
  of its key that meets the fire's clock guard; again when a key's
  skeleton is rebuilt) and on each fire a replay or a trace follows;
  only a network built without them (`contracts.instantiate` with
  `run_world_checks=False`) skips them.  Its state checks see only the
  data valuation and run once per (locations, data) key, when the
  key's first zone is stored.  The kernel's own zone check
  (`run_state_checks`: the zone lies inside its location invariants)
  runs once per distinct (zone, invariant atoms) pair of a stored zone
  state.  `explore(run_checks=False)` skips
  these last two, the state checks and the zone check, and only them.
- Clock guards compare only `time`: `AutomatonTemplate` rejects a guard
  on any other clock, and builds each edge's guard as zone atoms on
  index 1 once.  Transaction clocks are bounded only from above, by
  location invariants.
- `explore` extrapolates transaction clocks (Extra+_LU of Behrmann,
  Bouyer, Larsen and Pelánek, "Lower and upper bounds in zone-based
  abstractions of timed automata", STTT 2006).  No guard bounds a
  transaction clock from below, so L(x) = -inf for each of them, and
  every one that its invariant bounds by some B is extrapolated; `time`
  never is.  Extra+_LU forgets every upper bound on x and the
  invariant puts back x <= B: the row of x becomes B + (row of the
  reference clock), an O(n) rewrite of a closed DBM.
  Zones that differ only in how long ago a pending transaction started
  then merge.  The abstraction is a simulation that matches edge for
  edge and leaves the projection on `time` alone, so (locations, data)
  reachability and every query over `time` and data are unchanged.
  Stored zones are abstract, so a trace first recomputes the exact
  zones forward along its descriptors and meets the checker's witness
  with the exact final zone, whose earliest point ends the trace.  It
  then goes backward with one rule for both step kinds: constrain the
  exact zone to the next point (across a fire every shared clock keeps
  its value; across a delay every clock keeps its difference to `time`
  and `time` is no later) and take the earliest point there.
- Both explorers (`explore` and `oracle.explore_discrete`) run with
  CPython's cyclic garbage collector paused (`gc_paused`).  They build
  no reference cycles (a test over the shipped models checks that
  `gc.collect()` finds nothing after either), so the collector can
  free nothing there, and reference counting frees everything as
  before.  Left on, it keeps rescanning the millions of containers the
  explorers hold, a fifth to a quarter of a newscs(1,5) exploration.
  Checker callbacks run while it is paused.  The caller's setting is
  restored on every way out, exceptions included.
- `explore` keeps one intern table (a plain dict) for the length of
  one call.  Every fire it builds takes the canonical object for its
  locations, data and descriptor, and every skeleton for its key's
  invariant atoms and extrapolation bounds, so a successor's
  (locations, data) key is made of the very objects that the passed
  list and the waiting counts store: each is held once, and key
  comparison short-circuits on identity.  The block-chain world's data
  valuation is one flat `bytes` (see `world`) with no nested objects to
  share: interning it keeps one copy per distinct valuation, and its
  hash is computed once and cached in the object.  Fires are built on
  first use, so at the end of a shipped scenario the table holds
  exactly the reachable valuations: 15,190 on newscs(2,10) with
  adversary Bob, where building every fire the time bound kept
  interned 23,182.  Every zone it stores or expands is the table's
  object too (hash-consing, as UPPAAL's state store shares equal
  DBMs), and zones are never
  mutated, so each pure zone operation is remembered per operand zone
  (Filliâtre and Conchon, "Type-safe modular hash-consing", ML
  Workshop 2006): a fire's successor zone per zone part of the fire
  (clock guard, clock map, target invariants), a delay per key
  invariants, an extrapolation per bounds, an inclusion test per
  ordered pair (`_Passed`) and a zone check per invariant atoms.  On
  newscs(2,10) with adversary Bob, 56,102 applications of built fires
  are 741 distinct (zone, zone part) pairs over 148 expanded zones.
  The table also remembers each invariant
  pattern's zone atoms and bounds (`_invariants`) and each owner
  pair's clock map (`_remap`): a few hundred patterns serve tens of
  thousands of keys.  Memo keys are tagged so that no interned object
  meets them.  Nothing of the table outlives the call.  Fire labels
  (`Automaton.edge`) take no part in exploration; a trace derives them
  from its descriptors (`step_label`).
- `replay` is the one replay loop: it follows stored descriptors with
  the lookup that rebuilds exact trace zones and checks each step's
  concrete clock valuation.  `replay_trace` and
  `modelio.replay_document` wrap it.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import operator
import time as _time
from collections import deque
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .zones import INF, ZERO, Zone, atom_entries, unpack


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
    # (data) -> iterable of clock atoms (key, '<' or '<=', const); None for
    # no invariant
    invariant: Optional[Callable]
    named: bool = False


class Edge(NamedTuple):
    source: int
    target: int
    label: str
    select: tuple = ()        # ((var, (values...)), ...): static domains
    guard: Optional[Callable] = None       # (data, binds) -> bool
    clock_guard: tuple = ()   # (('time', op, const), ...): only `time` is guarded
    urgent: bool = False      # blocks delay while its guard holds
    update: Optional[Callable] = None      # (data, binds) -> data


class AutomatonTemplate:
    def __init__(self, name, locations, edges, initial=0):
        self.name = name
        self.locations = tuple(locations)
        self.edges = tuple(edges)
        self.initial = initial
        self._out = {}
        bindings, guard_atoms = [], []
        for idx, e in enumerate(self.edges):
            self._out.setdefault(e.source, []).append((idx, e))
            # select domains are static: expand bindings once per edge
            bindings.append(tuple((b, _binds_key(b)) for b in _expand_binds(e.select)))
            # clock guards compare only `time`, zone index 1 in every layout
            atoms = []
            for key, op, k in e.clock_guard:
                if key != TIME:
                    raise ModelError("%s: edge %s guards clock %r; clock guards "
                                     "compare only time" % (name, e.label, key))
                atoms.append((1, 0, op, k))
            guard_atoms.append(tuple(atoms))
        self.bindings = tuple(bindings)
        self.guard_atoms = tuple(guard_atoms)

    def edges_from(self, loc):
        return self._out.get(loc, ())

    def location_name(self, loc):
        return self.locations[loc].name


class Network:
    """Automata over a shared data valuation, plus the model's checks.

    `state_checks` are callables `chk(data)` on a data valuation alone;
    `transition_checks` are `chk(before, after)` on the data around one
    fire.  Both raise ModelInvariantError on a broken model invariant.
    `explore` runs a state check once per (locations, data) key and a
    transition check once per fire a skeleton builds (a data-enabled
    fire is built on the first zone of its key that meets its clock
    guard; a rebuilt key's fires are checked again); the kernel's zone
    check runs once per distinct (zone, invariant atoms) pair of a
    stored zone state (see `run_state_checks`).

    A location invariant maps the data to clock atoms (key, op, const)
    that bound clocks only from above (`<`, `<=`); building a key's
    invariant atoms raises ModelError on any other operator.  `explore`
    relies on this: its extrapolation treats an invariant as an upper
    bound that it may re-impose on an abstracted zone.  The invariants
    are the only bound on delay, so a deadline is an invariant plus an
    edge guarded at its threshold.
    """

    def __init__(
        self,
        name,
        automata,
        initial_data,
        clock_owners,
        state_checks=(),
        transition_checks=(),
        meta=None,
    ):
        self.name = name
        self.automata = tuple(automata)
        self.initial_data = initial_data
        self.clock_owners = clock_owners
        self.state_checks = tuple(state_checks)
        self.transition_checks = tuple(transition_checks)
        self.meta = meta or {}
        self._validate()

    @functools.cached_property
    def instances(self):
        """Per automaton and edge: its (binds, TransitionInstance) pairs,
        built on first use."""
        return tuple(
            tuple(tuple((b, TransitionInstance(ai, ei, bkey, e.urgent))
                        for b, bkey in bs)
                  for ei, (e, bs) in enumerate(zip(a.edges, a.bindings)))
            for ai, a in enumerate(self.automata))

    def _validate(self):
        names = [a.name for a in self.automata]
        if len(set(names)) != len(names):
            raise ModelError("duplicate automaton names: %r" % (names,))
        for a in self.automata:
            for e in a.edges:
                if e.urgent and e.clock_guard:
                    raise ModelError(
                        "%s: urgent edge %s has a clock guard" % (a.name, e.label)
                    )


class SymbolicState(NamedTuple):
    locs: tuple
    data: object
    zone: Zone


class TransitionInstance(NamedTuple):
    """One data-enabled edge under one select binding."""

    auto: int
    edge: int
    binds: tuple              # ((var, value), ...)
    urgent: bool


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


class VerificationResult(NamedTuple):
    verdict: str              # 'SATISFIED' | 'VIOLATED' | 'LIMIT'
    states: int
    transitions: int
    wall_time: float
    trace: Optional[Trace]
    limit_reason: Optional[str] = None
    reachable: Optional[frozenset] = None  # (locs, data) keys when requested
    verdicts: tuple = ()      # one verdict per checker
    traces: tuple = ()        # one trace per checker, None unless violated


# -- clock layout ------------------------------------------------------

TIME = "time"
DELAY = ("delay",)  # the descriptor of every delay step

# comparison operators of clock atoms, as functions
CMP = {"<": operator.lt, "<=": operator.le, "==": operator.eq,
       ">=": operator.ge, ">": operator.gt}


def clock_layout(net, data):
    """Zone index of every live clock: reference 0, time 1, owners after."""
    return _layout(net.clock_owners(data))


def _layout(owners):
    """The clock layout of a state whose clock owners are `owners`, in order."""
    layout = {TIME: 1}
    for pos, owner in enumerate(owners):
        layout[("tx", owner)] = 2 + pos
    return layout


def _intern_data(table, data):
    """The canonical data valuation equal to `data` in the intern `table`.

    The kernel's own tuples (locations, atoms, descriptors, bounds) are
    interned with `table.setdefault`: any equal object serves for them.
    A valuation is the network's object and must keep its type, so an
    equal object of another type (a plain `bytes` for a `world.World`
    valuation, say) is not taken for it.
    """
    canon = table.setdefault(data, data)
    return canon if type(canon) is type(data) else data


def _invariant_atoms(net, locs, data):
    """The clock atoms (key, op, k) of the location invariants of (locs, data)."""
    atoms = []
    for ai, a in enumerate(net.automata):
        inv = a.locations[locs[ai]].invariant
        if inv is not None:
            atoms.extend(inv(data))
    return atoms


# Tags of the intern table's memo keys: no interned tuple holds them, so
# a memo key never meets an interned object.
_INVARIANTS, _REMAP = object(), object()
_FIRE, _DELAY, _EXTRAPOLATE, _SUBSUMES = object(), object(), object(), object()
_ZONE_CHECKED = object()
_UNKNOWN = object()  # a memo's miss, where None is a remembered result


def _memo(table, key):
    """The memo dict that the intern `table` keeps under the tagged `key`."""
    memo = table.get(key)
    if memo is None:
        memo = table[key] = {}
    return memo


def _invariants(net, locs, data, owners, table):
    """(zone atoms (i, 0, op, k), extrapolation bounds) of (locs, data).

    `owners` are the clock owners of `data`, and both tuples are the
    canonical ones of the intern `table`.  Raises ModelError on the
    first atom of an inactive clock or that bounds a clock from below.
    The bounds are (index, packed bound) pairs, one per transaction
    clock, with the clock's tightest invariant bound.  A clock pinned to
    zero (`<= 0`) is left out: it has the reference clock's row already,
    so extrapolating it changes nothing.

    The result depends only on the owners and the raw atoms, so the
    `table` remembers it under that pattern and reads the atoms in one
    pass only for a pattern it has not seen.  A pattern that raises is
    not stored, so it raises again each time.
    """
    atoms = tuple(_invariant_atoms(net, locs, data))
    key = (_INVARIANTS, owners, atoms)
    known = table.get(key)
    if known is not None:
        return known
    intern = table.setdefault
    layout = _layout(owners)
    indexed, tightest = [], {}
    for clock, op, k in atoms:
        idx = layout.get(clock)
        if idx is None:
            raise ModelError("clock atom for inactive clock %r" % (clock,))
        if op != "<=" and op != "<":
            raise ModelError("invariant atom %r bounds a clock from below"
                             % ((clock, op, k),))
        atom = (idx, 0, op, k)
        indexed.append(intern(atom, atom))
        b = 2 * k + (op == "<=")  # packed
        if idx > 1 and b < tightest.get(idx, INF):
            tightest[idx] = b
    indexed = tuple(indexed)
    bounds = tuple((idx, b) for idx, b in sorted(tightest.items()) if b > ZERO)
    known = table[key] = intern(indexed, indexed), intern(bounds, bounds)
    return known


def invariant_indices(net, locs, data):
    """The location invariants of (locs, data) as zone atoms (i, 0, op, k)."""
    return _invariants(net, locs, data, net.clock_owners(data), {})[0]


def initial_state(net):
    data = net.initial_data
    owners = net.clock_owners(data)
    zone = Zone.origin(2 + len(owners))
    locs = tuple(a.initial for a in net.automata)
    z = zone.constrained(invariant_indices(net, locs, data))
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

    Non-urgent instances come first, then urgent ones, each ordered by
    (automaton, edge, binding).  Guards never read clocks, so
    enabledness up to clock guards is a pure function of locations and
    data; clock guards are applied to zones by `_apply_skeleton`.  Every
    binding of an edge's static select domain has its guard evaluated.
    The instances are the network's own (`Network.instances`).
    """
    plain = []
    urgent = []
    for a, insts, loc in zip(net.automata, net.instances, locs):
        for ei, e in a.edges_from(loc):
            guard = e.guard
            out = urgent if e.urgent else plain
            for binds, inst in insts[ei]:
                if guard is None or guard(data, binds):
                    out.append(inst)
    return plain + urgent


def run_state_checks(state, inv_atoms):
    """The kernel's zone check on one stored state.

    The zone must lie inside its location invariants, given as
    `inv_atoms` (see `invariant_indices`).  The network's data checks
    are not run here: they see only the data valuation, and `explore`
    runs them once per (locations, data) key.
    """
    if inv_atoms and state.zone.constrained(inv_atoms) != state.zone:
        raise ModelInvariantError("state escapes a location invariant")


# -- exploration -------------------------------------------------------


COVERED, STORED, EVICTED = 0, 1, 2  # outcomes of `_Passed.insert`


class _Passed:
    """Unified passed/waiting list: zone antichains per (locations, data) key.

    `_store` maps a locations tuple to a dict that maps each data
    valuation to the key's row, so no (locations, data) tuple is kept
    per key.  A row is the bare zone while its key has one stored zone,
    the common case, and the tuple of its zones otherwise; an eviction
    that leaves one zone stores it bare again.  A new zone that covers
    stored ones evicts them from the row, and the state that stored an
    evicted zone is dead: it is not expanded when popped from the
    waiting queue (`explore` finds its zone gone from the row), since
    its checks ran when it was inserted, and the successors of the zone
    that evicted it cover its own.  An evicted zone is never stored
    again, because a stored zone covers it from then on.  This is the
    passed/waiting list of Behrmann et al., "UPPAAL Implementation
    Secrets" (FTRTFT 2002).

    `insert` tells an evicting zone apart (EVICTED), and `explore`
    expands it ahead of the breadth-first queue.  The evicted zone's
    waiting successors need no walk to find them: the evictor's own
    successors cover them while they still wait, so they die and are
    skipped like the evicted zone itself.

    An identical zone is covered without a test, and each inclusion
    test is remembered per ordered pair of zones in the dict `covers`.
    """

    def __init__(self, subsumption=True, covers=None):
        self._store = {}
        self.key_count = 0
        self._subsume = subsumption
        self._covers = {} if covers is None else covers

    def _subsumes(self, a, b):
        """Whether zone `a` contains zone `b`, remembered per pair."""
        known = self._covers.get((a, b))
        if known is None:
            known = self._covers[(a, b)] = a.subsumes(b)
        return known

    def insert(self, locs, data, zone):
        """Store `zone` for key (locs, data) unless a stored zone covers it.

        Returns COVERED (false) when nothing is stored, STORED, or
        EVICTED when `zone` was stored and evicted at least one stored
        zone.  Without subsumption only exact duplicates are rejected
        and nothing is evicted (used to validate that inclusion checking
        never changes a verdict or a reachable set).
        """
        rows = self._store.get(locs)
        if rows is None:
            rows = self._store[locs] = {}
        row = rows.get(data)
        if row is None:
            rows[data] = zone
            self.key_count += 1
            return STORED
        if type(row) is not tuple:
            row = (row,)
        if not self._subsume:
            if zone in row:
                return COVERED
            rows[data] = row + (zone,)
            return STORED
        for z in row:
            if z is zone or self._subsumes(z, zone):
                return COVERED
        kept = tuple(z for z in row if not self._subsumes(zone, z))
        rows[data] = kept + (zone,) if kept else zone
        return EVICTED if len(kept) < len(row) else STORED


class _Skeleton(NamedTuple):
    """Zone-independent successor data for one (locations, data) key.

    Guards, updates, urgency and invariant atoms never read clocks, so
    sibling states that differ only in their zone share all of this.
    `explore` keeps a key's skeleton only while a state of the key waits
    in its queue, and builds it again for a zone of the key stored after
    that (see `explore`).  A fire is built (`build`) on the first zone
    applied to the skeleton that meets its clock guard; until then its
    slot in `fires` holds (instance, clock guard) and its memo is None.
    The memos are the intern table's, shared by every skeleton with the
    same invariants or the same fire zone part (clock guard, clock map,
    target invariants; see `_apply_skeleton`).
    """

    urgent: bool
    inv_atoms: tuple    # the key's own location invariants
    bounds: tuple       # the key's extrapolation bounds (see `_invariants`)
    fires: list         # per enabled instance: its `_build_fire` tuple once built
    delays: dict        # zone -> its delay successor, or None for none
    memos: list         # per fire: zone -> its successor zone or None, once built
    table: dict         # the intern table the skeleton was built with
    build: Callable     # instance -> its `_build_fire` tuple from this key


def _meets(zone, cg):
    """Whether the closed, non-empty `zone` meets the clock guard atoms
    `cg` (true for none), which bound only `time`: the zone's projection
    on `time` is the interval of its entries (1, 0) and (0, 1)."""
    m = zone.m
    hi, lo = m[zone.dim], m[1]
    for _i, _z, op, k in cg:
        for row, _col, b in atom_entries(1, 0, op, k):
            if row and b < hi:
                hi = b
            elif not row and b < lo:
                lo = b
    return hi + lo - ((hi | lo) & 1) >= ZERO


def _build_skeleton(net, locs, data, table):
    """The skeleton of one key, applied to each of its zones.

    Delay is blocked by enabled urgent edges and otherwise bounded by
    the location invariants.  It holds a slot for each data-enabled
    fire, built on first use (see `_Skeleton`).  Every tuple and data
    valuation the skeleton holds is the canonical one of the intern
    `table` (a dict that `explore` keeps for one call; see the module
    notes).
    """
    insts = enabled_transitions(net, locs, data)
    before = net.clock_owners(data)
    inv_atoms, bounds = _invariants(net, locs, data, before, table)
    fires = [(inst, net.automata[inst.auto].guard_atoms[inst.edge]) for inst in insts]
    return _Skeleton(any(i.urgent for i in insts), inv_atoms, bounds, fires,
                     _memo(table, (_DELAY, inv_atoms)), [None] * len(fires), table,
                     functools.partial(_build_fire, net, locs, data, before, table))


def _build_fire(net, locs, data, before, table, inst):
    """The zone-independent part of firing `inst` from (locs, data).

    `before` is the key's clock owners.  Returns (desc, guard_atoms,
    locs2, data2, src, inv2, bounds2), where desc, locs2, data2, inv2
    and bounds2 are canonical objects of the intern `table` and `src`
    maps the clocks (`_remap`).  The network's transition checks run on
    the fire.
    """
    intern = table.setdefault
    auto = net.automata[inst.auto]
    edge = auto.edges[inst.edge]
    data2 = edge.update(data, dict(inst.binds)) if edge.update else data
    locs2 = locs[:inst.auto] + (edge.target,) + locs[inst.auto + 1:]
    data2 = _intern_data(table, data2)
    locs2 = intern(locs2, locs2)
    desc = ("fire", inst.auto, inst.edge, inst.binds)
    after = net.clock_owners(data2)
    src = _remap(before, after, table)
    inv2, bounds2 = _invariants(net, locs2, data2, after, table)
    for chk in net.transition_checks:
        chk(data, data2)
    return intern(desc, desc), auto.guard_atoms[inst.edge], locs2, data2, src, inv2, bounds2


def _remap(before, after, table):
    """The clock map `src` (see `Zone.remapped`) of a fire from clock
    owners `before` to `after`, remembered per owner pair in the intern
    `table`: each clock of `after`'s layout has its index in `before`'s,
    or 0 when it is fresh.  None when the layouts are equal."""
    key = (_REMAP, before, after)
    src = table.get(key, _UNKNOWN)
    if src is _UNKNOWN:
        old = {o: 2 + i for i, o in enumerate(before)}
        src = table[key] = None if before == after else (
            (0, 1) + tuple(old.get(o, 0) for o in after))
    return src


def _apply_skeleton(skel, zone):
    """Successors of (key, zone) from the key's skeleton.

    Each successor is (descriptor, locs, data, zone, invariant atoms and
    extrapolation bounds of its configuration).  A fire whose
    clock guards or target invariants empty the zone is disabled.  Delay
    successors carry None for locations and data: the configuration is
    unchanged.  Zones are exact; `explore` extrapolates them.

    A fire is built on the first zone that meets its clock guard.
    Every zone operation here is pure, so the skeleton's memos remember
    its result per operand zone, and a result computed here is the
    intern table's object.  A delay that empties the zone raises each
    time and is never remembered.
    """
    out = []
    table = skel.table
    intern = table.setdefault
    if not skel.urgent:
        delayed = skel.delays.get(zone, _UNKNOWN)
        if delayed is _UNKNOWN:
            delayed = zone.up().constrained(skel.inv_atoms)
            if delayed != zone and delayed.is_empty():
                raise ModelInvariantError("delay produced an empty zone")
            delayed = None if delayed == zone else intern(delayed, delayed)
            skel.delays[zone] = delayed
        if delayed is not None:
            out.append((DELAY, None, None, delayed, skel.inv_atoms, skel.bounds))
    fires, memos = skel.fires, skel.memos
    for i, memo in enumerate(memos):
        fire = fires[i]
        if memo is None:  # not built yet: (instance, clock guard)
            inst, cg = fire
            if cg and not _meets(zone, cg):
                continue
            fire = fires[i] = skel.build(inst)
            # a fire's successor zone depends on its zone part alone: the
            # clock guard, the clock map and the target invariants
            memo = memos[i] = _memo(table, (_FIRE, cg, fire[4], fire[5]))
        z = memo.get(zone, _UNKNOWN)
        if z is _UNKNOWN:
            z = _fire_successor(fire, zone)
            z = memo[zone] = None if z is None else intern(z, z)
        if z is not None:
            desc, _cg, locs2, data2, _src, inv2, bounds2 = fire
            out.append((desc, locs2, data2, z, inv2, bounds2))
    return out


def _fire_successor(fire, zone):
    """The successor zone of one `_build_fire` tuple applied to `zone`,
    or None when its clock guard or its target invariants empty the
    zone.  Only the fire's zone part (cg, src, inv2) is read: the clock
    guard, one `Zone.remapped` by the clock map, then the target
    invariants."""
    _desc, cg, _locs2, _data2, src, inv2, _bounds2 = fire
    z = zone
    if cg:
        z = z.constrained(cg)
        if z.is_empty():
            return None
    if src is not None:
        z = z.remapped(src)
    if inv2:
        z = z.constrained(inv2)
        if z.is_empty():
            return None
    return z


def successors(net, state):
    """Successors of one symbolic state as (descriptor, state) pairs.

    The delay successor comes first, then the fires in enabled-transition
    order.  This is the skeleton routine `explore` uses, built for
    this one state: only the fires whose clock guard its zone meets are
    built.
    """
    locs, data, zone = state
    out = []
    skel = _build_skeleton(net, locs, data, {})
    for desc, locs2, data2, zone2, _inv, _b in _apply_skeleton(skel, zone):
        if locs2 is None:  # delay successor keeps the configuration
            locs2, data2 = locs, data
        out.append((desc, SymbolicState(locs2, data2, zone2)))
    return out


def _extrapolate(zone, bounds):
    """Extra+_LU of the transaction clocks in `bounds`, re-bounded by B.

    No guard bounds a transaction clock from below, so each (x, B) has
    L(x) = -inf: its row is forgotten and its invariant x <= B put back:
    c(x, 0) = B, c(x, x) = 0 and c(x, j) = B + c(0, j).  On a closed
    zone inside its invariants this is Extra+_LU followed by the
    invariant, and every other entry stays, so the result is closed.
    Row 0 never changes, so the rows can be rewritten in any order.
    Returns `zone` itself when no row changes.
    """
    n = zone.dim
    m = zone.m
    row0 = m[:n]
    work = None
    for x, b in bounds:
        base = x * n
        row = [b + c - ((b | c) & 1) for c in row0]
        row[x] = ZERO
        if row != list(m[base:base + n]):
            if work is None:
                work = list(m)
            work[base:base + n] = row
    return zone if work is None else Zone(n, tuple(work), _canonical=True)


def _extrapolated(table, zone, bounds):
    """`_extrapolate(zone, bounds)`, remembered per (bounds, zone) in the
    intern `table`; a result computed here is the table's object."""
    memo = _memo(table, (_EXTRAPOLATE, bounds))
    abstract = memo.get(zone)
    if abstract is None:
        abstract = _extrapolate(zone, bounds)
        abstract = memo[zone] = table.setdefault(abstract, abstract)
    return abstract


def overall_verdicts(violated, limit_reason):
    """(overall verdict, one verdict per check) of a multi-check run.

    A violated check is VIOLATED; every other check is LIMIT when the
    run hit a limit and SATISFIED otherwise.  The run is VIOLATED when
    any check is.
    """
    rest = "LIMIT" if limit_reason else "SATISFIED"
    per_check = tuple("VIOLATED" if v else rest for v in violated)
    return ("VIOLATED" if any(violated) else rest), per_check


def gc_paused(fn):
    """Decorate an explorer to run with the cyclic collector paused.

    Sound only for code that builds no reference cycles (see the module
    notes).  A collector the caller disabled stays disabled; one it left
    on is switched back on however `fn` ends.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


@gc_paused
def explore(
    net,
    check=None,
    max_states=None,
    max_seconds=None,
    subsumption=True,
    run_checks=True,
    collect_reachable=False,
    extrapolate=True,
):
    """Exhaustive reachability with on-the-fly safety checking.

    `check` is one checker or a sequence of checkers.  A checker maps a
    state to None when it is fine, or to a witness zone (the violating
    sub-zone) to report a violation; it then gets a trace and is not
    called again, and exploration stops once no checker is left.  The
    VerificationResult carries one verdict and one trace per checker
    (`verdicts`, `traces`); its `verdict` is VIOLATED if any checker
    was violated, else LIMIT or SATISFIED (see `overall_verdicts`), and
    its `trace` is the trace of the first violation found.  The run
    ends with LIMIT once more than `max_states` zone states are stored,
    dead ones included, or after `max_seconds` of wall-clock time; its
    `states` counts (locations, data) keys.

    Stored zones are extrapolated (see the module notes); with
    `extrapolate=False` they are exact, which is used to validate that
    extrapolation never changes a verdict or a reachable set.

    A key's skeleton lives while a state of the key waits in the queue:
    it is built when the first of them is expanded and dropped after
    the expansion that leaves none waiting, dead states included.  A
    zone of the key stored after that builds it again.

    Zones are hash-consed in the call's intern table, and each zone
    operation is computed once per distinct (zone, operation) pair (see
    the module notes).
    """
    started = _time.monotonic()
    checks = () if check is None else (check,) if callable(check) else tuple(check)
    live = list(range(len(checks)))
    traces = {}  # check index -> trace, in the order violations were found
    table = {}  # the intern table of this call (see the module notes)
    init = initial_state(net)
    # a stored state's record: (locs, data, zone, parent record, descriptor)
    init = (table.setdefault(init.locs, init.locs), _intern_data(table, init.data),
            table.setdefault(init.zone, init.zone), None, None)
    passed = _Passed(subsumption, _memo(table, _SUBSUMES))
    store = passed._store
    zone_checked = table[_ZONE_CHECKED] = set()

    def zone_check(rec, inv_atoms):  # once per (zone, invariant atoms)
        if (rec[2], inv_atoms) not in zone_checked:
            run_state_checks(SymbolicState(*rec[:3]), inv_atoms)
            zone_checked.add((rec[2], inv_atoms))

    def out_of_time():
        return max_seconds is not None and _time.monotonic() - started > max_seconds

    def checked(rec):
        """Run the live checks on the state of `rec`; True once none is left."""
        state = SymbolicState(*rec[:3])
        for i in tuple(live):
            witness = checks[i](state)
            if witness is not None:
                traces[i] = _build_trace(rec, witness, net)
                live.remove(i)
        return not live

    def result(reason=None):
        # states counts distinct (locations, data) configurations
        reach = frozenset((locs, data) for locs, rows in store.items()
                          for data in rows) if collect_reachable else None
        every = range(len(checks))
        verdict, verdicts = overall_verdicts([i in traces for i in every], reason)
        return VerificationResult(
            verdict, passed.key_count, transitions,
            _time.monotonic() - started, next(iter(traces.values()), None),
            reason, reach, verdicts, tuple(map(traces.get, every)),
        )

    transitions = 0
    key = init[:2]
    if run_checks:
        for chk in net.state_checks:
            chk(key[1])
        zone_check(init, invariant_indices(net, *key))
    passed.insert(*init[:3])
    stored_states = 1
    if live and checked(init):
        return result()

    frontier = deque([init])
    evictors = deque()  # expanded first (see the module notes)
    # key -> [its states in the queue, its skeleton or None]; a key
    # leaves once its last waiting state is expanded
    waiting = {key: [1, None]}
    ticks = 0
    while evictors or frontier:
        ticks += 1
        if ticks % 512 == 0 and out_of_time():
            return result("wall-clock budget exhausted")
        rec = (evictors or frontier).popleft()
        locs, data, zone, _parent, _desc = rec
        key = (locs, data)
        entry = waiting[key]
        entry[0] -= 1
        row = store[locs][data]
        if row is not zone and (zone not in row if type(row) is tuple
                                else row != zone):  # evicted: the state is dead
            if not entry[0]:
                del waiting[key]
            continue
        skel = entry[1]
        if skel is None:
            skel = entry[1] = _build_skeleton(net, locs, data, table)
        for desc, locs2, data2, zone2, inv2, bounds2 in _apply_skeleton(skel, zone):
            transitions += 1
            if bounds2 and extrapolate:
                zone2 = _extrapolated(table, zone2, bounds2)
            if locs2 is None:  # delay successor keeps the configuration
                locs2, data2 = locs, data
            known = passed.key_count
            stored = passed.insert(locs2, data2, zone2)
            if not stored:
                continue
            nxt = (locs2, data2, zone2, rec, desc)
            stored_states += 1
            if run_checks:
                if passed.key_count != known:  # the first zone of its key
                    for chk in net.state_checks:
                        chk(data2)
                zone_check(nxt, inv2)
            if live and checked(nxt):
                return result()
            if max_states is not None and stored_states > max_states:
                return result("state budget exhausted")
            (evictors if stored == EVICTED else frontier).append(nxt)
            waiting.setdefault((locs2, data2), [0, None])[0] += 1
        if not entry[0]:  # no state of the key waits: drop its skeleton
            del waiting[key]
    return result()


# -- trace reconstruction and replay ------------------------------------


def step_label(net, desc):
    """The display label of a step: `delay`, or `Automaton.edge` for the
    fire descriptor ('fire', automaton, edge, binds)."""
    if desc == DELAY:
        return "delay"
    a = net.automata[desc[1]]
    return "%s.%s" % (a.name, a.edges[desc[2]].label)


def _named_instance(net, locs, data, desc):
    """The transition instance that the fire descriptor `desc` names, if
    it is enabled at (locs, data): its edge leaves the current location,
    its binding is one of the edge's static domain, and its data guard
    holds.  None otherwise, for a malformed descriptor too.  Only that
    one guard is evaluated."""
    try:
        kind, ai, ei, bkey = desc
    except (TypeError, ValueError):
        return None
    if kind != "fire":
        return None
    for a_i, a in enumerate(net.automata):
        if a_i != ai:
            continue
        for e_i, e in a.edges_from(locs[a_i]):
            if e_i != ei:
                continue
            for binds, inst in net.instances[a_i][e_i]:
                if inst.binds == bkey and (e.guard is None or e.guard(data, binds)):
                    return inst
    return None


def _urgent_enabled(net, locs, data):
    """Whether some urgent edge's data guard holds at (locs, data)."""
    for ai, a in enumerate(net.automata):
        for ei, e in a.edges_from(locs[ai]):
            if e.urgent:
                for binds, _b in a.bindings[ei]:
                    if e.guard is None or e.guard(data, binds):
                        return True
    return False


def _follow(net, state, desc, i):
    """(successor, its invariant atoms) of `state` along the descriptor
    of step `i`.  Only the fire it names is built, by the skeleton's own
    `_build_fire` and `_fire_successor`, and only the guards the step
    needs run: the named edge's for a fire, the urgent edges' for a
    delay.  A fire is built only when the zone meets its clock guard.
    Raises ReplayError when the step is not enabled; a delay is refused
    while an urgent edge is."""
    locs, data, zone = state
    before = net.clock_owners(data)
    inv_atoms = _invariants(net, locs, data, before, {})[0]
    if desc == DELAY:
        if _urgent_enabled(net, locs, data):
            raise ReplayError(i, "delay while an urgent edge is enabled")
        # a zone its invariants already close under delay is its own
        # delay successor: only a delay of zero is left there
        return state._replace(zone=zone.up().constrained(inv_atoms)), inv_atoms
    inst = _named_instance(net, locs, data, desc)
    if inst is not None and _meets(zone, net.automata[inst.auto].guard_atoms[inst.edge]):
        fire = _build_fire(net, locs, data, before, {}, inst)
        zone2 = _fire_successor(fire, zone)
        if zone2 is not None:
            _d, _cg, locs2, data2, _src, inv2, _b = fire
            return SymbolicState(locs2, data2, zone2), inv2
    try:
        what = step_label(net, desc)
    except (IndexError, TypeError):  # names no edge of the network
        what = desc
    raise ReplayError(i, "transition %r not enabled here" % (what,))


def _exact_chain(net, chain):
    """The states of `chain` with exact zones, recomputed forward.

    `chain` is the (state, descriptor) path from the initial state,
    whose zones `explore` may have extrapolated.  Extrapolation is a
    simulation that matches edge for edge, so every descriptor is
    enabled from the exact zone too; ModelInvariantError otherwise.
    """
    def follow(state, step):
        i, (_stored, desc) = step
        return _follow(net, state, desc, i)[0]

    try:
        return list(itertools.accumulate(enumerate(chain[1:]), follow,
                                         initial=chain[0][0]))
    except ReplayError as exc:
        raise ModelInvariantError("exact trace zones: %s" % exc) from exc


def _meet(zone, other):
    """The intersection of two zones over the same clocks."""
    n = zone.dim
    atoms = []
    for idx, b in enumerate(other.m):
        i, j = divmod(idx, n)
        if i != j and b < INF:
            v, weak = unpack(b)
            atoms.append((i, j, "<=" if weak else "<", v))
    return zone.constrained(atoms)


def _build_trace(goal, witness_zone, net):
    """Concretize the path to the record `goal` with exact clock witnesses.

    A record is (locs, data, zone, parent record, descriptor), None as
    the initial state's parent and descriptor (see `explore`).

    The path's zones are recomputed exactly (`_exact_chain`) and the
    final one is met with the witness, the violating sub-zone; an empty
    meet raises ModelInvariantError.  The final state is pinned to the
    earliest point of that meet.  Earlier states are chosen backward by
    one rule: constrain the exact zone to the next point and take its
    earliest point.  Across a fire, `time` and every clock the fire
    keeps equal their next values; `time` is pinned, so the fire's
    clock guard holds.  Across a delay, every clock keeps its difference
    to `time` and `time` is no later, so the earliest point is the
    longest delay, and the run is the earliest one reaching the
    violation.  Points are taken on the grid of the next point's
    denominators.  Closed zones concretize on integers.  A strict bound
    can force half-integral instants; only a negated query (the
    violation region of `time >= c` is `time < c`) or a hand-built
    network has one.
    """
    chain = []
    rec = goal
    while rec is not None:
        locs, data, zone, rec, desc = rec
        chain.append((SymbolicState(locs, data, zone), desc))
    chain.reverse()

    zones_ = [st.zone for st in _exact_chain(net, chain)]
    final = _meet(zones_[-1], witness_zone)
    if final.is_empty():
        raise ModelInvariantError("witness lies outside the exact final zone")
    layouts = [clock_layout(net, state.data) for state, _desc in chain]
    w = final.witness()
    vals = [None] * len(chain)
    vals[-1] = {k: Fraction(w[idx]) for k, idx in layouts[-1].items()}
    for i in range(len(chain) - 2, -1, -1):
        layout, nxt = layouts[i], vals[i + 1]
        scale = math.lcm(*(v.denominator for v in nxt.values()))
        if chain[i + 1][1] == DELAY:
            t = nxt[TIME] * scale
            atoms = [(layout[k], 1, "==", int(v * scale - t))
                     for k, v in nxt.items() if k != TIME]
            atoms.append((1, 0, "<=", int(t)))
        else:
            atoms = [(layout[k], 0, "==", int(v * scale))
                     for k, v in nxt.items() if k in layout]
        z = zones_[i].scaled(scale) if scale > 1 else zones_[i]
        z = z.constrained(atoms)
        if z.is_empty():
            raise ModelInvariantError("trace concretization failed")
        w = z.witness()
        vals[i] = {k: Fraction(w[idx]) / scale for k, idx in layout.items()}

    steps = []
    for i in range(1, len(chain)):
        state, desc = chain[i]
        steps.append(
            TraceStep(
                "delay" if desc == DELAY else "fire", desc,
                step_label(net, desc), _display_vals(vals[i]), state.data,
                state.locs,
            )
        )
    first = chain[0][0]
    return Trace(tuple(steps), first.data, first.locs)


def _display_vals(vals):
    out = {}
    for k, v in vals.items():
        out[k] = int(v) if v == int(v) else float(v)
    return out


def replay(net, state, steps, compare):
    """Re-execute stored steps from the initial `state`, where every
    clock is zero; returns the final SymbolicState and valuation.

    `steps` yields (descriptor, valuation) pairs; a valuation
    maps every clock key after the step to its value, read exactly (as
    a Fraction: values may be half-integral).  Each descriptor is
    followed (`_follow`), and then: a delay moves every clock by one
    d >= 0; a fire meets its clock guard, keeps `time` and every clock
    that survives it, and starts new clocks at zero; every clock of the
    new state is valued and its invariants hold.  Last,
    `compare(i, state)` checks the caller's snapshot of step i.  Raises
    ReplayError with the diverging step.
    """
    keys = tuple(clock_layout(net, state.data))
    val = dict.fromkeys(keys, Fraction(0))
    for i, (desc, stored) in enumerate(steps):
        state, inv = _follow(net, state, desc, i)
        nxt = {k: Fraction(v) for k, v in stored.items()}
        if desc != DELAY:
            keys = tuple(clock_layout(net, state.data))
        if set(nxt) != set(keys):
            raise ReplayError(i, "valuation names %s, the state has clocks %s"
                              % (sorted(map(str, nxt)), sorted(map(str, keys))))
        if desc == DELAY:
            moved = nxt[TIME] - val[TIME]
            if moved < 0 or any(nxt[k] != v + moved for k, v in val.items()):
                raise ReplayError(i, "delay does not move every clock by "
                                     "one d >= 0")
        else:
            _fire, ai, ei, _binds = desc
            for key, op, k in net.automata[ai].edges[ei].clock_guard:
                if not CMP[op](val[key], k):
                    raise ReplayError(i, "clock guard %s %s %d fails at %s"
                                      % (key, op, k, val[key]))
            for key in keys:
                if nxt[key] != val.get(key, 0):
                    raise ReplayError(i, "fire moves clock %s from %s to %s"
                                      % (key, val.get(key, 0), nxt[key]))
        point = (0,) + tuple(nxt[k] for k in keys)
        for idx, _zero, op, k in inv:
            if not CMP[op](point[idx], k):
                raise ReplayError(i, "invariant %s %s %d broken at %s"
                                  % (keys[idx - 1], op, k, point[idx]))
        compare(i, state)
        val = nxt
    return state, val


def replay_trace(net, trace):
    """Replay an in-memory trace (`replay`) whose stored locations and
    data must match; returns the final SymbolicState."""
    state = initial_state(net)
    if trace.initial_data != state.data or trace.initial_locs != state.locs:
        raise ReplayError(0, "initial state mismatch")

    def compare(i, nxt):
        step = trace.steps[i]
        if nxt.data != step.data or nxt.locs != step.locs:
            raise ReplayError(i, "state diverges from stored trace")

    steps = [(s.descriptor, s.valuation) for s in trace.steps]
    return replay(net, state, steps, compare)[0]


def random_run(net, seed, steps):
    """One random maximal run (for the simulator); reproducible per seed."""
    import random as _random

    rng = _random.Random(seed)
    rec = (*initial_state(net), None, None)
    for _ in range(steps):
        succ = successors(net, SymbolicState(*rec[:3]))
        if not succ:
            break
        desc, nxt = succ[rng.randrange(len(succ))]
        rec = (*nxt, rec, desc)
    return _build_trace(rec, rec[2], net)
