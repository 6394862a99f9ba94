"""Symbolic block-chain world shared by all contract models.

A world has a static half and a dynamic half, as UPPAAL splits a
network's static description from its discrete state vector (Behrmann
et al., "UPPAAL Implementation Secrets", FTRTFT 2002).

- The static half is a network's `WorldTable`, built once per model and
  scenario: every transaction's inputs, its outputs' script kinds,
  references and values, its timelock and reveals, and the offset of
  every dynamic field.
- The dynamic half, the data valuation, is one immutable `bytes` with
  one byte per dynamic field: each transaction's status, timelock flag
  and malleability nonce; each output's spent bit; each party's key
  and secret bits (Dolev-Yao knowledge is binary); the timers, marks
  and adversary messages; and one byte per possible pooled signature.
  A valuation is an instance of its network's `World` subclass, whose
  class attribute `T` is the table, so every function here takes the
  valuation alone.  An update copies it into a `bytearray`, stores, and
  returns a new valuation; hashing and comparing one is a flat `bytes`
  operation.

The fields that a `.model` can name (everything but the signatures and
the messages) have offsets that depend only on the model, never on the
adversary (`Layout`), so the loader compiles guards and updates to
fixed offsets before any network exists.

Transactions have any number of inputs and outputs: spending is tracked
per output, and a transaction's status moves to SPENT once every output
is spent.

Signatures are unforgeable and live in one pool of the world: a
signature sent between parties travels on an open network, so every
party can use it, and `broadcast_signature` is the pool's only writer.
A signature covers every input of the transaction it signs
(SIGHASH_ALL): it records each input's malleability nonce at signing
time and is valid only while all of them match the inputs' current
nonces.  So the possible signatures are the (key, transaction, input
nonce vector) triples of the model's `broadcast_signature` statements,
each one byte of the valuation.  Broadcasting a transaction that
reveals secrets likewise discloses them to every party immediately
(network eavesdropping happens before confirmation).
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .kernel import (
    TIME,
    AutomatonTemplate,
    Edge,
    Location,
    ModelError,
    ModelInvariantError,
)

UNSENT, SENT, CONFIRMED, SPENT, CANCELED = range(5)
STATUS_NAMES = ("UNSENT", "SENT", "CONFIRMED", "SPENT", "CANCELED")
ON_CHAIN = (CONFIRMED, SPENT)
NONCES = 2  # the chain confirms a nonce-relevant transaction with nonce 0 or 1


class WorldConstants(NamedTuple):
    max_latency: int = 10
    prot_timelock: int = 100

    def validate(self):
        if self.max_latency < 1:
            raise ModelError("MAX_LATENCY must be at least 1")
        if self.prot_timelock <= self.max_latency:
            raise ModelError("PROT_TIMELOCK must exceed MAX_LATENCY")
        return self


class Output(NamedTuple):
    script_kind: str   # 'key' (standard) or 'nss'
    script_ref: int    # key id or non-standard-script id
    value: int


class NssClause(NamedTuple):
    keys: tuple        # key ids that must all sign
    secrets: tuple     # secret ids that must be known and revealed


class TxRecord(NamedTuple):
    """A transaction's static description."""

    num: int
    inputs: tuple      # ((tx id, output index), ...)
    outputs: tuple     # (Output, ...)
    timelock: int = 0
    reveals: tuple = ()


class PartyKnowledge(NamedTuple):
    """A party's initial keys and secrets, one boolean each."""

    know_key: tuple
    know_secret: tuple


class Layout:
    """Offsets of the fields a `.model` can name.

    Transaction i's status is byte i, its timelock flag `flag + i` and
    its nonce `nonce + i`; the spent bit of its output j is
    `spent[i][j]`.  Party p's bit of key k is `key_bit(p, k)` and of
    secret s `secret_bit(p, s)`; timer i is `timers + i` and mark i
    `marks + i`.  The fields end at `end`, where the signatures begin.
    """

    def __init__(self, output_counts, party_count, key_count, secret_count,
                 timer_count, mark_count):
        n = self.tx_count = len(output_counts)
        self.flag = n
        self.nonce = 2 * n
        off = 3 * n
        spent = []
        for count in output_counts:
            spent.append(tuple(range(off, off + count)))
            off += count
        self.spent = tuple(spent)
        self.spent_range = (3 * n, off)
        self.party_count, self.key_count, self.secret_count = (
            party_count, key_count, secret_count)
        self.keys = off
        off += party_count * key_count
        self.secrets = off
        off += party_count * secret_count
        self.timers = off
        off += timer_count
        self.marks = off
        self.end = off + mark_count

    def key_bit(self, party, key):
        return self.keys + party * self.key_count + key

    def secret_bit(self, party, secret):
        return self.secrets + party * self.secret_count + secret


class World(bytes):
    """A data valuation: one byte per dynamic field of its table `T`.

    Each network has its own subclass, whose `T` is the network's
    `WorldTable`; equal valuations are equal bytes, and CPython caches a
    `bytes` hash in the object.
    """

    __slots__ = ()
    T = None

    def __repr__(self):
        live = ["%d:%s" % (i, STATUS_NAMES[s])
                for i, s in enumerate(self[:self.T.tx_count]) if s != UNSENT]
        return "World(%s)" % ", ".join(live)


class WorldTable(Layout):
    """The static half of one network's world (see the module notes).

    `txs` are the network's transactions (protocol ones and the
    adversary's sweeps), `parties` the initial knowledge of every party
    slot, `confirmed` the transactions on chain at the start, and
    `signatures` the (key, transaction) pairs of the model's
    `broadcast_signature` statements: each has one pool byte per vector
    of its inputs' nonces.  The pool holds at most `capacity`
    signatures, and the `msg_count` adversary messages come last.
    `initial` is the network's initial valuation, `World` the
    valuation class, and `scriptable` the transactions whose input
    scripts the last party slot, the adversary's, could ever satisfy
    (`could_script`).
    """

    def __init__(self, txs, nss_table, parties, timer_count, mark_count,
                 confirmed=(), signatures=(), capacity=1, msg_count=0):
        party_count, key_count = len(parties), len(parties[0].know_key)
        super().__init__(tuple(len(tx.outputs) for tx in txs), party_count,
                         key_count, len(parties[0].know_secret), timer_count,
                         mark_count)
        self.txs = tuple(txs)
        self.nss_table = nss_table
        self.capacity = capacity
        off = self.sigs = self.end
        self.sig_slots = {}  # (key, tx) -> (nonce offsets, {nonces: offset})
        for key, t in signatures:
            ins = tuple(self.nonce + src for src, _oi in txs[t].inputs)
            slots = {}
            for nonces in itertools.product(range(NONCES), repeat=len(ins)):
                slots[nonces] = off
                off += 1
            self.sig_slots[(key, t)] = (ins, slots)
        self.sig_end = self.msgs = off
        self.size = off + msg_count

        # static data the checks and holdings read, resolved to offsets
        self.outputs = tuple(
            (tx.num, self.spent[tx.num][j], out)
            for tx in txs for j, out in enumerate(tx.outputs))
        # every party's bit of a key, as a slice of the valuation
        self.key_outputs = tuple(
            (t, spent, slice(self.key_bit(0, out.script_ref),
                             self.key_bit(party_count, out.script_ref), key_count),
             out.value)
            for t, spent, out in self.outputs if out.script_kind == "key")
        self.reveals = tuple(
            (tx.num, tuple((s, tuple(self.secret_bit(p, s)
                                     for p in range(self.party_count)))
                           for s in tx.reveals))
            for tx in txs if tx.reveals)
        self.unbalanced = tuple(
            tx.num for tx in txs
            if sum(txs[i].outputs[oi].value for i, oi in tx.inputs)
            != sum(o.value for o in tx.outputs))
        self.owners = {}  # status bytes -> transactions awaiting confirmation
        self.holdings = {}  # status, spent and key bytes -> every party's holdings

        self.World = type("World", (World,), {"__slots__": (), "T": self})
        data = bytearray(self.size)
        for t in confirmed:
            data[t] = CONFIRMED
        for tx in txs:
            data[self.flag + tx.num] = tx.timelock == 0
        for p, k in enumerate(parties):
            for i, bit in enumerate(k.know_key):
                data[self.key_bit(p, i)] = bit
            for i, bit in enumerate(k.know_secret):
                data[self.secret_bit(p, i)] = bit
        self.initial = self.World(data)
        self.scriptable = tuple(t for t in range(len(txs))
                                if could_script(self, party_count - 1, t))


def pending_clock_owners(world):
    """Transactions awaiting confirmation, ascending: the live clock set.

    Derived from the status bytes alone, and remembered per status
    vector by the table."""
    T = world.T
    statuses = world[:T.tx_count]
    owners = T.owners.get(statuses)
    if owners is None:
        owners = T.owners[statuses] = tuple(
            i for i, s in enumerate(statuses) if s == SENT)
    return owners


def set_flags(world, offsets):
    """`world` with the byte at each of `offsets` set to 1."""
    data = bytearray(world)
    for o in offsets:
        data[o] = 1
    return world.T.World(data)


def know_secret(world, party, secret):
    T = world.T
    return world[T.secrets + party * T.secret_count + secret] == 1


# -- signatures and scripts ---------------------------------------------


def know_signature(world, party, txid, key):
    """Can `party` produce key's signature for transaction txid?

    True with direct key knowledge, or with a pooled signature for this
    transaction and key whose recorded nonces all still match the
    current nonces of the transaction's inputs (malleability check).
    """
    T = world.T
    if world[T.key_bit(party, key)]:
        return True
    pool = T.sig_slots.get((key, txid))
    if pool is None:
        return False
    ins, slots = pool
    return world[slots[tuple(world[o] for o in ins)]] == 1


def can_create_input_script(world, party, txid):
    """Can `party` satisfy the spending conditions of every input of txid?

    Standard outputs need a signature for the output's key.  A
    non-standard script is satisfied when some clause has all its keys
    signed and all its secrets both known to the party and revealed by
    the spending transaction itself.
    """
    T = world.T
    txs = T.txs
    tx = txs[txid]
    for (in_tx, out_idx) in tx.inputs:
        out = txs[in_tx].outputs[out_idx]
        if out.script_kind == "key":
            if not know_signature(world, party, txid, out.script_ref):
                return False
        else:
            secrets = T.secrets + party * T.secret_count
            for clause in T.nss_table[out.script_ref]:
                if all(
                    know_signature(world, party, txid, k) for k in clause.keys
                ) and all(
                    world[secrets + s] and s in tx.reveals for s in clause.secrets
                ):
                    break
            else:
                return False
    return True


def could_script(T, party, txid):
    """Could `party` ever satisfy the input scripts of txid in a world of
    table `T` (`can_create_input_script` in some valuation)?

    No update writes a key bit, and a pooled signature exists only for
    a (key, transaction) pair of `T.sig_slots`, so a key signs txid for
    the party only when the party starts with the key or the pair has
    pool slots.  Secret knowledge can grow, so a clause's secrets ask
    only that txid reveals them.
    """
    def signs(key):
        return T.initial[T.key_bit(party, key)] or (key, txid) in T.sig_slots

    tx = T.txs[txid]
    for (in_tx, out_idx) in tx.inputs:
        out = T.txs[in_tx].outputs[out_idx]
        if out.script_kind == "key":
            if not signs(out.script_ref):
                return False
        elif not any(all(map(signs, clause.keys))
                     and all(s in tx.reveals for s in clause.secrets)
                     for clause in T.nss_table[out.script_ref]):
            return False
    return True


def _inputs_spendable(world, T, tx):
    # every input must be confirmed with the referenced output unredeemed
    spent = T.spent
    for (in_tx, out_idx) in tx.inputs:
        if world[in_tx] != CONFIRMED or world[spent[in_tx][out_idx]]:
            return False
    return True


def can_send(world, party, txid):
    if world[txid] != UNSENT:
        return False
    T = world.T
    return (
        world[T.flag + txid] == 1
        and _inputs_spendable(world, T, T.txs[txid])
        and can_create_input_script(world, party, txid)
    )


def try_to_send(world, party, txid):
    """Broadcast txid if legal; silently a no-op otherwise.

    Broadcasting discloses every secret in the transaction's input
    script to all parties at once: peers see transactions before they
    are confirmed.
    """
    if not can_send(world, party, txid):
        return world
    T = world.T
    data = bytearray(world)
    data[txid] = SENT
    for sec in T.txs[txid].reveals:
        for p in range(T.party_count):
            data[T.secret_bit(p, sec)] = 1
    return T.World(data)


def try_to_confirm(world, txid, nonce):
    """Resolve a waiting transaction: confirm it with the given
    malleability nonce if it is still valid, cancel it otherwise.

    Confirmation marks the referenced input outputs spent; an input
    transaction whose outputs are all spent moves to SPENT.
    """
    if world[txid] != SENT:
        raise ModelError("try_to_confirm on a transaction that is not SENT")
    T = world.T
    tx = T.txs[txid]
    data = bytearray(world)
    if world[T.flag + txid] and _inputs_spendable(world, T, tx):
        data[txid] = CONFIRMED
        data[T.nonce + txid] = nonce
        for (in_tx, out_idx) in tx.inputs:
            outs = T.spent[in_tx]
            data[outs[out_idx]] = 1
            if all(data[o] for o in outs):
                data[in_tx] = SPENT
    else:
        data[txid] = CANCELED
    return T.World(data)


# -- holdings ------------------------------------------------------------


def hold_bitcoins(world, party):
    """Value confirmed on-chain that `party` alone can redeem.

    Counts unspent standard outputs of CONFIRMED transactions whose key
    the party knows and which have exactly one owner; outputs whose key
    leaked to another party protect nobody and count for no one.
    """
    return holdings(world)[party]


def holdings(world):
    """Every party's `hold_bitcoins`, in party order.

    Derived from the status bytes, the spent bits and the key bits
    alone (the spent bits and the key bits are adjacent), and remembered
    per vector of those bytes by the table."""
    T = world.T
    key = world[:T.tx_count] + world[T.spent_range[0]:T.secrets]
    found = T.holdings.get(key)
    if found is None:
        total = [0] * T.party_count
        for txid, spent, owners, value in T.key_outputs:
            if world[txid] == CONFIRMED and not world[spent]:
                owners = world[owners]
                if owners.count(1) == 1:
                    total[owners.index(1)] += value
        found = T.holdings[key] = tuple(total)
    return found


# -- signatures as messages ----------------------------------------------


def broadcast_signature(world, key, txid):
    """Sign every input of txid with `key` (SIGHASH_ALL), recording the
    inputs' current nonces, and add the signature to the pool, where
    every party can use it: messages travel on an open network.  The
    pool holds at most the table's `capacity` signatures; the pair must
    be one of the table's `signatures`."""
    T = world.T
    ins, slots = T.sig_slots[(key, txid)]
    slot = slots[tuple(world[o] for o in ins)]
    if world[slot]:
        return world
    if world.count(1, T.sigs, T.sig_end) >= T.capacity:
        raise ModelError("signature pool overflow (capacity %d)" % T.capacity)
    data = bytearray(world)
    data[slot] = 1
    return T.World(data)


# -- invariant checkers (used as exploration assertions) -----------------


def check_value_conservation(world):
    # only a transaction whose static values are unbalanced can break it
    for t in world.T.unbalanced:
        if world[t] in ON_CHAIN:
            raise ModelInvariantError("value not conserved by tx %d" % t)


def check_nonce_consistency(world):
    T = world.T
    n, base = T.tx_count, T.nonce
    if world.count(0, base, base + n) == n:
        return
    for t in range(n):
        if world[base + t] != 0 and world[t] not in ON_CHAIN:
            raise ModelInvariantError(
                "tx %d carries a nonce without being confirmed" % t
            )


def check_eavesdropping(world):
    for txid, secrets in world.T.reveals:
        if world[txid] in (SENT, CONFIRMED, SPENT):
            for sec, bits in secrets:
                for i, b in enumerate(bits):
                    if not world[b]:
                        raise ModelInvariantError(
                            "secret %d revealed by tx %d but unknown to party %d"
                            % (sec, txid, i)
                        )


_STATUS_STEPS = {
    (UNSENT, SENT),
    (SENT, CONFIRMED),
    (SENT, CANCELED),
    (CONFIRMED, SPENT),
}


def check_status_machine(before, after):
    # Equal status (or spent) bytes need no look; otherwise the bytes
    # that differ are the set bytes of the XOR of the two slices read as
    # little-endian integers, taken lowest (first transaction) first.
    T = before.T
    n = T.tx_count
    old, new = before[:n], after[:n]
    if old != new:
        diff = int.from_bytes(old, "little") ^ int.from_bytes(new, "little")
        while diff:
            t = ((diff & -diff).bit_length() - 1) >> 3
            if (old[t], new[t]) not in _STATUS_STEPS:
                raise ModelInvariantError(
                    "illegal status transition %s -> %s on tx %d"
                    % (STATUS_NAMES[old[t]], STATUS_NAMES[new[t]], t)
                )
            diff &= ~(0xFF << (t << 3))
    lo, hi = T.spent_range
    old, new = before[lo:hi], after[lo:hi]
    if old != new:
        # spent bits are 0 or 1: a set byte of old & ~new was unspent again
        lost = int.from_bytes(old, "little") & ~int.from_bytes(new, "little")
        if lost:
            o = lo + (((lost & -lost).bit_length() - 1) >> 3)
            t = next(t for t, outs in enumerate(T.spent) if o in outs)
            raise ModelInvariantError("output of tx %d became unspent" % t)


# -- shared automata -------------------------------------------------------


def build_blockchain_agent(constants, domain, nonce_relevant):
    """The agent that maintains the chain: confirmation with nonce choice.

    A waiting transaction resolves (confirms or cancels) strictly within
    MAX_LATENCY of its broadcast, encoded as the closed invariant
    clock <= MAX_LATENCY - 1.  Keeping every constraint non-strict makes
    integral-time reachability exact (closed timed automata), which the
    discrete oracle relies on; the boundary point MAX_LATENCY itself
    must stay excluded or pending transactions could straddle protocol
    deadlines the paper's guarantees assume they cannot.  The nonce is
    chosen nondeterministically at confirmation time, among the NONCES
    values, which is how transaction malleability enters the model.

    `domain` lists the transactions the agent may confirm, ascending.
    A confirm guard holds exactly for a SENT transaction, and only
    `try_to_send` writes SENT, so the domain needs only the
    transactions some automaton can ever broadcast: a network whose
    domain leaves out one that gets SENT leaves its clock pending
    forever, bounding time.

    A transaction's nonce is only ever read through pooled signatures
    of transactions that spend it, so for transactions no signature
    covers the nonce is a dead field and choosing it would just double
    bisimilar states.  `nonce_relevant` lists the transactions of
    `domain` whose confirmation keeps the full nonce choice; the rest
    confirm with nonce zero.
    """
    bound = constants.max_latency - 1
    relevant = tuple(sorted(nonce_relevant))
    plain = tuple(i for i in domain if i not in relevant)

    def invariant(w, bound=bound):
        return [(("tx", t), "<=", bound) for t in pending_clock_owners(w)]

    def guard(w, binds):
        return w[binds["i"]] == SENT

    def update(w, binds):
        return try_to_confirm(w, binds["i"], binds.get("n", 0))

    edges = []
    if relevant:
        edges.append(Edge(
            source=0, target=0, label="confirm",
            select=(("i", relevant), ("n", tuple(range(NONCES)))),
            guard=guard, update=update,
        ))
    if plain:
        edges.append(Edge(
            source=0, target=0, label="confirm_plain",
            select=(("i", plain),),
            guard=guard, update=update,
        ))
    return AutomatonTemplate(
        "BlockChainAgentTA", [Location("chain", invariant)], edges
    )


def build_helper(deadlines):
    """One-location helper that sets each deadline flag at its threshold.

    `deadlines` are (threshold, offset) pairs: the flag is the byte at
    `offset`, a timer or a transaction's timelock flag.  Flags sharing a
    threshold θ form a group.  While a group has a clear flag, its edge
    `time == θ` may set the group, and the location invariant is
    `time <= θ` for the smallest such θ, so time cannot pass a threshold
    before its flags are set; once every flag is set the invariant is
    empty.  No `.model` update sets or clears a flag, so a clear flag
    means `time <= θ` and a set one `time >= θ`.  The edge of a group
    above the first clear one is data-enabled but guards `time` past
    that invariant, so a skeleton never builds it (see the kernel's
    module notes).
    """
    by_threshold = {}
    for theta, offset in deadlines:
        by_threshold.setdefault(theta, []).append(offset)
    groups = tuple(
        (theta, ((TIME, "<=", theta),), tuple(offsets))
        for theta, offsets in sorted(by_threshold.items())
    )

    def invariant(w):
        for _theta, cap, offsets in groups:
            for o in offsets:
                if not w[o]:
                    return cap
        return ()

    edges = []
    for theta, _cap, offsets in groups:

        def guard(w, binds, offsets=offsets):
            return any(not w[o] for o in offsets)

        def update(w, binds, offsets=offsets):
            return set_flags(w, offsets)

        edges.append(Edge(0, 0, "tick@%d" % theta, guard=guard,
                          clock_guard=((TIME, "==", theta),), update=update))
    return AutomatonTemplate("HelperTA", [Location("idle", invariant)], edges)
