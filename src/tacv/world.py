"""Symbolic block-chain world shared by all contract models.

Transactions live in a fixed table; parties are knowledge records in
the Dolev-Yao style (key and secret possession is binary).  All
operations are pure: they take a World and return a new one.

Transactions generalize the single-input record to multiple inputs and
outputs: spending is tracked per output, and a transaction's status
moves to SPENT once every output is spent.

Signatures are unforgeable records in one pool of the world: a
signature sent between parties travels on an open network, so every
party can use it, and `broadcast_signature` is the pool's only writer.
A signature covers every input of the transaction it signs
(SIGHASH_ALL): it records each input's malleability nonce at signing
time and is valid only while all of them match the inputs' current
nonces.  Broadcasting a transaction that reveals secrets likewise
discloses them to every party immediately (network eavesdropping
happens before confirmation).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

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


class WorldConstants(NamedTuple):
    max_latency: int = 10
    prot_timelock: int = 100

    def validate(self):
        if self.max_latency < 1:
            raise ModelError("MAX_LATENCY must be at least 1")
        if self.prot_timelock <= self.max_latency:
            raise ModelError("PROT_TIMELOCK must exceed MAX_LATENCY")
        return self


class SignatureRec(NamedTuple):
    key: int
    tx_num: int
    input_nonces: tuple  # each input's nonce at signing time


class Output(NamedTuple):
    script_kind: str   # 'key' (standard) or 'nss'
    script_ref: int    # key id or non-standard-script id
    value: int
    spent: bool = False


class NssClause(NamedTuple):
    keys: tuple        # key ids that must all sign
    secrets: tuple     # secret ids that must be known and revealed


class TxRecord(NamedTuple):
    num: int
    inputs: tuple      # ((tx id, output index), ...)
    outputs: tuple     # (Output, ...)
    status: int = UNSENT
    timelock: int = 0
    timelock_passed: bool = False
    nonce: int = 0
    reveals: tuple = ()


class PartyKnowledge(NamedTuple):
    know_key: tuple
    know_secret: tuple


class World:
    """Complete discrete state: transaction table, parties, boolean
    flags and the signature pool (a sorted SignatureRec tuple).

    Hash and the pending-transaction view are computed lazily and cached:
    intermediate worlds inside compound updates are never hashed.
    """

    __slots__ = ("txs", "parties", "timers", "msgs", "marks", "sigs",
                 "_hash", "_owners")

    def __init__(self, txs, parties, timers=(), msgs=(), marks=(), sigs=()):
        self.txs = txs
        self.parties = parties
        self.timers = timers
        self.msgs = msgs
        self.marks = marks
        self.sigs = sigs
        self._hash = None
        self._owners = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(
                (self.txs, self.parties, self.timers, self.msgs, self.marks,
                 self.sigs)
            )
        return h

    def __eq__(self, other):
        return (
            isinstance(other, World)
            and self.txs == other.txs
            and self.parties == other.parties
            and self.timers == other.timers
            and self.msgs == other.msgs
            and self.marks == other.marks
            and self.sigs == other.sigs
        )

    def __repr__(self):
        live = [
            "%d:%s" % (t.num, STATUS_NAMES[t.status])
            for t in self.txs
            if t.status != UNSENT
        ]
        return "World(%s)" % ", ".join(live)

    def replace_tx(self, idx, tx):
        txs = self.txs[:idx] + (tx,) + self.txs[idx + 1:]
        return World(txs, self.parties, self.timers, self.msgs, self.marks,
                     self.sigs)

    def replace_party(self, idx, p):
        parties = self.parties[:idx] + (p,) + self.parties[idx + 1:]
        return World(self.txs, parties, self.timers, self.msgs, self.marks,
                     self.sigs)

    def set_timer(self, idx):
        timers = self.timers[:idx] + (True,) + self.timers[idx + 1:]
        return World(self.txs, self.parties, timers, self.msgs, self.marks,
                     self.sigs)

    def set_msg(self, idx):
        msgs = self.msgs[:idx] + (True,) + self.msgs[idx + 1:]
        return World(self.txs, self.parties, self.timers, msgs, self.marks,
                     self.sigs)

    def set_mark(self, idx):
        marks = self.marks[:idx] + (True,) + self.marks[idx + 1:]
        return World(self.txs, self.parties, self.timers, self.msgs, marks,
                     self.sigs)


def pending_clock_owners(world):
    """Transactions awaiting confirmation, ascending: the live clock set."""
    owners = world._owners
    if owners is None:
        owners = world._owners = tuple(
            t.num for t in world.txs if t.status == SENT
        )
    return owners


# -- signatures and scripts ---------------------------------------------


def know_signature(world, party, tx, key):
    """Can `party` produce key's signature for tx?

    True with direct key knowledge, or with a pooled signature for this
    transaction and key whose recorded nonces all still match the
    current nonces of tx's inputs (malleability check).
    """
    if world.parties[party].know_key[key]:
        return True
    for s in world.sigs:
        if (s.tx_num == tx.num and s.key == key
                and s.input_nonces == _input_nonces(world, tx)):
            return True
    return False


def _input_nonces(world, tx):
    return tuple(world.txs[in_tx].nonce for (in_tx, _out) in tx.inputs)


def can_create_input_script(world, party, tx, nss_table):
    """Can `party` satisfy the spending conditions of every input of tx?

    Standard outputs need a signature for the output's key.  A
    non-standard script is satisfied when some clause has all its keys
    signed and all its secrets both known to the party and revealed by
    the spending transaction itself.
    """
    for (in_tx, out_idx) in tx.inputs:
        out = world.txs[in_tx].outputs[out_idx]
        if out.script_kind == "key":
            if not know_signature(world, party, tx, out.script_ref):
                return False
        else:
            p = world.parties[party]
            clause_ok = False
            for clause in nss_table[out.script_ref]:
                if all(
                    know_signature(world, party, tx, k)
                    for k in clause.keys
                ) and all(
                    p.know_secret[s] and s in tx.reveals
                    for s in clause.secrets
                ):
                    clause_ok = True
                    break
            if not clause_ok:
                return False
    return True


def ever_confirmed(world, txid):
    """Has the transaction appeared on the chain?  Persistent observation:
    a confirmed transaction that was later redeemed still counts."""
    return world.txs[txid].status in (CONFIRMED, SPENT)


def _inputs_spendable(world, tx):
    # every input must be confirmed with the referenced output unredeemed
    for (in_tx, out_idx) in tx.inputs:
        src = world.txs[in_tx]
        if src.status != CONFIRMED or src.outputs[out_idx].spent:
            return False
    return True


def can_send(world, party, txid, nss_table):
    tx = world.txs[txid]
    return (
        tx.status == UNSENT
        and tx.timelock_passed
        and _inputs_spendable(world, tx)
        and can_create_input_script(world, party, tx, nss_table)
    )


def try_to_send(world, party, txid, nss_table):
    """Broadcast txid if legal; silently a no-op otherwise.

    Broadcasting discloses every secret in the transaction's input
    script to all parties at once: peers see transactions before they
    are confirmed.
    """
    if not can_send(world, party, txid, nss_table):
        return world
    tx = world.txs[txid]
    world = world.replace_tx(txid, TxRecord(
        tx.num, tx.inputs, tx.outputs, SENT, tx.timelock,
        tx.timelock_passed, tx.nonce, tx.reveals,
    ))
    for sec in tx.reveals:
        world = _disclose_secret(world, sec)
    return world


def _disclose_secret(world, sec):
    for i, p in enumerate(world.parties):
        if not p.know_secret[sec]:
            ks = p.know_secret[:sec] + (True,) + p.know_secret[sec + 1:]
            world = world.replace_party(i, p._replace(know_secret=ks))
    return world


def try_to_confirm(world, txid, nonce):
    """Resolve a waiting transaction: confirm it with the given
    malleability nonce if it is still valid, cancel it otherwise.

    Confirmation marks the referenced input outputs spent; an input
    transaction whose outputs are all spent moves to SPENT.
    """
    tx = world.txs[txid]
    if tx.status != SENT:
        raise ModelError("try_to_confirm on a transaction that is not SENT")
    # records are built directly: namedtuple _replace is slow on this path
    if tx.timelock_passed and _inputs_spendable(world, tx):
        world = world.replace_tx(txid, TxRecord(
            tx.num, tx.inputs, tx.outputs, CONFIRMED, tx.timelock,
            tx.timelock_passed, nonce, tx.reveals,
        ))
        for (in_tx, out_idx) in tx.inputs:
            src = world.txs[in_tx]
            outs = list(src.outputs)
            out = outs[out_idx]
            outs[out_idx] = Output(out.script_kind, out.script_ref, out.value, True)
            status = SPENT if all(o.spent for o in outs) else src.status
            world = world.replace_tx(in_tx, TxRecord(
                src.num, src.inputs, tuple(outs), status, src.timelock,
                src.timelock_passed, src.nonce, src.reveals,
            ))
        return world
    return world.replace_tx(txid, TxRecord(
        tx.num, tx.inputs, tx.outputs, CANCELED, tx.timelock,
        tx.timelock_passed, tx.nonce, tx.reveals,
    ))


# -- holdings ------------------------------------------------------------


def hold_bitcoins(world, party):
    """Value confirmed on-chain that `party` alone can redeem.

    Counts unspent standard outputs of CONFIRMED transactions whose key
    the party knows and which have exactly one owner; outputs whose key
    leaked to another party protect nobody and count for no one.
    """
    parties = world.parties
    mine = parties[party].know_key
    total = 0
    for tx in world.txs:
        if tx.status != CONFIRMED:
            continue
        for out in tx.outputs:
            if out.script_kind != "key" or out.spent:
                continue
            key = out.script_ref
            if mine[key] and sum(p.know_key[key] for p in parties) == 1:
                total += out.value
    return total


# -- signatures as messages ----------------------------------------------


def make_signature(world, key, txid):
    """Sign every input of txid with `key` (SIGHASH_ALL), recording the
    inputs' current nonces."""
    return SignatureRec(key, txid, _input_nonces(world, world.txs[txid]))


def broadcast_signature(world, sig, capacity):
    """Add a signature to the pool, where every party can use it:
    messages travel on an open network.  The pool holds at most
    `capacity` signatures."""
    sigs = world.sigs
    if sig in sigs:
        return world
    if len(sigs) >= capacity:
        raise ModelError("signature pool overflow (capacity %d)" % capacity)
    return World(world.txs, world.parties, world.timers, world.msgs,
                 world.marks, tuple(sorted(sigs + (sig,))))


# -- invariant checkers (used as exploration assertions) -----------------


def check_value_conservation(world):
    for tx in world.txs:
        if tx.status in (CONFIRMED, SPENT):
            in_val = sum(
                world.txs[i].outputs[oi].value for (i, oi) in tx.inputs
            )
            out_val = sum(o.value for o in tx.outputs)
            if in_val != out_val:
                raise ModelInvariantError(
                    "value not conserved by tx %d" % tx.num
                )


def check_nonce_consistency(world):
    for tx in world.txs:
        if tx.nonce != 0 and tx.status not in (CONFIRMED, SPENT):
            raise ModelInvariantError(
                "tx %d carries a nonce without being confirmed" % tx.num
            )


def check_eavesdropping(world):
    for tx in world.txs:
        if tx.status in (SENT, CONFIRMED, SPENT):
            for sec in tx.reveals:
                for i, p in enumerate(world.parties):
                    if not p.know_secret[sec]:
                        raise ModelInvariantError(
                            "secret %d revealed by tx %d but unknown to party %d"
                            % (sec, tx.num, i)
                        )


_STATUS_STEPS = {
    (UNSENT, SENT),
    (SENT, CONFIRMED),
    (SENT, CANCELED),
    (CONFIRMED, SPENT),
}


def check_status_machine(before, after):
    # updates share every TxRecord they leave unchanged, so identical
    # objects need no comparison
    if before.txs is after.txs:
        return
    for old, new in zip(before.txs, after.txs):
        if old is new:
            continue
        if old.status != new.status and (old.status, new.status) not in _STATUS_STEPS:
            raise ModelInvariantError(
                "illegal status transition %s -> %s on tx %d"
                % (STATUS_NAMES[old.status], STATUS_NAMES[new.status], old.num)
            )
        for oo, no in zip(old.outputs, new.outputs):
            if oo.spent and not no.spent:
                raise ModelInvariantError(
                    "output of tx %d became unspent" % old.num
                )


# -- deadline flags -------------------------------------------------------


class DeadlineFlag(NamedTuple):
    """A boolean of the world that the helper sets at `threshold`."""

    threshold: int
    is_set: Callable       # (world) -> bool
    set: Callable          # (world) -> world


def timer_flag(index, threshold):
    return DeadlineFlag(
        threshold,
        lambda w, i=index: w.timers[i],
        lambda w, i=index: w.set_timer(i),
    )


def timelock_flag(txid, threshold):
    def _set(w, t=txid):
        tx = w.txs[t]
        return w.replace_tx(t, TxRecord(
            tx.num, tx.inputs, tx.outputs, tx.status, tx.timelock,
            True, tx.nonce, tx.reveals,
        ))

    return DeadlineFlag(
        threshold,
        lambda w, t=txid: w.txs[t].timelock_passed,
        _set,
    )


# -- shared automata -------------------------------------------------------


def build_blockchain_agent(constants, tx_count, nonce_count, nonce_relevant):
    """The agent that maintains the chain: confirmation with nonce choice.

    A waiting transaction resolves (confirms or cancels) strictly within
    MAX_LATENCY of its broadcast, encoded as the closed invariant
    clock <= MAX_LATENCY - 1.  Keeping every constraint non-strict makes
    integral-time reachability exact (closed timed automata), which the
    discrete oracle relies on; the boundary point MAX_LATENCY itself
    must stay excluded or pending transactions could straddle protocol
    deadlines the paper's guarantees assume they cannot.  The nonce is
    chosen nondeterministically at confirmation time, which is how
    transaction malleability enters the model.

    A transaction's nonce is only ever read through pooled signatures
    of transactions that spend it, so for transactions no signature
    covers the nonce is a dead field and choosing it would just double
    bisimilar states.  `nonce_relevant` lists the transactions whose
    confirmation keeps the full nonce choice; the rest confirm with
    nonce zero.
    """
    bound = constants.max_latency - 1
    relevant = tuple(sorted(nonce_relevant))
    plain = tuple(i for i in range(tx_count) if i not in set(relevant))

    def invariant(w, bound=bound):
        return [(("tx", t), "<=", bound) for t in pending_clock_owners(w)]

    def guard(w, binds):
        return w.txs[binds["i"]].status == SENT

    def update(w, binds):
        return try_to_confirm(w, binds["i"], binds.get("n", 0))

    edges = []
    if relevant:
        edges.append(Edge(
            source=0, target=0, label="confirm",
            select=(("i", relevant), ("n", tuple(range(nonce_count)))),
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

    Flags sharing a threshold θ form a group.  While a group has a clear
    flag, its edge `time == θ` may set the group, and the location
    invariant is `time <= θ` for the smallest such θ, so time cannot
    pass a threshold before its flags are set; once every flag is set
    the invariant is empty.  No `.model` update sets or clears a flag,
    so a clear flag means `time <= θ` and a set one `time >= θ`.  The
    edge of a group above the first clear one is data-enabled but
    guards `time` past that invariant, so a skeleton never builds it
    (see the kernel's module notes).
    """
    by_threshold = {}
    for d in deadlines:
        by_threshold.setdefault(d.threshold, []).append(d)
    groups = tuple(
        (theta, ((TIME, "<=", theta),), tuple(flags))
        for theta, flags in sorted(by_threshold.items())
    )

    def invariant(w):
        for _theta, cap, flags in groups:
            for d in flags:
                if not d.is_set(w):
                    return cap
        return ()

    edges = []
    for theta, _cap, flags in groups:

        def guard(w, binds, flags=flags):
            return any(not d.is_set(w) for d in flags)

        def update(w, binds, flags=flags):
            for d in flags:
                if not d.is_set(w):
                    w = d.set(w)
            return w

        edges.append(Edge(0, 0, "tick@%d" % theta, guard=guard,
                          clock_guard=((TIME, "==", theta),), update=update))
    return AutomatonTemplate("HelperTA", [Location("idle", invariant)], edges)
