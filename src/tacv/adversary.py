"""Bounded adversary synthesis.

The adversary is one automaton with a single location: one loop tries
to broadcast any transaction whose input scripts it can satisfy, and
one urgent loop per protocol-specific message action (signature
deliveries).  Its transaction set is the protocol set doubled: for
every spendable protocol output there is one sweep transaction paying
that output to the key of the `[adversary]` section.  Sweeps reveal
nothing: carrying a secret would only shrink the adversary's options.

Message deliveries are urgent edges, so an enabled delivery happens
before time passes; the per-action flag makes each fire at most once.
Nondeterministic interleaving at a single time point still covers
delivery before or after any same-instant event.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .kernel import AutomatonTemplate, Edge, Location
from .world import Output, TxRecord, can_send, set_flags, try_to_send


class MessageAction(NamedTuple):
    name: str
    guard: Callable      # (world) -> bool, clock-free
    update: Callable     # (world) -> world


class AdversaryConfig(NamedTuple):
    adv_key: int               # sweep recipient key
    message_actions: tuple = ()


def derive_adversary_txset(protocol_txs, adv_key):
    """Protocol transactions plus one sweep per spendable output.

    Sweep identifiers continue the protocol block in (transaction,
    output) order; each sweep spends one output to `adv_key` with the
    same value, no timelock, and no reveals.  The count and shape of the
    sweeps do not depend on `adv_key`, so neither does the layout of a
    model's worlds.
    """
    txs = list(protocol_txs)
    next_id = len(txs)
    for tx in protocol_txs:
        for oi, out in enumerate(tx.outputs):
            txs.append(
                TxRecord(
                    num=next_id,
                    inputs=((tx.num, oi),),
                    outputs=(Output("key", adv_key, out.value),),
                )
            )
            next_id += 1
    return tuple(txs)


def build_adversary_automaton(cfg, adv_slot, sendable, msgs):
    """Single-state adversary: try-send loop plus urgent message loops.

    `sendable` is the try-send select's domain, ascending: every
    transaction for the generic loop, or the static domain that
    `contracts.instantiate` gives it.  That domain leaves out the idle
    sweeps, and each transaction whose input scripts the adversary's
    slot can never satisfy (`world.could_script`), so that `can_send`
    never holds for it.  The latter rests on two facts: no update
    writes a key bit, and a pooled signature exists only for a
    (key, transaction) pair of the table's `sig_slots`.  Message
    action k's flag is the valuation's byte `msgs + k`.
    """
    def send_guard(w, binds, slot=adv_slot):
        return can_send(w, slot, binds["i"])

    def send_update(w, binds, slot=adv_slot):
        return try_to_send(w, slot, binds["i"])

    edges = [
        Edge(
            0, 0, "try_send",
            select=(("i", tuple(sendable)),),
            guard=send_guard,
            update=send_update,
        )
    ]
    for k, action in enumerate(cfg.message_actions):
        def mguard(w, binds, flag=msgs + k, action=action):
            return (not w[flag]) and action.guard(w)

        def mupdate(w, binds, flag=(msgs + k,), action=action):
            return set_flags(action.update(w), flag)

        edges.append(
            Edge(
                0, 0, action.name,
                guard=mguard,
                urgent=True,
                update=mupdate,
            )
        )
    return AutomatonTemplate("AdversaryTA", [Location("idle", None)], edges)
