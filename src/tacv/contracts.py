"""Contract models and the networks of their scenarios.

A `ContractModel` is a contract resolved at fixed constants: its keys,
secrets, parties, transactions, script clauses, deadline timers, honest
automata per party, adversary capabilities and named queries.  Models
come from `.model` files (see modelio).  The built-in contracts, the
timed commitment scheme `cs` and the simultaneous commitment scheme
`newscs`, are the shipped models/cs.model and models/newscs.model, and
their comments give the reasons behind each protocol step;
`build_cs_model` and `build_newscs_model` load them.

`instantiate` assembles the network of one scenario: the block-chain
agent, the deadline helper (whose location invariant holds time at the
next pending timer or timelock threshold), the honest automata and, for
a corrupted party, the generic adversary in its place.
"""

from __future__ import annotations

from typing import NamedTuple

from . import world as W
from .adversary import build_adversary_automaton, derive_adversary_txset
from .kernel import ModelError, Network
from .queries import QueryContext
from .world import CONFIRMED, WorldConstants, WorldTable


class ContractModel(NamedTuple):
    name: str
    constants: WorldConstants
    key_names: dict
    secret_names: dict
    party_names: tuple          # honest slots then the adversary slot
    tx_names: dict              # name -> tx id (protocol transactions)
    protocol_txs: tuple
    nss_table: tuple
    sig_capacity: int           # size bound of the world's signature pool
    timers: tuple               # ((name, threshold), ...)
    initial_parties: tuple      # knowledge for honest slots, empty adversary
    honest_automata: dict       # party index -> (AutomatonTemplate, ...)
    adversary_configs: dict     # party index -> AdversaryConfig
    queries: dict               # name -> property text
    total_value: int
    signatures: tuple           # (key, tx) pairs of the broadcast_signature statements
    status_observed: tuple      # txs whose status a guard compares with CONFIRMED or SPENT
    confirmed: tuple            # txs on chain in the initial world
    mark_count: int = 0         # protocol progress marks in the data
    variant: tuple = ()         # non-default variant options as given, sorted (name, value)
    source: tuple = None        # (absolute path, text) of a loaded .model file
    worlds: dict = None         # adversary index or None -> WorldTable (`world_tables`)


def _overrides(constants):
    return dict(zip(("MAX_LATENCY", "PROT_TIMELOCK"), constants or ()))


def build_cs_model(constants=None, *, weakened_alice=False):
    """The timed commitment scheme, models/cs.model, at `constants`."""
    from .modelio import contract_model
    return contract_model("cs", _overrides(constants), {"weakened_alice": weakened_alice})


def build_newscs_model(constants=None, *, buggy_bob=False, abort_margin=3):
    """The simultaneous commitment scheme, models/newscs.model, at `constants`."""
    from .modelio import contract_model
    return contract_model("newscs", _overrides(constants),
                          {"buggy_bob": buggy_bob, "abort_margin": abort_margin})


# -- instantiation -----------------------------------------------------------


def world_tables(model):
    """The WorldTable of every network of `model`, by adversary: None for
    the all-honest network, and each party with an `[adversary]`
    section.  The adversary's sweeps pay to its key, its slot (the last)
    starts with the corrupted party's knowledge, and its messages get the
    last bytes.  The model builds them once (see `modelio`), so
    `instantiate` builds no table.
    """
    adv_slot = len(model.party_names) - 1
    choices = [(None, 0, model.initial_parties, 0)]
    for p, cfg in sorted(model.adversary_configs.items()):
        parties = list(model.initial_parties)
        parties[adv_slot] = parties[p]
        choices.append((p, cfg.adv_key, tuple(parties), len(cfg.message_actions)))
    return {
        p: WorldTable(
            derive_adversary_txset(model.protocol_txs, adv_key), model.nss_table,
            parties, len(model.timers), model.mark_count,
            confirmed=model.confirmed, signatures=model.signatures,
            capacity=model.sig_capacity, msg_count=msg_count)
        for p, adv_key, parties, msg_count in choices
    }


def _idle_sweep_ids(model, p):
    """The sweeps that corrupted party `p`'s loop leaves out.

    A sweep of output (X, j) is left out when
    1. no protocol transaction spends (X, j), so no guard or
       confirmation depends on whether it is spent;
    2. (X, j) is a standard output whose key the adversary holds, so
       the key has two owners, `p` and its clone in the adversary's
       slot, and the output counts for nobody;
    3. no guard or condition compares X's status with CONFIRMED or
       SPENT (`model.status_observed`): sweeping X's last unspent
       output moves X from CONFIRMED to SPENT, which `on_chain(X)` and
       a comparison with UNSENT, SENT or CANCELED cannot see;
    4. the adversary's key is not held by exactly one party slot, the
       adversary's counted: key bits never change, so the swept output
       counts for nobody either.
    A sweep reveals nothing, and while it waits it only bounds delays.
    So a run of the full loop without these sweeps is a run of the
    pruned loop with the same locations, holdings, secrets, timers and
    marks, and the same statuses with SPENT read as CONFIRMED: every
    guard and query answers alike on both, and so does every verdict.
    """
    txs = model.worlds[p].txs
    adv, adv_key = model.initial_parties[p], model.adversary_configs[p].adv_key
    if sum(k.know_key[adv_key] for k in model.initial_parties[:-1] + (adv,)) == 1:
        return frozenset()
    spent_by_protocol = {
        inp for tx in model.protocol_txs for inp in tx.inputs
    }
    idle = []
    for tx in txs[len(model.protocol_txs):]:
        (src, oi), = tx.inputs
        out = txs[src].outputs[oi]
        if (src, oi) in spent_by_protocol or src in model.status_observed:
            continue
        if out.script_kind == "key" and adv.know_key[out.script_ref]:
            idle.append(tx.num)
    return frozenset(idle)


def instantiate(model, adversary=None, run_world_checks=True):
    """Assemble the network for one scenario selection.

    `adversary` names the corrupted party (or None for all-honest); its
    knowledge is cloned from that party's initial record and its
    automaton replaces the party's honest suite.  Returns the Network
    plus the name-resolution context for queries; `net.meta` keeps the
    model.  Raises ModelError for an adversary that is no party or has
    no `[adversary]` section, and for an honest party without an
    automaton.

    The two select loops get static domains, in ascending transaction
    order, and every verdict is that of the full loops over every
    transaction:
    - the adversary's try-send covers each transaction that is no idle
      sweep (`_idle_sweep_ids`: no guard, holding or query can observe
      one) and whose input scripts its slot could ever satisfy (the
      table's `scriptable`, from `world.could_script`, which rests on
      two facts: no update writes a key bit, and a pooled signature
      exists only for a (key, transaction) pair of the table's
      `sig_slots`);
    - the chain agent confirms the protocol transactions and that
      domain: only `try_to_send` writes SENT, and a `.model` statement
      can name only protocol transactions, so no other transaction is
      ever SENT.

    The chain agent chooses a malleability nonce only when it confirms
    an input of a signed transaction (one of `model.signatures`): no
    other nonce is ever compared with a pooled signature's.

    With `run_world_checks` the network carries the world's checks: one
    state check on the data valuation (value conservation, nonce
    consistency, eavesdropping and the confirmed unspent total), which
    `explore` runs once per (locations, data) key, and the status
    machine as a transition check on every fire a skeleton builds: each
    data-enabled fire, on the first zone of its key that meets the
    fire's clock guard.
    """
    adv_idx = None
    if adversary is not None:
        names = model.party_names[:-1]
        if adversary not in names:
            raise ModelError(
                "unknown party %r (parties: %s)" % (adversary, ", ".join(names))
            )
        adv_idx = names.index(adversary)
        cfg = model.adversary_configs.get(adv_idx)
        if cfg is None:
            raise ModelError("party %s has no [adversary %s] section"
                             % (adversary, adversary))
    table = model.worlds[adv_idx]
    txs = table.txs

    deadlines = [
        (threshold, table.timers + i)
        for i, (_name, threshold) in enumerate(model.timers)
    ]
    deadlines += [(tx.timelock, table.flag + tx.num) for tx in txs if tx.timelock > 0]

    sendable = ()
    if adv_idx is not None:
        idle = _idle_sweep_ids(model, adv_idx)
        sendable = tuple(t for t in table.scriptable if t not in idle)
    protocol = len(model.protocol_txs)
    nonce_relevant = sorted({
        src_tx
        for _key, signed in model.signatures
        for (src_tx, _oi) in model.protocol_txs[signed].inputs
    })
    automata = [
        W.build_blockchain_agent(
            model.constants,
            tuple(range(protocol)) + tuple(t for t in sendable if t >= protocol),
            nonce_relevant),
        W.build_helper(deadlines),
    ]
    adv_slot = len(model.party_names) - 1
    for p in range(adv_slot):
        if p == adv_idx:
            automata.append(
                build_adversary_automaton(cfg, adv_slot, sendable, table.msgs)
            )
        elif p in model.honest_automata:
            automata.extend(model.honest_automata[p])
        else:
            raise ModelError("party %s has no automaton" % model.party_names[p])

    state_checks = []
    transition_checks = []
    if run_world_checks:
        def value_check(data, total=model.total_value, outputs=table.outputs):
            W.check_value_conservation(data)
            W.check_nonce_consistency(data)
            W.check_eavesdropping(data)
            live = 0
            for txid, spent, out in outputs:
                if data[txid] == CONFIRMED and not data[spent]:
                    live += out.value
            if live != total:
                raise W.ModelInvariantError(
                    "confirmed unspent value %d, expected %d" % (live, total)
                )

        state_checks.append(value_check)
        transition_checks.append(W.check_status_machine)

    net = Network(
        "%s[adversary=%s]" % (model.name, adversary or "none"),
        automata,
        table.initial,
        W.pending_clock_owners,
        state_checks=state_checks,
        transition_checks=transition_checks,
        meta={"model": model},
    )
    ctx = QueryContext(
        constants={
            "MAX_LATENCY": model.constants.max_latency,
            "PROT_TIMELOCK": model.constants.prot_timelock,
        },
        parties={n: i for i, n in enumerate(model.party_names)},
        secrets=dict(model.secret_names),
        automata={
            a.name: (
                i,
                {loc.name: li for li, loc in enumerate(a.locations) if loc.named},
            )
            for i, a in enumerate(net.automata)
        },
        )
    return net, ctx
