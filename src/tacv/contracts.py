"""Built-in contract models: the timed commitment scheme and NewSCS.

Both models share parameterized party automata:

- the committer role broadcasts its commitment at time zero, signs the
  fuse transaction once the commitment is confirmed (so the signature
  carries the post-confirmation nonce and malleability cannot kill it),
  and opens the commitment either anywhere inside its window or, in the
  simultaneous scheme, strictly after the protocol step that makes the
  reveal safe;
- the recipient role validates the commitment phase within the latency
  bound, accepts once it can script the fuse transaction, and claims
  the fuse after the timelock when the committer failed to open.

The simultaneous scheme (NewSCS) runs one commitment per direction on
auxiliary secrets plus a joint two-input/two-output commit transaction;
its per-party behavior is the two roles above plus a joint-phase
automaton handling signature exchange, the abort rule with its redeem
of the second deposit, and the post-timelock recovery (with the
historical single-shot recovery available behind `buggy_bob`).
"""

from __future__ import annotations

from typing import NamedTuple

from . import world as W
from .adversary import (
    AdversaryConfig,
    MessageAction,
    build_adversary_automaton,
    derive_adversary_txset,
)
from .kernel import (
    AutomatonTemplate,
    Channel,
    Edge,
    Location,
    ModelError,
    Network,
)
from .queries import QueryContext
from .world import (
    CANCELED,
    CONFIRMED,
    UNSENT,
    NssClause,
    Output,
    PartyKnowledge,
    TxRecord,
    URG_CHAN,
    WorldConstants,
    World,
)


class ContractModel(NamedTuple):
    name: str
    constants: WorldConstants
    key_names: dict
    secret_names: dict
    party_names: tuple          # honest slots then the adversary slot
    tx_names: dict              # name -> tx id (protocol transactions)
    protocol_txs: tuple
    nss_table: tuple
    sig_capacity: int
    timers: tuple               # ((name, threshold), ...)
    initial_parties: tuple      # knowledge for honest slots, empty adversary
    honest_automata: dict       # party index -> (AutomatonTemplate, ...)
    adversary_configs: dict     # party index -> AdversaryConfig
    queries: dict               # name -> property text
    total_value: int
    signed_txs: tuple           # txs that exchanged signatures cover
    mark_count: int = 0         # protocol progress marks in the data
    variant: tuple = ()         # non-default builder options, sorted (name, value)
    source: tuple = None        # (absolute path, text) of a loaded .model file


def _non_default(contract, **options):
    """The `options` that differ from the built-in's defaults, as sorted pairs."""
    defaults = BUILTIN_MODELS[contract].__kwdefaults__
    return tuple(sorted(
        (name, value) for name, value in options.items() if value != defaults[name]
    ))


# -- guard/update helpers -------------------------------------------------


def _on_chain(txid):
    # persistent "appeared on the block chain" observation
    return lambda w: W.ever_confirmed(w, txid)


def _not_on_chain(txid):
    return lambda w: not W.ever_confirmed(w, txid)


def _unsent(txid):
    return lambda w: w.txs[txid].status == UNSENT


def _g(fn):
    """Adapt a world predicate to the edge-guard signature."""
    return lambda w, binds: fn(w)


# -- parameterized party roles ---------------------------------------------


def build_committer(
    name,
    party,
    sign_key,
    commit_tx,
    open_tx,
    fuse_tx,
    nss,
    capacity,
    open_window_timer=None,
    open_ready=None,
    sign_early=False,
):
    """Committer role: commit, sign the fuse, open the commitment.

    With `open_window_timer` the open happens nondeterministically any
    time up to that deadline flag (the weakest honest assumption, used
    by the standalone scheme).  With `open_ready` the open fires
    urgently once the given condition holds (the simultaneous scheme
    sequences it after its joint phase).  `sign_early` produces the
    deliberately broken variant that signs the fuse before broadcasting
    the commitment, recording the pre-confirmation nonce.
    """

    def send_commit(w, binds):
        if sign_early:
            w = W.broadcast_signature(
                w, W.make_signature(w, sign_key, fuse_tx), capacity)
        return W.try_to_send(w, party, commit_tx, nss)

    def sign_fuse(w, binds):
        if sign_early:
            return w
        return W.broadcast_signature(
            w, W.make_signature(w, sign_key, fuse_tx), capacity)

    def open_up(w, binds):
        return W.try_to_send(w, party, open_tx, nss)

    edges = [
        Edge(0, 1, "commit", guard=_g(_unsent(commit_tx)),
             sync=("?", URG_CHAN), update=send_commit),
        Edge(1, 2, "sign_fuse", guard=_g(_on_chain(commit_tx)),
             sync=("?", URG_CHAN), update=sign_fuse),
    ]
    if open_window_timer is not None:
        ti = open_window_timer
        edges.append(Edge(2, 3, "open", guard=_g(_unsent(open_tx)),
                          update=open_up))
        edges.append(Edge(
            2, 3, "open_at_deadline",
            guard=lambda w, b: w.timers[ti] and w.txs[open_tx].status == UNSENT,
            sync=("?", URG_CHAN), update=open_up,
        ))
    else:
        edges.append(Edge(
            2, 3, "open",
            guard=lambda w, b: open_ready(w) and w.txs[open_tx].status == UNSENT,
            sync=("?", URG_CHAN), update=open_up,
        ))
        edges.append(Edge(
            2, 3, "open_moot",
            guard=lambda w, b: w.txs[open_tx].status != UNSENT,
            sync=("?", URG_CHAN),
        ))
    locations = [
        Location("init", None),
        Location("committed", None),
        Location("signed", None),
        Location("opened", None),
    ]
    return AutomatonTemplate(name, locations, edges)


def build_recipient(
    name,
    party,
    counter_commit,
    counter_open,
    fuse_tx,
    gate_timer,
    nss,
    capacity,
    max_latency,
    accept_mark=None,
):
    """Recipient role: validate the commitment phase, then guard the fuse.

    The first two locations carry a `time <= MAX_LATENCY` invariant, so
    the role either accepts or fails within the latency bound exactly
    as the commitment phase prescribes.  The accepted state tries the
    fuse once the deadline flag is up and the committer has not opened.
    `accept_mark` records the acceptance in the shared data so a joint
    protocol phase can condition on it (rejecting the commitment means
    quitting the whole protocol).
    """
    def phase_inv(_data, bound=max_latency):
        return (("time", "<=", bound),)

    def fuse_guard(w, binds):
        return (
            w.timers[gate_timer]
            and not W.ever_confirmed(w, counter_open)
            and W.can_send(w, party, fuse_tx, nss)
        )

    def accept_update(w, binds):
        return w.set_mark(accept_mark) if accept_mark is not None else w

    edges = [
        Edge(0, 1, "commit_confirmed", guard=_g(_on_chain(counter_commit)),
             sync=("?", URG_CHAN)),
        Edge(0, 2, "commit_missing",
             guard=_g(_not_on_chain(counter_commit)),
             clock_guard=(("time", "==", max_latency),)),
        Edge(1, 3, "accept",
             guard=lambda w, b: W.can_create_input_script(
                 w, party, w.txs[fuse_tx], nss),
             sync=("?", URG_CHAN), update=accept_update),
        Edge(1, 2, "signature_missing",
             guard=lambda w, b: not W.can_create_input_script(
                 w, party, w.txs[fuse_tx], nss),
             clock_guard=(("time", "==", max_latency),)),
        Edge(3, 3, "claim_fuse", guard=fuse_guard,
             sync=("?", URG_CHAN),
             update=lambda w, b: W.try_to_send(w, party, fuse_tx, nss)),
    ]
    locations = [
        Location("start", phase_inv),
        Location("await_signature", phase_inv),
        Location("failure", None, named=True),
        Location("accepted", None, named=True),
    ]
    return AutomatonTemplate(name, locations, edges)


# -- the timed commitment scheme (CS) ---------------------------------------


CS_KEYS = {"C_KEY": 0, "R_KEY": 1}
CS_SECRETS = {"C_SEC": 0}
CS_TXS = {"INPUT": 0, "COMMIT": 1, "OPEN": 2, "FUSE": 3}


def build_cs_alice(constants, nss, capacity, weakened=False):
    """Honest committer of the standalone scheme (AliceTA)."""
    return build_committer(
        "AliceTA", 0, CS_KEYS["C_KEY"],
        CS_TXS["COMMIT"], CS_TXS["OPEN"], CS_TXS["FUSE"],
        nss, capacity,
        open_window_timer=0,
        sign_early=weakened,
    )


def build_cs_bob(constants, nss, capacity):
    """Honest recipient of the standalone scheme (BobTA)."""
    return build_recipient(
        "BobTA", 1, CS_TXS["COMMIT"], CS_TXS["OPEN"], CS_TXS["FUSE"],
        0, nss, capacity, constants.max_latency,
    )


def build_cs_model(constants=None, *, weakened_alice=False):
    """The Bitcoin-based timed commitment scheme.

    Alice locks 1 BTC in a commitment spendable either by revealing her
    secret or, after the timelock, by the fuse transaction carrying both
    signatures, which pays Bob.
    """
    c = (constants or WorldConstants()).validate()
    C_KEY, R_KEY = CS_KEYS["C_KEY"], CS_KEYS["R_KEY"]
    INPUT, COMMIT, OPEN, FUSE = (CS_TXS[k] for k in
                                 ("INPUT", "COMMIT", "OPEN", "FUSE"))
    nss = (
        (
            NssClause(keys=(C_KEY,), secrets=(CS_SECRETS["C_SEC"],)),
            NssClause(keys=(C_KEY, R_KEY), secrets=()),
        ),
    )
    txs = (
        TxRecord(INPUT, ((INPUT, 0),), (Output("key", C_KEY, 1),),
                 status=CONFIRMED, timelock_passed=True),
        TxRecord(COMMIT, ((INPUT, 0),), (Output("nss", 0, 1),),
                 timelock_passed=True),
        TxRecord(OPEN, ((COMMIT, 0),), (Output("key", C_KEY, 1),),
                 timelock_passed=True, reveals=(CS_SECRETS["C_SEC"],)),
        TxRecord(FUSE, ((COMMIT, 0),), (Output("key", R_KEY, 1),),
                 timelock=c.prot_timelock),
    )
    capacity = 1
    parties = (
        PartyKnowledge((True, False), (True,)),
        PartyKnowledge((False, True), (False,)),
        PartyKnowledge((False, False), (False,)),
    )

    def fuse_sig_delivery(w):
        return W.broadcast_signature(
            w, W.make_signature(w, C_KEY, FUSE), capacity)

    adversary_configs = {
        0: AdversaryConfig(
            controlled_party=0,
            adv_key=C_KEY,
            message_actions=(
                MessageAction("send_fuse_sig", lambda w: True,
                              fuse_sig_delivery),
            ),
        ),
        1: AdversaryConfig(controlled_party=1, adv_key=R_KEY),
    }
    queries = {
        "bob_security": (
            "A[] (time >= PROT_TIMELOCK+MAX_LATENCY) imply "
            "(hold_bitcoins(parties[BOB]) == 1 "
            "or parties[BOB].know_secret[0] or BobTA.failure)"
        ),
        "alice_security": (
            "A[] (time >= PROT_TIMELOCK+MAX_LATENCY) imply "
            "(hold_bitcoins(parties[ALICE]) == 1)"
        ),
        "bob_knows_secret": (
            "A[] (time >= PROT_TIMELOCK) imply (parties[BOB].know_secret[0])"
        ),
        "alice_holds_deposit": (
            "A[] (time >= PROT_TIMELOCK) imply "
            "(hold_bitcoins(parties[ALICE]) == 1)"
        ),
        "bob_accepts": "A[] not BobTA.failure",
    }
    return ContractModel(
        name="cs",
        constants=c,
        key_names=dict(CS_KEYS),
        secret_names=dict(CS_SECRETS),
        party_names=("ALICE", "BOB", "ADVERSARY"),
        tx_names=dict(CS_TXS),
        protocol_txs=txs,
        nss_table=nss,
        sig_capacity=capacity,
        timers=(("open_deadline", c.prot_timelock - c.max_latency),),
        initial_parties=parties,
        honest_automata={
            0: (build_cs_alice(c, nss, capacity, weakened=weakened_alice),),
            1: (build_cs_bob(c, nss, capacity),),
        },
        adversary_configs=adversary_configs,
        queries=queries,
        total_value=1,
        signed_txs=(FUSE,),
        variant=_non_default("cs", weakened_alice=weakened_alice),
    )


# -- NewSCS: the simultaneous commitment scheme ------------------------------


NEWSCS_KEYS = {"A_KEY": 0, "B_KEY": 1}
NEWSCS_SECRETS = {"SA_SEC": 0, "SB_SEC": 1, "RA_SEC": 2, "RB_SEC": 3}
NEWSCS_TXS = {
    "TA1": 0, "TA2": 1, "TB1": 2, "TB2": 3,
    "CSA_COMMIT": 4, "CSA_OPEN": 5, "CSA_FUSE": 6,
    "CSB_COMMIT": 7, "CSB_OPEN": 8, "CSB_FUSE": 9,
    "COMMIT": 10, "OPEN_A": 11, "OPEN_B": 12,
    "FUSE_A": 13, "FUSE_B": 14, "REDEEM_A2": 15,
}

_ABORT, _OPEN_DEADLINE, _RETRY = 0, 1, 2  # NewSCS timer indices
_ALICE_ACCEPTED, _BOB_ACCEPTED = 0, 1     # NewSCS progress marks


def _newscs_joint_alice(t, nss, capacity, max_latency):
    """Alice's joint phase: sign the commit, abort via the redeem, recover.

    She sends her commit signature once both commitment phases check
    out; if the joint commit has not appeared by the abort deadline she
    immediately redeems her second deposit; after the timelock she
    claims the counterparty fuse if Bob withheld his open, retrying once
    after MAX_LATENCY in case of a confirmation race.
    """
    A_KEY, B_KEY = NEWSCS_KEYS["A_KEY"], NEWSCS_KEYS["B_KEY"]

    def cs_ok(w):
        # her own commitment appeared and her watcher accepted the
        # counterparty's (rejection means quitting the whole protocol)
        return (
            W.ever_confirmed(w, t["CSA_COMMIT"])
            and w.marks[_ALICE_ACCEPTED]
        )

    def sign_commit(w, binds):
        return W.broadcast_signature(
            w, W.make_signature(w, A_KEY, t["COMMIT"]), capacity)

    def quit_update(w, binds):
        # a failed commitment phase still requires opening our own side
        return W.try_to_send(w, 0, t["CSA_OPEN"], nss)

    def abort_guard(w, binds):
        return (
            w.timers[_ABORT]
            and not W.ever_confirmed(w, t["COMMIT"])
            and W.can_send(w, 0, t["REDEEM_A2"], nss)
        )

    def recover(w, binds):
        if not W.ever_confirmed(w, t["OPEN_B"]):
            w = W.try_to_send(w, 0, t["FUSE_B"], nss)
        return w

    def phase_inv(_data, bound=max_latency):
        return (("time", "<=", bound),)

    edges = [
        Edge(0, 1, "sign_commit", guard=_g(cs_ok), sync=("?", URG_CHAN),
             update=sign_commit),
        Edge(0, 4, "quit", guard=lambda w, b: not cs_ok(w),
             clock_guard=(("time", "==", max_latency),),
             update=quit_update),
        Edge(1, 1, "broadcast_open",
             guard=lambda w, b: W.can_send(w, 0, t["OPEN_A"], nss),
             sync=("?", URG_CHAN),
             update=lambda w, b: W.try_to_send(w, 0, t["OPEN_A"], nss)),
        Edge(1, 1, "abort_redeem", guard=abort_guard, sync=("?", URG_CHAN),
             update=lambda w, b: W.try_to_send(w, 0, t["REDEEM_A2"], nss)),
        Edge(1, 2, "recover",
             guard=lambda w, b: w.txs[t["FUSE_B"]].timelock_passed,
             sync=("?", URG_CHAN), update=recover),
        Edge(2, 3, "recover_retry",
             guard=lambda w, b: w.timers[_RETRY],
             sync=("?", URG_CHAN), update=recover),
    ]
    locations = [
        Location("await_cs", phase_inv),
        Location("active", None),
        Location("recovering", None),
        Location("done", None),
        Location("quit", None, named=True),
    ]
    return AutomatonTemplate("AliceJointTA", locations, edges)


def _newscs_joint_bob(t, nss, capacity, buggy=False):
    """Bob's joint phase: broadcast the commit, abort at the deadline,
    recover after the timelock.

    The historical bug: the recovery tried the fuse path once at the
    timelock; a committer racing her sub-commitment open against the
    sub-commitment fuse can cancel that attempt, and the fix retries
    the joint fuse after waiting MAX_LATENCY.  `buggy` restores the
    single-shot behavior.
    """
    A_KEY = NEWSCS_KEYS["A_KEY"]

    def ready(w):
        # his watcher accepted the counterparty commitment, and the
        # joint commit can actually go out (a swept deposit input or a
        # missing signature means the joint phase is already dead)
        return (
            W.ever_confirmed(w, t["CSB_COMMIT"])
            and w.marks[_BOB_ACCEPTED]
            and W.can_send(w, 1, t["COMMIT"], nss)
        )

    def quit_update(w, binds):
        return W.try_to_send(w, 1, t["CSB_OPEN"], nss)

    def recover(w, binds):
        if not W.ever_confirmed(w, t["OPEN_A"]):
            w = W.try_to_send(w, 1, t["FUSE_A"], nss)
        return w

    edges = [
        Edge(0, 1, "broadcast_commit", guard=_g(ready), sync=("?", URG_CHAN),
             update=lambda w, b: W.try_to_send(w, 1, t["COMMIT"], nss)),
        Edge(0, 4, "quit",
             guard=lambda w, b: w.timers[_ABORT] and not ready(w),
             sync=("?", URG_CHAN), update=quit_update),
        Edge(1, 1, "broadcast_open",
             guard=lambda w, b: W.can_send(w, 1, t["OPEN_B"], nss),
             sync=("?", URG_CHAN),
             update=lambda w, b: W.try_to_send(w, 1, t["OPEN_B"], nss)),
        Edge(1, 2, "recover",
             guard=lambda w, b: w.txs[t["FUSE_A"]].timelock_passed,
             sync=("?", URG_CHAN), update=recover),
    ]
    if not buggy:
        edges.append(
            Edge(2, 3, "recover_retry",
                 guard=lambda w, b: w.timers[_RETRY],
                 sync=("?", URG_CHAN), update=recover)
        )
    locations = [
        Location("await_sig", None),
        Location("active", None),
        Location("recovering", None),
        Location("done", None),
        Location("quit", None, named=True),
    ]
    return AutomatonTemplate("BobJointTA", locations, edges)


def build_newscs_model(constants=None, *, buggy_bob=False, abort_margin=3):
    """The simultaneous commitment scheme (18 transactions in the paper's
    count; here 16 semantically distinct records, see the test inventory).

    Each party runs a standalone commitment on an auxiliary secret plus
    the joint two-input commit whose outputs interlock the real secrets
    with the auxiliary ones.  `abort_margin` scales the abort deadline
    (PROT_TIMELOCK - margin*MAX_LATENCY); 3 is the protocol's value and
    anything smaller is exploitable.
    """
    c = (constants or WorldConstants()).validate()
    if c.prot_timelock <= abort_margin * c.max_latency:
        raise ModelError("PROT_TIMELOCK too small for the abort margin")
    t = NEWSCS_TXS
    A_KEY, B_KEY = NEWSCS_KEYS["A_KEY"], NEWSCS_KEYS["B_KEY"]
    SA, SB, RA, RB = (NEWSCS_SECRETS[k] for k in
                      ("SA_SEC", "SB_SEC", "RA_SEC", "RB_SEC"))
    T = c.prot_timelock
    nss = (
        # 0: CS^A commitment output
        (NssClause((A_KEY,), (RA,)), NssClause((A_KEY, B_KEY), ())),
        # 1: CS^B commitment output
        (NssClause((B_KEY,), (RB,)), NssClause((B_KEY, A_KEY), ())),
        # 2: joint commit output 1
        (NssClause((A_KEY,), (SA,)), NssClause((B_KEY,), (RA,))),
        # 3: joint commit output 2
        (NssClause((B_KEY,), (SB,)), NssClause((A_KEY,), (RB,))),
    )

    def deposit(num, key):
        return TxRecord(num, ((num, 0),), (Output("key", key, 1),),
                        status=CONFIRMED, timelock_passed=True)

    txs = (
        deposit(t["TA1"], A_KEY),
        deposit(t["TA2"], A_KEY),
        deposit(t["TB1"], B_KEY),
        deposit(t["TB2"], B_KEY),
        TxRecord(t["CSA_COMMIT"], ((t["TA1"], 0),), (Output("nss", 0, 1),),
                 timelock_passed=True),
        TxRecord(t["CSA_OPEN"], ((t["CSA_COMMIT"], 0),),
                 (Output("key", A_KEY, 1),), timelock_passed=True,
                 reveals=(RA,)),
        TxRecord(t["CSA_FUSE"], ((t["CSA_COMMIT"], 0),),
                 (Output("key", B_KEY, 1),), timelock=T),
        TxRecord(t["CSB_COMMIT"], ((t["TB1"], 0),), (Output("nss", 1, 1),),
                 timelock_passed=True),
        TxRecord(t["CSB_OPEN"], ((t["CSB_COMMIT"], 0),),
                 (Output("key", B_KEY, 1),), timelock_passed=True,
                 reveals=(RB,)),
        TxRecord(t["CSB_FUSE"], ((t["CSB_COMMIT"], 0),),
                 (Output("key", A_KEY, 1),), timelock=T),
        TxRecord(t["COMMIT"], ((t["TA2"], 0), (t["TB2"], 0)),
                 (Output("nss", 2, 1), Output("nss", 3, 1)),
                 timelock_passed=True),
        TxRecord(t["OPEN_A"], ((t["COMMIT"], 0),),
                 (Output("key", A_KEY, 1),), timelock_passed=True,
                 reveals=(SA,)),
        TxRecord(t["OPEN_B"], ((t["COMMIT"], 1),),
                 (Output("key", B_KEY, 1),), timelock_passed=True,
                 reveals=(SB,)),
        TxRecord(t["FUSE_A"], ((t["COMMIT"], 0),),
                 (Output("key", B_KEY, 1),), timelock=T, reveals=(RA,)),
        TxRecord(t["FUSE_B"], ((t["COMMIT"], 1),),
                 (Output("key", A_KEY, 1),), timelock=T, reveals=(RB,)),
        TxRecord(t["REDEEM_A2"], ((t["TA2"], 0),),
                 (Output("key", A_KEY, 1),), timelock_passed=True),
    )
    capacity = 3
    parties = (
        PartyKnowledge((True, False), (True, False, True, False)),
        PartyKnowledge((False, True), (False, True, False, True)),
        PartyKnowledge((False, False), (False, False, False, False)),
    )
    timers = (
        ("abort", T - abort_margin * c.max_latency),
        ("open_deadline", T - c.max_latency),
        ("retry", T + c.max_latency),
    )

    def or_(f1, f2):
        return lambda w: f1(w) or f2(w)

    alice_cs_ready = or_(
        _on_chain(t["OPEN_A"]),
        or_(_on_chain(t["REDEEM_A2"]),
            lambda w: w.txs[t["COMMIT"]].status == CANCELED),
    )
    bob_cs_ready = or_(
        _on_chain(t["OPEN_B"]),
        lambda w: w.txs[t["COMMIT"]].status == CANCELED,
    )

    alice_automata = (
        build_committer(
            "AliceCsTA", 0, A_KEY, t["CSA_COMMIT"], t["CSA_OPEN"],
            t["CSA_FUSE"], nss, capacity, open_ready=alice_cs_ready,
        ),
        build_recipient(
            "AliceWatchTA", 0, t["CSB_COMMIT"], t["CSB_OPEN"], t["CSB_FUSE"],
            _OPEN_DEADLINE, nss, capacity, c.max_latency,
            accept_mark=_ALICE_ACCEPTED,
        ),
        _newscs_joint_alice(t, nss, capacity, c.max_latency),
    )
    bob_automata = (
        build_committer(
            "BobCsTA", 1, B_KEY, t["CSB_COMMIT"], t["CSB_OPEN"],
            t["CSB_FUSE"], nss, capacity, open_ready=bob_cs_ready,
        ),
        build_recipient(
            "BobWatchTA", 1, t["CSA_COMMIT"], t["CSA_OPEN"], t["CSA_FUSE"],
            _OPEN_DEADLINE, nss, capacity, c.max_latency,
            accept_mark=_BOB_ACCEPTED,
        ),
        _newscs_joint_bob(t, nss, capacity, buggy=buggy_bob),
    )

    def deliver(key, txid):
        return lambda w: W.broadcast_signature(
            w, W.make_signature(w, key, txid), capacity)

    adversary_configs = {
        0: AdversaryConfig(
            controlled_party=0,
            adv_key=A_KEY,
            message_actions=(
                MessageAction("send_csa_fuse_sig", lambda w: True,
                              deliver(A_KEY, t["CSA_FUSE"])),
                MessageAction("send_commit_sig", lambda w: True,
                              deliver(A_KEY, t["COMMIT"])),
            ),
        ),
        1: AdversaryConfig(
            controlled_party=1,
            adv_key=B_KEY,
            message_actions=(
                MessageAction("send_csb_fuse_sig", lambda w: True,
                              deliver(B_KEY, t["CSB_FUSE"])),
            ),
        ),
    }
    queries = {
        "both_recover": (
            "A[] (time >= PROT_TIMELOCK+MAX_LATENCY) imply "
            "(parties[ALICE].know_secret[SB_SEC] "
            "and parties[BOB].know_secret[SA_SEC] "
            "and hold_bitcoins(parties[ALICE]) == 2 "
            "and hold_bitcoins(parties[BOB]) == 2)"
        ),
        "bob_no_loss": (
            "A[] (time >= PROT_TIMELOCK) imply "
            "hold_bitcoins(parties[BOB]) >= 2"
        ),
        "bob_compensated": (
            "A[] ((time >= PROT_TIMELOCK+2*MAX_LATENCY) imply "
            "((parties[ALICE].know_secret[SB_SEC] "
            "and !parties[BOB].know_secret[SA_SEC]) "
            "imply hold_bitcoins(parties[BOB]) >= 3))"
        ),
        "alice_no_loss": (
            "A[] (time >= PROT_TIMELOCK) imply "
            "hold_bitcoins(parties[ALICE]) >= 2"
        ),
        "alice_compensated": (
            "A[] ((time >= PROT_TIMELOCK+2*MAX_LATENCY) imply "
            "((parties[BOB].know_secret[SA_SEC] "
            "and !parties[ALICE].know_secret[SB_SEC]) "
            "imply hold_bitcoins(parties[ALICE]) >= 3))"
        ),
    }
    return ContractModel(
        name="newscs",
        constants=c,
        key_names=dict(NEWSCS_KEYS),
        secret_names=dict(NEWSCS_SECRETS),
        party_names=("ALICE", "BOB", "ADVERSARY"),
        tx_names=dict(NEWSCS_TXS),
        protocol_txs=txs,
        nss_table=nss,
        sig_capacity=capacity,
        timers=timers,
        initial_parties=parties,
        honest_automata={0: alice_automata, 1: bob_automata},
        adversary_configs=adversary_configs,
        queries=queries,
        total_value=4,
        signed_txs=(t["CSA_FUSE"], t["CSB_FUSE"], t["COMMIT"]),
        mark_count=2,
        variant=_non_default("newscs", buggy_bob=buggy_bob,
                             abort_margin=abort_margin),
    )


BUILTIN_MODELS = {
    "cs": build_cs_model,
    "newscs": build_newscs_model,
}


# -- instantiation -----------------------------------------------------------


def _idle_sweep_ids(model, txs, adv_knowledge):
    """Sweeps whose firing no guard, holding or reveal can observe.

    A sweep of a leaf output (one no protocol transaction spends) whose
    key the adversary already controls moves value between two
    adversary-reachable addresses: the source output counts for nobody
    (two owners) and so does the swept one, honest automata never read
    sweep statuses, and a pending sweep only tightens delay caps.
    Dropping these from the adversary's loop preserves every verdict
    and shrinks the exploration considerably.
    """
    spent_by_protocol = {
        inp for tx in model.protocol_txs for inp in tx.inputs
    }
    idle = []
    for tx in txs[len(model.protocol_txs):]:
        (src, oi), = tx.inputs
        out = txs[src].outputs[oi]
        if (src, oi) in spent_by_protocol:
            continue
        if out.script_kind == "key" and adv_knowledge.know_key[out.script_ref]:
            idle.append(tx.num)
    return frozenset(idle)


def instantiate(model, adversary=None, run_world_checks=True,
                prune_idle_sweeps=True):
    """Assemble the network for one scenario selection.

    `adversary` names the corrupted party (or None for all-honest); its
    knowledge is cloned from that party's initial record and its
    automaton replaces the party's honest suite.  Returns the Network
    plus the name-resolution context for queries; `net.meta` keeps the
    model, the adversary and `prune_idle_sweeps`, which rebuild it.
    """
    adv_idx = None
    if adversary is not None:
        names = model.party_names[:-1]
        if adversary not in names:
            raise ModelError(
                "unknown party %r (parties: %s)" % (adversary, ", ".join(names))
            )
        adv_idx = names.index(adversary)
    adv_slot = len(model.party_names) - 1

    if adv_idx is not None:
        cfg = model.adversary_configs[adv_idx]
        adv_key = cfg.adv_key
        msg_count = len(cfg.message_actions)
    else:
        cfg = None
        adv_key = 0
        msg_count = 0

    txs = derive_adversary_txset(model.protocol_txs, adv_key)
    parties = list(model.initial_parties)
    if adv_idx is not None:
        parties[adv_slot] = parties[adv_idx]
    initial = World(
        tuple(txs),
        tuple(parties),
        timers=(False,) * len(model.timers),
        msgs=(False,) * msg_count,
        marks=(False,) * model.mark_count,
    )

    deadlines = [
        W.timer_flag(name, i, threshold)
        for i, (name, threshold) in enumerate(model.timers)
    ]
    for tx in txs:
        if tx.timelock > 0:
            deadlines.append(W.timelock_flag(tx.num, tx.timelock))

    # only inputs of signature-covered transactions have live nonces
    nonce_relevant = sorted({
        src_tx
        for signed in model.signed_txs
        for (src_tx, _oi) in model.protocol_txs[signed].inputs
    })
    automata = [
        W.build_blockchain_agent(
            model.constants, len(txs), nonce_count=2,
            nonce_relevant=nonce_relevant,
        ),
        W.build_helper(deadlines),
    ]
    for p in range(len(model.party_names) - 1):
        if p == adv_idx:
            sendable = None
            if prune_idle_sweeps:
                idle = _idle_sweep_ids(model, txs, parties[adv_slot])
                sendable = tuple(
                    i for i in range(len(txs)) if i not in idle
                )
            automata.append(
                build_adversary_automaton(
                    cfg, adv_slot, len(txs), model.nss_table,
                    model.sig_capacity, sendable=sendable,
                )
            )
        else:
            automata.extend(model.honest_automata[p])

    state_checks = []
    transition_checks = []
    if run_world_checks:
        def value_check(state, total=model.total_value):
            W.check_value_conservation(state.data)
            W.check_nonce_consistency(state.data)
            W.check_eavesdropping(state.data)
            live = sum(
                o.value
                for tx in state.data.txs if tx.status == CONFIRMED
                for o in tx.outputs if not o.spent
            )
            if live != total:
                raise W.ModelInvariantError(
                    "confirmed unspent value %d, expected %d" % (live, total)
                )

        state_checks.append(value_check)
        transition_checks.append(W.check_status_machine)

    net = Network(
        "%s[adversary=%s]" % (model.name, adversary or "none"),
        automata,
        [Channel(URG_CHAN, urgent=True)],
        deadlines,
        initial,
        W.pending_clock_owners,
        state_checks=state_checks,
        transition_checks=transition_checks,
        meta={"model": model, "adversary": adversary,
              "prune_idle_sweeps": prune_idle_sweeps},
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
