"""On-disk contract descriptions and machine-readable reports.

A `.model` file is a sectioned plain-text document declaring constants,
keys, secrets, parties, transactions, non-standard script clauses,
timers, progress marks, party automata, adversary actions and named
queries.  Clock guards, guards and updates on edges are parsed by the
query language's `ExprParser` (one lexer, precedence parser and
constant evaluator), with atoms of their own: `time OP const-expr` for
clock guards, and for guards and updates the block-chain helper
operations by name (status checks, try_to_send, broadcast_signature,
...).  Guards and updates become closures over the loaded model's
tables, never compiled code.  The grammar is documented in
docs/model_grammar.ebnf.

The built-in contracts `cs` and `newscs` are the shipped
models/cs.model and models/newscs.model; nothing else defines them.
Their variants are constants of the files (WEAKENED_ALICE, BUGGY_BOB,
ABORT_MARGIN): a variant option `x` sets the constant `X` of any model
that declares it.  `contract_model` builds every scenario's model, for
the CLI and for trace replay alike, and memoizes the build per file
text and constants; the shared model is never mutated.

Reports and diagnostic traces serialize to JSON with a versioned
schema.  A trace document records the whole scenario that produced it
(variant options, `.model` file hash and sweep pruning included), the
query it witnesses and every clock's value at every step, so it
replays on its own through the kernel's replay loop, and the replay
re-checks the query at the final clock values.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
from fractions import Fraction
from typing import NamedTuple

from . import queries as Q
from . import world as W
from .adversary import AdversaryConfig, MessageAction
from .contracts import ContractModel, instantiate
from .kernel import (
    TIME,
    AutomatonTemplate,
    Edge,
    Location,
    ModelError,
    ReplayError as TraceReplayError,
    initial_state,
    replay,
)
from .world import NssClause, Output, PartyKnowledge, TxRecord, WorldConstants

SCHEMA_VERSION = 3

BUILTIN_CONTRACTS = ("cs", "newscs")
MODELS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "models")

STATUS_BY_NAME = {name: i for i, name in enumerate(W.STATUS_NAMES)}


class ModelIOError(ModelError):
    """Loader failure with a stable error code and, when known, the
    line of the `.model` file it concerns."""

    def __init__(self, code, message, line=None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.line = line

    def __str__(self):
        if self.line is None:
            return "%s: %s" % (self.code, self.message)
        return "%s: line %d: %s" % (self.code, self.line, self.message)


@contextlib.contextmanager
def _at(line):
    """Give a ModelIOError raised inside without a line number `line`."""
    try:
        yield
    except ModelIOError as exc:
        if exc.line is None:
            exc.line = line
        raise


# codes for distinct semantic failures
E_PARSE = "E_PARSE"
E_SECTION = "E_SECTION"
E_NAME = "E_NAME"
E_DANGLING_TX = "E_DANGLING_TX"
E_RANGE = "E_RANGE"
E_URGENT_CLOCK = "E_URGENT_CLOCK"
E_TWO_ADVERSARIES = "E_TWO_ADVERSARIES"
E_EXPR = "E_EXPR"
E_STRICT = "E_STRICT"


class ModelDocument(NamedTuple):
    """Canonical parsed form of a .model file (pure data, order-stable).

    Every entry that `build_model` resolves ends with its line number,
    so that an error found while building it names the line.
    """

    name: str
    constants: tuple      # ((name, value), ...)
    keys: tuple
    secrets: tuple
    parties: tuple        # ((name, keys, secrets, line), ...)
    capacity: int
    txs: tuple            # ((name, inputs, outputs, timelock_expr, reveals, confirmed, line), ...)
    nss: tuple            # ((name, clauses, line), ...) clause = (keys, secrets)
    timers: tuple         # ((name, expr, line), ...)
    marks: tuple
    signed: tuple
    automata: tuple       # ((auto name, party, locations, edges, line), ...)
    adversaries: tuple    # ((party, key, actions, line), ...) action = (name, guard, update, line)
    queries: tuple        # ((name, text), ...)


# -- section reader -----------------------------------------------------


_SECTION_RE = re.compile(r"^\[([a-z]+)(?:\s+(.*))?\]$")


def _logical_lines(text):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield i, line.strip()


def parse_model_text(text, name="model"):
    sections = []
    current = None
    for ln, line in _logical_lines(text):
        m = _SECTION_RE.match(line)
        if m:
            current = (m.group(1), m.group(2) or "", ln, [])
            sections.append(current)
            continue
        if current is None:
            raise ModelIOError(E_PARSE, "content before any section", ln)
        current[3].append((ln, line))

    constants, keys, secrets = [], [], []
    parties, txs, nss, timers, marks, signed = [], [], [], [], [], []
    automata, adversaries, queries = [], [], []
    capacity = [1]

    # a handler gets the section's argument, header line and body lines
    handlers = {
        "constants": lambda arg, ln, body: constants.extend(_parse_assignments(body)),
        "keys": lambda arg, ln, body: keys.extend(_parse_names(body)),
        "secrets": lambda arg, ln, body: secrets.extend(_parse_names(body)),
        "parties": lambda arg, ln, body: _parse_parties(body, parties, capacity),
        "transactions": lambda arg, ln, body: txs.extend(_parse_txs(body)),
        "nss": lambda arg, ln, body: nss.extend(_parse_nss(body)),
        "timers": lambda arg, ln, body: timers.extend(_parse_assign_exprs(body)),
        "marks": lambda arg, ln, body: marks.extend(_parse_names(body)),
        "signed": lambda arg, ln, body: signed.extend(_parse_names(body)),
        "automaton": lambda arg, ln, body: automata.append(_parse_automaton(arg, ln, body)),
        "adversary": lambda arg, ln, body: adversaries.append(_parse_adversary(arg, ln, body)),
        "queries": lambda arg, ln, body: queries.extend(_parse_queries(body)),
    }
    for sec, arg, ln, body in sections:
        handler = handlers.get(sec)
        if handler is None:
            raise ModelIOError(E_SECTION, "unknown section [%s]" % sec, ln)
        handler(arg, ln, body)

    return ModelDocument(
        name=name,
        constants=tuple(constants),
        keys=tuple(keys),
        secrets=tuple(secrets),
        parties=tuple(parties),
        capacity=capacity[0],
        txs=tuple(txs),
        nss=tuple(nss),
        timers=tuple(timers),
        marks=tuple(marks),
        signed=tuple(signed),
        automata=tuple(automata),
        adversaries=tuple(adversaries),
        queries=tuple(queries),
    )


def _parse_names(body):
    out = []
    for _ln, line in body:
        out.extend(line.split())
    return out


def _parse_assignments(body):
    out = []
    for ln, line in body:
        if "=" not in line:
            raise ModelIOError(E_PARSE, "expected NAME = INTEGER", ln)
        k, v = line.split("=", 1)
        out.append((k.strip(), _int(v, "an integer value", ln)))
    return out


def _int(text, what, ln):
    try:
        return int(text.strip())
    except ValueError:
        raise ModelIOError(E_PARSE, "expected %s" % what, ln) from None


def _parse_assign_exprs(body):
    out = []
    for ln, line in body:
        if "=" not in line:
            raise ModelIOError(E_PARSE, "expected NAME = EXPRESSION", ln)
        k, v = line.split("=", 1)
        out.append((k.strip(), v.strip(), ln))
    return out


def _parse_parties(body, parties, capacity):
    for ln, line in body:
        if line.startswith("capacity"):
            capacity[0] = _int(line.partition("=")[2], "capacity = INTEGER", ln)
            continue
        name, _sep, rest = line.partition(":")
        fields = _parse_fields(rest, ln)
        parties.append((
            name.strip(),
            tuple(fields.pop("keys", "").split()),
            tuple(fields.pop("secrets", "").split()),
            ln,
        ))
        _no_extra(fields, ln)


def _parse_fields(rest, ln, flags=()):
    fields = {}
    for part in filter(None, (p.strip() for p in rest.split(";"))):
        if "=" in part:
            k, v = part.split("=", 1)
            fields[k.strip()] = v.strip()
        elif part in flags:
            fields[part] = True
        else:
            raise ModelIOError(E_PARSE, "expected %s = VALUE" % part, ln)
    return fields


def _no_extra(fields, ln):
    if fields:
        raise ModelIOError(E_PARSE, "unknown fields %s" % sorted(fields), ln)


def _parse_txs(body):
    out = []
    for ln, line in body:
        name, sep, rest = line.partition(":")
        if not sep:
            raise ModelIOError(E_PARSE, "expected NAME: fields", ln)
        fields = _parse_fields(rest, ln, flags=("confirmed",))
        inputs = []
        for ref in fields.pop("inputs", "").split():
            m = re.match(r"(\w+):(\d+)$", ref)
            if not m:
                raise ModelIOError(E_PARSE, "input must be NAME:INDEX", ln)
            inputs.append((m.group(1), int(m.group(2))))
        outputs = []
        for ref in fields.pop("outputs", "").split():
            m = re.match(r"(key|nss)\((\w+)\):(\d+)$", ref)
            if not m:
                raise ModelIOError(
                    E_PARSE, "output must be key(NAME):VALUE or nss(NAME):VALUE", ln)
            outputs.append((m.group(1), m.group(2), int(m.group(3))))
        out.append((
            name.strip(),
            tuple(inputs),
            tuple(outputs),
            fields.pop("timelock", "0"),
            tuple(fields.pop("reveals", "").split()),
            bool(fields.pop("confirmed", False)),
            ln,
        ))
        _no_extra(fields, ln)
    return out


def _parse_nss(body):
    out = []
    for ln, line in body:
        name, sep, rest = line.partition(":")
        if not sep:
            raise ModelIOError(E_PARSE, "expected NAME: clauses", ln)
        clauses = []
        for clause in rest.split("|"):
            clause = clause.strip()
            if not (clause.startswith("{") and clause.endswith("}")):
                raise ModelIOError(E_PARSE, "clause must be {...}", ln)
            keys, secrets = [], []
            for item in filter(None, (i.strip() for i in clause[1:-1].split(","))):
                if item.startswith("reveal "):
                    secrets.append(item[len("reveal "):].strip())
                else:
                    keys.append(item)
            clauses.append((tuple(keys), tuple(secrets)))
        out.append((name.strip(), tuple(clauses), ln))
    return out


_EDGE_RE = re.compile(
    r"^edge\s+(\w+)\s*->\s*(\w+)"
    r"(?P<urgent>\s+urgent)?"
    r"(?:\s+clock\s+\"(?P<clock>[^\"]*)\")?"
    r"(?:\s+guard\s+\"(?P<guard>[^\"]*)\")?"
    r"(?:\s+update\s+\"(?P<update>[^\"]*)\")?"
    r"(?:\s+label\s+(?P<label>\w+))?$"
)


def _parse_automaton(arg, header_ln, body):
    m = re.match(r"^(\w+)\s+party\s*=\s*(\w+)$", arg.strip())
    if not m:
        raise ModelIOError(E_PARSE, "expected [automaton NAME party=PARTY]",
                           header_ln)
    auto_name, party = m.group(1), m.group(2)
    locations, edges = [], []
    for ln, line in body:
        if line.startswith("location"):
            inv = None
            im = re.search(r'invariant="time\s*<=\s*([^"]+)"', line)
            if im:
                inv = im.group(1).strip()
                line = line[:im.start()] + line[im.end():]
            parts = line.split()
            if len(parts) < 2:
                raise ModelIOError(E_PARSE, "expected location NAME [flags]", ln)
            flags = set(parts[2:])
            locations.append((
                parts[1],
                "initial" in flags,
                "named" in flags,
                inv,
                ln,
            ))
            flags -= {"initial", "named"}
            if flags:
                raise ModelIOError(E_PARSE, "unknown location flags %s" % sorted(flags), ln)
        elif line.startswith("edge"):
            em = _EDGE_RE.match(line)
            if not em:
                raise ModelIOError(E_PARSE, "malformed edge line", ln)
            edges.append((
                em.group(1), em.group(2), bool(em.group("urgent")),
                em.group("clock"), em.group("guard"), em.group("update"),
                em.group("label") or "step%d" % len(edges),
                ln,
            ))
        else:
            raise ModelIOError(E_PARSE, "expected a location or edge line", ln)
    return (auto_name, party, tuple(locations), tuple(edges), header_ln)


def _parse_adversary(arg, header_ln, body):
    party = arg.strip()
    key = None
    actions = []
    for ln, line in body:
        if line.startswith("key"):
            key = line.partition("=")[2].strip()
        elif line.startswith("message"):
            m = re.match(
                r"^message\s+(\w+)"
                r"(?:\s+guard\s+\"([^\"]*)\")?"
                r"\s+update\s+\"([^\"]*)\"$",
                line,
            )
            if not m:
                raise ModelIOError(E_PARSE, "malformed message line", ln)
            actions.append((m.group(1), m.group(2) or "true", m.group(3), ln))
        else:
            raise ModelIOError(E_PARSE, "expected key or message line", ln)
    if key is None:
        raise ModelIOError(E_PARSE, "adversary section needs a key", header_ln)
    return (party, key, tuple(actions), header_ln)


def _parse_queries(body):
    out = []
    for ln, line in body:
        name, sep, rest = line.partition(":")
        if not sep:
            raise ModelIOError(E_PARSE, "expected NAME: A[] ...", ln)
        out.append((name.strip(), rest.strip()))
    return out


# -- expression language ---------------------------------------------------


class _Names(NamedTuple):
    constants: dict
    keys: dict
    secrets: dict
    parties: dict
    txs: dict
    timers: dict
    marks: dict
    nss_table: tuple
    capacity: int


class _Expr(Q.ExprParser):
    """A model expression over the shared query grammar: E_EXPR for a
    syntax error, E_NAME for an unknown name.  On its own it evaluates
    constant expressions (`parse_const`)."""

    def error(self, message, pos=None):
        raise ModelIOError(E_EXPR, "%s in %r" % (message, self.text))

    def fail_name(self, name, table, what):
        raise ModelIOError(E_NAME, "unknown %s %r in %r (known: %s)"
                           % (what, name, self.text, ", ".join(sorted(table))))


class _ClockGuard(_Expr):
    """`time OP const-expr` atoms joined by `and`, as the kernel's
    (("time", op, c), ...) tuple; strict comparisons are E_STRICT."""

    def and_(self, a, b):
        return a + b

    def _only_and(self, *_nodes):
        self.error("clock guards join time comparisons with 'and' only")

    not_ = or_ = imply = _only_and

    def atom(self, tok):
        if tok != "time":
            self.error("clock guard must compare time")
        self.next()
        op = self.next()
        if op in ("<", ">"):
            raise ModelIOError(
                E_STRICT, "strict clock comparison %r in %r: models must stay closed"
                % (op, self.text))
        if op not in ("==", "<=", ">="):
            self.error("expected ==, <= or >= after time")
        return (("time", op, self.const_expr()),)


class _Guard(_Expr):
    """Guards and updates as closures over the resolved model tables;
    evaluation happens per call against the current world."""

    not_ = staticmethod(lambda f: lambda w: not f(w))
    and_ = staticmethod(lambda a, b: lambda w: a(w) and b(w))
    or_ = staticmethod(lambda a, b: lambda w: a(w) or b(w))
    imply = staticmethod(lambda a, b: lambda w: not a(w) or b(w))

    def __init__(self, text, names):
        super().__init__(text, names.constants)
        self.names = names

    def args(self, *params, nonce=False):
        """`(NAME, ...)`, each name looked up in its (table, what); with
        `nonce`, an optional `, INT` follows and comes last (None if absent)."""
        self.expect("(")
        values = []
        for table, what in params:
            if values:
                self.expect(",")
            name = self.next()
            if name not in table:
                self.fail_name(name, table, what)
            values.append(table[name])
        if nonce:
            pinned = None
            if self.peek() == ",":
                self.next()
                tok = self.next()
                if not tok.isdigit():
                    self.error("expected a nonce, found %r" % (tok or "end of input"))
                pinned = int(tok)
            values.append(pinned)
        self.expect(")")
        return values

    def atom(self, tok):
        self.next()
        n = self.names
        if tok == "true":
            return lambda w: True
        if tok == "false":
            return lambda w: False
        if tok == "status":
            (tx,) = self.args((n.txs, "transaction"))
            op = self.next()
            if op not in ("==", "!="):
                self.error("status comparison must use == or !=")
            st = self.next()
            if st not in STATUS_BY_NAME:
                self.error("unknown status %r" % st)
            sv = STATUS_BY_NAME[st]
            if op == "==":
                return lambda w, t=tx, s=sv: w.txs[t].status == s
            return lambda w, t=tx, s=sv: w.txs[t].status != s
        if tok == "on_chain":
            (tx,) = self.args((n.txs, "transaction"))
            return lambda w, t=tx: W.ever_confirmed(w, t)
        if tok == "timelock_passed":
            (tx,) = self.args((n.txs, "transaction"))
            return lambda w, t=tx: w.txs[t].timelock_passed
        if tok == "timer":
            (ti,) = self.args((n.timers, "timer"))
            return lambda w, i=ti: w.timers[i]
        if tok == "mark":
            (mi,) = self.args((n.marks, "mark"))
            return lambda w, i=mi: w.marks[i]
        if tok == "know_secret":
            p, s = self.args((n.parties, "party"), (n.secrets, "secret"))
            return lambda w, pi=p, si=s: w.parties[pi].know_secret[si]
        if tok == "know_signature":
            p, tx, k = self.args((n.parties, "party"), (n.txs, "transaction"),
                                 (n.keys, "key"))
            return lambda w, pi=p, t=tx, ki=k: W.know_signature(
                w, pi, w.txs[t], 0, ki)
        if tok == "can_create_input_script":
            p, tx = self.args((n.parties, "party"), (n.txs, "transaction"))
            return lambda w, pi=p, t=tx, nss=n.nss_table: (
                W.can_create_input_script(w, pi, w.txs[t], nss))
        if tok == "can_send":
            p, tx = self.args((n.parties, "party"), (n.txs, "transaction"))
            return lambda w, pi=p, t=tx, nss=n.nss_table: W.can_send(w, pi, t, nss)
        if tok in self.constants:
            # a declared constant, true when nonzero, fixed at build time
            return (lambda w: True) if self.constants[tok] else (lambda w: False)
        self.error("unknown guard atom %r" % tok)

    # updates: statement (';' statement)*

    def parse_update(self):
        return self.whole(self.statements)

    def statements(self):
        stmts = [self.statement()]
        while self.peek() == ";":
            self.next()
            stmts.append(self.statement())

        def run(w, fns=tuple(stmts)):
            for f in fns:
                w = f(w)
            return w

        return run

    def statement(self):
        tok = self.next()
        n = self.names
        if tok == "if":
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            body = self.statement()
            return lambda w, c=cond, b=body: b(w) if c(w) else w
        if tok == "try_to_send":
            p, tx = self.args((n.parties, "party"), (n.txs, "transaction"))
            return lambda w, pi=p, t=tx, nss=n.nss_table: W.try_to_send(w, pi, t, nss)
        if tok == "broadcast_signature":
            k, tx, pinned = self.args((n.keys, "key"), (n.txs, "transaction"),
                                      nonce=True)
            cap = n.capacity

            def send_sig(w, ki=k, t=tx, pn=pinned, cap=cap):
                if pn is None:
                    sig = W.make_signature(w, ki, t)
                else:
                    sig = W.SignatureRec(ki, t, pn)
                return W.broadcast_signature(w, sig, cap)

            return send_sig
        if tok == "set_mark":
            (mi,) = self.args((n.marks, "mark"))
            return lambda w, i=mi: w.set_mark(i)
        self.error("unknown update statement %r" % tok)


# -- document -> ContractModel ---------------------------------------------


def build_model(doc, overrides=None):
    constants = dict(doc.constants)
    if overrides:
        constants.update(overrides)
    wc = _world_constants(constants)

    keys = {k: i for i, k in enumerate(doc.keys)}
    secrets = {s: i for i, s in enumerate(doc.secrets)}
    tx_ids = {t[0]: i for i, t in enumerate(doc.txs)}
    nss_ids = {n[0]: i for i, n in enumerate(doc.nss)}
    timer_ids = {t[0]: i for i, t in enumerate(doc.timers)}
    mark_ids = {m: i for i, m in enumerate(doc.marks)}
    party_names = tuple(p[0] for p in doc.parties) + ("ADVERSARY",)
    party_ids = {n: i for i, n in enumerate(party_names)}

    nss_table = []
    for (_n, clauses, ln) in doc.nss:
        with _at(ln):
            nss_table.append(tuple(
                NssClause(
                    tuple(_lookup(keys, k, "key", E_RANGE) for k in ckeys),
                    tuple(_lookup(secrets, s, "secret", E_RANGE) for s in csecs),
                )
                for (ckeys, csecs) in clauses
            ))
    nss_table = tuple(nss_table)

    txs = []
    for (name, inputs, outputs, timelock, reveals, confirmed, ln) in doc.txs:
        with _at(ln):
            in_refs = []
            for (ref, oi) in inputs:
                if ref not in tx_ids:
                    raise ModelIOError(E_DANGLING_TX, "input %r of %s" % (ref, name))
                in_refs.append((tx_ids[ref], oi))
            outs = []
            for (kind, ref, value) in outputs:
                table = keys if kind == "key" else nss_ids
                outs.append(Output(kind, _lookup(table, ref, kind, E_RANGE), value))
            tl = _Expr(timelock, constants).parse_const()
            txs.append(TxRecord(
                tx_ids[name],
                tuple(in_refs),
                tuple(outs),
                status=W.CONFIRMED if confirmed else W.UNSENT,
                timelock=tl,
                timelock_passed=(tl == 0),
                reveals=tuple(_lookup(secrets, s, "secret", E_RANGE) for s in reveals),
            ))
    for tx, entry in zip(txs, doc.txs):
        for (src, oi) in tx.inputs:
            if oi >= len(txs[src].outputs):
                raise ModelIOError(
                    E_DANGLING_TX,
                    "transaction %d spends missing output %d:%d" % (tx.num, src, oi),
                    entry[-1],
                )

    for (_n, pkeys, psecs, ln) in doc.parties:
        with _at(ln):
            for k in pkeys:
                _lookup(keys, k, "key", E_NAME)
            for sec in psecs:
                _lookup(secrets, sec, "secret", E_NAME)
    parties = tuple(
        PartyKnowledge(
            tuple(k in pkeys for k in doc.keys),
            tuple(s in psecs for s in doc.secrets),
        )
        for (_n, pkeys, psecs, _ln) in doc.parties
    ) + (PartyKnowledge((False,) * len(doc.keys), (False,) * len(doc.secrets)),)

    names = _Names(constants, keys, secrets, party_ids, tx_ids,
                   timer_ids, mark_ids, nss_table, doc.capacity)

    honest = {}
    for (auto_name, party, locations, edges, header_ln) in doc.automata:
        with _at(header_ln):
            p = _lookup(party_ids, party, "party", E_NAME)
        loc_ids = {l[0]: i for i, l in enumerate(locations)}
        locs = []
        initial = 0
        for i, (lname, is_init, named, inv, ln) in enumerate(locations):
            if is_init:
                initial = i
            inv_fn = None
            if inv is not None:
                with _at(ln):
                    bound = _Expr(inv, constants).parse_const()
                inv_fn = (lambda b: lambda _w: (("time", "<=", b),))(bound)
            locs.append(Location(lname, inv_fn, named=named))
        built_edges = []
        for (src, dst, urgent, clock, guard, update, label, ln) in edges:
            with _at(ln):
                if src not in loc_ids or dst not in loc_ids:
                    raise ModelIOError(E_NAME, "unknown location in edge %s->%s" % (src, dst))
                cg = _ClockGuard(clock, constants).parse_expr() if clock else ()
                if urgent and cg:
                    raise ModelIOError(
                        E_URGENT_CLOCK,
                        "urgent edge %s.%s guards clocks" % (auto_name, label),
                    )
                gfn = _Guard(guard, names).parse_expr() if guard else None
                ufn = _Guard(update, names).parse_update() if update else None
            built_edges.append(Edge(
                loc_ids[src], loc_ids[dst], label,
                guard=(lambda w, b, f=gfn: f(w)) if gfn else None,
                clock_guard=cg,
                urgent=urgent,
                update=(lambda w, b, f=ufn: f(w)) if ufn else None,
            ))
        honest.setdefault(p, []).append(
            AutomatonTemplate(auto_name, locs, built_edges, initial=initial))

    adv_configs = {}
    for (party, key, actions, header_ln) in doc.adversaries:
        with _at(header_ln):
            p = _lookup(party_ids, party, "party", E_NAME)
            if p in adv_configs:
                raise ModelIOError(E_TWO_ADVERSARIES,
                                   "duplicate adversary section for %s" % party)
            adv_key = _lookup(keys, key, "key", E_RANGE)
        msg = []
        for (name, guard, update, ln) in actions:
            with _at(ln):
                gfn = _Guard(guard, names).parse_expr()
                ufn = _Guard(update, names).parse_update()
            msg.append(MessageAction(name, gfn, ufn))
        adv_configs[p] = AdversaryConfig(
            controlled_party=p,
            adv_key=adv_key,
            message_actions=tuple(msg),
        )

    timers = []
    for (n, e, ln) in doc.timers:
        with _at(ln):
            threshold = _Expr(e, constants).parse_const()
            if threshold < 1:
                raise ModelIOError(E_RANGE, "timer %s: threshold %s is %d, must be at least 1"
                                   % (n, e, threshold))
        timers.append((n, threshold))

    total = sum(
        o.value for t in txs if t.status == W.CONFIRMED for o in t.outputs
    )
    return ContractModel(
        name=doc.name,
        constants=wc,
        key_names=keys,
        secret_names=secrets,
        party_names=party_names,
        tx_names=tx_ids,
        protocol_txs=tuple(txs),
        nss_table=nss_table,
        sig_capacity=doc.capacity,
        timers=tuple(timers),
        initial_parties=parties,
        honest_automata={p: tuple(a) for p, a in honest.items()},
        adversary_configs=adv_configs,
        queries=dict(doc.queries),
        total_value=total,
        signed_txs=tuple(_lookup(tx_ids, s, "transaction", E_DANGLING_TX)
                         for s in doc.signed),
        mark_count=len(doc.marks),
    )


def _lookup(table, name, what, code):
    if name not in table:
        raise ModelIOError(code, "unknown %s %r (known: %s)"
                           % (what, name, ", ".join(sorted(table))))
    return table[name]


def load_model(path, overrides=None, variant=None):
    """Parse and build a contract model from a .model file.

    `overrides` maps MAX_LATENCY / PROT_TIMELOCK to values.  `variant`
    maps options to values: option `x` sets the constant `X` the file
    declares, and an option without its constant raises ModelError.
    The model records the options that differ from the declared values,
    as given, in `variant`, and the file's absolute path and text in
    `source`.  The file is read on every call; the build is shared by
    the calls with the same text and constants.
    """
    with open(path) as fh:
        text = fh.read()
    name = re.sub(r"\.model$", "", os.path.basename(path))
    declared = dict(_parsed(text, name).constants)
    takes = sorted(c.lower() for c in declared if c not in ("MAX_LATENCY", "PROT_TIMELOCK"))
    variant = dict(variant or {})
    unknown = sorted(set(variant) - set(takes))
    if unknown:
        raise ModelError("contract %s takes no option %s (it takes: %s)" % (
            name, ", ".join(unknown), ", ".join(takes) or "none"))
    values = dict(declared)
    values.update((option.upper(), int(value)) for option, value in variant.items())
    values.update(overrides or {})
    return _built(text, name, tuple(sorted(values.items())))._replace(
        variant=tuple(sorted((option, value) for option, value in variant.items()
                             if values[option.upper()] != declared[option.upper()])),
        source=(os.path.abspath(path), text))


@functools.lru_cache(maxsize=32)
def _parsed(text, name):
    return parse_model_text(text, name=name)


@functools.lru_cache(maxsize=32)
def _built(text, name, values):
    return build_model(_parsed(text, name), dict(values))


def _world_constants(values):
    """WorldConstants from MAX_LATENCY / PROT_TIMELOCK; absent names keep the defaults."""
    base = WorldConstants()
    return WorldConstants(
        values.get("MAX_LATENCY", base.max_latency),
        values.get("PROT_TIMELOCK", base.prot_timelock),
    ).validate()


def contract_model(contract, overrides=None, variant=None):
    """The ContractModel of a built-in contract name or a `.model` path.

    A built-in name stands for the shipped `models/<name>.model`, whose
    model records no `source`.  See `load_model` for the rest.
    """
    if contract not in BUILTIN_CONTRACTS:
        return load_model(contract, overrides, variant)
    path = os.path.join(MODELS_DIR, contract + ".model")
    return load_model(path, overrides, variant)._replace(source=None)


# -- reports and trace documents --------------------------------------------


def trace_to_document(trace, net, model, adversary, query_text):
    """JSON-ready rendering of a kernel trace and of the scenario of `net`
    (from `instantiate`); `query_text` is the violated property or None."""
    steps = []
    for step in trace.steps:
        steps.append({
            "kind": step.kind,
            "label": step.label,
            "clocks": {_clock_name(k): v for k, v in step.valuation.items()},
            "descriptor": step.descriptor,
            **_snapshot(step, net, model),
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "contract": model.name,
        "model_file": {"path": model.source[0], "sha256": _sha256(model.source[1])}
        if model.source else None,
        "variant": dict(model.variant),
        "adversary": adversary,
        "prune_idle_sweeps": net.meta["prune_idle_sweeps"],
        "constants": {
            "MAX_LATENCY": model.constants.max_latency,
            "PROT_TIMELOCK": model.constants.prot_timelock,
        },
        "query": query_text,
        "steps": steps,
    }


def _sha256(text):
    # hashlib loads OpenSSL (3.5 MB resident on CPython 3.11, Linux x86-64),
    # so only the runs that write or replay a trace document pay for it
    import hashlib
    return hashlib.sha256(text.encode()).hexdigest()


def _clock_name(key):
    """A kernel clock key as a document names it: `time`, or `tx<N>` for
    the clock of pending transaction N."""
    return key if key == TIME else "tx%d" % key[1]


def _clock_key(name):
    if name == TIME or not re.fullmatch(r"tx\d+", name):
        return name  # `time`, or a name no state's clocks match
    return ("tx", int(name[2:]))


def _snapshot(state, net, model):
    """What a trace document stores of one state: every transaction's
    status, every party's holdings (not the adversary slot, which is
    always last) and every automaton's location, by name."""
    data = state.data
    return {
        "statuses": {name: W.STATUS_NAMES[data.txs[i].status]
                     for name, i in sorted(model.tx_names.items())},
        "holdings": {name: W.hold_bitcoins(data, pi)
                     for pi, name in enumerate(model.party_names[:-1])},
        "locations": {a.name: a.location_name(li)
                      for a, li in zip(net.automata, state.locs)},
    }


def _tuples(data):
    """JSON arrays back as the nested tuples of a kernel descriptor."""
    return tuple(map(_tuples, data)) if isinstance(data, list) else data


def replay_document(doc):
    """Re-execute a trace document against the scenario it records.

    The scenario is rebuilt from the document alone; absent `model_file`,
    `variant` or `prune_idle_sweeps` keys mean the defaults.  The steps
    run through `kernel.replay`, which checks their clock values, and
    must match their stored statuses, holdings and locations.  Returns
    the final symbolic state.  Raises TraceReplayError for a malformed
    document, an edited `.model` file, a divergence, or a final `time`
    outside the query's violation region.
    """
    try:
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise TraceReplayError(0, "unsupported schema version")
        source = doc.get("model_file")
        model = contract_model(source["path"] if source else doc["contract"],
                               doc["constants"], doc.get("variant"))
        if source and _sha256(model.source[1]) != source["sha256"]:
            raise TraceReplayError(
                0, "%s changed since the trace was written" % source["path"])
        net, ctx = instantiate(model, adversary=doc["adversary"],
                               prune_idle_sweeps=doc.get("prune_idle_sweeps", True))
        query = doc.get("query")
        ast = Q.parse_query(query, ctx) if query is not None else None
        entries = doc["steps"]
        steps = [(_tuples(e["descriptor"]), e["label"],
                  {_clock_key(k): Fraction(v) for k, v in e["clocks"].items()})
                 for e in entries]
        snapshots = [{f: dict(e[f]) for f in ("statuses", "holdings", "locations")}
                     for e in entries]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise TraceReplayError(0, "malformed trace document (%s: %s)"
                               % (type(exc).__name__, exc)) from exc

    def compare(i, nxt):
        for field, got in _snapshot(nxt, net, model).items():
            stored = snapshots[i][field]
            if got != stored:
                diff = {k: (stored.get(k), got.get(k))
                        for k in sorted(set(got) | set(stored))
                        if got.get(k) != stored.get(k)}
                raise TraceReplayError(
                    i, "%s diverge (stored, recomputed): %s" % (field, diff))

    final, val = replay(net, initial_state(net), steps, compare)
    if ast is not None and not Q.in_region(Q.violation_region(ast, final),
                                           val[TIME]):
        raise TraceReplayError(max(len(steps) - 1, 0),
                               "the final state satisfies the query %r" % query)
    return final


def result_to_report(result, model, adversary, query_name, query_text, net,
                     engine="zone"):
    report = {
        "schema_version": SCHEMA_VERSION,
        "contract": model.name,
        "adversary": adversary,
        "engine": engine,
        "query": {"name": query_name, "text": query_text},
        "verdict": result.verdict,
        "states": result.states,
        "transitions": result.transitions,
        "wall_time_s": round(result.wall_time, 3),
    }
    if result.limit_reason:
        report["limit_reason"] = result.limit_reason
    if result.trace is not None:
        report["trace"] = trace_to_document(
            result.trace, net, model, adversary, query_text)
    return report


def render_report_text(report, color=False):
    def paint(s, code):
        return "\033[%sm%s\033[0m" % (code, s) if color else s

    verdict = report["verdict"]
    tone = {"SATISFIED": "32", "VIOLATED": "31", "LIMIT": "33"}.get(verdict, "0")
    lines = [
        "%s  %s  [%s, adversary=%s, engine=%s]" % (
            paint(verdict, tone), report["query"]["name"],
            report["contract"], report["adversary"] or "none",
            report["engine"],
        ),
        "  query: %s" % report["query"]["text"],
        "  states=%d transitions=%d wall=%.3fs" % (
            report["states"], report["transitions"], report["wall_time_s"]),
    ]
    if report.get("limit_reason"):
        lines.append("  limit: %s" % report["limit_reason"])
    trace = report.get("trace")
    if trace:
        lines.append("  counterexample (%d steps):" % len(trace["steps"]))
        for step in trace["steps"]:
            if step["kind"] == "delay":
                lines.append("    delay to t=%s" % step["clocks"]["time"])
            else:
                lines.append("    t=%-6s %s" % (step["clocks"]["time"], step["label"]))
        last = trace["steps"][-1] if trace["steps"] else None
        if last:
            lines.append("  final holdings: %s" % json.dumps(
                last["holdings"], sort_keys=True))
    return "\n".join(lines)
