"""On-disk contract descriptions and machine-readable reports.

A `.model` file is a sectioned plain-text document declaring constants,
keys, secrets, parties, transactions, non-standard script clauses,
timers, progress marks, party automata, adversary actions and named
queries.  Guards and updates on edges use a small expression language
mirroring the block-chain helper operations by name (status checks,
try_to_send, broadcast_signature, ...); expressions are interpreted
against the loaded model, never compiled.  The grammar is documented in
docs/model_grammar.ebnf; the shipped cs.model and newscs.model are the
golden examples and are kept verdict-equivalent to the built-ins by
tests.

Reports and diagnostic traces serialize to JSON with a versioned
schema; a trace document embeds the scenario, so it can be replayed and
checked on its own.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

from . import world as W
from .adversary import AdversaryConfig, MessageAction
from .contracts import BUILTIN_MODELS, ContractModel, instantiate
from .kernel import (
    AutomatonTemplate,
    Edge,
    Location,
    ReplayError as TraceReplayError,
    initial_state,
    replay_steps,
)
from .world import NssClause, Output, PartyKnowledge, TxRecord, URG_CHAN, WorldConstants

SCHEMA_VERSION = 1

STATUS_BY_NAME = {name: i for i, name in enumerate(W.STATUS_NAMES)}


class ModelIOError(Exception):
    """Loader failure with a stable error code."""

    def __init__(self, code, message, line=None):
        prefix = "%s: " % code
        if line is not None:
            prefix += "line %d: " % line
        super().__init__(prefix + message)
        self.code = code
        self.line = line


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
    """Canonical parsed form of a .model file (pure data, order-stable)."""

    name: str
    constants: tuple      # ((name, value), ...)
    keys: tuple
    secrets: tuple
    parties: tuple        # ((name, keys, secrets), ...)
    capacity: int
    txs: tuple            # ((name, inputs, outputs, timelock_expr, reveals, confirmed), ...)
    nss: tuple            # ((name, clauses), ...) clause = (keys, secrets)
    timers: tuple         # ((name, expr), ...)
    marks: tuple
    signed: tuple
    automata: tuple       # ((auto name, party, locations, edges), ...)
    adversaries: tuple    # ((party, key, actions), ...) action = (name, guard, update)
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

    handlers = {
        "constants": lambda arg, body: constants.extend(_parse_assignments(body)),
        "keys": lambda arg, body: keys.extend(_parse_names(body)),
        "secrets": lambda arg, body: secrets.extend(_parse_names(body)),
        "parties": lambda arg, body: _parse_parties(body, parties, capacity),
        "transactions": lambda arg, body: txs.extend(_parse_txs(body)),
        "nss": lambda arg, body: nss.extend(_parse_nss(body)),
        "timers": lambda arg, body: timers.extend(_parse_assign_exprs(body)),
        "marks": lambda arg, body: marks.extend(_parse_names(body)),
        "signed": lambda arg, body: signed.extend(_parse_names(body)),
        "automaton": lambda arg, body: automata.append(_parse_automaton(arg, body)),
        "adversary": lambda arg, body: adversaries.append(_parse_adversary(arg, body)),
        "queries": lambda arg, body: queries.extend(_parse_queries(body)),
    }
    for sec, arg, ln, body in sections:
        handler = handlers.get(sec)
        if handler is None:
            raise ModelIOError(E_SECTION, "unknown section [%s]" % sec, ln)
        handler(arg, body)

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
        try:
            out.append((k.strip(), int(v.strip())))
        except ValueError:
            raise ModelIOError(E_PARSE, "expected an integer value", ln)
    return out


def _parse_assign_exprs(body):
    out = []
    for ln, line in body:
        if "=" not in line:
            raise ModelIOError(E_PARSE, "expected NAME = EXPRESSION", ln)
        k, v = line.split("=", 1)
        out.append((k.strip(), v.strip()))
    return out


def _parse_parties(body, parties, capacity):
    for ln, line in body:
        if line.startswith("capacity"):
            _k, v = line.split("=", 1)
            capacity[0] = int(v.strip())
            continue
        name, _sep, rest = line.partition(":")
        fields = _parse_fields(rest, ln)
        parties.append((
            name.strip(),
            tuple(fields.pop("keys", "").split()),
            tuple(fields.pop("secrets", "").split()),
        ))
        _no_extra(fields, ln)


def _parse_fields(rest, ln):
    fields = {}
    for part in filter(None, (p.strip() for p in rest.split(";"))):
        if "=" in part:
            k, v = part.split("=", 1)
            fields[k.strip()] = v.strip()
        else:
            fields[part] = True
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
        fields = _parse_fields(rest, ln)
        inputs = tuple(
            (ref.split(":")[0], int(ref.split(":")[1]))
            for ref in fields.pop("inputs", "").split()
        )
        outputs = []
        for ref in fields.pop("outputs", "").split():
            m = re.match(r"(key|nss)\((\w+)\):(\d+)$", ref)
            if not m:
                raise ModelIOError(
                    E_PARSE, "output must be key(NAME):VALUE or nss(NAME):VALUE", ln)
            outputs.append((m.group(1), m.group(2), int(m.group(3))))
        out.append((
            name.strip(),
            inputs,
            tuple(outputs),
            fields.pop("timelock", "0"),
            tuple(fields.pop("reveals", "").split()),
            bool(fields.pop("confirmed", False)),
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
        out.append((name.strip(), tuple(clauses)))
    return out


_EDGE_RE = re.compile(
    r"^edge\s+(\w+)\s*->\s*(\w+)"
    r"(?P<urgent>\s+urgent)?"
    r"(?:\s+clock\s+\"(?P<clock>[^\"]*)\")?"
    r"(?:\s+guard\s+\"(?P<guard>[^\"]*)\")?"
    r"(?:\s+update\s+\"(?P<update>[^\"]*)\")?"
    r"(?:\s+label\s+(?P<label>\w+))?$"
)


def _parse_automaton(arg, body):
    m = re.match(r"^(\w+)\s+party\s*=\s*(\w+)$", arg.strip())
    if not m:
        raise ModelIOError(E_PARSE, "expected [automaton NAME party=PARTY]")
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
            flags = set(parts[2:])
            locations.append((
                parts[1],
                "initial" in flags,
                "named" in flags,
                inv,
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
            ))
        else:
            raise ModelIOError(E_PARSE, "expected a location or edge line", ln)
    return (auto_name, party, tuple(locations), tuple(edges))


def _parse_adversary(arg, body):
    party = arg.strip()
    key = None
    actions = []
    for ln, line in body:
        if line.startswith("key"):
            key = line.split("=", 1)[1].strip()
        elif line.startswith("message"):
            m = re.match(
                r"^message\s+(\w+)"
                r"(?:\s+guard\s+\"([^\"]*)\")?"
                r"\s+update\s+\"([^\"]*)\"$",
                line,
            )
            if not m:
                raise ModelIOError(E_PARSE, "malformed message line", ln)
            actions.append((m.group(1), m.group(2) or "true", m.group(3)))
        else:
            raise ModelIOError(E_PARSE, "expected key or message line", ln)
    if key is None:
        raise ModelIOError(E_PARSE, "adversary section needs a key")
    return (party, key, tuple(actions))


def _parse_queries(body):
    out = []
    for ln, line in body:
        name, sep, rest = line.partition(":")
        if not sep:
            raise ModelIOError(E_PARSE, "expected NAME: A[] ...", ln)
        out.append((name.strip(), rest.strip()))
    return out


# -- serialization -------------------------------------------------------


def serialize_model(doc):
    """Canonical text for a document; parse(serialize(doc)) == doc."""
    out = []

    def sec(header, lines):
        out.append("[%s]" % header)
        out.extend(lines)
        out.append("")

    sec("constants", ["%s = %d" % kv for kv in doc.constants])
    sec("keys", list(doc.keys))
    sec("secrets", list(doc.secrets))
    plines = []
    for (name, keys, secrets) in doc.parties:
        fields = []
        if keys:
            fields.append("keys = %s" % " ".join(keys))
        if secrets:
            fields.append("secrets = %s" % " ".join(secrets))
        plines.append("%s: %s" % (name, "; ".join(fields)))
    plines.append("capacity = %d" % doc.capacity)
    sec("parties", plines)
    tlines = []
    for (name, inputs, outputs, timelock, reveals, confirmed) in doc.txs:
        fields = []
        if inputs:
            fields.append("inputs = %s" % " ".join("%s:%d" % i for i in inputs))
        fields.append("outputs = %s" % " ".join(
            "%s(%s):%d" % o for o in outputs))
        if timelock != "0":
            fields.append("timelock = %s" % timelock)
        if reveals:
            fields.append("reveals = %s" % " ".join(reveals))
        if confirmed:
            fields.append("confirmed")
        tlines.append("%s: %s" % (name, "; ".join(fields)))
    sec("transactions", tlines)
    nlines = []
    for (name, clauses) in doc.nss:
        rendered = []
        for (keys, secrets) in clauses:
            items = list(keys) + ["reveal %s" % s for s in secrets]
            rendered.append("{%s}" % ", ".join(items))
        nlines.append("%s: %s" % (name, " | ".join(rendered)))
    sec("nss", nlines)
    if doc.timers:
        sec("timers", ["%s = %s" % kv for kv in doc.timers])
    if doc.marks:
        sec("marks", list(doc.marks))
    if doc.signed:
        sec("signed", list(doc.signed))
    for (auto, party, locations, edges) in doc.automata:
        lines = []
        for (lname, initial, named, inv) in locations:
            bits = ["location", lname]
            if initial:
                bits.append("initial")
            if named:
                bits.append("named")
            if inv is not None:
                bits.append('invariant="time <= %s"' % inv)
            lines.append(" ".join(bits))
        for (src, dst, urgent, clock, guard, update, label) in edges:
            bits = ["edge", src, "->", dst]
            if urgent:
                bits.append("urgent")
            if clock:
                bits.append('clock "%s"' % clock)
            if guard:
                bits.append('guard "%s"' % guard)
            if update:
                bits.append('update "%s"' % update)
            bits.append("label %s" % label)
            lines.append(" ".join(bits))
        sec("automaton %s party=%s" % (auto, party), lines)
    for (party, key, actions) in doc.adversaries:
        lines = ["key = %s" % key]
        for (name, guard, update) in actions:
            if guard and guard != "true":
                lines.append('message %s guard "%s" update "%s"' % (name, guard, update))
            else:
                lines.append('message %s update "%s"' % (name, update))
        sec("adversary %s" % party, lines)
    sec("queries", ["%s: %s" % kv for kv in doc.queries])
    return "\n".join(out)


# -- expression language ---------------------------------------------------


_TOK = re.compile(r"\s*(\w+|==|!=|<=|>=|[(),;<>!]|\S)")


def _tokens(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOK.match(text, pos)
        if not m:
            break
        out.append(m.group(1))
        pos = m.end()
    out.append(None)
    return out


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


class _ExprParser:
    """Recursive-descent interpreter for guard and update expressions.

    Produces closures over the resolved model tables; evaluation happens
    per call against the current world.
    """

    def __init__(self, text, names):
        self.text = text
        self.names = names
        self.toks = _tokens(text)
        self.i = 0

    def error(self, msg):
        raise ModelIOError(E_EXPR, "%s in %r" % (msg, self.text))

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, tok):
        t = self.next()
        if t != tok:
            self.error("expected %r, found %r" % (tok, t))

    def done(self):
        if self.peek() is not None:
            self.error("trailing input")

    # guards

    def guard(self):
        fn = self._or()
        self.done()
        return fn

    def _or(self):
        fn = self._and()
        while self.peek() == "or":
            self.next()
            rhs = self._and()
            fn = (lambda a, b: lambda w: a(w) or b(w))(fn, rhs)
        return fn

    def _and(self):
        fn = self._not()
        while self.peek() == "and":
            self.next()
            rhs = self._not()
            fn = (lambda a, b: lambda w: a(w) and b(w))(fn, rhs)
        return fn

    def _not(self):
        if self.peek() in ("not", "!"):
            self.next()
            fn = self._not()
            return lambda w, f=fn: not f(w)
        return self._atom()

    def _atom(self):
        tok = self.next()
        if tok == "(":
            fn = self._or()
            self.expect(")")
            return fn
        if tok == "true":
            return lambda w: True
        if tok == "false":
            return lambda w: False
        if tok == "status":
            tx = self._ref1(self.names.txs, "transaction")
            op = self.next()
            st = self.next()
            if st not in STATUS_BY_NAME:
                self.error("unknown status %r" % st)
            sv = STATUS_BY_NAME[st]
            if op == "==":
                return lambda w, t=tx, s=sv: w.txs[t].status == s
            if op == "!=":
                return lambda w, t=tx, s=sv: w.txs[t].status != s
            self.error("status comparison must use == or !=")
        if tok == "on_chain":
            tx = self._ref1(self.names.txs, "transaction")
            return lambda w, t=tx: W.ever_confirmed(w, t)
        if tok == "timelock_passed":
            tx = self._ref1(self.names.txs, "transaction")
            return lambda w, t=tx: w.txs[t].timelock_passed
        if tok == "timer":
            ti = self._ref1(self.names.timers, "timer")
            return lambda w, i=ti: w.timers[i]
        if tok == "mark":
            mi = self._ref1(self.names.marks, "mark")
            return lambda w, i=mi: w.marks[i]
        if tok == "know_secret":
            p, s = self._ref2(self.names.parties, self.names.secrets,
                              "party", "secret")
            return lambda w, pi=p, si=s: w.parties[pi].know_secret[si]
        if tok == "know_signature":
            self.expect("(")
            p = self._name(self.names.parties, "party")
            self.expect(",")
            tx = self._name(self.names.txs, "transaction")
            self.expect(",")
            k = self._name(self.names.keys, "key")
            self.expect(")")
            return lambda w, pi=p, t=tx, ki=k: W.know_signature(
                w, pi, w.txs[t], 0, ki)
        if tok == "can_create_input_script":
            p, tx = self._ref2(self.names.parties, self.names.txs,
                               "party", "transaction")
            return lambda w, pi=p, t=tx, nss=self.names.nss_table: (
                W.can_create_input_script(w, pi, w.txs[t], nss))
        if tok == "can_send":
            p, tx = self._ref2(self.names.parties, self.names.txs,
                               "party", "transaction")
            return lambda w, pi=p, t=tx, nss=self.names.nss_table: (
                W.can_send(w, pi, t, nss))
        self.error("unknown guard atom %r" % tok)

    def _ref1(self, table, what):
        self.expect("(")
        v = self._name(table, what)
        self.expect(")")
        return v

    def _ref2(self, t1, t2, w1, w2):
        self.expect("(")
        a = self._name(t1, w1)
        self.expect(",")
        b = self._name(t2, w2)
        self.expect(")")
        return a, b

    def _name(self, table, what):
        tok = self.next()
        if tok not in table:
            raise ModelIOError(
                E_NAME, "unknown %s %r in %r (known: %s)"
                % (what, tok, self.text, ", ".join(sorted(table))))
        return table[tok]

    # updates: statement (';' statement)*

    def update(self):
        stmts = [self._statement()]
        while self.peek() == ";":
            self.next()
            stmts.append(self._statement())
        self.done()

        def run(w, fns=tuple(stmts)):
            for f in fns:
                w = f(w)
            return w

        return run

    def _statement(self):
        tok = self.next()
        if tok == "if":
            self.expect("(")
            cond = self._or()
            self.expect(")")
            body = self._statement()
            return lambda w, c=cond, b=body: b(w) if c(w) else w
        if tok == "try_to_send":
            p, tx = self._ref2(self.names.parties, self.names.txs,
                               "party", "transaction")
            return lambda w, pi=p, t=tx, nss=self.names.nss_table: (
                W.try_to_send(w, pi, t, nss))
        if tok == "broadcast_signature":
            self.expect("(")
            k = self._name(self.names.keys, "key")
            self.expect(",")
            tx = self._name(self.names.txs, "transaction")
            pinned = None
            if self.peek() == ",":
                self.next()
                pinned = int(self.next())
            self.expect(")")
            cap = self.names.capacity

            def send_sig(w, ki=k, t=tx, pn=pinned, cap=cap):
                if pn is None:
                    sig = W.make_signature(w, ki, t)
                else:
                    sig = W.SignatureRec(ki, t, pn)
                return W.broadcast_signature(w, sig, cap)

            return send_sig
        if tok == "set_mark":
            mi = self._ref1(self.names.marks, "mark")
            return lambda w, i=mi: w.set_mark(i)
        self.error("unknown update statement %r" % tok)


def _const_expr(text, constants):
    """Evaluate an integer expression over named constants."""
    toks = _tokens(text)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def nxt():
        t = toks[pos[0]]
        pos[0] += 1
        return t

    def add():
        v = mul()
        while peek() in ("+", "-"):
            if nxt() == "+":
                v += mul()
            else:
                v -= mul()
        return v

    def mul():
        v = unary()
        while peek() == "*":
            nxt()
            v *= unary()
        return v

    def unary():
        t = nxt()
        if t == "-":
            return -unary()
        if t == "(":
            v = add()
            if nxt() != ")":
                raise ModelIOError(E_EXPR, "unbalanced parens in %r" % text)
            return v
        if t is not None and t.isdigit():
            return int(t)
        if t in constants:
            return constants[t]
        raise ModelIOError(E_NAME, "unknown constant %r in %r" % (t, text))

    v = add()
    if peek() is not None:
        raise ModelIOError(E_EXPR, "trailing input in %r" % text)
    return v


_CLOCK_RE = re.compile(r"^time\s*(==|<=|>=|<|>)\s*(.+)$")


def _clock_atoms(text, constants):
    atoms = []
    for part in text.split("and"):
        m = _CLOCK_RE.match(part.strip())
        if not m:
            raise ModelIOError(E_EXPR, "clock guard must compare time: %r" % text)
        op = m.group(1)
        if op in ("<", ">"):
            raise ModelIOError(
                E_STRICT,
                "strict clock comparison %r: models must stay closed" % part.strip(),
            )
        atoms.append(("time", op, _const_expr(m.group(2), constants)))
    return tuple(atoms)


# -- document -> ContractModel ---------------------------------------------


def build_model(doc, overrides=None):
    constants = dict(doc.constants)
    if overrides:
        constants.update(overrides)
    wc = WorldConstants(
        constants.get("MAX_LATENCY", 10), constants.get("PROT_TIMELOCK", 100)
    ).validate()

    keys = {k: i for i, k in enumerate(doc.keys)}
    secrets = {s: i for i, s in enumerate(doc.secrets)}
    tx_ids = {t[0]: i for i, t in enumerate(doc.txs)}
    nss_ids = {n[0]: i for i, n in enumerate(doc.nss)}
    timer_ids = {t[0]: i for i, t in enumerate(doc.timers)}
    mark_ids = {m: i for i, m in enumerate(doc.marks)}
    party_names = tuple(p[0] for p in doc.parties) + ("ADVERSARY",)
    party_ids = {n: i for i, n in enumerate(party_names)}

    nss_table = tuple(
        tuple(
            NssClause(
                tuple(_lookup(keys, k, "key", E_RANGE) for k in ckeys),
                tuple(_lookup(secrets, s, "secret", E_RANGE) for s in csecs),
            )
            for (ckeys, csecs) in clauses
        )
        for (_n, clauses) in doc.nss
    )

    txs = []
    for (name, inputs, outputs, timelock, reveals, confirmed) in doc.txs:
        in_refs = []
        for (ref, oi) in inputs:
            if ref not in tx_ids:
                raise ModelIOError(E_DANGLING_TX, "input %r of %s" % (ref, name))
            in_refs.append((tx_ids[ref], oi))
        outs = []
        for (kind, ref, value) in outputs:
            table = keys if kind == "key" else nss_ids
            outs.append(Output(kind, _lookup(table, ref, kind, E_RANGE), value))
        tl = _const_expr(timelock, constants)
        txs.append(TxRecord(
            tx_ids[name],
            tuple(in_refs),
            tuple(outs),
            status=W.CONFIRMED if confirmed else W.UNSENT,
            timelock=tl,
            timelock_passed=(tl == 0),
            reveals=tuple(_lookup(secrets, s, "secret", E_RANGE) for s in reveals),
        ))
    for tx in txs:
        for (src, oi) in tx.inputs:
            if oi >= len(txs[src].outputs):
                raise ModelIOError(
                    E_DANGLING_TX,
                    "transaction %d spends missing output %d:%d" % (tx.num, src, oi),
                )

    parties = tuple(
        PartyKnowledge(
            tuple(k in pkeys for k in doc.keys),
            tuple(s in psecs for s in doc.secrets),
        )
        for (_n, pkeys, psecs) in doc.parties
    ) + (PartyKnowledge((False,) * len(doc.keys), (False,) * len(doc.secrets)),)

    names = _Names(constants, keys, secrets, party_ids, tx_ids,
                   timer_ids, mark_ids, nss_table, doc.capacity)

    honest = {}
    for (auto_name, party, locations, edges) in doc.automata:
        p = _lookup(party_ids, party, "party", E_NAME)
        loc_ids = {l[0]: i for i, l in enumerate(locations)}
        locs = []
        initial = 0
        for i, (lname, is_init, named, inv) in enumerate(locations):
            if is_init:
                initial = i
            inv_fn = None
            if inv is not None:
                bound = _const_expr(inv, constants)
                inv_fn = (lambda b: lambda _w: (("time", "<=", b),))(bound)
            locs.append(Location(lname, inv_fn, named=named))
        built_edges = []
        for (src, dst, urgent, clock, guard, update, label) in edges:
            if src not in loc_ids or dst not in loc_ids:
                raise ModelIOError(E_NAME, "unknown location in edge %s->%s" % (src, dst))
            cg = _clock_atoms(clock, constants) if clock else ()
            if urgent and cg:
                raise ModelIOError(
                    E_URGENT_CLOCK,
                    "edge %s.%s synchronizes on the urgent channel but guards clocks"
                    % (auto_name, label),
                )
            gfn = _ExprParser(guard, names).guard() if guard else None
            ufn = _ExprParser(update, names).update() if update else None
            built_edges.append(Edge(
                loc_ids[src], loc_ids[dst], label,
                guard=(lambda w, b, f=gfn: f(w)) if gfn else None,
                clock_guard=cg,
                sync=("?", URG_CHAN) if urgent else None,
                update=(lambda w, b, f=ufn: f(w)) if ufn else None,
            ))
        honest.setdefault(p, []).append(
            AutomatonTemplate(auto_name, locs, built_edges, initial=initial))

    adv_configs = {}
    for (party, key, actions) in doc.adversaries:
        p = _lookup(party_ids, party, "party", E_NAME)
        if p in adv_configs:
            raise ModelIOError(E_TWO_ADVERSARIES,
                               "duplicate adversary section for %s" % party)
        msg = []
        for (name, guard, update) in actions:
            gfn = _ExprParser(guard, names).guard()
            ufn = _ExprParser(update, names).update()
            msg.append(MessageAction(name, gfn, ufn))
        adv_configs[p] = AdversaryConfig(
            controlled_party=p,
            adv_key=_lookup(keys, key, "key", E_RANGE),
            message_actions=tuple(msg),
        )

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
        timers=tuple(
            (n, _const_expr(e, constants)) for (n, e) in doc.timers
        ),
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


def load_model(path, overrides=None):
    """Parse and build a contract model from a .model file."""
    with open(path) as fh:
        text = fh.read()
    name = re.sub(r"\.model$", "", path.rsplit("/", 1)[-1])
    doc = parse_model_text(text, name=name)
    return build_model(doc, overrides=overrides)


# -- reports and trace documents --------------------------------------------


def trace_to_document(trace, net, model, adversary, query_text):
    """Replayable JSON-ready rendering of a kernel trace."""
    steps = []
    for step in trace.steps:
        entry = {
            "kind": step.kind,
            "label": step.label,
            "time": step.valuation.get("time"),
            "descriptor": _descriptor_to_json(step.descriptor),
            "statuses": _statuses(step.data, model),
            "holdings": _holdings(step.data, model),
            "locations": {
                net.automata[ai].name: net.automata[ai].location_name(li)
                for ai, li in enumerate(step.locs)
            },
        }
        steps.append(entry)
    return {
        "schema_version": SCHEMA_VERSION,
        "contract": model.name,
        "adversary": adversary,
        "constants": {
            "MAX_LATENCY": model.constants.max_latency,
            "PROT_TIMELOCK": model.constants.prot_timelock,
        },
        "query": query_text,
        "steps": steps,
    }


def _statuses(data, model):
    return {
        name: W.STATUS_NAMES[data.txs[i].status]
        for name, i in sorted(model.tx_names.items())
    }


def _holdings(data, model):
    # every party but the adversary slot, which is always last
    return {
        name: W.hold_bitcoins(data, pi)
        for pi, name in enumerate(model.party_names[:-1])
    }


def _descriptor_to_json(desc):
    if desc == ("delay",):
        return ["delay"]
    _tag, auto, edge, binds, partner, chan = desc
    return ["fire", auto, edge, list(map(list, binds)),
            list(partner[:2]) + [list(map(list, partner[2]))] if partner else None,
            chan]


def _descriptor_from_json(data):
    if data == ["delay"]:
        return ("delay",)
    _tag, auto, edge, binds, partner, chan = data
    binds = tuple((k, v) for k, v in binds)
    if partner is not None:
        partner = (partner[0], partner[1],
                   tuple((k, v) for k, v in partner[2]))
    return ("fire", auto, edge, binds, partner, chan)


def replay_document(doc, buggy_bob=False):
    """Re-execute a trace document against its embedded scenario.

    Returns the final symbolic state; raises TraceReplayError with the
    diverging step index when recomputed statuses or holdings disagree
    with the stored snapshots.
    """
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise TraceReplayError(0, "unsupported schema version")
    builder = BUILTIN_MODELS.get(doc["contract"])
    if builder is None:
        raise TraceReplayError(0, "unknown contract %r" % doc["contract"])
    kwargs = {"constants": WorldConstants(
        doc["constants"]["MAX_LATENCY"], doc["constants"]["PROT_TIMELOCK"])}
    if doc["contract"] == "newscs" and buggy_bob:
        kwargs["buggy_bob"] = True
    model = builder(**kwargs)
    net, _ctx = instantiate(model, adversary=doc["adversary"])
    entries = doc["steps"]

    def compare(i, nxt):
        for field, got in (("statuses", _statuses(nxt.data, model)),
                           ("holdings", _holdings(nxt.data, model))):
            stored = entries[i][field]
            if got != stored:
                diff = {k: (stored.get(k), got.get(k))
                        for k in sorted(set(got) | set(stored))
                        if got.get(k) != stored.get(k)}
                raise TraceReplayError(
                    i, "%s diverge (stored, recomputed): %s" % (field, diff))

    steps = [(_descriptor_from_json(e["descriptor"]), e["label"])
             for e in entries]
    return replay_steps(net, initial_state(net), steps, compare)


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
                lines.append("    delay to t=%s" % step["time"])
            else:
                lines.append("    t=%-6s %s" % (step["time"], step["label"]))
        last = trace["steps"][-1] if trace["steps"] else None
        if last:
            lines.append("  final holdings: %s" % json.dumps(
                last["holdings"], sort_keys=True))
    return "\n".join(lines)
