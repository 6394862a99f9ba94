"""On-disk contract descriptions and machine-readable reports.

A `.model` file is a sectioned plain-text document declaring constants,
keys, secrets, parties, transactions, non-standard script clauses,
timers, progress marks, party automata, adversary actions and named
queries.  `build_model` reads it in one pass with no intermediate
document: it splits the text into sections, declares every name (a
name declared twice is E_NAME), then builds each entry with the one
function of its kind, which parses the entry's fields and resolves
their names together.  An error raised for an entry names its line.
Clock guards, guards and updates on edges are parsed by the
query language's `ExprParser` (one lexer, precedence parser and
constant evaluator), with atoms of their own: `time OP const-expr` for
clock guards, and for guards and updates the block-chain helper
operations by name (status checks, try_to_send, broadcast_signature,
...).  Guards and updates become closures over the loaded model's
tables, never compiled code; they read and write the data valuation at
the offsets of the model's `world.Layout`, which every network of the
model shares.  The (key, transaction) pairs that
`broadcast_signature` statements name, in automata and adversary
messages alike, are the model's possible signatures: each gets its
bytes in the valuation, and the chain agent chooses a malleability
nonce only for the inputs of their transactions.  Likewise the
transactions whose status a `status` atom compares with CONFIRMED or
SPENT are the model's `status_observed`: the adversary's loop keeps
every sweep of their outputs (see `contracts.instantiate`).  The model
builds the `WorldTable` of each of its networks once
(`contracts.world_tables`).
The grammar is documented in docs/model_grammar.ebnf.

The built-in contracts `cs` and `newscs` are the shipped
models/cs.model and models/newscs.model; nothing else defines them.
Their variants are constants of the files (WEAKENED_ALICE, BUGGY_BOB,
ABORT_MARGIN): a variant option `x` sets the constant `X` of any model
that declares it.  `contract_model` builds every scenario's model, for
the CLI and for trace replay alike, and memoizes the build per file
text and given constants; the shared model is never mutated.

Reports and diagnostic traces serialize to JSON with a versioned
schema.  A trace document records the whole scenario that produced it
(variant options and `.model` file hash included), the query it
witnesses and every clock's value at every step, so it replays on its
own through the kernel's replay loop, and the replay re-checks the
query at the final clock values.
"""

from __future__ import annotations

import functools
import json
import os
import re
from fractions import Fraction

from . import queries as Q
from . import world as W
from .adversary import AdversaryConfig, MessageAction, derive_adversary_txset
from .contracts import ContractModel, instantiate, world_tables
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


# -- loader ----------------------------------------------------------------


_SECTION_RE = re.compile(r"^\[([a-z]+)(?:\s+(.*))?\]$")
_SECTIONS = ("constants", "keys", "secrets", "parties", "transactions", "nss",
             "timers", "marks", "automaton", "adversary", "queries")
_INVARIANT_RE = re.compile(r'invariant="time\s*<=\s*([^"]+)"')
_EDGE_RE = re.compile(
    r"^edge\s+(\w+)\s*->\s*(\w+)"
    r"(?P<urgent>\s+urgent)?"
    r"(?:\s+clock\s+\"(?P<clock>[^\"]*)\")?"
    r"(?:\s+guard\s+\"(?P<guard>[^\"]*)\")?"
    r"(?:\s+update\s+\"(?P<update>[^\"]*)\")?"
    r"(?:\s+label\s+(?P<label>\w+))?$"
)
_MESSAGE_RE = re.compile(
    r"^message\s+(\w+)(?:\s+guard\s+\"([^\"]*)\")?\s+update\s+\"([^\"]*)\"$")


def _sections(text):
    """The sections of a `.model` text as (kind, argument, header line,
    body), the body a list of (line, text) without comments and blank
    lines."""
    sections = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        m = _SECTION_RE.match(line)
        if m:
            if m.group(1) not in _SECTIONS:
                raise ModelIOError(E_SECTION, "unknown section [%s]" % m.group(1), ln)
            sections.append((m.group(1), m.group(2) or "", ln, []))
        elif line:
            if not sections:
                raise ModelIOError(E_PARSE, "content before any section", ln)
            sections[-1][3].append((ln, line))
    return sections


def _named(text, sep=":"):
    """(NAME, rest) of a `NAME: rest` or `NAME = rest` line."""
    name, found, rest = text.partition(sep)
    if not found:
        raise ModelIOError(E_PARSE, "expected NAME %s ..." % sep)
    return name.strip(), rest.strip()


def _setting(text, word):
    """VALUE of a `word = VALUE` line; None for a line that starts with
    another word."""
    head, _sep, value = text.partition("=")
    return value.strip() if head.strip() == word else None


def _int(text, what):
    try:
        return int(text)
    except ValueError:
        raise ModelIOError(E_PARSE, "expected %s" % what) from None


def _fields(text, known, flags=()):
    """(NAME, {field: value}) of a `NAME: field = value; flag; ...` line;
    a flag's value is True."""
    name, rest = _named(text)
    fields = {}
    for part in filter(None, (p.strip() for p in rest.split(";"))):
        field, sep, value = part.partition("=")
        field = field.strip()
        if not sep and part not in flags:
            raise ModelIOError(E_PARSE, "expected %s = VALUE" % part)
        if field in fields:
            raise ModelIOError(E_PARSE, "field %s given twice" % field)
        fields[field] = value.strip() if sep else True
    unknown = set(fields) - set(known) - set(flags)
    if unknown:
        raise ModelIOError(E_PARSE, "unknown fields %s" % sorted(unknown))
    return name, fields


def _automaton_header(arg):
    m = re.match(r"^(\w+)\s+party\s*=\s*(\w+)$", arg.strip())
    if not m:
        raise ModelIOError(E_PARSE, "expected [automaton NAME party=PARTY]")
    return m.groups()


def _location(text):
    """(NAME, flags, invariant bound text or None) of a location line."""
    inv = _INVARIANT_RE.search(text)
    if inv:
        text = text[:inv.start()] + text[inv.end():]
    words = text.split()
    if len(words) < 2:
        raise ModelIOError(E_PARSE, "expected location NAME [flags]")
    flags = set(words[2:])
    if flags - {"initial", "named"}:
        raise ModelIOError(E_PARSE, "unknown location flags %s"
                           % sorted(flags - {"initial", "named"}))
    return words[1], flags, inv and inv.group(1).strip()


def _declare(table, name, what, value=None):
    if name in table:
        raise ModelIOError(E_NAME, "%s %r declared twice" % (what, name))
    table[name] = len(table) if value is None else value


def _lookup(table, name, what, code):
    if name not in table:
        raise ModelIOError(code, "unknown %s %r (known: %s)"
                           % (what, name, ", ".join(sorted(table))))
    return table[name]


class _Loader:
    """A `.model` text read into a ContractModel, in two walks over its
    sections.

    The constructor declares every name: constants with their values,
    keys, secrets, marks, the name that starts each party, transaction,
    nss and timer line, automata with their location names, and queries
    with their text.  A name declared twice is E_NAME.  `model` then
    builds each entry with the one function of its kind, which parses
    the entry's fields and resolves their names, so a name may be used
    above its declaration.  The name tables are also what guards and
    updates resolve against (`_Guard`).
    """

    def __init__(self, text, name, overrides):
        self.name = name
        self.sections = _sections(text)
        self.constants, self.keys, self.secrets, self.marks = {}, {}, {}, {}
        self.parties, self.txs, self.nss, self.timers = {}, {}, {}, {}
        self.automata, self.queries = {}, {}  # automaton -> location table
        declarations = {
            "constants": self.constant,
            "keys": lambda t: [_declare(self.keys, k, "key") for k in t.split()],
            "secrets": lambda t: [_declare(self.secrets, s, "secret") for s in t.split()],
            "marks": lambda t: [_declare(self.marks, m, "mark") for m in t.split()],
            "parties": self.declare_party,
            "transactions": lambda t: _declare(self.txs, _named(t)[0], "transaction"),
            "nss": lambda t: _declare(self.nss, _named(t)[0], "nss"),
            "timers": lambda t: _declare(self.timers, _named(t, "=")[0], "timer"),
            "queries": self.query,
        }
        for kind, declare in declarations.items():
            self.walk(kind, declare)
        self.walk("automaton", section=self.declare_automaton)
        _declare(self.parties, "ADVERSARY", "party")

        unknown = sorted(set(overrides) - set(self.constants) - set(_WORLD))
        if unknown:
            takes = sorted(c.lower() for c in self.constants if c not in _WORLD)
            raise ModelError("contract %s takes no option %s (it takes: %s)" % (
                name, ", ".join(c.lower() for c in unknown), ", ".join(takes) or "none"))
        self.variant = tuple(sorted((c.lower(), v) for c, v in overrides.items()
                                    if c not in _WORLD and v != self.constants[c]))
        self.constants.update(overrides)

    def walk(self, kind, entry=None, section=None):
        """The results other than None of building every `kind` section.

        `entry(text)` builds one body line.  For a section with a header,
        `section(argument)` returns the (entry, end) pair to use instead,
        and `end()`, if given, runs after the body and gives the
        section's result.  A ModelIOError without a line gets the line
        of the entry it was raised for: the body line, or the header for
        `section` and `end`.
        """
        out = []
        for kind_, arg, header, body in self.sections:
            if kind_ != kind:
                continue
            ln = header
            try:
                each, end = section(arg) if section else (entry, None)
                for ln, text in body:
                    out.append(each(text))
                ln = header
                out.append(end() if end else None)
            except ModelIOError as exc:
                if exc.line is None:
                    exc.line = ln
                raise
        return [x for x in out if x is not None]

    def declare_party(self, text):
        if _setting(text, "capacity") is None:
            _declare(self.parties, _named(text)[0], "party")

    def declare_automaton(self, arg):
        auto, _party = _automaton_header(arg)
        locations = {}
        _declare(self.automata, auto, "automaton", locations)

        def line(text):
            if text.split()[0] == "location":
                _declare(locations, _location(text)[0], "location")

        return line, None

    # -- entries, one function per kind

    def constant(self, text):
        name, value = _named(text, "=")
        _declare(self.constants, name, "constant", _int(value, "an integer value"))

    def query(self, text):
        name, prop = _named(text)
        _declare(self.queries, name, "query", prop)

    def party(self, text):
        capacity = _setting(text, "capacity")
        if capacity is not None:
            if self.capacity is not None:
                raise ModelIOError(E_PARSE, "capacity given twice")
            self.capacity = _int(capacity, "capacity = INTEGER")
            return None
        _name, fields = _fields(text, ("keys", "secrets"))
        keys = {_lookup(self.keys, k, "key", E_NAME) for k in fields.get("keys", "").split()}
        secrets = {_lookup(self.secrets, s, "secret", E_NAME)
                   for s in fields.get("secrets", "").split()}
        return PartyKnowledge(tuple(i in keys for i in range(len(self.keys))),
                              tuple(i in secrets for i in range(len(self.secrets))))

    def nss_clauses(self, text):
        _name, rest = _named(text)
        clauses = []
        for clause in (c.strip() for c in rest.split("|")):
            if not (clause.startswith("{") and clause.endswith("}")):
                raise ModelIOError(E_PARSE, "clause must be {...}")
            keys, secrets = [], []
            for item in filter(None, (i.strip() for i in clause[1:-1].split(","))):
                if item.startswith("reveal "):
                    secrets.append(_lookup(self.secrets, item[len("reveal "):].strip(),
                                           "secret", E_RANGE))
                else:
                    keys.append(_lookup(self.keys, item, "key", E_RANGE))
            clauses.append(NssClause(tuple(keys), tuple(secrets)))
        return tuple(clauses)

    def tx(self, text):
        name, fields = _fields(text, ("inputs", "outputs", "timelock", "reveals"),
                               flags=("confirmed",))
        inputs = []
        for ref in fields.get("inputs", "").split():
            m = re.match(r"(\w+):(\d+)$", ref)
            if not m:
                raise ModelIOError(E_PARSE, "input must be NAME:INDEX")
            inputs.append((_lookup(self.txs, m.group(1), "transaction", E_DANGLING_TX),
                           int(m.group(2))))
        outputs = []
        for ref in fields.get("outputs", "").split():
            m = re.match(r"(key|nss)\((\w+)\):(\d+)$", ref)
            if not m:
                raise ModelIOError(
                    E_PARSE, "output must be key(NAME):VALUE or nss(NAME):VALUE")
            table = self.keys if m.group(1) == "key" else self.nss
            outputs.append(Output(m.group(1), _lookup(table, m.group(2), m.group(1), E_RANGE),
                                  int(m.group(3))))
        timelock = _Expr(fields.get("timelock", "0"), self.constants).parse_const()
        if timelock < 0:
            raise ModelIOError(E_RANGE, "transaction %s: timelock %s is %d, must be "
                               "at least 0" % (name, fields["timelock"], timelock))
        if fields.get("confirmed"):
            self.confirmed.append(self.txs[name])
        return TxRecord(
            self.txs[name], tuple(inputs), tuple(outputs),
            timelock=timelock,
            reveals=tuple(_lookup(self.secrets, s, "secret", E_RANGE)
                          for s in fields.get("reveals", "").split()),
        )

    def timer(self, text):
        name, expr = _named(text, "=")
        threshold = _Expr(expr, self.constants).parse_const()
        if threshold < 1:
            raise ModelIOError(E_RANGE, "timer %s: threshold %s is %d, must be at least 1"
                               % (name, expr, threshold))
        return name, threshold

    def location(self, text):
        """(whether it is the initial location, Location) of a location line."""
        name, flags, inv = _location(text)
        atoms = inv and (("time", "<=", _Expr(inv, self.constants).parse_const()),)
        return "initial" in flags, Location(name, atoms and (lambda _w: atoms),
                                            named="named" in flags)

    def edge(self, text, auto, locations, index):
        m = _EDGE_RE.match(text)
        if not m:
            raise ModelIOError(E_PARSE, "malformed edge line")
        src, dst = m.group(1), m.group(2)
        if src not in locations or dst not in locations:
            raise ModelIOError(E_NAME, "unknown location in edge %s->%s" % (src, dst))
        label = m.group("label") or "step%d" % index
        urgent = bool(m.group("urgent"))
        cg = _ClockGuard(m.group("clock"), self.constants).parse_expr() if m.group("clock") else ()
        if urgent and cg:
            raise ModelIOError(E_URGENT_CLOCK, "urgent edge %s.%s guards clocks" % (auto, label))
        gfn = _Guard(m.group("guard"), self).parse_expr() if m.group("guard") else None
        ufn = _Guard(m.group("update"), self).parse_update() if m.group("update") else None
        return Edge(
            locations[src], locations[dst], label,
            guard=(lambda w, b, f=gfn: f(w)) if gfn else None,
            clock_guard=cg,
            urgent=urgent,
            update=(lambda w, b, f=ufn: f(w)) if ufn else None,
        )

    def message(self, text):
        m = _MESSAGE_RE.match(text)
        if not m:
            raise ModelIOError(E_PARSE, "malformed message line")
        return MessageAction(m.group(1), _Guard(m.group(2) or "true", self).parse_expr(),
                             _Guard(m.group(3), self).parse_update())

    # -- sections with a header

    def automaton(self, arg):
        auto, party = _automaton_header(arg)
        p = _lookup(self.parties, party, "party", E_NAME)
        table, locations, edges, initial = self.automata[auto], [], [], []

        def line(text):
            word = text.split()[0]
            if word == "location":
                is_initial, location = self.location(text)
                if is_initial:
                    if initial:
                        raise ModelIOError(E_PARSE, "initial location given twice")
                    initial.append(len(locations))
                locations.append(location)
            elif word == "edge":
                edges.append(self.edge(text, auto, table, len(edges)))
            else:
                raise ModelIOError(E_PARSE, "expected a location or edge line")

        return line, lambda: (p, AutomatonTemplate(
            auto, locations, edges, initial=initial[0] if initial else 0))

    def adversary(self, arg):
        party = arg.strip()
        p = _lookup(self.parties, party, "party", E_NAME)
        if p in self.adversary_configs:
            raise ModelIOError(E_TWO_ADVERSARIES, "duplicate adversary section for %s" % party)
        key, actions = [], []

        def line(text):
            value = _setting(text, "key")
            if value is not None:
                if key:
                    raise ModelIOError(E_PARSE, "adversary key given twice")
                key.append(value)
            elif text.split()[0] == "message":
                actions.append(self.message(text))
            else:
                raise ModelIOError(E_PARSE, "expected key or message line")

        def end():
            if not key:
                raise ModelIOError(E_PARSE, "adversary section needs a key")
            self.adversary_configs[p] = AdversaryConfig(
                adv_key=_lookup(self.keys, key[0], "key", E_RANGE),
                message_actions=tuple(actions),
            )

        return line, end

    def model(self):
        self.nss_table = tuple(self.walk("nss", self.nss_clauses))
        self.confirmed = []
        txs = self.walk("transactions", self.tx)

        def spends_existing_outputs(text):
            tx = txs[self.txs[_named(text)[0]]]
            for src, oi in tx.inputs:
                if oi >= len(txs[src].outputs):
                    raise ModelIOError(E_DANGLING_TX, "transaction %d spends missing output %d:%d"
                                       % (tx.num, src, oi))

        self.walk("transactions", spends_existing_outputs)
        # every network of the model lays out these fields alike
        self.layout = W.Layout(
            tuple(len(tx.outputs) for tx in derive_adversary_txset(txs, 0)),
            len(self.parties), len(self.keys), len(self.secrets),
            len(self.timers), len(self.marks))
        self.capacity, self.signed, self.observed = None, set(), set()
        knowledge = self.walk("parties", self.party)
        honest = {}
        for p, template in self.walk("automaton", section=self.automaton):
            honest.setdefault(p, []).append(template)
        self.adversary_configs = {}
        self.walk("adversary", section=self.adversary)
        timers = self.walk("timers", self.timer)
        nobody = PartyKnowledge((False,) * len(self.keys), (False,) * len(self.secrets))
        model = ContractModel(
            name=self.name,
            constants=_world_constants(self.constants),
            key_names=self.keys,
            secret_names=self.secrets,
            party_names=tuple(self.parties),
            tx_names=self.txs,
            protocol_txs=tuple(txs),
            nss_table=self.nss_table,
            sig_capacity=1 if self.capacity is None else self.capacity,
            timers=tuple(timers),
            initial_parties=tuple(knowledge) + (nobody,),
            honest_automata={p: tuple(a) for p, a in honest.items()},
            adversary_configs=self.adversary_configs,
            queries=self.queries,
            total_value=sum(o.value for t in self.confirmed for o in txs[t].outputs),
            signatures=tuple(sorted(self.signed)),
            status_observed=tuple(sorted(self.observed)),
            confirmed=tuple(self.confirmed),
            mark_count=len(self.marks),
            variant=self.variant,
        )
        return model._replace(worlds=world_tables(model))


# -- expression language ---------------------------------------------------


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

    def args(self, *params):
        """`(NAME, ...)`, each name looked up in its (table, what)."""
        self.expect("(")
        values = []
        for table, what in params:
            if values:
                self.expect(",")
            name = self.next()
            if name not in table:
                self.fail_name(name, table, what)
            values.append(table[name])
        self.expect(")")
        return values

    def atom(self, tok):
        self.next()
        n = self.names
        L = n.layout
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
            if sv in W.ON_CHAIN:
                n.observed.add(tx)
            if op == "==":
                return lambda w, t=tx, s=sv: w[t] == s
            return lambda w, t=tx, s=sv: w[t] != s
        if tok == "on_chain":
            (tx,) = self.args((n.txs, "transaction"))
            return lambda w, t=tx: w[t] in W.ON_CHAIN
        if tok == "timelock_passed":
            (tx,) = self.args((n.txs, "transaction"))
            return lambda w, o=L.flag + tx: w[o] == 1
        if tok == "timer":
            (ti,) = self.args((n.timers, "timer"))
            return lambda w, o=L.timers + ti: w[o] == 1
        if tok == "mark":
            (mi,) = self.args((n.marks, "mark"))
            return lambda w, o=L.marks + mi: w[o] == 1
        if tok == "know_secret":
            p, s = self.args((n.parties, "party"), (n.secrets, "secret"))
            return lambda w, o=L.secret_bit(p, s): w[o] == 1
        if tok == "know_signature":
            p, tx, k = self.args((n.parties, "party"), (n.txs, "transaction"),
                                 (n.keys, "key"))
            return lambda w, pi=p, t=tx, ki=k: W.know_signature(w, pi, t, ki)
        if tok == "can_create_input_script":
            p, tx = self.args((n.parties, "party"), (n.txs, "transaction"))
            return lambda w, pi=p, t=tx: W.can_create_input_script(w, pi, t)
        if tok == "can_send":
            p, tx = self.args((n.parties, "party"), (n.txs, "transaction"))
            return lambda w, pi=p, t=tx: W.can_send(w, pi, t)
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
            return lambda w, pi=p, t=tx: W.try_to_send(w, pi, t)
        if tok == "broadcast_signature":
            k, tx = self.args((n.keys, "key"), (n.txs, "transaction"))
            n.signed.add((k, tx))
            return lambda w, ki=k, t=tx: W.broadcast_signature(w, ki, t)
        if tok == "set_mark":
            (mi,) = self.args((n.marks, "mark"))
            return lambda w, o=(n.layout.marks + mi,): W.set_flags(w, o)
        self.error("unknown update statement %r" % tok)


# -- models from text and files ---------------------------------------------


_WORLD = ("MAX_LATENCY", "PROT_TIMELOCK")


def build_model(text, name="model", overrides=None):
    """The ContractModel of a `.model` text.

    `overrides` maps constants to values: MAX_LATENCY and PROT_TIMELOCK,
    declared or not, and any constant the text declares; another name
    raises ModelError, in terms of variant options.  The model's
    `variant` lists the overridden declared constants other than those
    two whose value differs from the declared one, as (option, value),
    the option being the constant's name in lower case.
    """
    return _Loader(text, name, overrides or {}).model()


def load_model(path, overrides=None, variant=None):
    """Build a contract model from a .model file.

    `overrides` maps MAX_LATENCY / PROT_TIMELOCK to values.  `variant`
    maps options to values: option `x` sets the constant `X` the file
    declares, and an option without its constant raises ModelError.
    The model records the options that differ from the declared values,
    as given, in `variant`, and the file's absolute path and text in
    `source`.  The file is read on every call; the build is shared by
    the calls with the same text and the same constants given.
    """
    with open(path) as fh:
        text = fh.read()
    variant = dict(variant or {})
    values = {option.upper(): int(value) for option, value in variant.items()}
    values.update(overrides or {})
    model = _built(text, re.sub(r"\.model$", "", os.path.basename(path)),
                   tuple(sorted(values.items())))
    return model._replace(
        variant=tuple((option, variant.get(option, value)) for option, value in model.variant),
        source=(os.path.abspath(path), text))


@functools.lru_cache(maxsize=32)
def _built(text, name, values):
    return build_model(text, name, dict(values))


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
        "statuses": {name: W.STATUS_NAMES[data[i]]
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

    The scenario is rebuilt from the document alone; absent `model_file`
    or `variant` keys mean the defaults, and a `prune_idle_sweeps` key,
    which older documents carry, is ignored.  The steps
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
        net, ctx = instantiate(model, adversary=doc["adversary"])
        query = doc.get("query")
        ast = Q.parse_query(query, ctx) if query is not None else None
        entries = doc["steps"]
        steps = [(_tuples(e["descriptor"]),
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
