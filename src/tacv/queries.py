"""Safety-property language: `A[] <boolean expression>`, and the
expression parser that `.model` guards, updates and clock guards share.

`ExprParser` is the one lexer, precedence parser and integer constant
evaluator of the package: connectives imply/or/and/not, with `imply`
right-associative at lowest precedence, parentheses, and constant
arithmetic (PROT_TIMELOCK + 2*MAX_LATENCY) folded at parse time against
the model's constants.  Each use supplies its atoms and node
constructors; here the atoms are comparisons on the global clock,
holdings comparisons, secret-knowledge flags and location predicates,
and the nodes are the AST below.  The grammar is in
docs/model_grammar.ebnf.

Only the global clock may appear in queries, so where a property fails
inside one discrete state, its violation region, is a union of
intervals of `time`, kept as a tuple of pairs (u, l) of packed upper
bounds on `time` and on `-time` (packed as in `zones`, INF where there
is none), in the order of the conjuncts of the negated property's
disjunctive normal form.  It is compiled straight from the formula with
the data atoms fixed to their truth values in the state; holdings are
computed by the same block-chain operation the models use.
`region_memo` remembers the regions per vector of data-atom values, for
the zone checkers (`make_checkers`) and the discrete oracle alike.  An
interval meets a canonical zone iff it meets the zone's `time`
interval, which the DBM's entries (1, 0) and (0, 1) give (Bengtsson and
Yi, "Timed Automata: Semantics, Algorithms and Tools", 2004).
"""

from __future__ import annotations

import difflib
import re
from typing import NamedTuple

from . import world as W
from .kernel import CMP
from .zones import INF, ZERO, atom_entries


class QueryError(Exception):
    """A query that does not parse; `unknown` is (what, name) when the
    query names something the scenario lacks, else None."""

    def __init__(self, message, pos=None, text=None, unknown=None):
        if pos is not None and text is not None:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            message = "line %d, column %d: %s" % (line, col, message)
        super().__init__(message)
        self.unknown = unknown


class QueryContext(NamedTuple):
    """Name resolution tables extracted from an instantiated model."""

    constants: dict    # name -> int
    parties: dict      # name -> party index
    secrets: dict      # name -> secret index
    automata: dict     # automaton name -> (index, {location name -> index})


# -- AST -----------------------------------------------------------------


class BoolLit(NamedTuple):
    value: bool


class ClockAtom(NamedTuple):
    op: str
    const: int
    text: str          # constant expression as written


class HoldAtom(NamedTuple):
    party: int
    party_name: str
    op: str
    const: int
    text: str


class KnowAtom(NamedTuple):
    party: int
    party_name: str
    secret: int
    secret_name: str


class LocAtom(NamedTuple):
    auto: int
    auto_name: str
    loc: int
    loc_name: str


class Not(NamedTuple):
    arg: object


class And(NamedTuple):
    left: object
    right: object


class Or(NamedTuple):
    left: object
    right: object


class Imply(NamedTuple):
    left: object
    right: object


class QueryAst(NamedTuple):
    root: object
    source: str


# -- expression language ---------------------------------------------------

# split() on the one capturing group alternates the gaps between tokens
# (whitespace, unless the text has a stray character) with the tokens
_TOKEN_RE = re.compile(r"(A\[\]|\d+|[A-Za-z_][A-Za-z0-9_]*|<=|>=|==|!=|[()<>\[\].+\-*!,;])")


class ExprParser:
    """Precedence parser, lowest first: `imply` (right-associative),
    `or`, `and`, then `not`/`!` and parenthesised grouping, over atoms.
    `const_expr` folds `+ - *` integer arithmetic over `constants`.

    Tokens are strings; "" ends the input.  A subclass supplies the
    leaves (`atom`, called with the token that starts one), the node
    constructors `not_`, `and_`, `or_` and `imply`, and the errors:
    `error` for syntax and `fail_name` for an unknown name, both placed
    at the last token read unless given a text offset.
    """

    def __init__(self, text, constants):
        self.text = text
        self.constants = constants
        self.parts = parts = _TOKEN_RE.split(text)
        self.toks = parts[1::2]
        self.toks.append("")
        self.i = 0
        if "".join(parts[::2]).strip():
            for k, gap in enumerate(parts[::2]):
                stray = gap.lstrip()
                if stray:
                    self.error("unexpected character %r" % stray[0],
                               self.offset(k) - len(stray))

    def offset(self, k):
        """Text offset of token `k`."""
        return sum(map(len, self.parts[:2 * k + 1]))

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        tok = self.next()
        if tok != value:
            self.error("expected %r, found %r" % (value, tok or "end of input"))

    def whole(self, rule):
        """`rule()`, which must consume the whole text."""
        node = rule()
        if self.peek():
            self.error("trailing input %r" % self.peek(), self.offset(self.i))
        return node

    def parse_expr(self):
        return self.whole(self.expr)

    def parse_const(self):
        return self.whole(self.const_expr)

    def expr(self):
        left = self.disjunction()
        if self.peek() == "imply":
            self.next()
            return self.imply(left, self.expr())
        return left

    def disjunction(self):
        node = self.conjunction()
        while self.peek() == "or":
            self.next()
            node = self.or_(node, self.conjunction())
        return node

    def conjunction(self):
        node = self.negation()
        while self.peek() == "and":
            self.next()
            node = self.and_(node, self.negation())
        return node

    def negation(self):
        tok = self.peek()
        if tok == "not" or tok == "!":
            self.next()
            return self.not_(self.negation())
        if tok == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        return self.atom(tok)

    def const_expr(self):
        value = self._term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self):
        value = self._factor()
        while self.peek() == "*":
            self.next()
            value *= self._factor()
        return value

    def _factor(self):
        tok = self.next()
        if tok == "-":
            return -self._factor()
        if tok == "(":
            value = self.const_expr()
            self.expect(")")
            return value
        if tok.isdigit():
            return int(tok)
        if tok.isidentifier():
            if tok not in self.constants:
                self.fail_name(tok, self.constants, "constant")
            return self.constants[tok]
        self.error("expected an integer expression")


class _QueryParser(ExprParser):
    not_, and_, or_, imply = Not, And, Or, Imply

    def __init__(self, text, ctx):
        super().__init__(text, ctx.constants)
        self.ctx = ctx

    def error(self, message, pos=None, unknown=None):
        if pos is None:
            pos = self.offset(self.i - 1)
        raise QueryError(message, pos, self.text, unknown)

    def fail_name(self, name, candidates, what):
        hint = ""
        close = difflib.get_close_matches(name, candidates, n=3)
        shown = close or sorted(candidates)[:6]
        if shown:
            hint = " (candidates: %s)" % ", ".join(shown)
        self.error("unknown %s %r%s" % (what, name, hint), unknown=(what, name))

    def query(self):
        if self.next() != "A[]":
            self.error("a property must start with A[]")
        return QueryAst(self.parse_expr(), self.text.strip())

    def atom(self, tok):
        self.next()
        if tok == "true":
            return BoolLit(True)
        if tok == "false":
            return BoolLit(False)
        if tok == "time":
            return ClockAtom(self._comparison(), *self._const_with_text())
        if tok == "hold_bitcoins":
            self.expect("(")
            p, pname = self._party_ref()
            self.expect(")")
            return HoldAtom(p, pname, self._comparison(), *self._const_with_text())
        if tok == "parties":
            p, pname = self._party_ref()
            self.expect(".")
            if self.next() != "know_secret":
                self.error("expected know_secret after party reference")
            self.expect("[")
            s, sname = self._secret_ref()
            self.expect("]")
            return KnowAtom(p, pname, s, sname)
        if tok.isidentifier():
            return self._location_atom(tok)
        self.error("expected an atom, found %r" % (tok or "end of input"))

    def _comparison(self):
        op = self.next()
        if op not in ("<", "<=", "==", ">=", ">"):
            self.error("expected a comparison operator")
        return op

    def _const_with_text(self):
        start = self.i
        value = self.const_expr()
        return value, "".join(self.parts[2 * start + 1:2 * self.i])

    def _party_ref(self):
        if self.peek() == "parties":
            self.next()
        self.expect("[")
        name = self.next()
        if not name.isidentifier():
            self.error("expected a party name")
        if name not in self.ctx.parties:
            self.fail_name(name, self.ctx.parties, "party")
        self.expect("]")
        return self.ctx.parties[name], name

    def _secret_ref(self):
        tok = self.next()
        if tok.isdigit():
            idx = int(tok)
            if idx not in self.ctx.secrets.values():
                self.error("secret index %d out of range" % idx)
            return idx, tok
        if tok.isidentifier():
            if tok not in self.ctx.secrets:
                self.fail_name(tok, self.ctx.secrets, "secret")
            return self.ctx.secrets[tok], tok
        self.error("expected a secret name or index")

    def _location_atom(self, name):
        if name not in self.ctx.automata:
            if self.peek() == "[":
                self.error("only the global clock 'time' may appear in queries")
            self.fail_name(name, self.ctx.automata, "automaton")
        auto_idx, locs = self.ctx.automata[name]
        self.expect(".")
        loc = self.next()
        if loc not in locs:
            self.fail_name(loc, locs, "location of %s" % name)
        return LocAtom(auto_idx, name, locs[loc], loc)


def parse_query(text, ctx):
    """Parse one `A[] <expr>` property against a resolution context."""
    return _QueryParser(text, ctx).query()


def parse_query_file(text, ctx):
    """Parse a .q file: one property per line, // comments, blank lines."""
    out = []
    for line in text.splitlines():
        stripped = line.split("//", 1)[0].strip()
        if stripped:
            out.append(parse_query(stripped, ctx))
    return out


# -- pretty printing -----------------------------------------------------


def pretty(node):
    if isinstance(node, QueryAst):
        return "A[] %s" % pretty(node.root)
    if isinstance(node, BoolLit):
        return "true" if node.value else "false"
    if isinstance(node, ClockAtom):
        return "time %s %s" % (node.op, node.text)
    if isinstance(node, HoldAtom):
        return "hold_bitcoins(parties[%s]) %s %s" % (
            node.party_name, node.op, node.text)
    if isinstance(node, KnowAtom):
        return "parties[%s].know_secret[%s]" % (node.party_name, node.secret_name)
    if isinstance(node, LocAtom):
        return "%s.%s" % (node.auto_name, node.loc_name)
    if isinstance(node, Not):
        return "not (%s)" % pretty(node.arg)
    if isinstance(node, And):
        return "(%s) and (%s)" % (pretty(node.left), pretty(node.right))
    if isinstance(node, Or):
        return "(%s) or (%s)" % (pretty(node.left), pretty(node.right))
    if isinstance(node, Imply):
        return "(%s) imply (%s)" % (pretty(node.left), pretty(node.right))
    raise TypeError(node)


# -- evaluation ------------------------------------------------------------

_NEG_OP = {"<": ">=", "<=": ">", "==": "!=", ">=": "<", ">": "<="}
_ALL = ((INF, INF),)    # the region of a formula that holds at every time


def _reader(atom):
    """A data atom compiled to a function of a state giving its truth
    value: the atom's one interpretation."""
    if isinstance(atom, HoldAtom):
        party, cmp, const = atom.party, CMP[atom.op], atom.const
        return lambda state: cmp(W.holdings(state.data)[party], const)
    if isinstance(atom, KnowAtom):
        party, secret = atom.party, atom.secret
        return lambda state: W.know_secret(state.data, party, secret)
    if isinstance(atom, LocAtom):
        auto, loc = atom.auto, atom.loc
        return lambda state: state.locs[auto] == loc
    raise TypeError(atom)


def _region(node, values, neg):
    """Where `node` holds (fails, if `neg`) with its data atoms fixed to
    their booleans in `values`: a tuple of intervals of `time`, each its
    packed upper bounds (u, l) on `time` and on `-time`, INF where there
    is none.  A conjunction pairs every interval of one side with every
    interval of the other, a disjunction concatenates its sides, and a
    side that holds at every time absorbs the other; so the intervals
    are the conjuncts of the disjunctive normal form, in order."""
    if isinstance(node, ClockAtom):
        op = _NEG_OP[node.op] if neg else node.op
        out = []
        for part in ("<", ">") if op == "!=" else (op,):    # time != k splits
            bounds = [INF, INF]     # row 0 bounds -time, row 1 bounds time
            for row, _col, bound in atom_entries(1, 0, part, node.const):
                bounds[row] = bound
            out.append((bounds[1], bounds[0]))
        return tuple(out)
    if isinstance(node, Not):
        return _region(node.arg, values, not neg)
    if isinstance(node, Imply):
        return _region(Or(Not(node.left), node.right), values, neg)
    if isinstance(node, (And, Or)):
        left = _region(node.left, values, neg)
        right = _region(node.right, values, neg)
        if (type(node) is Or) != neg:     # a disjunction after De Morgan
            return _ALL if _ALL in (left, right) else left + right
        return tuple((min(u, u2), min(l, l2))
                     for u, l in left for u2, l2 in right)
    truth = node.value if isinstance(node, BoolLit) else values[node]
    return _ALL if truth != neg else ()


def violation_region(query, state):
    """Where, inside this discrete state, the property fails: a tuple of
    intervals of `time` as `_region` gives them."""
    values = {a: _reader(a)(state) for a in data_atoms(query.root)}
    return _region(query.root, values, True)


def _within(x, bound):
    """Whether x meets the packed upper bound `bound`."""
    return bound >= INF or x < bound >> 1 or (x == bound >> 1 and bound & 1)


def in_region(region, time):
    """Whether the global clock value `time` lies in `region`, a tuple of
    intervals from `violation_region`.  Each bound is compared by its
    value and strictness, so the test is exact at any rational time."""
    return any(_within(time, u) and _within(-time, l) for u, l in region)


def leaves(node):
    """The atoms of a formula, left to right, repeats included; boolean
    literals are no atoms."""
    if isinstance(node, Not):
        yield from leaves(node.arg)
    elif isinstance(node, (And, Or, Imply)):
        yield from leaves(node.left)
        yield from leaves(node.right)
    elif not isinstance(node, BoolLit):
        yield node


def data_atoms(node):
    """The distinct non-clock atoms of a formula, in a stable order."""
    return list(dict.fromkeys(
        a for a in leaves(node) if not isinstance(a, ClockAtom)))


def region_memo(queries):
    """The function of a state giving the tuple of the queries'
    `violation_region`s, remembered on the data-atom values.

    The violation regions depend only on the truth values of the data
    atoms, which range over a handful of combinations per run.  Each
    distinct data atom of the queries is compiled to its reader once,
    here, and read once per state; the returned function reads a state's
    `locs` and `data` only, so it serves symbolic and concrete states
    alike.
    """
    queries = tuple(queries)
    atoms = tuple(dict.fromkeys(a for q in queries for a in data_atoms(q.root)))
    readers = tuple(_reader(a) for a in atoms)
    regions = {}

    def of(state):
        key = tuple([read(state) for read in readers])
        found = regions.get(key)
        if found is None:
            values = dict(zip(atoms, key))
            found = regions[key] = tuple(
                _region(q.root, values, True) for q in queries)
        return found

    return of


def _time_atoms(u, l):
    """The interval with packed bounds u on `time` and l on `-time` as
    the atoms `Zone.constrained` takes."""
    atoms = []
    if u < INF:
        atoms.append((1, 0, "<=" if u & 1 else "<", u >> 1))
    if l < INF:
        atoms.append((1, 0, ">=" if l & 1 else ">", -(l >> 1)))
    return atoms


def make_checkers(queries):
    """One per-state checker for each query: None when the state
    satisfies the property, else the witness sub-zone, the zone cut to
    the first interval (u, l) of its violation region that meets it,
    which is when min(u, m10) + min(l, m01) >= 0 for the zone's `time`
    entries m10 = (1, 0) and m01 = (0, 1).  Only that interval is turned
    into atoms and intersected with the zone.

    The checkers share one `region_memo` over all the queries and keep
    the regions of the last state object any of them was given, so
    checkers called in turn on one state read each data atom once.
    """
    queries = tuple(queries)
    regions_of = region_memo(queries)
    last = regions = None

    def checker(i):
        def check(state):
            nonlocal last, regions
            if state is not last:
                last, regions = state, regions_of(state)
            zone = state.zone
            m = zone.m
            m10, m01 = m[zone.dim], m[1]
            for u, l in regions[i]:
                hi = u if u < m10 else m10
                lo = l if l < m01 else m01
                if hi + lo - ((hi & 1) | (lo & 1)) >= ZERO:
                    return zone.constrained(_time_atoms(u, l))
            return None

        return check

    return [checker(i) for i in range(len(queries))]


def make_checker(query):
    """The checker of one query (see `make_checkers`)."""
    return make_checkers((query,))[0]


def evaluate(state, query):
    """None when the state satisfies the property, else a witness sub-zone."""
    return make_checker(query)(state)
