"""Safety-property language: `A[] <boolean expression>`.

Atoms are comparisons on the global clock, holdings comparisons,
secret-knowledge flags and location predicates; connectives are
imply/and/or/not with `imply` right-associative at lowest precedence.
Integer constant arithmetic (PROT_TIMELOCK + 2*MAX_LATENCY) is folded
at parse time against the model's constants.

Evaluation over a symbolic state fixes the data atoms to constants,
reduces the negated property to a boolean combination of clock atoms,
converts that to disjunctive normal form, and reports a violation iff
some conjunct intersects the state's zone.  Only the global clock may
appear in queries; holdings are computed by the same block-chain
operation the models use.
"""

from __future__ import annotations

import difflib
import re
from typing import NamedTuple

from . import world as W


class QueryError(Exception):
    def __init__(self, message, pos=None, text=None):
        if pos is not None and text is not None:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            message = "line %d, column %d: %s" % (line, col, message)
        super().__init__(message)


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


# -- lexer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<abox>A\[\])
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|[()<>\[\].+\-*!,])
    """,
    re.VERBOSE,
)

def _lex(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QueryError("unexpected character %r" % text[pos], pos, text)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", pos))
    return tokens


class _Parser:
    def __init__(self, text, ctx):
        self.text = text
        self.ctx = ctx
        self.toks = _lex(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, value):
        kind, val, pos = self.next()
        if val != value:
            raise QueryError(
                "expected %r, found %r" % (value, val or "end of input"),
                pos, self.text,
            )

    def fail_name(self, name, pos, candidates, what):
        hint = ""
        close = difflib.get_close_matches(name, candidates, n=3)
        shown = close or sorted(candidates)[:6]
        if shown:
            hint = " (candidates: %s)" % ", ".join(shown)
        raise QueryError(
            "unknown %s %r%s" % (what, name, hint), pos, self.text
        )

    # expression grammar, lowest precedence first

    def parse_query(self):
        kind, val, pos = self.next()
        if kind != "abox":
            raise QueryError("a property must start with A[]", pos, self.text)
        root = self.parse_imply()
        kind, val, pos = self.peek()
        if kind != "eof":
            raise QueryError("trailing input %r" % val, pos, self.text)
        return QueryAst(root, self.text.strip())

    def parse_imply(self):
        left = self.parse_or()
        if self.peek()[1] == "imply":
            self.next()
            return Imply(left, self.parse_imply())  # right-associative
        return left

    def parse_or(self):
        node = self.parse_and()
        while self.peek()[1] == "or":
            self.next()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self):
        node = self.parse_not()
        while self.peek()[1] == "and":
            self.next()
            node = And(node, self.parse_not())
        return node

    def parse_not(self):
        if self.peek()[1] in ("not", "!"):
            self.next()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self):
        kind, val, pos = self.peek()
        if val == "(":
            self.next()
            node = self.parse_imply()
            self.expect(")")
            return node
        if val == "true":
            self.next()
            return BoolLit(True)
        if val == "false":
            self.next()
            return BoolLit(False)
        if val == "time":
            self.next()
            op = self._comparison()
            const, text = self.parse_const_expr()
            return ClockAtom(op, const, text)
        if val == "hold_bitcoins":
            self.next()
            self.expect("(")
            p, pname = self._party_ref()
            self.expect(")")
            op = self._comparison()
            const, text = self.parse_const_expr()
            return HoldAtom(p, pname, op, const, text)
        if val == "parties":
            p, pname = self._party_ref()
            self.expect(".")
            kind2, val2, pos2 = self.next()
            if val2 != "know_secret":
                raise QueryError(
                    "expected know_secret after party reference", pos2, self.text
                )
            self.expect("[")
            s, sname = self._secret_ref()
            self.expect("]")
            return KnowAtom(p, pname, s, sname)
        if kind == "name":
            return self._location_atom()
        raise QueryError("expected an atom, found %r" % (val or "end of input"),
                         pos, self.text)

    def _comparison(self):
        kind, val, pos = self.next()
        if val not in ("<", "<=", "==", ">=", ">"):
            raise QueryError("expected a comparison operator", pos, self.text)
        return val

    def _party_ref(self):
        if self.peek()[1] == "parties":
            self.next()
        self.expect("[")
        kind, val, pos = self.next()
        if kind != "name":
            raise QueryError("expected a party name", pos, self.text)
        if val not in self.ctx.parties:
            self.fail_name(val, pos, self.ctx.parties, "party")
        self.expect("]")
        return self.ctx.parties[val], val

    def _secret_ref(self):
        kind, val, pos = self.next()
        if kind == "num":
            idx = int(val)
            if idx not in self.ctx.secrets.values():
                raise QueryError("secret index %d out of range" % idx,
                                 pos, self.text)
            return idx, val
        if kind == "name":
            if val not in self.ctx.secrets:
                self.fail_name(val, pos, self.ctx.secrets, "secret")
            return self.ctx.secrets[val], val
        raise QueryError("expected a secret name or index", pos, self.text)

    def _location_atom(self):
        kind, val, pos = self.next()
        if val not in self.ctx.automata:
            if self.peek()[1] == "[":
                raise QueryError(
                    "only the global clock 'time' may appear in queries",
                    pos, self.text,
                )
            self.fail_name(val, pos, self.ctx.automata, "automaton")
        auto_idx, locs = self.ctx.automata[val]
        self.expect(".")
        kind2, val2, pos2 = self.next()
        if kind2 != "name" or val2 not in locs:
            self.fail_name(val2, pos2, locs, "location of %s" % val)
        return LocAtom(auto_idx, val, locs[val2], val2)

    # integer constant expressions

    def parse_const_expr(self):
        start = self.peek()[2]
        value = self._const_add()
        end = self.peek()[2]
        return value, self.text[start:end].strip()

    def _const_add(self):
        v = self._const_mul()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            r = self._const_mul()
            v = v + r if op == "+" else v - r
        return v

    def _const_mul(self):
        v = self._const_unary()
        while self.peek()[1] == "*":
            self.next()
            v *= self._const_unary()
        return v

    def _const_unary(self):
        kind, val, pos = self.peek()
        if val == "-":
            self.next()
            return -self._const_unary()
        if val == "(":
            self.next()
            v = self._const_add()
            self.expect(")")
            return v
        if kind == "num":
            self.next()
            return int(val)
        if kind == "name":
            self.next()
            if val not in self.ctx.constants:
                self.fail_name(val, pos, self.ctx.constants, "constant")
            return self.ctx.constants[val]
        raise QueryError("expected an integer expression", pos, self.text)


def parse_query(text, ctx):
    """Parse one `A[] <expr>` property against a resolution context."""
    return _Parser(text, ctx).parse_query()


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


def _substitute(node, state):
    """Fix data atoms to booleans; clock atoms stay symbolic."""
    if isinstance(node, BoolLit):
        return node.value
    if isinstance(node, ClockAtom):
        return node
    if isinstance(node, HoldAtom):
        held = W.hold_bitcoins(state.data, node.party)
        return _cmp(held, node.op, node.const)
    if isinstance(node, KnowAtom):
        return state.data.parties[node.party].know_secret[node.secret]
    if isinstance(node, LocAtom):
        return state.locs[node.auto] == node.loc
    if isinstance(node, Not):
        a = _substitute(node.arg, state)
        return (not a) if isinstance(a, bool) else Not(a)
    pairs = {And: (And, lambda a, b: a and b),
             Or: (Or, lambda a, b: a or b)}
    if isinstance(node, (And, Or)):
        ctor, _fn = pairs[type(node)]
        a = _substitute(node.left, state)
        b = _substitute(node.right, state)
        if isinstance(a, bool) and isinstance(b, bool):
            return (a and b) if ctor is And else (a or b)
        if isinstance(a, bool):
            if ctor is And:
                return b if a else False
            return True if a else b
        if isinstance(b, bool):
            if ctor is And:
                return a if b else False
            return True if b else a
        return ctor(a, b)
    if isinstance(node, Imply):
        return _substitute(Or(Not(node.left), node.right), state)
    raise TypeError(node)


def _cmp(lhs, op, rhs):
    return {
        "<": lhs < rhs, "<=": lhs <= rhs, "==": lhs == rhs,
        ">=": lhs >= rhs, ">": lhs > rhs,
    }[op]


def _nnf(node, neg):
    """Negation normal form over clock atoms and booleans."""
    if isinstance(node, bool):
        return (not node) if neg else node
    if isinstance(node, ClockAtom):
        if not neg:
            return node
        op = _NEG_OP[node.op]
        if op == "!=":
            # time != k splits into two atoms
            return Or(ClockAtom("<", node.const, node.text),
                      ClockAtom(">", node.const, node.text))
        return ClockAtom(op, node.const, node.text)
    if isinstance(node, Not):
        return _nnf(node.arg, not neg)
    if isinstance(node, And):
        l, r = _nnf(node.left, neg), _nnf(node.right, neg)
        return Or(l, r) if neg else And(l, r)
    if isinstance(node, Or):
        l, r = _nnf(node.left, neg), _nnf(node.right, neg)
        return And(l, r) if neg else Or(l, r)
    raise TypeError(node)


def _dnf(node):
    """List of conjuncts; each conjunct is a tuple of ClockAtoms."""
    if isinstance(node, bool):
        return [()] if node else []
    if isinstance(node, ClockAtom):
        return [(node,)]
    if isinstance(node, Or):
        return _dnf(node.left) + _dnf(node.right)
    if isinstance(node, And):
        return [l + r for l in _dnf(node.left) for r in _dnf(node.right)]
    raise TypeError(node)


def violation_region(query, state):
    """DNF description of where, inside this discrete state, the property fails."""
    residue = _substitute(Not(query.root), state)
    return _dnf(_nnf(residue, False))


def data_atoms(node, acc=None):
    """The non-clock atoms of a formula, in a stable order."""
    if acc is None:
        acc = []
    if isinstance(node, (HoldAtom, KnowAtom, LocAtom)):
        if node not in acc:
            acc.append(node)
    elif isinstance(node, Not):
        data_atoms(node.arg, acc)
    elif isinstance(node, (And, Or, Imply)):
        data_atoms(node.left, acc)
        data_atoms(node.right, acc)
    return acc


def region_memo(query):
    """`violation_region(query, state)` memoized on the data-atom values.

    The violation region depends only on the truth values of the data
    atoms, which range over a handful of combinations per run.  The
    returned function reads a state's `locs` and `data` only, so it
    serves symbolic and concrete states alike.
    """
    atoms = tuple(data_atoms(query.root))
    regions = {}

    def region(state):
        key = tuple(_substitute(a, state) for a in atoms)
        found = regions.get(key)
        if found is None:
            found = regions[key] = violation_region(query, state)
        return found

    return region


def make_checker(query):
    """Per-state checker with the DNF region memoized on data-atom values
    (`region_memo`); the zone intersection still happens per state."""
    region_of = region_memo(query)

    def checker(state):
        for conj in region_of(state):
            catoms = [(1, 0, a.op, a.const) for a in conj]
            sub = state.zone.constrained(catoms)
            if not sub.is_empty():
                return sub
        return None

    return checker


def evaluate(state, query):
    """None when the state satisfies the property, else a witness sub-zone."""
    return make_checker(query)(state)
