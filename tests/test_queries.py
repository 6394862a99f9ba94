"""Query parsing, pretty-printing round trips, and symbolic evaluation."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from tacv import queries as Q
from tacv import world as w
from tacv.kernel import CMP, SymbolicState, explore
from tacv.zones import INF, Zone, atom_entries

from test_modelio import SHIPPED_IDS, SHIPPED_ROWS, shipped_net, shipped_queries
from test_zones import random_atoms
from zonekit import closure, from_constraints, min_value


CTX = Q.QueryContext(
    constants={"MAX_LATENCY": 10, "PROT_TIMELOCK": 100},
    parties={"ALICE": 0, "BOB": 1, "ADVERSARY": 2},
    secrets={"C_SEC": 0},
    automata={"BobTA": (0, {"failure": 2, "accepted": 3}),
              "AliceTA": (1, {"opened": 3})},
)

BOB_PROPERTY = (
    "A[] (time >= PROT_TIMELOCK+MAX_LATENCY) imply "
    "(hold_bitcoins(parties[BOB]) == 1 or parties[BOB].know_secret[0] "
    "or BobTA.failure)"
)


def state(zone_atoms, holdings_world=None, locs=(0, 0)):
    zone = Zone.origin(2).up().constrained(zone_atoms)
    data = holdings_world or _world(bob_holds=0, bob_knows=False)
    return SymbolicState(locs, data, zone)


def _world(bob_holds=0, bob_knows=False):
    outs = (w.Output("key", 1, bob_holds or 1),)
    tx = w.TxRecord(0, ((0, 0),), outs)
    parties = (
        w.PartyKnowledge((True, False), (True,)),
        w.PartyKnowledge((False, True), (bob_knows,)),
        w.PartyKnowledge((False, False), (False,)),
    )
    table = w.WorldTable((tx,), (), parties, timer_count=0, mark_count=0,
                         confirmed=(0,) if bob_holds else ())
    return table.initial


class TestParsing:
    def test_full_bob_property_parses(self):
        q = Q.parse_query(BOB_PROPERTY, CTX)
        assert isinstance(q.root, Q.Imply)
        assert isinstance(q.root.left, Q.ClockAtom)
        assert q.root.left.const == 110
        rhs = q.root.right
        assert isinstance(rhs, Q.Or)
        assert isinstance(rhs.right, Q.LocAtom)
        assert rhs.right.loc_name == "failure"

    def test_trivial_true(self):
        q = Q.parse_query("A[] true", CTX)
        assert q.root == Q.BoolLit(True)

    def test_constant_folding_with_multiplication(self):
        q = Q.parse_query(
            "A[] (time >= PROT_TIMELOCK+2*MAX_LATENCY) imply true", CTX)
        assert q.root.left.const == 120

    def test_imply_right_associative(self):
        q = Q.parse_query("A[] time >= 1 imply time >= 2 imply time >= 3", CTX)
        assert isinstance(q.root.right, Q.Imply)

    def test_not_binds_tightest(self):
        q = Q.parse_query("A[] !parties[BOB].know_secret[0] and BobTA.failure", CTX)
        assert isinstance(q.root, Q.And)
        assert isinstance(q.root.left, Q.Not)

    def test_unknown_party_lists_candidates(self):
        with pytest.raises(Q.QueryError, match="ALICE"):
            Q.parse_query("A[] hold_bitcoins(parties[ALICA]) == 1", CTX)

    def test_unknown_location_lists_candidates(self):
        with pytest.raises(Q.QueryError, match="failure"):
            Q.parse_query("A[] BobTA.failur", CTX)

    def test_syntax_error_has_position(self):
        with pytest.raises(Q.QueryError, match="line 1, column"):
            Q.parse_query("A[] time >= ", CTX)

    def test_missing_abox_rejected(self):
        with pytest.raises(Q.QueryError, match="A\\[\\]"):
            Q.parse_query("time >= 1", CTX)

    def test_per_transaction_clocks_rejected(self):
        with pytest.raises(Q.QueryError, match="global clock"):
            Q.parse_query("A[] bc_clock[0] >= 1", CTX)

    def test_query_file_lines_and_comments(self):
        text = "// header\nA[] true\n\nA[] time >= 1 imply true // tail\n"
        qs = Q.parse_query_file(text, CTX)
        assert len(qs) == 2


class TestRoundTrip:
    PROPS = [
        BOB_PROPERTY,
        "A[] true",
        "A[] (time >= PROT_TIMELOCK) imply (parties[BOB].know_secret[0])",
        "A[] (time >= PROT_TIMELOCK) imply (hold_bitcoins(parties[ALICE]) == 1)",
        "A[] not BobTA.failure",
        "A[] (time >= PROT_TIMELOCK+2*MAX_LATENCY) imply "
        "((parties[BOB].know_secret[C_SEC] and !parties[ALICE].know_secret[0])"
        " imply hold_bitcoins(parties[BOB]) >= 3)",
    ]

    def test_pretty_reparses_identically(self):
        for prop in self.PROPS:
            ast = Q.parse_query(prop, CTX)
            again = Q.parse_query(Q.pretty(ast), CTX)
            assert again.root == ast.root, prop


class TestEvaluation:
    def test_data_short_circuit_holdings(self):
        q = Q.parse_query(BOB_PROPERTY, CTX)
        s = state([], holdings_world=_world(bob_holds=1))
        assert Q.evaluate(s, q) is None

    def test_violation_on_late_zone(self):
        q = Q.parse_query(BOB_PROPERTY, CTX)
        s = state([(1, 0, ">=", 50)])  # time in [50, inf)
        witness = Q.evaluate(s, q)
        assert witness is not None
        assert min_value(witness, 1) == 110

    def test_no_violation_when_zone_stays_early(self):
        q = Q.parse_query(BOB_PROPERTY, CTX)
        s = state([(1, 0, "<=", 109)])
        assert Q.evaluate(s, q) is None

    def test_knowledge_satisfies(self):
        q = Q.parse_query(BOB_PROPERTY, CTX)
        s = state([(1, 0, ">=", 200)], holdings_world=_world(bob_knows=True))
        assert Q.evaluate(s, q) is None

    def test_location_predicate_satisfies(self):
        q = Q.parse_query(BOB_PROPERTY, CTX)
        s = state([(1, 0, ">=", 200)], locs=(2, 0))  # BobTA in failure
        assert Q.evaluate(s, q) is None

    def test_true_never_violated(self):
        q = Q.parse_query("A[] true", CTX)
        assert Q.evaluate(state([(1, 0, ">=", 0)]), q) is None

    def test_false_violated_with_whole_zone(self):
        q = Q.parse_query("A[] false", CTX)
        s = state([(1, 0, "<=", 4)])
        witness = Q.evaluate(s, q)
        assert witness == s.zone


def first_meeting(zone, region):
    """The checker's answer by definition: the zone cut to the first
    interval (u, l) of `region` that meets it, or None.  The cut writes
    the bounds into entries (1, 0) and (0, 1) and re-closes the matrix
    with a full Floyd-Warshall pass."""
    n = zone.dim
    for u, l in region:
        work = list(zone.m)
        work[n] = min(work[n], u)
        work[1] = min(work[1], l)
        if closure(work, n):
            return Zone._from_work(n, work, True)
    return None


def interval(conj):
    """A conjunction of clock atoms as its packed bounds (u, l) on `time`
    and on `-time`: the tightest entry each atom gives."""
    bounds = {(1, 0): INF, (0, 1): INF}
    for a in conj:
        for row, col, bound in atom_entries(1, 0, a.op, a.const):
            bounds[row, col] = min(bounds[row, col], bound)
    return bounds[1, 0], bounds[0, 1]


class TestTimeBound:
    """The checker's test on a zone's `time` bounds is exact."""

    def test_checker_matches_first_meeting_conjunct(self):
        rng = random.Random(20261020)
        ops = ["<", "<=", "==", ">=", ">"]
        outcomes = {"none": 0, "first": 0, "later": 0}
        kinds = {"bounded": 0, "unbounded": 0, "point": 0}
        while min(kinds.values()) < 400:
            dim = rng.randint(2, 4)
            kind = rng.choice(sorted(kinds))
            if kind == "point":
                zone = from_constraints(
                    dim, [(i, 0, "==", rng.randint(0, 8)) for i in range(1, dim)])
            else:
                zone = from_constraints(
                    dim, random_atoms(rng, dim, rng.randint(1, 2 * dim), maxc=8))
                if kind == "unbounded":
                    zone = zone.up()
            if zone.is_empty():
                continue
            kinds[kind] += 1
            conjuncts = []
            for _ in range(rng.randint(1, 3)):
                consts = [rng.randint(0, 9) for _ in range(rng.randint(1, 3))]
                conjuncts.append(tuple(Q.ClockAtom(rng.choice(ops), k, str(k))
                                       for k in consts))
            formula = None
            for conj in conjuncts:
                term = conj[0]
                for atom in conj[1:]:
                    term = Q.And(term, atom)
                formula = term if formula is None else Q.Or(formula, term)
            query = Q.QueryAst(Q.Not(formula), "")
            s = SymbolicState((), None, zone)
            region = tuple(interval(conj) for conj in conjuncts)
            assert Q.violation_region(query, s) == region
            cuts = [zone.constrained([(1, 0, a.op, a.const) for a in conj])
                    for conj in conjuncts]
            expected = next((cut for cut in cuts if not cut.is_empty()), None)
            assert first_meeting(zone, region) == expected
            assert Q.make_checker(query)(s) == expected
            if expected is None:
                outcomes["none"] += 1
            else:
                outcomes["first" if cuts[0] == expected else "later"] += 1
        assert min(outcomes.values()) > 100, outcomes


class TestSharedCheckers:
    """`make_checkers` gives the witnesses of one checker per query and
    reads each data atom once per state, whatever the order of calls."""

    @pytest.mark.parametrize("row", [1, 5], ids=[SHIPPED_IDS[1], SHIPPED_IDS[5]])
    def test_same_witnesses_one_read_per_atom(self, monkeypatch, row):
        model, net, ctx = shipped_net(*SHIPPED_ROWS[row][:4])
        asts = shipped_queries(model, ctx)
        states = []
        explore(net, check=states.append)
        separate = [Q.make_checker(ast) for ast in asts]
        reads = Counter()
        reader = Q._reader

        def counted(atom):
            read = reader(atom)

            def count(state):
                reads[atom] += 1
                return read(state)

            return count

        monkeypatch.setattr(Q, "_reader", counted)
        shared = Q.make_checkers(asts)
        for k, state in enumerate(states):
            order = range(len(asts)) if k % 2 else reversed(range(len(asts)))
            for i in order:
                assert shared[i](state) == separate[i](state)
        atoms = {a for ast in asts for a in Q.data_atoms(ast.root)}
        assert len(atoms) > 2 and len(states) >= SHIPPED_ROWS[row][4][0]
        assert reads == dict.fromkeys(atoms, len(states))


class TestRegionSemantics:
    """Random formulas over clock atoms, boolean literals and location
    atoms agree with direct evaluation at every quarter point of time."""

    def test_against_direct_evaluation(self):
        rng = random.Random(2026)
        consts = [3, 7, 11, 15]
        ops = ["<", "<=", "==", ">=", ">"]
        kinds = {"clock": 0, "bool": 0, "loc": 0}
        for _ in range(600):
            locs = tuple(rng.randint(0, 1) for _ in range(3))
            atoms = [Q.ClockAtom(rng.choice(ops), rng.choice(consts), "k")
                     for _ in range(rng.randint(1, 4))]
            atoms += [Q.BoolLit(rng.random() < 0.5)
                      for _ in range(rng.randint(0, 1))]
            atoms += [Q.LocAtom(a, "A%d" % a, rng.randint(0, 1), "l")
                      for a in rng.sample(range(3), rng.randint(0, 2))]

            def rand_formula(depth=0):
                r = rng.random()
                if depth > 2 or r < 0.4:
                    return rng.choice(atoms)
                if r < 0.55:
                    return Q.Not(rand_formula(depth + 1))
                ctor = rng.choice([Q.And, Q.Or, Q.Imply])
                return ctor(rand_formula(depth + 1), rand_formula(depth + 1))

            f = rand_formula()
            for leaf in Q.leaves(f):
                kinds["clock" if isinstance(leaf, Q.ClockAtom) else "loc"] += 1
            kinds["bool"] += any(isinstance(a, Q.BoolLit) for a in atoms)

            def direct(t, node):
                if isinstance(node, Q.ClockAtom):
                    return CMP[node.op](t, node.const)
                if isinstance(node, Q.BoolLit):
                    return node.value
                if isinstance(node, Q.LocAtom):
                    return locs[node.auto] == node.loc
                if isinstance(node, Q.Not):
                    return not direct(t, node.arg)
                if isinstance(node, Q.And):
                    return direct(t, node.left) and direct(t, node.right)
                if isinstance(node, Q.Or):
                    return direct(t, node.left) or direct(t, node.right)
                if isinstance(node, Q.Imply):
                    return (not direct(t, node.left)) or direct(t, node.right)
                raise TypeError(node)

            s = SymbolicState(locs, None, None)
            fails = Q.violation_region(Q.QueryAst(f, ""), s)
            holds = Q.violation_region(Q.QueryAst(Q.Not(f), ""), s)
            for q in range(0, 80):
                t = Fraction(q, 4)
                assert Q.in_region(holds, t) == direct(t, f)
                assert Q.in_region(fails, t) == (not direct(t, f))
        assert min(kinds.values()) > 100, kinds

    @pytest.mark.parametrize("text,locs,region", [
        ("A[] time == 7", (0, 0), ((14, INF), (INF, -14))),
        ("A[] not (time < 3 or BobTA.failure)", (0, 0), ((6, INF),)),
        ("A[] not (time < 3 or BobTA.failure)", (2, 0), ((INF, INF),)),
        ("A[] (time > 4 and BobTA.failure) or not time == 7", (2, 0), ((9, -13),)),
        ("A[] (time > 4 and BobTA.failure) or not time == 7", (0, 0), ((15, -13),)),
    ])
    def test_intervals_pinned(self, text, locs, region):
        """Exact intervals, in order: a negated `==` splits in two, and a
        side of a disjunction that holds at every time absorbs the other,
        so the checker's witness comes from the same interval."""
        s = state([], locs=locs)
        assert Q.violation_region(Q.parse_query(text, CTX), s) == region
