"""Model files: parsing, loader validation, the shipped models'
exploration counters, trace documents and reports."""

import gc
import hashlib
import itertools
import json
import os
import re

import pytest

from tacv import cli
from tacv import modelio as M
from tacv import queries as Q
from tacv import world as w
from tacv.contracts import build_cs_model, build_newscs_model, instantiate
from tacv.kernel import explore, random_run, replay_trace
from tacv.oracle import explore_discrete
from tacv.world import WorldConstants

from zonekit import max_value, min_value

MODELS_DIR = os.path.join(os.path.dirname(M.__file__), "models")
CS_PATH = os.path.join(MODELS_DIR, "cs.model")
NEWSCS_PATH = os.path.join(MODELS_DIR, "newscs.model")


class TestLoader:
    def test_cs_loads(self):
        model = M.load_model(CS_PATH)
        assert model.constants == WorldConstants(10, 100)
        assert len(model.protocol_txs) == 4
        assert model.sig_capacity == 1
        assert model.signatures == ((model.key_names["C_KEY"], model.tx_names["FUSE"]),)
        assert set(model.queries) == set(build_cs_model().queries)

    def test_newscs_loads(self):
        model = M.load_model(NEWSCS_PATH)
        assert len(model.protocol_txs) == 16
        assert model.mark_count == 2
        # the signatures are what the broadcast_signature statements name
        k, t = model.key_names, model.tx_names
        assert model.signatures == tuple(sorted(
            (k[key], t[tx]) for key, tx in (("A_KEY", "CSA_FUSE"), ("B_KEY", "CSB_FUSE"),
                                            ("A_KEY", "COMMIT"))))

    def test_adversary_message_signs_too(self):
        text = open(CS_PATH).read()
        for stmt in ("if(WEAKENED_ALICE) broadcast_signature(C_KEY, FUSE); ",
                     ' update "if(not WEAKENED_ALICE) broadcast_signature(C_KEY, FUSE)"'):
            assert stmt in text
            text = text.replace(stmt, "")
        model = M.build_model(text)
        assert model.signatures == ((model.key_names["C_KEY"], model.tx_names["FUSE"]),)
        text = text.replace('message send_fuse_sig update "broadcast_signature(C_KEY, FUSE)"', "")
        assert M.build_model(text).signatures == ()

    def test_signed_section_rejected(self):
        text = open(CS_PATH).read()
        line = text[:text.index("[timers]")].count("\n") + 1
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(text.replace("[timers]", "[signed]\nFUSE\n\n[timers]"))
        assert (err.value.code, err.value.line) == (M.E_SECTION, line)

    def test_constant_overrides(self):
        model = M.load_model(CS_PATH, overrides={"MAX_LATENCY": 2,
                                                 "PROT_TIMELOCK": 5})
        assert model.constants == WorldConstants(2, 5)
        assert model.timers[0][1] == 3
        assert model.protocol_txs[3].timelock == 5

    def test_dangling_input_rejected(self):
        text = open(CS_PATH).read().replace(
            "OPEN: inputs = COMMIT:0", "OPEN: inputs = GHOST:0")
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(text, "bad")
        assert err.value.code == M.E_DANGLING_TX

    def test_unknown_key_rejected(self):
        text = open(CS_PATH).read().replace(
            "outputs = key(R_KEY):1", "outputs = key(Z_KEY):1")
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(text, "bad")
        assert err.value.code == M.E_RANGE

    def test_negative_timelock_rejected(self):
        # a negative timelock's flag would never be set: the transaction
        # could never be sent
        fuse = "FUSE: inputs = COMMIT:0; outputs = key(R_KEY):1; timelock = PROT_TIMELOCK"
        text = open(CS_PATH).read()
        assert text.count(fuse) == 1
        line = text[:text.index(fuse)].count("\n") + 1
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(text.replace(fuse, fuse + " - 9"), "bad",
                          {"MAX_LATENCY": 2, "PROT_TIMELOCK": 5})
        assert err.value.code == M.E_RANGE
        assert err.value.line == line
        assert "timelock PROT_TIMELOCK - 9 is -4" in str(err.value)

    def test_urgent_clock_guard_rejected(self):
        text = open(CS_PATH).read().replace(
            'edge start -> failure clock "time == MAX_LATENCY" guard "not on_chain(COMMIT)" label commit_missing',
            'edge start -> failure urgent clock "time == MAX_LATENCY" guard "not on_chain(COMMIT)" label commit_missing',
        )
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(text, "bad")
        assert err.value.code == M.E_URGENT_CLOCK

    def test_strict_clock_guard_rejected(self):
        text = open(CS_PATH).read().replace(
            'clock "time == MAX_LATENCY" guard "not on_chain(COMMIT)"',
            'clock "time < MAX_LATENCY" guard "not on_chain(COMMIT)"',
        )
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(text, "bad")
        assert err.value.code == M.E_STRICT

    def test_duplicate_adversary_rejected(self):
        text = open(CS_PATH).read() + "\n[adversary ALICE]\nkey = C_KEY\n"
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(text, "bad")
        assert err.value.code == M.E_TWO_ADVERSARIES

    def test_parse_error_carries_line(self):
        with pytest.raises(M.ModelIOError, match="line 2"):
            M.build_model("[transactions]\nBOGUS LINE\n")

    def test_clock_guard_constant_containing_and(self):
        # `expand_at` holds the letters "and" but is one name
        text = open(CS_PATH).read().replace(
            "WEAKENED_ALICE = 0", "WEAKENED_ALICE = 0\nexpand_at = 7",
        ).replace(
            'clock "time == MAX_LATENCY" guard "not on_chain(COMMIT)"',
            'clock "time >= expand_at" guard "not on_chain(COMMIT)"',
        ).replace(
            'clock "time == MAX_LATENCY" guard "not can_create_input_script',
            'clock "time >= expand_at and time <= MAX_LATENCY" guard "not can_create_input_script',
        )
        model = M.build_model(text, "expand")
        guards = {e.label: e.clock_guard
                  for autos in model.honest_automata.values()
                  for a in autos for e in a.edges}
        assert guards["commit_missing"] == (("time", ">=", 7),)
        assert guards["signature_missing"] == (("time", ">=", 7),
                                               ("time", "<=", 10))

    def test_automaton_without_party_carries_header_line(self):
        text = "[keys]\nK\n\n[automaton A]\nlocation s initial\n"
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(text)
        assert (err.value.code, err.value.line) == (M.E_PARSE, 4)

    def test_adversary_without_key_carries_header_line(self):
        text = ('[keys]\nK\n[marks]\nM\n[parties]\nALICE:\n'
                '[adversary ALICE]\nmessage m update "set_mark(M)"\n')
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(text)
        assert (err.value.code, err.value.line) == (M.E_PARSE, 7)


class TestDeclaredOnce:
    """A name declared twice is E_NAME at the second declaration, a field
    given twice in one entry, a second capacity line and a second initial
    location of one automaton are E_PARSE, and repeated edges stay
    legal."""

    @pytest.mark.parametrize("path,line,code", [
        (CS_PATH, "MAX_LATENCY = 10", M.E_NAME),
        (CS_PATH, "R_KEY", M.E_NAME),
        (CS_PATH, "C_SEC", M.E_NAME),
        (CS_PATH, "BOB: keys = R_KEY", M.E_NAME),
        (CS_PATH, "OPEN: inputs = COMMIT:0; outputs = key(C_KEY):1; reveals = C_SEC",
         M.E_NAME),
        (CS_PATH, "NSS0: {C_KEY, reveal C_SEC} | {C_KEY, R_KEY}", M.E_NAME),
        (CS_PATH, "open_deadline = PROT_TIMELOCK - MAX_LATENCY", M.E_NAME),
        (NEWSCS_PATH, "bob_accepted", M.E_NAME),
        (CS_PATH, "[automaton BobTA party=BOB]", M.E_NAME),
        (CS_PATH, "location committed", M.E_NAME),
        (CS_PATH, "bob_accepts: A[] not BobTA.failure", M.E_NAME),
        (CS_PATH, "key = R_KEY", M.E_PARSE),
        (CS_PATH, "capacity = 1", M.E_PARSE),
        (CS_PATH, "edge start -> await_signature urgent guard \"on_chain(COMMIT)\" "
         "label commit_confirmed", None),
    ], ids=["constant", "key", "secret", "party", "transaction", "nss", "timer",
            "mark", "automaton", "location", "query", "adversary-key", "capacity",
            "edge"])
    def test_line_written_twice(self, path, line, code):
        lines = open(path).read().split("\n")
        i = lines.index(line)
        text = "\n".join(lines[:i + 1] + lines[i:])
        if code is None:
            build_text(text)
            return
        with pytest.raises(M.ModelIOError) as err:
            build_text(text)
        assert (err.value.code, err.value.line) == (code, i + 2)

    @pytest.mark.parametrize("line,edited", [
        ("OPEN: inputs = COMMIT:0;", "OPEN: inputs = COMMIT:0; inputs = INPUT:0;"),
        ("outputs = key(C_KEY):1; confirmed", "outputs = key(C_KEY):1; confirmed; confirmed"),
        ("ALICE: keys = C_KEY;", "ALICE: keys = C_KEY; keys = R_KEY;"),
        ("location committed", "location committed initial"),
    ], ids=["inputs", "confirmed", "keys", "initial"])
    def test_field_given_twice(self, line, edited):
        text = open(CS_PATH).read()
        assert line in text
        number = text[:text.index(line)].count("\n") + 1
        with pytest.raises(M.ModelIOError) as err:
            build_text(text.replace(line, edited, 1))
        assert (err.value.code, err.value.line) == (M.E_PARSE, number)

    def test_party_named_after_a_keyword(self):
        # only `capacity = INT` is the capacity line
        model = build_text(open(CS_PATH).read().replace("BOB", "capacity_bob"))
        assert model.party_names == ("ALICE", "capacity_bob", "ADVERSARY")
        assert model.sig_capacity == 1
        instantiate(model, adversary="capacity_bob")

    def test_adversary_key_line_is_a_whole_word(self):
        text = open(CS_PATH).read()
        line = text[:text.index("key = R_KEY")].count("\n") + 2
        with pytest.raises(M.ModelIOError) as err:
            build_text(text.replace("key = R_KEY", "key = R_KEY\nkeys = C_KEY"))
        assert (err.value.code, err.value.line) == (M.E_PARSE, line)


# Where each kind of expression sits in cs.model: the line with `{}` in
# place of the expression, and the expression the file has there.
EXPRESSION_SPOTS = {
    "guard": ('guard "{}" label commit_confirmed', "on_chain(COMMIT)"),
    "update": ('message send_fuse_sig update "{}"', "broadcast_signature(C_KEY, FUSE)"),
    "clock": ('clock "{}" guard "not on_chain(COMMIT)"', "time == MAX_LATENCY"),
    "timer": ("open_deadline = {}", "PROT_TIMELOCK - MAX_LATENCY"),
    "timelock": ("timelock = {}", "PROT_TIMELOCK"),
    "invariant": ('location start initial invariant="time <= {}"', "MAX_LATENCY"),
}


def cs_with(spot, expression, text=None):
    """cs.model with the expression at `spot` replaced."""
    line, original = EXPRESSION_SPOTS[spot]
    text = text or open(CS_PATH).read()
    assert line.format(original) in text
    return text.replace(line.format(original), line.format(expression), 1)


def build_text(text):
    return M.build_model(text, "edited")


class TestExpressionErrors:
    """One row per expression form and the code it reports; None means
    the model builds."""

    @pytest.mark.parametrize("spot,expression,code", [
        ("guard", "bogus(COMMIT)", M.E_EXPR),
        ("guard", "on_chain(GHOST)", M.E_NAME),
        ("guard", "on_chain(COMMIT) and", M.E_EXPR),
        ("guard", "(on_chain(COMMIT)", M.E_EXPR),
        ("guard", "on_chain(COMMIT))", M.E_EXPR),
        ("guard", "on_chain(COMMIT) @", M.E_EXPR),
        ("guard", "status(COMMIT)", M.E_EXPR),
        ("guard", "status(COMMIT) == BOGUS", M.E_EXPR),
        ("guard", "status(COMMIT) < UNSENT", M.E_EXPR),
        ("guard", "on_chain(COMMIT) imply not on_chain(OPEN)", None),
        ("update", "frobnicate(C_KEY)", M.E_EXPR),
        ("update", "broadcast_signature(C_KEY, FUSE);", M.E_EXPR),
        ("update", "broadcast_signature(GHOST, FUSE)", M.E_NAME),
        ("update", "broadcast_signature(C_KEY, FUSE, x)", M.E_EXPR),
        ("update", "broadcast_signature(C_KEY, FUSE,)", M.E_EXPR),
        ("update", "broadcast_signature(C_KEY, FUSE, 0)", M.E_EXPR),
        ("clock", "time == MAX_LATENCY or time == 0", M.E_EXPR),
        ("clock", "not time == MAX_LATENCY", M.E_EXPR),
        ("clock", "true", M.E_EXPR),
        ("clock", "time < MAX_LATENCY", M.E_STRICT),
        ("clock", "time ==", M.E_EXPR),
        ("clock", "time == MAX_LATENCY +", M.E_EXPR),
        ("timer", "PROT_TIMELOCK - GHOST", M.E_NAME),
        ("timer", "PROT_TIMELOCK - MAX_LATENCY)", M.E_EXPR),
        ("timelock", "GHOST", M.E_NAME),
        ("timelock", "PROT_TIMELOCK)", M.E_EXPR),
        ("invariant", "GHOST", M.E_NAME),
    ])
    def test_error_code(self, spot, expression, code):
        text = cs_with(spot, expression)
        if code is None:
            build_text(text)
            return
        with pytest.raises(M.ModelIOError) as err:
            build_text(text)
        edited = EXPRESSION_SPOTS[spot][0].format(expression)
        line = text[:text.index(edited)].count("\n") + 1
        assert (err.value.code, err.value.line) == (code, line)
        assert str(err.value).startswith("%s: line %d: " % (code, line))

    def test_guard_imply(self):
        for p, r in itertools.product((0, 1), repeat=2):
            text = open(CS_PATH).read().replace(
                "WEAKENED_ALICE = 0", "WEAKENED_ALICE = 0\nP = %d\nR = %d" % (p, r))
            model = build_text(cs_with("guard", "P imply R", text))
            (edge,) = [e for autos in model.honest_automata.values()
                       for a in autos for e in a.edges
                       if e.label == "commit_confirmed"]
            # constant atoms never read the world
            assert edge.guard(None, None) == (not p or r)

    @pytest.mark.parametrize("text,where", [
        ("A[] time >= ", "line 1, column 13"),
        ("A[] time >=\n  GHOST", "line 2, column 3"),
        ("A[] (time >= 1", "line 1, column 15"),
        ("A[] time >= 1 @", "line 1, column 15"),
        ("A[] hold_bitcoins(parties[ALICA]) == 1", "line 1, column 27"),
        ("A[] time >= 1 imply", "line 1, column 20"),
    ])
    def test_query_error_position(self, text, where):
        _net, ctx = instantiate(M.contract_model("cs"))
        with pytest.raises(Q.QueryError, match=re.escape(where)):
            Q.parse_query(text, ctx)


def expression_mutants(text):
    """`text` with one quoted expression cut short at a token, or with
    that token replaced by one of a few stray tokens."""
    for quoted in re.finditer(r'"([^"]*)"', text):
        start, close = quoted.start(1), quoted.end(1)
        for tok in re.finditer(r"\w+|==|!=|<=|>=|\S", quoted.group(1)):
            a, b = start + tok.start(), start + tok.end()
            yield text[:a] + text[close:]
            for stray in ("@", "x", "9", ")", ","):
                yield text[:a] + stray + text[b:]


@pytest.mark.parametrize("path", [CS_PATH, NEWSCS_PATH], ids=["cs", "newscs"])
def test_expression_mutants_build_or_raise_model_error(path):
    crashes = []
    count = 0
    for text in expression_mutants(open(path).read()):
        count += 1
        try:
            build_text(text)
        except M.ModelError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other type is the defect
            crashes.append("%s: %s" % (type(exc).__name__, exc))
    assert count > 500
    assert crashes == []


def line_mutants(text):
    """`text` with one non-comment line deleted or written twice, or with
    one `;`-separated field of a line dropped."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if not line.split("#", 1)[0].strip():
            continue
        yield lines[:i] + lines[i + 1:]
        yield lines[:i + 1] + lines[i:]
        fields = line.split(";")
        for j in range(len(fields) if len(fields) > 1 else 0):
            yield lines[:i] + [";".join(fields[:j] + fields[j + 1:])] + lines[i + 1:]


@pytest.mark.parametrize("path", [CS_PATH, NEWSCS_PATH], ids=["cs", "newscs"])
def test_line_mutants_build_or_raise_model_error(path):
    """Each mutant either raises ModelError from the loader, or builds and
    then instantiates, or raises ModelError, with no adversary and with
    each party as the adversary."""
    crashes = []
    count = 0
    for lines in line_mutants(open(path).read()):
        count += 1
        try:
            model = build_text("\n".join(lines))
            for adversary in (None,) + model.party_names[:-1]:
                try:
                    instantiate(model, adversary=adversary)
                except M.ModelError:
                    pass
        except M.ModelError:
            pass
        except Exception as exc:  # noqa: BLE001 - any other type is the defect
            crashes.append("mutant %d: %s: %s" % (count, type(exc).__name__, exc))
    assert count > 100
    assert crashes == []


SHIPPED_ROWS = [
    ("cs", (10, 100), {}, None, (32, 62)),
    ("cs", (10, 100), {}, "ALICE", (249, 536)),
    ("cs", (10, 100), {}, "BOB", (18, 38)),
    ("cs", (2, 5), {"weakened_alice": True}, None, (33, 66)),
    ("cs", (2, 5), {"weakened_alice": True}, "ALICE", (252, 542)),
    ("newscs", (1, 5), {}, None, (308, 588)),
    ("newscs", (1, 5), {"buggy_bob": True}, None, (300, 576)),
]
SHIPPED_IDS = ["cs-10-100-honest", "cs-10-100-ALICE", "cs-10-100-BOB",
               "cs-2-5-weakened_alice-honest", "cs-2-5-weakened_alice-ALICE",
               "newscs-1-5-honest", "newscs-1-5-buggy_bob-honest"]


def shipped_net(contract, constants, variant, adversary):
    overrides = {"MAX_LATENCY": constants[0], "PROT_TIMELOCK": constants[1]}
    model = M.contract_model(contract, overrides, variant)
    net, ctx = instantiate(model, adversary=adversary)
    return model, net, ctx


def shipped_queries(model, ctx):
    """The model's queries that parse in this scenario, in name order."""
    asts = []
    for name in sorted(model.queries):
        try:
            asts.append(Q.parse_query(model.queries[name], ctx))
        except Q.QueryError:
            continue  # names an automaton absent in this scenario
    return asts


class TestShippedModels:
    """Pinned whole-exploration counters of the shipped files (no query,
    default checks): distinct keys and transitions.  Keys match the
    Python builders the files replaced; transitions come only from
    states that no larger zone evicted before they were popped, with
    evicting states expanded ahead of the breadth-first queue, over
    zones whose transaction clocks are extrapolated."""

    @pytest.mark.parametrize("contract,constants,variant,adversary,counts",
                             SHIPPED_ROWS, ids=SHIPPED_IDS)
    def test_exploration_counters(self, contract, constants, variant,
                                  adversary, counts):
        _model, net, _ctx = shipped_net(contract, constants, variant, adversary)
        res = explore(net)
        assert (res.states, res.transitions) == counts

    @pytest.mark.parametrize("contract,constants,variant,adversary,counts",
                             SHIPPED_ROWS, ids=SHIPPED_IDS)
    def test_extrapolation_keeps_reachable_set_and_verdicts(
            self, contract, constants, variant, adversary, counts):
        model, net, ctx = shipped_net(contract, constants, variant, adversary)
        checks = [Q.make_checker(ast) for ast in shipped_queries(model, ctx)]
        runs = [explore(net, collect_reachable=True, extrapolate=lu)
                for lu in (True, False)]
        assert runs[0].reachable == runs[1].reachable
        assert runs[0].transitions <= runs[1].transitions
        lu_on, lu_off = [explore(net, check=checks, extrapolate=lu)
                         for lu in (True, False)]
        assert lu_on.verdicts == lu_off.verdicts
        for trace in filter(None, lu_on.traces):
            replay_trace(net, trace)  # clock valuations included

    @pytest.mark.parametrize("contract,constants,variant,adversary,counts",
                             SHIPPED_ROWS, ids=SHIPPED_IDS)
    def test_deadline_flags_agree_with_time(self, contract, constants, variant,
                                            adversary, counts):
        # every stored zone: a set timer or timelock flag lies at or past
        # its threshold, a clear one at or before it
        model, net, _ctx = shipped_net(contract, constants, variant, adversary)
        seen = []

        def flags_agree(state):
            data, T = state.data, state.data.T
            flags = [(data[T.timers + i], theta)
                     for i, (_name, theta) in enumerate(model.timers)]
            flags += [(data[T.flag + tx.num], tx.timelock)
                      for tx in T.txs if tx.timelock > 0]
            assert len(flags) > 1
            for set_, theta in flags:
                if set_:
                    assert min_value(state.zone, 1) >= theta
                else:
                    hi = max_value(state.zone, 1)
                    assert hi is not None and hi <= theta
            seen.append(state)

        assert explore(net, check=flags_agree).verdict == "SATISFIED"
        assert len(seen) >= counts[0]

    @pytest.mark.parametrize("contract,constants,variant,adversary,counts",
                             SHIPPED_ROWS, ids=SHIPPED_IDS)
    def test_explorers_build_no_cycles(self, contract, constants, variant,
                                       adversary, counts):
        # both explorers pause the cyclic collector (kernel module notes),
        # which is sound only while they leave it nothing to free
        model, net, ctx = shipped_net(contract, constants, variant, adversary)
        asts = shipped_queries(model, ctx)
        checks = [Q.make_checker(ast) for ast in asts]
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            zres = explore(net, check=checks, collect_reachable=True)
            assert gc.collect() == 0
            ores, _verdicts = explore_discrete(net, queries=asts)
            assert gc.collect() == 0
        finally:
            (gc.enable if was else gc.disable)()
        assert zres.states == ores.states == counts[0]


    @pytest.mark.parametrize("contract,constants,adversary", [
        ("cs", (2, 5), None),
        ("cs", (2, 5), "ALICE"),
        ("cs", (2, 5), "BOB"),
        ("newscs", (1, 5), None),
    ], ids=["cs-2-5-honest", "cs-2-5-ALICE", "cs-2-5-BOB", "newscs-1-5-honest"])
    def test_subsumption_keeps_reachable_set(self, contract, constants,
                                             adversary):
        overrides = {"MAX_LATENCY": constants[0], "PROT_TIMELOCK": constants[1]}
        net, _ctx = instantiate(M.contract_model(contract, overrides),
                                adversary=adversary)
        with_sub = explore(net, collect_reachable=True, subsumption=True)
        without = explore(net, collect_reachable=True, subsumption=False)
        assert with_sub.reachable == without.reachable
        assert with_sub.verdict == without.verdict
        assert with_sub.transitions <= without.transitions


class TestReports:
    def make_violation(self):
        model = build_cs_model(WorldConstants(2, 5))
        net, ctx = instantiate(model, adversary="ALICE")
        q = Q.parse_query(model.queries["bob_knows_secret"], ctx)
        res = explore(net, check=Q.make_checker(q))
        return model, net, q, res

    def test_satisfied_report_roundtrips_json(self):
        model = build_cs_model(WorldConstants(2, 5))
        net, ctx = instantiate(model, adversary=None)
        q = Q.parse_query(model.queries["bob_security"], ctx)
        res = explore(net, check=Q.make_checker(q))
        report = M.result_to_report(res, model, None, "bob_security",
                                    model.queries["bob_security"], net)
        blob = json.loads(json.dumps(report))
        assert blob["schema_version"] == M.SCHEMA_VERSION
        assert blob["verdict"] == "SATISFIED"
        assert blob["states"] > 0
        assert "trace" not in blob

    def test_violation_report_has_replayable_trace(self):
        model, net, q, res = self.make_violation()
        report = M.result_to_report(res, model, "ALICE", "bob_knows_secret",
                                    model.queries["bob_knows_secret"], net)
        doc = json.loads(json.dumps(report["trace"]))
        final = M.replay_document(doc)
        assert not w.know_secret(final.data, 1, 0)

    def test_counterexample_document_pinned(self):
        # fire labels are derived from descriptors when a trace is built;
        # the document, as `tacv verify --trace-out` writes it, is pinned
        # byte for byte
        model, net, q, res = self.make_violation()
        doc = M.trace_to_document(res.trace, net, model, "ALICE",
                                  model.queries["bob_knows_secret"])
        steps = json.loads(json.dumps(doc))["steps"]
        assert [s["label"] for s in steps] == [
            "AdversaryTA.send_fuse_sig", "delay", "BobTA.commit_missing",
            "delay", "HelperTA.tick@3", "delay"]
        assert [s["descriptor"] for s in steps] == [
            ["fire", 2, 1, []], ["delay"], ["fire", 3, 1, []], ["delay"],
            ["fire", 1, 0, []], ["delay"]]
        text = json.dumps(doc, sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "09d7c8b3d39bc72bd58c8ee2d2ce627ebf8bb5aedebaeeca7e7be8079e14d1db")

    def test_tampered_trace_detected(self):
        model, net, q, res = self.make_violation()
        doc = M.trace_to_document(res.trace, net, model, "ALICE",
                                  model.queries["bob_knows_secret"])
        doc = json.loads(json.dumps(doc))
        fire_steps = [s for s in doc["steps"] if s["kind"] == "fire"]
        fire_steps[-1]["statuses"]["OPEN"] = "CONFIRMED"
        with pytest.raises(M.TraceReplayError):
            M.replay_document(doc)

    def test_tampered_holding_detected(self):
        model, net, q, res = self.make_violation()
        doc = M.trace_to_document(res.trace, net, model, "ALICE",
                                  model.queries["bob_knows_secret"])
        doc = json.loads(json.dumps(doc))
        last = len(doc["steps"]) - 1
        doc["steps"][last]["holdings"]["ALICE"] += 1
        with pytest.raises(M.TraceReplayError, match="holdings") as err:
            M.replay_document(doc)
        assert err.value.step == last

    def test_limit_report_distinct(self):
        model = build_cs_model(WorldConstants(2, 5))
        net, ctx = instantiate(model, adversary="ALICE")
        q = Q.parse_query(model.queries["bob_security"], ctx)
        res = explore(net, check=Q.make_checker(q), max_states=5)
        report = M.result_to_report(res, model, "ALICE", "bob_security",
                                    model.queries["bob_security"], net)
        assert report["verdict"] == "LIMIT"
        assert report["limit_reason"]


class TestTraceRoundTrip:
    """Random runs replay step for step through both replays."""

    def replay_both(self, model, adversary, seed):
        net, _ctx = instantiate(model, adversary=adversary)
        trace = random_run(net, seed=seed, steps=50)
        final = replay_trace(net, trace)
        doc = M.trace_to_document(trace, net, model, adversary, query_text=None)
        final_doc = M.replay_document(json.loads(json.dumps(doc)))
        assert (final_doc.locs, final_doc.data) == (final.locs, final.data)
        if trace.steps:
            last = trace.steps[-1]
            assert (final.locs, final.data) == (last.locs, last.data)

    @pytest.mark.parametrize("adversary", [None, "ALICE", "BOB"])
    def test_cs_random_runs(self, adversary):
        model = build_cs_model(WorldConstants(2, 5))
        for seed in range(20):
            self.replay_both(model, adversary, seed)

    def test_newscs_random_runs_adversary_alice(self):
        model = build_newscs_model(WorldConstants(1, 5))
        for seed in range(4):
            self.replay_both(model, "ALICE", seed)

    @pytest.mark.parametrize("adversary", [None, "ALICE"])
    def test_cs_weakened_alice_random_runs(self, adversary):
        model = build_cs_model(WorldConstants(2, 5), weakened_alice=True)
        for seed in range(20):
            self.replay_both(model, adversary, seed)

    @pytest.mark.parametrize("variant", [{"buggy_bob": True},
                                         {"abort_margin": 2}])
    def test_newscs_variant_random_runs(self, variant):
        model = build_newscs_model(WorldConstants(1, 5), **variant)
        for seed in range(4):
            self.replay_both(model, "ALICE", seed)

    def test_cs_unpruned_random_runs(self):
        # the full loop's runs replay through the kernel; a document
        # cannot name that loop, so only `instantiate`'s runs have one
        from test_adversary import full_loop
        model = build_cs_model(WorldConstants(2, 5))
        net, _ctx = full_loop(model, "ALICE")
        for seed in range(20):
            trace = random_run(net, seed=seed, steps=50)
            final = replay_trace(net, trace)
            if trace.steps:
                last = trace.steps[-1]
                assert (final.locs, final.data) == (last.locs, last.data)

    @pytest.mark.parametrize("adversary", [None, "ALICE"])
    def test_model_file_random_runs(self, adversary):
        model = M.load_model(CS_PATH, overrides={"MAX_LATENCY": 2,
                                                 "PROT_TIMELOCK": 5})
        for seed in range(20):
            self.replay_both(model, adversary, seed)


class TestTraceScenario:
    """A trace document carries its scenario and the query it witnesses."""

    def violation_document(self, model, query="bob_knows_secret"):
        net, ctx = instantiate(model, adversary="ALICE")
        q = Q.parse_query(model.queries[query], ctx)
        res = explore(net, check=Q.make_checker(q))
        assert res.verdict == "VIOLATED"
        doc = M.trace_to_document(res.trace, net, model, "ALICE",
                                  model.queries[query])
        return json.loads(json.dumps(doc))

    def test_records_variant_and_pruning(self):
        model = build_newscs_model(WorldConstants(1, 5), buggy_bob=True,
                                   abort_margin=2)
        net, _ctx = instantiate(model, adversary="BOB")
        doc = M.trace_to_document(random_run(net, seed=0, steps=5), net, model,
                                  "BOB", query_text=None)
        assert doc["variant"] == {"abort_margin": 2, "buggy_bob": True}
        assert "prune_idle_sweeps" not in doc
        assert doc["model_file"] is None

    def test_document_without_scenario_keys_means_defaults(self):
        doc = self.violation_document(build_cs_model(WorldConstants(2, 5)))
        for key in ("variant", "model_file"):
            del doc[key]
        M.replay_document(doc)

    def test_pruning_key_ignored(self):
        doc = self.violation_document(build_cs_model(WorldConstants(2, 5)))
        doc["prune_idle_sweeps"] = False
        M.replay_document(doc)

    def test_fired_idle_sweep_not_enabled(self, tmp_path):
        # a document of the full loop that sweeps OPEN's output (sweep 6)
        # names a transition the scenario no longer has
        from test_adversary import full_loop
        model = build_cs_model(WorldConstants(2, 5))
        net, _ctx = full_loop(model, "ALICE")
        res = explore(net, check=lambda s: s.zone if s.data[6] != w.UNSENT else None)
        doc = M.trace_to_document(res.trace, net, model, "ALICE", query_text=None)
        doc = json.loads(json.dumps(dict(doc, prune_idle_sweeps=False)))
        (sweep,) = [i for i, s in enumerate(doc["steps"])
                    if s["descriptor"][3] == [["i", 6]]]
        with pytest.raises(M.TraceReplayError, match="not enabled") as err:
            M.replay_document(doc)
        assert err.value.step == sweep
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["trace", str(path)]) == cli.EXIT_ERROR

    def test_satisfied_query_rejected(self):
        doc = self.violation_document(build_cs_model(WorldConstants(2, 5)))
        doc["query"] = "A[] true"
        with pytest.raises(M.TraceReplayError, match="satisfies the query"):
            M.replay_document(doc)

    def test_edited_model_file_rejected(self, tmp_path):
        path = tmp_path / "cs.model"
        path.write_text(open(CS_PATH).read())
        model = M.load_model(str(path), overrides={"MAX_LATENCY": 2,
                                                   "PROT_TIMELOCK": 5})
        doc = self.violation_document(model)
        assert doc["model_file"]["path"] == str(path)
        M.replay_document(doc)
        path.write_text(path.read_text().replace("C_SEC", "CS_SEC"))
        with pytest.raises(M.TraceReplayError, match="changed since"):
            M.replay_document(doc)
