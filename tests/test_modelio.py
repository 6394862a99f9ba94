"""Model files: parsing, serialization round trips, loader validation,
verdict equivalence with built-ins, trace documents and reports."""

import json
import os

import pytest

from tacv import modelio as M
from tacv import queries as Q
from tacv.contracts import build_cs_model, build_newscs_model, instantiate
from tacv.kernel import explore, random_run, replay_trace
from tacv.world import WorldConstants

MODELS_DIR = os.path.join(os.path.dirname(M.__file__), "models")
CS_PATH = os.path.join(MODELS_DIR, "cs.model")
NEWSCS_PATH = os.path.join(MODELS_DIR, "newscs.model")


def parse_file(path, name):
    with open(path) as fh:
        return M.parse_model_text(fh.read(), name=name)


class TestRoundTrip:
    @pytest.mark.parametrize("path,name", [(CS_PATH, "cs"), (NEWSCS_PATH, "newscs")])
    def test_serialize_reparses_identically(self, path, name):
        doc = parse_file(path, name)
        again = M.parse_model_text(M.serialize_model(doc), name=name)
        assert doc == again


class TestLoader:
    def test_cs_loads(self):
        model = M.load_model(CS_PATH)
        assert model.constants == WorldConstants(10, 100)
        assert len(model.protocol_txs) == 4
        assert model.sig_capacity == 1
        assert set(model.queries) == set(build_cs_model().queries)

    def test_newscs_loads(self):
        model = M.load_model(NEWSCS_PATH)
        assert len(model.protocol_txs) == 16
        assert model.mark_count == 2
        assert len(model.signed_txs) == 3

    def test_constant_overrides(self):
        model = M.load_model(CS_PATH, overrides={"MAX_LATENCY": 2,
                                                 "PROT_TIMELOCK": 5})
        assert model.constants == WorldConstants(2, 5)
        assert model.timers[0][1] == 3
        assert model.protocol_txs[3].timelock == 5

    def test_dangling_input_rejected(self):
        text = open(CS_PATH).read().replace(
            "OPEN: inputs = COMMIT:0", "OPEN: inputs = GHOST:0")
        doc = M.parse_model_text(text, name="bad")
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(doc)
        assert err.value.code == M.E_DANGLING_TX

    def test_unknown_key_rejected(self):
        text = open(CS_PATH).read().replace(
            "outputs = key(R_KEY):1", "outputs = key(Z_KEY):1")
        doc = M.parse_model_text(text, name="bad")
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(doc)
        assert err.value.code == M.E_RANGE

    def test_urgent_clock_guard_rejected(self):
        text = open(CS_PATH).read().replace(
            'edge start -> failure clock "time == MAX_LATENCY" guard "not on_chain(COMMIT)" label commit_missing',
            'edge start -> failure urgent clock "time == MAX_LATENCY" guard "not on_chain(COMMIT)" label commit_missing',
        )
        doc = M.parse_model_text(text, name="bad")
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(doc)
        assert err.value.code == M.E_URGENT_CLOCK

    def test_strict_clock_guard_rejected(self):
        text = open(CS_PATH).read().replace(
            'clock "time == MAX_LATENCY" guard "not on_chain(COMMIT)"',
            'clock "time < MAX_LATENCY" guard "not on_chain(COMMIT)"',
        )
        doc = M.parse_model_text(text, name="bad")
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(doc)
        assert err.value.code == M.E_STRICT

    def test_duplicate_adversary_rejected(self):
        text = open(CS_PATH).read() + "\n[adversary ALICE]\nkey = C_KEY\n"
        doc = M.parse_model_text(text, name="bad")
        with pytest.raises(M.ModelIOError) as err:
            M.build_model(doc)
        assert err.value.code == M.E_TWO_ADVERSARIES

    def test_parse_error_carries_line(self):
        with pytest.raises(M.ModelIOError, match="line 2"):
            M.parse_model_text("[transactions]\nBOGUS LINE\n")


class TestVerdictEquivalence:
    """The shipped cs.model behaves exactly like the built-in."""

    @pytest.mark.parametrize("adversary", [None, "ALICE", "BOB"])
    def test_cs_file_matches_builtin(self, adversary):
        overrides = {"MAX_LATENCY": 2, "PROT_TIMELOCK": 5}
        loaded = M.load_model(CS_PATH, overrides=overrides)
        builtin = build_cs_model(WorldConstants(2, 5))
        for qname in sorted(builtin.queries):
            verdicts = []
            for model in (builtin, loaded):
                net, ctx = instantiate(model, adversary=adversary)
                try:
                    q = Q.parse_query(model.queries[qname], ctx)
                except Q.QueryError:
                    verdicts.append("UNRESOLVED")
                    continue
                verdicts.append(explore(net, check=Q.make_checker(q)).verdict)
            assert verdicts[0] == verdicts[1], qname

    def test_newscs_file_matches_builtin_honest(self):
        from tacv.contracts import build_newscs_model
        overrides = {"MAX_LATENCY": 1, "PROT_TIMELOCK": 5}
        loaded = M.load_model(NEWSCS_PATH, overrides=overrides)
        builtin = build_newscs_model(WorldConstants(1, 5))
        for qname in sorted(builtin.queries):
            verdicts = []
            for model in (builtin, loaded):
                net, ctx = instantiate(model, adversary=None)
                q = Q.parse_query(model.queries[qname], ctx)
                verdicts.append(explore(net, check=Q.make_checker(q)).verdict)
            assert verdicts[0] == verdicts[1], qname

    def test_newscs_file_matches_builtin_adversarial(self):
        from tacv.contracts import build_newscs_model
        overrides = {"MAX_LATENCY": 1, "PROT_TIMELOCK": 5}
        loaded = M.load_model(NEWSCS_PATH, overrides=overrides)
        builtin = build_newscs_model(WorldConstants(1, 5))
        for model in (builtin, loaded):
            net, ctx = instantiate(model, adversary="ALICE")
            q = Q.parse_query(model.queries["bob_no_loss"], ctx)
            assert explore(net, check=Q.make_checker(q)).verdict == "SATISFIED"


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
        assert not final.data.parties[1].know_secret[0]

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
