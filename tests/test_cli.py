"""Command-line interface: exit codes, formats, replay, determinism."""

import json
import os
import subprocess
import sys

import pytest

from tacv import cli

REDUCED = ["--max-latency", "2", "--prot-timelock", "5"]
MODELS_DIR = os.path.join(os.path.dirname(cli.__file__), "models")
CS_MODEL = os.path.join(MODELS_DIR, "cs.model")
NEWSCS_MODEL = os.path.join(MODELS_DIR, "newscs.model")
CS_BOB_Q = os.path.join(MODELS_DIR, "cs_bob.q")
VIOLATED_QUERY = "A[] (time >= PROT_TIMELOCK) imply (parties[BOB].know_secret[0])"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("TACV_COLOR", "0")


class TestVerify:
    def test_satisfied_exit_zero(self, capsys):
        code, out, _err = run(
            capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
            "--query",
            "A[] (time >= PROT_TIMELOCK+MAX_LATENCY) imply "
            "(hold_bitcoins(parties[BOB]) == 1 or parties[BOB].know_secret[0]"
            " or BobTA.failure)",
        )
        assert code == 0
        assert "SATISFIED" in out

    def test_violated_exit_one_with_trace(self, capsys):
        code, out, _err = run(
            capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
            "--query", "A[] (time >= PROT_TIMELOCK) imply (parties[BOB].know_secret[0])",
        )
        assert code == 1
        assert "VIOLATED" in out and "counterexample" in out

    def test_default_queries_all_satisfied_honest(self, capsys):
        code, out, _err = run(capsys, "verify", "cs", *REDUCED)
        assert code == 0
        assert out.count("SATISFIED") == 5

    def test_two_adversaries_exit_three(self, capsys):
        code, _out, err = run(
            capsys, "verify", "cs", "--adversary", "alice", "--adversary", "bob")
        assert code == 3
        assert "one party" in err

    def test_limit_exit_two(self, capsys):
        code, out, _err = run(
            capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
            "--max-states", "5",
        )
        assert code == 2
        assert "LIMIT" in out

    def test_unknown_contract_exit_three(self, capsys):
        code, _out, err = run(capsys, "verify", "/nonexistent.model")
        assert code == 3

    def test_bad_query_exit_three(self, capsys):
        code, _out, err = run(
            capsys, "verify", "cs", *REDUCED, "--query", "A[] time >=")
        assert code == 3

    def test_json_format_schema(self, capsys):
        code, out, _err = run(
            capsys, "verify", "cs", *REDUCED, "--format", "json",
            "--query", "A[] true",
        )
        assert code == 0
        report = json.loads(out.strip())
        assert report["schema_version"] == 3
        assert report["verdict"] == "SATISFIED"
        assert report["engine"] == "zone"

    def test_engines_agree(self, capsys):
        for engine in ("zone", "discrete"):
            code, out, _err = run(
                capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
                "--engine", engine,
                "--query",
                "A[] (time >= PROT_TIMELOCK) imply (hold_bitcoins(parties[ALICE]) == 1)",
            )
            assert code == 1, engine

    def test_discrete_report_counts_transitions(self, capsys):
        code, out, _err = run(
            capsys, "verify", "cs", *REDUCED, "--engine", "discrete",
            "--format", "json", "--query", "A[] true",
        )
        assert code == 0
        report = json.loads(out.strip())
        assert report["engine"] == "discrete"
        assert report["transitions"] > 0

    @pytest.mark.parametrize("engine", ["zone", "discrete"])
    def test_every_default_query_gets_a_verdict(self, capsys, engine):
        code, out, _err = run(
            capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
            "--engine", engine, "--format", "json",
        )
        assert code == 1
        reports = [json.loads(line) for line in out.splitlines()]
        verdicts = {r["query"]["name"]: r["verdict"] for r in reports}
        assert verdicts == {
            "alice_holds_deposit": "VIOLATED",
            "alice_security": "VIOLATED",
            "bob_accepts": "VIOLATED",
            "bob_knows_secret": "VIOLATED",
            "bob_security": "SATISFIED",
        }

    def test_every_violation_trace_replays(self, capsys, tmp_path):
        code, out, _err = run(
            capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
            "--format", "json",
        )
        assert code == 1
        violated = [r for r in map(json.loads, out.splitlines())
                    if r["verdict"] == "VIOLATED"]
        assert len(violated) == 4
        for report in violated:
            # the trace is the one the query finds when checked alone
            code, alone, _err = run(
                capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
                "--format", "json", "--query", report["query"]["text"],
            )
            assert code == 1
            assert json.loads(alone)["trace"] == report["trace"]
            out_file = str(tmp_path / ("%s.json" % report["query"]["name"]))
            with open(out_file, "w") as fh:
                json.dump(report["trace"], fh)
            code, replayed, err = run(capsys, "trace", out_file)
            assert code == 0, err
            assert "final state violates: %s" % report["query"]["text"] in replayed

    def test_trace_out_is_first_violation_in_report_order(self, capsys, tmp_path):
        out_file = str(tmp_path / "trace.json")
        code, out, _err = run(
            capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
            "--format", "json", "--trace-out", out_file,
        )
        assert code == 1
        first = json.loads(out.splitlines()[0])
        assert first["query"]["name"] == "alice_holds_deposit"
        assert json.load(open(out_file)) == first["trace"]

    def test_unwritable_trace_out_exit_three(self, capsys, tmp_path):
        out_file = str(tmp_path / "missing" / "trace.json")
        code, out, err = run(
            capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
            "--trace-out", out_file,
        )
        assert code == 3
        assert "VIOLATED" in out
        assert err.startswith("error: cannot write the trace document")
        assert "Traceback" not in err

    def test_model_file_contract(self, capsys):
        code, out, _err = run(capsys, "verify", CS_MODEL, *REDUCED)
        assert code == 0

    def test_buggy_bob_violated(self, capsys):
        code, out, _err = run(
            capsys, "verify", "newscs", "--buggy-bob", "--adversary", "alice",
            "--max-latency", "1", "--prot-timelock", "5",
            "--query",
            "A[] ((time >= PROT_TIMELOCK+2*MAX_LATENCY) imply "
            "((parties[ALICE].know_secret[SB_SEC] and "
            "!parties[BOB].know_secret[SA_SEC]) imply "
            "hold_bitcoins(parties[BOB]) >= 3))",
        )
        assert code == 1


    @pytest.mark.parametrize("contract,flags", [
        ("cs", ["--buggy-bob"]),
        ("cs", ["--abort-margin", "1"]),
        ("newscs", ["--weakened-alice"]),
        (CS_MODEL, ["--abort-margin", "2"]),
    ])
    def test_inapplicable_variant_exit_three(self, capsys, contract, flags):
        code, out, err = run(
            capsys, "verify", contract, *flags,
            "--max-latency", "1", "--prot-timelock", "5", "--query", "A[] true")
        assert code == 3
        assert "takes no option" in err and out == ""

    def test_variant_applies_to_model_file(self, capsys):
        # the single-shot recovery reaches 300 keys, the fixed one 308
        argv = ["--buggy-bob", "--max-latency", "1", "--prot-timelock", "5",
                "--format", "json", "--query", "A[] true"]
        reports = []
        for contract in ("newscs", NEWSCS_MODEL):
            code, out, _err = run(capsys, "verify", contract, *argv)
            assert code == 0
            report = json.loads(out)
            del report["wall_time_s"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["states"] == 300

    @pytest.mark.parametrize("line,malformed", [
        ("capacity = 1", "capacity = one"),
        ("OPEN: inputs = COMMIT:0", "OPEN: inputs = COMMIT"),
        ("location init initial", "location"),
        ("ALICE: keys = C_KEY;", "ALICE: keys;"),
    ])
    def test_malformed_model_line_exit_three(self, capsys, tmp_path, line, malformed):
        path = tmp_path / "cs.model"
        path.write_text(open(CS_MODEL).read().replace(line, malformed))
        code, out, err = run(capsys, "verify", str(path), "--query", "A[] true")
        assert code == 3
        assert err.startswith("error: E_PARSE: line ") and out == ""

    @pytest.mark.parametrize("party_line", [
        "ALICE: keys = C_KEYY; secrets = C_SEC",
        "ALICE: keys = C_KEY; secrets = C_SECC",
    ], ids=["key", "secret"])
    def test_undeclared_party_name_exit_three(self, capsys, tmp_path, party_line):
        text = open(CS_MODEL).read()
        shipped = "ALICE: keys = C_KEY; secrets = C_SEC"
        line = text[:text.index(shipped)].count("\n") + 1
        path = tmp_path / "cs.model"
        path.write_text(text.replace(shipped, party_line))
        code, out, err = run(capsys, "verify", str(path), *REDUCED)
        assert code == 3 and out == ""
        assert err.startswith("error: E_NAME: line %d: unknown " % line)

    def test_adversary_without_its_section_exit_three(self, capsys, tmp_path):
        path = tmp_path / "cs.model"
        path.write_text(open(CS_MODEL).read().replace("[adversary BOB]\nkey = R_KEY\n", ""))
        code, out, err = run(capsys, "verify", str(path), "--adversary", "bob", *REDUCED)
        assert code == 3 and out == ""
        assert err.startswith("error: party BOB has no [adversary BOB] section")

    def test_party_without_automaton_exit_three(self, capsys, tmp_path):
        path = tmp_path / "cs.model"
        path.write_text(open(CS_MODEL).read().replace(
            "BOB: keys = R_KEY", "BOB: keys = R_KEY\nCAROL:"))
        code, out, err = run(capsys, "verify", str(path), *REDUCED)
        assert code == 3 and out == ""
        assert err.startswith("error: party CAROL has no automaton")

    def test_discrete_engine_wall_clock_budget(self, capsys):
        code, out, _err = run(
            capsys, "verify", "newscs", "--engine", "discrete", "--adversary",
            "alice", "--max-latency", "1", "--prot-timelock", "5",
            "--max-seconds", "0.1", "--query", "A[] true")
        assert code == 2
        assert "LIMIT" in out and "wall-clock budget exhausted" in out

    def test_query_file(self, capsys):
        code, out, _err = run(
            capsys, "verify", "cs", "--query-file", CS_BOB_Q, *REDUCED,
            "--adversary", "alice")
        assert code == 0
        assert out.count("SATISFIED") == 1

    def test_query_of_the_adversary_automaton_skipped(self, capsys):
        # bob_accepts and bob_security name BobTA, which Bob as the
        # adversary does not run
        code, out, err = run(capsys, "verify", "cs", "--adversary", "bob", *REDUCED)
        assert code == 0
        assert out.count("SATISFIED") == 3
        assert "note: skipping query bob_accepts" in err
        assert "note: skipping query bob_security" in err

    @pytest.mark.parametrize("malformed", [
        "bob_security: A[] (((",
        "bob_security: A[] not GhostTA.failure",
    ])
    def test_malformed_named_query_exit_three(self, capsys, tmp_path, malformed):
        path = tmp_path / "cs.model"
        text = open(CS_MODEL).read()
        line = [l for l in text.splitlines() if l.startswith("bob_security:")][0]
        path.write_text(text.replace(line, malformed))
        code, out, err = run(capsys, "verify", str(path), *REDUCED)
        assert code == 3
        assert err.startswith("error: query bob_security: line 1, column ")
        assert out == ""


class TestTraceCommand:
    def test_roundtrip_replay(self, capsys, tmp_path):
        out_file = str(tmp_path / "trace.json")
        code, _out, _err = run(
            capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
            "--query", "A[] (time >= PROT_TIMELOCK) imply (parties[BOB].know_secret[0])",
            "--trace-out", out_file,
        )
        assert code == 1
        code, out, _err = run(capsys, "trace", out_file)
        assert code == 0
        assert "replayed" in out

    def test_tampered_trace_diverges(self, capsys, tmp_path):
        out_file = str(tmp_path / "trace.json")
        run(
            capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
            "--query", "A[] (time >= PROT_TIMELOCK) imply (parties[BOB].know_secret[0])",
            "--trace-out", out_file,
        )
        doc = json.load(open(out_file))
        for step in doc["steps"]:
            if step["kind"] == "fire":
                step["statuses"]["FUSE"] = "CONFIRMED"
        json.dump(doc, open(out_file, "w"))
        code, _out, err = run(capsys, "trace", out_file)
        assert code == 3
        assert "diverged" in err


    def write_violation(self, capsys, tmp_path):
        out_file = str(tmp_path / "trace.json")
        code, _out, _err = run(
            capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
            "--query", VIOLATED_QUERY, "--trace-out", out_file,
        )
        assert code == 1
        return out_file

    def test_weakened_alice_roundtrip(self, capsys, tmp_path):
        out_file = str(tmp_path / "trace.json")
        code, _out, _err = run(
            capsys, "verify", "cs", "--weakened-alice", *REDUCED,
            "--query", "A[] not BobTA.failure", "--trace-out", out_file,
        )
        assert code == 1
        assert json.load(open(out_file))["variant"] == {"weakened_alice": True}
        code, out, err = run(capsys, "trace", out_file)
        assert code == 0, err
        assert "final state violates: A[] not BobTA.failure" in out

    def test_buggy_bob_trace_replays_without_flag(self, capsys, tmp_path):
        # the fixed Bob cannot follow this counterexample past the recovery
        out_file = str(tmp_path / "trace.json")
        code, _out, _err = run(
            capsys, "verify", "newscs", "--buggy-bob", "--adversary", "alice",
            "--max-latency", "1", "--prot-timelock", "5",
            "--query", "A[] ((time >= PROT_TIMELOCK+2*MAX_LATENCY) imply "
            "((parties[ALICE].know_secret[SB_SEC] and "
            "!parties[BOB].know_secret[SA_SEC]) imply "
            "hold_bitcoins(parties[BOB]) >= 3))",
            "--trace-out", out_file,
        )
        assert code == 1
        code, _out, err = run(capsys, "trace", out_file)
        assert code == 0, err

    def test_malformed_descriptor_exit_three(self, capsys, tmp_path):
        out_file = self.write_violation(capsys, tmp_path)
        doc = json.load(open(out_file))
        doc["steps"][0]["descriptor"] = ["fire", 99]
        json.dump(doc, open(out_file, "w"))
        code, out, err = run(capsys, "trace", out_file)
        assert code == 3
        assert err.startswith("error: replay diverged: step 0:") and out == ""

    @pytest.mark.parametrize("version", [1, 2])
    def test_schema_one_document_refused(self, capsys, tmp_path, version):
        # schemas 1 and 2 stored each step's `time` only, not every clock;
        # schema 1 also wrote six-field fire descriptors, where an urgent
        # fire named HelperTA's sender edge (automaton 1, edge 0) and its
        # partner
        out_file = self.write_violation(capsys, tmp_path)
        doc = json.load(open(out_file))
        doc["schema_version"] = version
        for step in doc["steps"]:
            step["time"] = step.pop("clocks")["time"]
            if version == 1 and step["kind"] == "fire":
                step["descriptor"] = ["fire", 1, 0, [], step["descriptor"][1:],
                                      "urg_chan"]
        json.dump(doc, open(out_file, "w"))
        code, out, err = run(capsys, "trace", out_file)
        assert code == 3
        assert "unsupported schema version" in err and out == ""

    def replay_mutant(self, capsys, tmp_path, doc):
        out_file = str(tmp_path / "mutant.json")
        with open(out_file, "w") as fh:
            json.dump(doc, fh)
        code, out, err = run(capsys, "trace", out_file)
        assert code == 3 and out == ""
        return err

    def test_last_delay_moved_back_exit_three(self, capsys, tmp_path):
        # each time-bounded counterexample, one time unit short of its bound
        code, out, _err = run(
            capsys, "verify", "cs", "--adversary", "alice", *REDUCED,
            "--format", "json",
        )
        assert code == 1
        docs = [r["trace"] for r in map(json.loads, out.splitlines())
                if r["verdict"] == "VIOLATED" and "time" in r["query"]["text"]]
        assert len(docs) == 3
        for doc in docs:
            steps = doc["steps"]
            last = max(i for i, s in enumerate(steps) if s["kind"] == "delay")
            alive = set(steps[last]["clocks"])
            for step in steps[last:]:
                for clock in alive & set(step["clocks"]):
                    step["clocks"][clock] -= 1
            err = self.replay_mutant(capsys, tmp_path, doc)
            assert err.startswith("error: replay diverged: step %d:"
                                  % (len(steps) - 1))
            assert "the final state satisfies the query" in err

    def test_delay_past_a_pending_threshold_exit_three(self, capsys, tmp_path):
        # the delay that ends at the open deadline, just before its tick,
        # moved one time unit past it while the timer is still clear
        doc = json.load(open(self.write_violation(capsys, tmp_path)))
        steps = doc["steps"]
        i = next(i for i in range(len(steps) - 1) if steps[i]["kind"] == "delay"
                 and steps[i + 1]["label"].startswith("HelperTA.tick@"))
        assert steps[i]["clocks"]["time"] == int(steps[i + 1]["label"].split("@")[1])
        for clock in steps[i]["clocks"]:
            steps[i]["clocks"][clock] += 1
        err = self.replay_mutant(capsys, tmp_path, doc)
        assert err.startswith("error: replay diverged: step %d:" % i)

    def test_zeroed_time_exit_three(self, capsys, tmp_path):
        doc = json.load(open(self.write_violation(capsys, tmp_path)))
        for step in doc["steps"]:
            step["clocks"]["time"] = 0
        err = self.replay_mutant(capsys, tmp_path, doc)
        assert err.startswith("error: replay diverged: step ")

    def test_fire_moving_a_transaction_clock_exit_three(self, capsys, tmp_path):
        code, out, _err = run(
            capsys, "simulate", "cs", "--adversary", "alice", *REDUCED,
            "--seed", "0", "--steps", "20", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        steps = doc["steps"]
        i, clock = next(
            (i, clock) for i in range(1, len(steps)) if steps[i]["kind"] == "fire"
            for clock in steps[i]["clocks"]
            if clock != "time" and clock in steps[i - 1]["clocks"])
        steps[i]["clocks"][clock] += 1
        err = self.replay_mutant(capsys, tmp_path, doc)
        assert err.startswith("error: replay diverged: step %d: fire moves "
                              "clock ('tx', %s)" % (i, clock[2:]))

    def test_edited_location_exit_three(self, capsys, tmp_path):
        doc = json.load(open(self.write_violation(capsys, tmp_path)))
        steps = doc["steps"]
        # a step that moves an automaton, stored as if it had not moved
        i = next(i for i in range(1, len(steps))
                 if steps[i]["locations"] != steps[i - 1]["locations"])
        steps[i]["locations"] = steps[i - 1]["locations"]
        err = self.replay_mutant(capsys, tmp_path, doc)
        assert err.startswith("error: replay diverged: step %d: locations "
                              "diverge" % i)

    def test_unknown_adversary_exit_three(self, capsys, tmp_path):
        out_file = self.write_violation(capsys, tmp_path)
        doc = json.load(open(out_file))
        doc["adversary"] = "CAROL"
        json.dump(doc, open(out_file, "w"))
        code, out, err = run(capsys, "trace", out_file)
        assert code == 3
        assert err.startswith("error: unknown party 'CAROL'") and out == ""


class TestSimulate:
    def test_same_seed_same_output(self, capsys):
        _c, out1, _e = run(capsys, "simulate", "cs", "--seed", "11",
                           "--steps", "20", *REDUCED)
        _c, out2, _e = run(capsys, "simulate", "cs", "--seed", "11",
                           "--steps", "20", *REDUCED)
        assert out1 == out2

    def test_zero_steps_initial_snapshot(self, capsys):
        code, out, _err = run(capsys, "simulate", "cs", "--seed", "3",
                              "--steps", "0", *REDUCED)
        assert code == 0
        assert "initial state only" in out

    def test_honest_simulation_opens(self, capsys):
        # an honest maximal run always ends with the reveal confirmed
        code, out, _err = run(capsys, "simulate", "cs", "--seed", "5",
                              "--steps", "60", *REDUCED)
        assert code == 0
        assert '"OPEN": "CONFIRMED"' in out


class TestUsageErrors:
    """A usage error exits 3, as the `cli` docstring says: argparse's
    own exit code 2 would read as LIMIT."""

    @pytest.mark.parametrize("argv,message", [
        (["verify", "cs", "--max-states", "abc"], "invalid number: 'abc'"),
        (["verify", "cs", "--max-states", "-5"], "must be a number >= 0: '-5'"),
        (["verify", "cs", "--max-seconds", "-1", "--query", "A[] true"],
         "must be a number >= 0: '-1'"),
        (["verify", "cs", "--max-seconds", "nan"], "must be a number >= 0"),
        (["simulate", "cs", "--steps", "-3"], "must be a number >= 0: '-3'"),
        (["verify", "cs", "--engine", "dbm"], "invalid choice"),
        (["frobnicate"], "invalid choice"),
        (["verify", "cs", "--no-prune"], "unrecognized arguments: --no-prune"),
        (["simulate", "cs", "--no-prune"], "unrecognized arguments: --no-prune"),
    ], ids=["states-abc", "states-negative", "seconds-negative", "seconds-nan",
            "steps-negative", "bad-choice", "bad-command", "verify-no-prune",
            "simulate-no-prune"])
    def test_exit_three_with_usage(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_ERROR
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("usage: tacv")
        assert message in out.err

    def test_budget_help_says_what_it_counts(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert ("stored: zone states, dead (evicted) ones included, on --engine"
                " zone, concrete states on --engine discrete") in text
        assert "`states` counts (locations, data) keys" in text
        assert "than MAX_SECONDS seconds of wall-clock time" in text

    def test_state_budget_counts_zone_states(self, capsys):
        # every zone state stored, evicted ones too, against the report's
        # (locations, data) keys
        from tacv.contracts import build_cs_model, instantiate
        from tacv.kernel import explore
        from tacv.world import WorldConstants
        net, _ctx = instantiate(build_cs_model(WorldConstants(2, 5)), adversary="ALICE")
        stored = []
        keys = explore(net, check=lambda s: stored.append(s.zone)).states
        assert keys < len(stored)
        for budget, code in ((len(stored), cli.EXIT_SATISFIED),
                             (len(stored) - 1, cli.EXIT_LIMIT)):
            got, out, _err = run(capsys, "verify", "cs", "--adversary", "alice",
                                 *REDUCED, "--max-states", str(budget),
                                 "--query", "A[] true", "--format", "json")
            assert got == code
            if code == cli.EXIT_SATISFIED:
                assert json.loads(out)["states"] == keys

    def test_zero_budget_accepted(self, capsys):
        code, out, _err = run(capsys, "verify", "cs", *REDUCED, "--max-states",
                              "0", "--query", "A[] true")
        assert code == cli.EXIT_LIMIT
        assert "state budget exhausted" in out


class TestList:
    def test_lists_contracts_and_queries(self, capsys):
        code, out, _err = run(capsys, "list")
        assert code == 0
        assert "cs" in out and "newscs" in out
        assert "bob_security" in out


class TestClosedOutput:
    @pytest.mark.parametrize("argv", [
        ["list"],
        ["verify", "cs", "--adversary", "alice", *REDUCED, "--query", VIOLATED_QUERY],
    ], ids=["list", "verify"])
    def test_closed_pipe_exits_three_quietly(self, argv):
        # the reader is gone before the first write, as in `tacv ... | head`
        # once head has its lines: no traceback, no shutdown warning
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "tacv.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr.decode() == ""
        assert proc.returncode == cli.EXIT_ERROR
