"""Command-line interface: exit codes, formats, replay, determinism."""

import json
import os

import pytest

from tacv import cli

REDUCED = ["--max-latency", "2", "--prot-timelock", "5"]


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
        assert report["schema_version"] == 1
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

    def test_model_file_contract(self, capsys):
        path = os.path.join(os.path.dirname(cli.__file__), "models", "cs.model")
        code, out, _err = run(capsys, "verify", path, *REDUCED)
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


class TestList:
    def test_lists_contracts_and_queries(self, capsys):
        code, out, _err = run(capsys, "list")
        assert code == 0
        assert "cs" in out and "newscs" in out
        assert "bob_security" in out
