"""CLI behavior: outputs, exit codes, and schema conformance."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import cancelgraph.cli as cli
from cancelgraph import InvariantViolationError, VerificationReport
from cancelgraph.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATIONS,
    run,
)

from conftest import fixture_path


def load_schema(name: str) -> dict:
    text = (resources.files("cancelgraph") / "schemas" / name).read_text()
    return json.loads(text)


ANALYSIS_SCHEMA = load_schema("analysis.schema.json")
VERIFICATION_SCHEMA = load_schema("verification.schema.json")


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_hexagon(capsys):
    code, data = run_json(capsys, ["analyze", fixture_path("c6")])
    assert code == EXIT_OK
    jsonschema.validate(data, ANALYSIS_SCHEMA)
    assert data["reconstructible"] is False
    assert data["counterexample"]["alpha"] == [3, 4, 5, 0, 1, 2]
    assert data["witness_involution"] == [1, 0, 5, 4, 3, 2]


@pytest.mark.parametrize("name", ["lp", "sql", "p_reconstruct", "asym7", "q3", "2k3"])
def test_analyze_output_is_schema_valid(capsys, name):
    code, data = run_json(capsys, ["analyze", fixture_path(name)])
    assert code == EXIT_OK
    jsonschema.validate(data, ANALYSIS_SCHEMA)


def test_ant_and_tf_counts(capsys):
    code, ants = run_json(capsys, ["ant", fixture_path("c6")])
    assert code == EXIT_OK
    assert len(ants) == 22
    assert [0, 1, 2, 3, 4, 5] in ants

    code, pairs = run_json(capsys, ["tf", fixture_path("c6")])
    assert code == EXIT_OK
    assert len(pairs) == 72
    assert [[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]] in pairs


def test_galpha_antipodal(capsys):
    code = run(["galpha", fixture_path("c6"), "3 4 5 0 1 2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out == "p graph 6\ne 0 2\ne 0 4\ne 1 3\ne 1 5\ne 2 4\ne 3 5\n"


def test_galpha_rejects_non_anti(capsys):
    code = run(["galpha", fixture_path("c6"), "1 0 2 3 4 5"])
    assert code == EXIT_DOMAIN
    assert "error:" in capsys.readouterr().err


def test_galpha_rejects_wrong_length(capsys):
    code = run(["galpha", fixture_path("c6"), "1 0"])
    assert code == EXIT_USAGE


def test_product_loop_edge(capsys):
    code = run(["product", fixture_path("lp"), fixture_path("lp")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out == "p graph 4\ne 0 0\ne 0 1\ne 0 2\ne 0 3\ne 1 2\n"


def test_iso_command(capsys):
    code, data = run_json(capsys, ["iso", fixture_path("c6"), fixture_path("2k3")])
    assert code == EXIT_OK
    assert data == {"isomorphic": False, "witness": None}

    code, data = run_json(capsys, ["iso", fixture_path("c6"), fixture_path("c6")])
    assert code == EXIT_OK
    assert data["isomorphic"] is True
    assert sorted(data["witness"]) == list(range(6))


def test_nbhd_shared_multiset(capsys):
    code, first = run_json(capsys, ["nbhd", fixture_path("c6")])
    assert code == EXIT_OK
    code, second = run_json(capsys, ["nbhd", fixture_path("2k3")])
    assert code == EXIT_OK
    assert first == second == [[0, 2], [0, 4], [1, 3], [1, 5], [2, 4], [3, 5]]


def test_missing_file_exits_usage(capsys):
    assert run(["analyze", "no/such/file.graph"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_malformed_file_exits_usage(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("p graph 2\ne 0 9\n")
    assert run(["analyze", str(bad)]) == EXIT_USAGE
    assert "line 2" in capsys.readouterr().err


def test_non_utf8_file_exits_usage(capsys, tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_bytes(b"p graph 2\ne 0 \xff1\n")
    assert run(["analyze", str(bad)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_file_with_byte_order_mark_analyzes_like_the_fixture(capsys, tmp_path):
    with open(fixture_path("c6"), "rb") as fh:
        data = fh.read()
    bom = tmp_path / "c6.graph"
    bom.write_bytes(b"\xef\xbb\xbf" + data)
    assert run_json(capsys, ["analyze", str(bom)]) == run_json(capsys, ["analyze", fixture_path("c6")])


def test_argparse_errors(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()
    assert run(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out
    assert run([]) == 2


def test_verify_command(capsys):
    code, data = run_json(
        capsys, ["verify", "--max-n", "2", "--loops", "--bip-max", "2", "--jobs", "1"]
    )
    assert code == EXIT_OK
    jsonschema.validate(data, VERIFICATION_SCHEMA)
    assert data["ok"] is True
    assert data["census"][0]["graphs"] == 2


def test_verify_guard_exits_usage(capsys):
    # past the table bound --force cannot help, so the refusal names the bound
    assert run(["verify", "--max-n", "9"]) == EXIT_USAGE
    assert "universe index at n=9 " in capsys.readouterr().err
    for mode in ([], ["--loops"]):
        assert run(["verify", "--max-n", "7", *mode]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "universe index at n=7 takes 17 bits for each of 2^28 graphs" in err
        assert "bounded at 64 MiB" in err and "force" not in err
    assert run(["verify", "--max-n", "1", "--bip-max", "9"]) == EXIT_USAGE
    assert "bipartite sweep at n=9 " in capsys.readouterr().err
    # within it --force does help, and the refusal says so in CLI terms
    assert run(["verify", "--max-n", "6", "--loops"]) == EXIT_USAGE
    assert "verification (loops); guarded at n<=5; pass --force\n" in capsys.readouterr().err
    assert run(["verify", "--max-n", "1", "--jobs", "0"]) == EXIT_USAGE
    negative_bip = ["verify", "--max-n", "1", "--loops", "--bip-max", "-2", "--jobs", "1"]
    assert run(negative_bip) == EXIT_USAGE


@pytest.mark.parametrize("command, n, guard", [
    ("analyze", 9, "decider needs the anti-automorphism listing; guarded at n<=8"),
    ("ant", 9, "anti-automorphism listing; guarded at n<=8"),
    ("tf", 7, "two-fold listing; guarded at n<=6"),
])
def test_guards_without_force_give_no_override_advice(capsys, tmp_path, command, n, guard):
    # these commands take no --force, so the refusal is the guard alone
    path = tmp_path / "empty.graph"
    path.write_text(f"p graph {n}\n")
    assert run([command, str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {guard}\n"
    assert run([command, "--force", str(path)]) == EXIT_USAGE


def test_verify_reports_violations_with_exit_3(capsys, monkeypatch):
    stub = VerificationReport(
        nmax=1,
        loops_allowed=True,
        bip_max=1,
        jobs=1,
        census=(),
        bipartite_census=(),
        violations=({"suite": "main", "n": 1, "detail": "forced for the test"},),
        suite_seconds=(),
    )
    # _cmd_verify looks verify_theorems up in the oracle module when it runs
    monkeypatch.setattr("cancelgraph.oracle.verify_theorems", lambda *a, **k: stub)
    code, data = run_json(capsys, ["verify", "--max-n", "1"])
    assert code == EXIT_VIOLATIONS
    jsonschema.validate(data, VERIFICATION_SCHEMA)
    assert data["ok"] is False


def test_internal_errors_exit_domain(capsys, monkeypatch):
    def boom(*a, **k):
        raise InvariantViolationError("routes disagree")

    monkeypatch.setattr(cli, "classify", boom)
    assert run(["analyze", fixture_path("c6")]) == EXIT_DOMAIN
    assert "internal error:" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cancelgraph.cli", "nbhd", fixture_path("lp")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [[0], [0, 1]]


@pytest.mark.parametrize("argv", [["analyze", fixture_path("c6")], ["verify", "--max-n", "2"]])
def test_closed_stdout_exits_broken_pipe_quietly(argv):
    # stdout is a pipe whose read end is closed before the command starts,
    # as when `head` has stopped reading: every write fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cancelgraph.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert EXIT_BROKEN_PIPE == 141
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")
