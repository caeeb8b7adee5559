"""The command line's outputs against recorded golden files.

Each case runs cli.run in process from the repository root and compares
stdout, stderr and the exit code with tests/golden/cli: stdout in
<case>.out, argv, stderr and exit code in cases.json. The cases are analyze,
ant, tf and nbhd on every fixture; iso of every fixture against a copy
relabeled by a fixed shuffle (tests/golden/relabeled), whose witness is
built from both canonical relabelings; and the documented refusals.

A change that alters an output on purpose rewrites the goldens with

    PYTHONPATH=src python tests/test_cli_golden.py

and lists each file that changed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
from pathlib import Path

import pytest

from cancelgraph import Permutation, is_isomorphic, parse_graph_file, serialize_graph
from cancelgraph.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = GOLDEN / "cli" / "cases.json"
FIXTURES = sorted(p.stem for p in (ROOT / "fixtures").glob("*.graph"))


def relabeling(name: str, n: int) -> list[int]:
    """The fixed permutation of a fixture's relabeled copy: a shuffle of
    0..n-1 seeded by the fixture's name."""
    image = list(range(n))
    random.Random(name).shuffle(image)
    return image


def case_argvs() -> dict[str, list[str]]:
    out = {}
    for name in FIXTURES:
        for command in ("analyze", "ant", "tf", "nbhd"):
            out[f"{command}-{name}"] = [command, f"fixtures/{name}.graph"]
        out[f"iso-{name}"] = ["iso", f"fixtures/{name}.graph", f"tests/golden/relabeled/{name}.graph"]
    out["iso-sql-sql_alpha"] = ["iso", "fixtures/sql.graph", "fixtures/sql_alpha.graph"]
    out["verify-max-n-7"] = ["verify", "--max-n", "7"]
    return out


def run_case(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return out.getvalue(), err.getvalue(), code


def record() -> None:
    """Write the relabeled copies, then every case's golden files."""
    os.chdir(ROOT)
    (GOLDEN / "relabeled").mkdir(parents=True, exist_ok=True)
    (GOLDEN / "cli").mkdir(parents=True, exist_ok=True)
    for name in FIXTURES:
        g = parse_graph_file(f"fixtures/{name}.graph")
        image = relabeling(name, g.n)
        copy = g.relabel(Permutation(tuple(image)))
        comment = f"fixtures/{name}.graph with vertex v relabeled {image}[v]"
        (GOLDEN / "relabeled" / f"{name}.graph").write_text(serialize_graph(copy, comment))
    cases = {}
    for case, argv in case_argvs().items():
        stdout, stderr, code = run_case(argv)
        (GOLDEN / "cli" / f"{case}.out").write_text(stdout)
        cases[case] = {"argv": argv, "exit": code, "stderr": stderr}
    CASES.write_text(json.dumps(cases, indent=1) + "\n")


def test_every_case_has_a_golden_file():
    recorded = json.loads(CASES.read_text())
    assert {case: c["argv"] for case, c in recorded.items()} == case_argvs()
    assert sorted(p.stem for p in (GOLDEN / "cli").glob("*.out")) == sorted(recorded)


def test_relabeled_copies_are_relabeled_fixtures():
    for name in FIXTURES:
        g = parse_graph_file(str(ROOT / "fixtures" / f"{name}.graph"))
        copy = parse_graph_file(str(GOLDEN / "relabeled" / f"{name}.graph"))
        assert copy == g.relabel(Permutation(tuple(relabeling(name, g.n))))
        # a copy equal to its fixture would pin only the identity's witness
        assert copy != g and is_isomorphic(copy, g)


@pytest.mark.parametrize("case", sorted(case_argvs()))
def test_cli_output_matches_the_golden_file(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(CASES.read_text())[case]
    stdout, stderr, code = run_case(recorded["argv"])
    assert (code, stderr) == (recorded["exit"], recorded["stderr"])
    assert stdout == (GOLDEN / "cli" / f"{case}.out").read_text()


if __name__ == "__main__":
    record()
