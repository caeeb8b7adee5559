"""The verification layer loads on first use.

`import cancelgraph` and every CLI command but `verify` leave
`cancelgraph.oracle` unimported, so they never compile its source; the
package's oracle names resolve through its module `__getattr__`. Checks
that depend on what is loaded run in a fresh interpreter.
"""
from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cancelgraph

from conftest import fixture_path

ROOT = Path(__file__).resolve().parents[1]
ORACLE_NAMES = ("VerificationReport", "cancellation_counterexample", "cancellation_oracle",
                "extract_anti_from_product_iso", "neighborhood_oracle", "product_iso_witness",
                "verify_theorems")


def fresh(code: str):
    """Run code in a new interpreter that imports the package from src/;
    the JSON its last line prints."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_classify_leaves_the_oracle_unloaded():
    loaded = fresh(
        "import json, sys\n"
        "import cancelgraph\n"
        "report = cancelgraph.classify(cancelgraph.parse_graph("
        "'p graph 6\\ne 0 1\\ne 1 2\\ne 2 3\\ne 3 4\\ne 4 5\\ne 5 0\\n'))\n"
        "assert report.to_json_dict()\n"
        "print(json.dumps('cancelgraph.oracle' in sys.modules))\n"
    )
    assert loaded is False


@pytest.mark.parametrize("argv, loads", [
    (["analyze", fixture_path("c6")], False),
    (["ant", fixture_path("c6")], False),
    (["iso", fixture_path("c6"), fixture_path("2k3")], False),
    (["nbhd", fixture_path("lp")], False),
    (["verify", "--max-n", "1"], True),
], ids=["analyze", "ant", "iso", "nbhd", "verify"])
def test_only_verify_loads_the_oracle(argv, loads):
    code, loaded = fresh(
        "import contextlib, io, json, sys\n"
        "from cancelgraph.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = run({argv!r})\n"
        "print(json.dumps([code, 'cancelgraph.oracle' in sys.modules]))\n"
    )
    assert (code, loaded) == (0, loads)


def test_every_exported_name_resolves_to_its_definition():
    for name in cancelgraph.__all__:
        value = getattr(cancelgraph, name)
        defining = importlib.import_module(value.__module__)
        assert value is getattr(defining, name), name
    assert {n for n in cancelgraph.__all__ if n in ORACLE_NAMES} == set(ORACLE_NAMES)
    assert set(cancelgraph.__all__) <= set(dir(cancelgraph))


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'cancelgraph' has no attribute 'no_such_name'$"):
        cancelgraph.no_such_name


# perfbench/tracer.py wraps functions in the namespaces that bind them and
# unwraps them on uninstall; the package binds no oracle name, so what it
# hands out must follow the oracle module both ways.
ROUND_TRIP = """\
import json, sys
sys.path.insert(0, {perfbench!r})
import cancelgraph
import cancelgraph.oracle as oracle
import tracer as tracing

names = {names!r}
originals = {{name: getattr(oracle, name) for name in names}}
{touch}
undo = tracing.install(tracing.Tracer())
during = cancelgraph.verify_theorems
wrapped = during is oracle.verify_theorems and during is not originals["verify_theorems"]
tracing.uninstall(undo)
restored = [getattr(cancelgraph, n) is getattr(oracle, n) is originals[n] for n in names]
print(json.dumps([wrapped, restored]))
"""


@pytest.mark.parametrize("touch_first", [True, False],
                         ids=["accessed-before-install", "first-access-while-installed"])
def test_tracer_round_trips_the_lazy_names(touch_first):
    touch = "assert cancelgraph.verify_theorems is originals['verify_theorems']" if touch_first else ""
    wrapped, restored = fresh(ROUND_TRIP.format(perfbench=str(ROOT / "perfbench"),
                                                names=ORACLE_NAMES, touch=touch))
    assert wrapped is True
    assert restored == [True] * len(ORACLE_NAMES)
