"""The benchmark's expected boundaries against what small runs of each
workload call.

perfbench/run.py lists, per workload, the boundaries its profiles show
running; a traced round warns about any that records no call. These
tests trace a small run of each workload with perfbench/tracer.py and pin
which of them record none, so a change to the program that stops calling
an expected boundary, or starts calling one that read zero, shows here.
perfbench/ is only imported.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

import cancelgraph as cg
import cancelgraph.iso as iso_mod
import cancelgraph.oracle as oracle_mod

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402


def run_verify() -> None:
    assert cg.verify_theorems(3, True, bip_max=4, jobs=1).ok


def run_sweep() -> None:
    *_, total = oracle_mod._worker_bip_sweep((6, 0, 1 << 15))
    assert total == 0


def run_analyze() -> None:
    for _stratum, text in wl.analyze_stream(1, ROOT)[:300]:
        cg.classify(cg.parse_graph(text))


@pytest.mark.parametrize("workload, small_run, silent", [
    ("verify-loops5", run_verify, {"antiauto.tf_generators"}),
    ("sweep-n7", run_sweep, {"iso.canon_connected"}),
    ("analyze-mix", run_analyze, {"antiauto.ant_orbits", "antiauto.enumerate_ant"}),
], ids=["verify-loops5", "sweep-n7", "analyze-mix"])
def test_expected_boundaries_that_record_no_call(workload, small_run, silent):
    # cached classes or certificates would hide the calls that make them
    oracle_mod._bip_classes.cache_clear()
    iso_mod._canonical.cache_clear()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        small_run()
    finally:
        tracing.uninstall(undo)
        oracle_mod._bip_classes.cache_clear()
    assert {name for name in run.EXPECTED[workload] if not tracer.calls.get(name)} == silent
