"""analyze's output on the whole seed-1 analyze-mix stream, frozen.

The benchmark records one digest per item of its seed-1 stream, 4,500
random and 73 relabeled symmetric graphs, in perfbench/data. This test
classifies every item and compares each JSON text with its recorded digest,
so a change to any verdict, witness or canonical labeling shows in tier 1.
perfbench/ is only read.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import cancelgraph as cg

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads as wl  # noqa: E402


def test_every_seed_one_analysis_matches_its_recorded_digest():
    items = wl.analyze_stream(wl.DEFAULT_SEED, ROOT)
    digests = wl.load_digests()
    assert len(items) == len(digests) == 4573
    differing = []
    for i, ((_stratum, text), digest) in enumerate(zip(items, digests)):
        out = json.dumps(cg.classify(cg.parse_graph(text)).to_json_dict(), indent=2)
        if wl.output_digest(out) != digest:
            differing.append(i)
    assert differing == []
