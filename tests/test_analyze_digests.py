"""analyze's output on the whole seed-1 analyze-mix stream, frozen.

The benchmark records one digest per item of its seed-1 stream, 4,500
random and 73 relabeled symmetric graphs, in perfbench/data. This test
classifies every item and compares each JSON text with its recorded digest,
so a change to any verdict, witness or canonical labeling shows in tier 1.
A second test pins the shape of the canonical-form search on the first 300
items. perfbench/ is only read.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import cancelgraph as cg
import cancelgraph.iso as iso

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


def test_the_search_shape_on_the_first_300_items_is_pinned(monkeypatch):
    # _refine calls (the automorphism search's included), search leaves
    # (_leaf_key calls) and canonical forms (canon_rows calls) of classify
    # from cold caches; a faster search node must walk the same tree
    counts = dict.fromkeys(("_refine", "_leaf_key", "canon_rows"), 0)
    for name in counts:
        def counted(*args, _fn=getattr(iso, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(iso, name, counted)
    iso._canonical.cache_clear()
    iso._canon_component.cache_clear()
    for _stratum, text in wl.analyze_stream(wl.DEFAULT_SEED, ROOT)[:300]:
        cg.classify(cg.parse_graph(text)).to_json_dict()
    assert counts == {"_refine": 869, "_leaf_key": 695, "canon_rows": 587}
