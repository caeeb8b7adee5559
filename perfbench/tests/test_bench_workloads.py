"""Workload generation and pinned tables."""
from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))

import workloads as wl  # noqa: E402


def test_analyze_stream_is_a_function_of_the_seed():
    first = wl.analyze_stream(7, ROOT)
    assert wl.analyze_stream(7, ROOT) == first
    assert wl.analyze_stream(8, ROOT) != first


def test_analyze_stream_composition_is_the_same_for_every_seed():
    family = wl.symmetric_family(ROOT)
    sizes = []
    for seed in (1, 2):
        items = wl.analyze_stream(seed, ROOT)
        strata = Counter(stratum for stratum, _ in items)
        once = sum(wl._degenerate(n, edges) for _name, n, edges in family)
        assert once == 7
        assert strata == {"random": wl.RANDOM_ITEMS,
                          "symmetric": wl.RELABELINGS * (len(family) - once) + once}
        sizes.append(Counter(wl.parse_edges(text)[0] for stratum, text in items
                             if stratum == "random"))
    assert sizes[0] == sizes[1]
    assert max(sizes[0].values()) - min(sizes[0].values()) <= 6


def test_symmetric_members_are_relabelings_of_the_family():
    family = {(n, len(edges)) for _name, n, edges in wl.symmetric_family(ROOT)}
    for stratum, text in wl.analyze_stream(3, ROOT):
        if stratum == "symmetric":
            n, edges = wl.parse_edges(text)
            assert (n, len(edges)) in family


def test_pinned_shards_sum_to_the_pinned_sweep_row():
    assert len(wl.SWEEP_SHARD_COUNTS) == wl.SWEEP_SHARD_COUNT
    checked = sum(c for c, _ in wl.SWEEP_SHARD_COUNTS)
    failures = sum(f for _, f in wl.SWEEP_SHARD_COUNTS)
    assert (wl.SWEEP_N, checked, failures) == wl.SWEEP_ROW
    # a shard's counts depend only on how many neighbours vertex 0 has
    by_size = {}
    for shard, counts in enumerate(wl.SWEEP_SHARD_COUNTS):
        assert by_size.setdefault(bin(shard).count("1"), counts) == counts


def test_sweep_slice_weights_neighbourhood_sizes_as_the_sweep_does():
    assert len(set(wl.SWEEP_SHARDS)) == len(wl.SWEEP_SHARDS)
    sizes = Counter(bin(s).count("1") for s in wl.SWEEP_SHARDS)
    assert tuple(sizes[k] for k in range(7)) == (1, 1, 2, 3, 2, 1, 1)
    # the slice's bipartite share stays within 11% of the whole sweep's
    slice_share = sum(wl.SWEEP_SHARD_COUNTS[s][0] for s in wl.SWEEP_SHARDS) / (
        len(wl.SWEEP_SHARDS) * wl.SWEEP_TOTAL // wl.SWEEP_SHARD_COUNT)
    sweep_share = wl.SWEEP_ROW[1] / wl.SWEEP_TOTAL
    assert 1 <= slice_share / sweep_share < 1.11


def test_sweep_order_permutes_the_fixed_slice():
    assert sorted(wl.sweep_order(1)) == sorted(wl.SWEEP_SHARDS)
    assert wl.sweep_order(1) == wl.sweep_order(1)
    lo, hi = wl.shard_range(63)
    assert hi == wl.SWEEP_TOTAL and hi - lo == wl.SWEEP_TOTAL // wl.SWEEP_SHARD_COUNT


def test_recorded_digests_cover_the_default_stream():
    assert len(wl.load_digests()) == len(wl.analyze_stream(wl.DEFAULT_SEED, ROOT))


def test_shard_parts_tile_the_shard():
    for shard in wl.SWEEP_SHARDS:
        parts = wl.shard_parts(shard)
        assert len(parts) == wl.SWEEP_PARTS
        assert parts[0][0] == wl.shard_range(shard)[0] and parts[-1][1] == wl.shard_range(shard)[1]
        assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
