"""Scan oracles, product witnesses, and the verification harness."""
from __future__ import annotations

import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings

import cancelgraph.antiauto as antiauto_mod
import cancelgraph.oracle as oracle_mod
from cancelgraph import (
    CapacityError,
    Graph,
    Permutation,
    UsageError,
    apply_anti,
    cancellation_counterexample,
    cancellation_oracle,
    direct_product,
    enumerate_ant,
    extract_anti_from_product_iso,
    is_anti_automorphism,
    is_isomorphic,
    is_neighborhood_reconstructible,
    neighborhood_oracle,
    product_iso_witness,
    verify_theorems,
)
from cancelgraph.graphs import adjacency_index, enumerate_count, iter_adj_rows, multiset_key
from cancelgraph.iso import canon_rows

from conftest import graph_strategy

K2 = Graph.from_edges(2, [(0, 1)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# neighborhood oracle
# ---------------------------------------------------------------------------


def test_neighborhood_oracle_single_mate(lp):
    assert neighborhood_oracle(lp) == [lp]


def test_neighborhood_oracle_edge():
    mates = neighborhood_oracle(K2)
    assert mates == [K2, Graph.from_edges(2, [(0, 0), (1, 1)])]


def test_neighborhood_oracle_hexagon(c6, two_k3):
    mates = neighborhood_oracle(c6)
    assert len(mates) == 22
    assert c6 in mates and two_k3 in mates
    assert len({m.adj for m in mates}) == 22
    key = multiset_key(c6.adj)
    for m in mates:
        assert multiset_key(m.adj) == key
    loopless = [m for m in mates if all(not m.has_loop(v) for v in range(6))]
    assert len(loopless) == 7
    # every mate is a permuted graph and vice versa; for this graph the map
    # from anti-automorphisms to mates is one-to-one
    permuted = {apply_anti(c6, p).adj for p in enumerate_ant(c6)}
    assert permuted == {m.adj for m in mates}


def test_neighborhood_oracle_guard(asym7):
    with pytest.raises(CapacityError):
        neighborhood_oracle(asym7)


# ---------------------------------------------------------------------------
# cancellation oracle
# ---------------------------------------------------------------------------


def test_cancellation_oracle_fixtures(c6, lp, sql):
    assert not cancellation_oracle(c6)
    assert cancellation_oracle(lp)
    assert cancellation_counterexample(lp) is None
    assert not cancellation_oracle(sql)


def test_cancellation_counterexample_hexagon(c6):
    cex = cancellation_counterexample(c6)
    assert cex is not None
    assert cex.edges() == [(0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (4, 5)]
    assert not is_isomorphic(cex, c6)
    assert is_isomorphic(direct_product(cex, K2), direct_product(c6, K2))


def test_cancellation_counterexample_square_with_loops(sql):
    cex = cancellation_counterexample(sql)
    assert cex == Graph.from_edges(4, itertools.combinations(range(4), 2))
    assert is_isomorphic(direct_product(cex, K2), direct_product(sql, K2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracles_and_decider_agree_exhaustively(n):
    for rows in iter_adj_rows(n, True):
        g = Graph(n, tuple(rows))
        expected = is_neighborhood_reconstructible(g)
        assert cancellation_oracle(g) == expected
        mates = neighborhood_oracle(g)
        assert all(is_isomorphic(m, g) for m in mates) == expected


def test_cancellation_oracle_guard(asym7):
    with pytest.raises(CapacityError):
        cancellation_oracle(asym7)


# ---------------------------------------------------------------------------
# product witnesses
# ---------------------------------------------------------------------------


def test_product_iso_witness_concrete(c6):
    antipodal = Permutation((3, 4, 5, 0, 1, 2))
    theta = product_iso_witness(c6, antipodal, K2)
    assert len(theta) == 12
    before = direct_product(c6, K2)
    after = direct_product(apply_anti(c6, antipodal), K2)
    assert before.relabel(theta) == after
    # vertices paired with the left class of K2 stay put
    for x in range(6):
        assert theta(2 * x) == 2 * x


def test_product_iso_witness_other_factors(c6):
    antipodal = Permutation((3, 4, 5, 0, 1, 2))
    for k in (P3, Graph.from_edges(3, [(0, 1)])):  # path, edge plus isolated vertex
        theta = product_iso_witness(c6, antipodal, k)
        before = direct_product(c6, k)
        after = direct_product(apply_anti(c6, antipodal), k)
        assert before.relabel(theta) == after


def test_product_iso_witness_rejections(c6):
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    antipodal = Permutation((3, 4, 5, 0, 1, 2))
    with pytest.raises(UsageError):
        product_iso_witness(c6, Permutation((1, 2, 3, 4, 5, 0)), K2)
    with pytest.raises(UsageError):
        product_iso_witness(c6, antipodal, k3)
    with pytest.raises(UsageError):
        product_iso_witness(c6, antipodal, Graph(2, (0, 0)))


def test_extract_anti_hexagon(c6, two_k3):
    found = extract_anti_from_product_iso(c6, two_k3)
    assert found is not None
    alpha, mu = found
    assert is_anti_automorphism(c6, alpha)
    assert apply_anti(c6, alpha).relabel(mu) == two_k3


def test_extract_anti_identity_case(c6):
    alpha, mu = extract_anti_from_product_iso(c6, c6)
    assert apply_anti(c6, alpha).relabel(mu) == c6


def test_extract_anti_none_for_non_mates(c6):
    path6 = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
    assert extract_anti_from_product_iso(c6, path6) is None


def test_extract_anti_guards(c6, asym7):
    with pytest.raises(UsageError):
        extract_anti_from_product_iso(c6, K2)
    with pytest.raises(CapacityError):
        extract_anti_from_product_iso(asym7, asym7)
    alpha, mu = extract_anti_from_product_iso(asym7, asym7, force=True)
    assert apply_anti(asym7, alpha).relabel(mu) == asym7


@settings(max_examples=40, deadline=None)
@given(graph_strategy(max_n=4, loops=True))
def test_extract_anti_roundtrip(g):
    for p in enumerate_ant(g):
        h = apply_anti(g, p)
        found = extract_anti_from_product_iso(g, h)
        assert found is not None
        alpha, mu = found
        assert apply_anti(g, alpha).relabel(mu) == h


# ---------------------------------------------------------------------------
# the verification harness
# ---------------------------------------------------------------------------

# simeqiso and simplus2 run inside main, on its Ant search
SUITE_NAMES = {
    "main",
    "neighborhood_prop",
    "pair_membership",
    "digraph_symmetry",
    "weichsel",
    "lovasz",
    "roundtrip",
    "bipartite_sweep",
}


def census_tuples(report):
    return [
        (r.n, r.graphs, r.non_reconstructible, r.non_strongly, r.bipartite_failures)
        for r in report.census
    ]


def sweep_tuples(report):
    return [(r.n, r.bipartite_graphs, r.reversal_failures) for r in report.bipartite_census]


def test_verify_small_loops_universe():
    report = verify_theorems(3, True, bip_max=3, jobs=1)
    assert report.ok
    assert report.violations == ()
    assert census_tuples(report) == [
        (1, 2, 0, 0, 0),
        (2, 8, 2, 2, 1),
        (3, 64, 20, 20, 3),
    ]
    assert sweep_tuples(report) == [(1, 1, 0), (2, 2, 1), (3, 7, 3)]
    assert {name for name, _ in report.suite_seconds} == SUITE_NAMES


def test_verify_small_loopless_universe():
    report = verify_theorems(3, False, bip_max=3, jobs=1)
    assert report.ok
    assert census_tuples(report) == [
        (1, 1, 0, 0, 0),
        (2, 2, 1, 1, 1),
        (3, 8, 4, 4, 3),
    ]
    # loopless graphs on <=3 vertices are all bipartite or K3; the census
    # bipartite failures match the sweep at each n
    assert sweep_tuples(report) == [(1, 1, 0), (2, 2, 1), (3, 7, 3)]


def test_verify_report_json_shape():
    report = verify_theorems(2, True, bip_max=2, jobs=1)
    data = json.loads(json.dumps(report.to_json_dict()))
    assert data["ok"] is True
    assert data["nmax"] == 2 and data["loops_allowed"] is True
    assert data["census"][1] == {
        "n": 2,
        "graphs": 8,
        "non_reconstructible": 2,
        "non_strongly": 2,
        "bipartite_failures": 1,
    }
    assert data["bipartite_census"] == [
        {"n": 1, "bipartite_graphs": 1, "reversal_failures": 0},
        {"n": 2, "bipartite_graphs": 2, "reversal_failures": 1},
    ]
    assert set(data["suite_seconds"]) == SUITE_NAMES


def without_timings(report):
    data = report.to_json_dict()
    del data["suite_seconds"], data["jobs"]
    return data


def test_verify_sharded_run_matches_serial(monkeypatch):
    monkeypatch.setattr(oracle_mod.os, "cpu_count", lambda: 2)
    serial = verify_theorems(2, True, bip_max=3, jobs=1)
    monkeypatch.setattr(oracle_mod, "_POOL_THRESHOLD", 1)
    sharded = verify_theorems(2, True, bip_max=3, jobs=2)
    assert sharded.ok
    assert without_timings(sharded) == without_timings(serial)
    assert sharded.jobs == 2


def test_verify_clamps_jobs_to_the_cpu_count(monkeypatch):
    pools = []

    def in_process_pool(worker, argslist, jobs):
        pools.append((len(argslist), jobs))
        return [worker(args) for args in argslist]

    monkeypatch.setattr(oracle_mod.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(oracle_mod, "_fork_available", lambda: True)
    monkeypatch.setattr(oracle_mod, "_run_pool", in_process_pool)
    monkeypatch.setattr(oracle_mod, "_POOL_THRESHOLD", 1)
    report = verify_theorems(2, True, bip_max=2, jobs=10000)
    assert report.jobs == 3
    assert pools and all(shards <= 3 and jobs == 3 for shards, jobs in pools)
    assert without_timings(report) == without_timings(
        verify_theorems(2, True, bip_max=2, jobs=1)
    )


@pytest.mark.parametrize("split", [0, 150, 200, 250])
def test_violation_fold_matches_one_collector(split):
    serial = oracle_mod._Violations()
    shards = [oracle_mod._Violations(), oracle_mod._Violations()]
    for i in range(300):
        serial.add("main", 1, i=i)
        shards[i >= split].add("main", 1, i=i)
    merged = oracle_mod._Violations()
    for shard in shards:
        merged.absorb(shard.items, shard.total)
    assert len(serial.items) == oracle_mod.MAX_RECORDED_VIOLATIONS + 1
    assert serial.items[-1]["suite"] == "truncated"
    assert merged.items == serial.items
    assert merged.total == serial.total == 300


def test_verify_guards():
    with pytest.raises(CapacityError):
        verify_theorems(6, True)
    with pytest.raises(CapacityError):
        verify_theorems(7, False)
    with pytest.raises(CapacityError):
        verify_theorems(2, True, bip_max=8)
    with pytest.raises(UsageError):
        verify_theorems(0, True)
    for jobs in (0, -3):
        with pytest.raises(UsageError):
            verify_theorems(1, True, jobs=jobs)


def violation_kinds(items):
    return Counter(item["suite"] for item in items)


def test_orbit_fault_is_reported_by_the_main_pass(monkeypatch):
    # no generators, so every image is its own orbit: graphs with isomorphic
    # G^a for two images now have fewer classes than orbits
    monkeypatch.setattr(antiauto_mod, "_tf_generators", lambda n, rows: [])
    report = verify_theorems(3, True, bip_max=1, jobs=1)
    assert violation_kinds(report.violations) == {"simeqiso_across_orbits": 30}


def test_odd_power_fault_is_reported_by_the_main_pass(monkeypatch):
    class LabeledIndex(oracle_mod._UniverseIndex):
        """Labeled rows as certificates, so G^a and G^(a^3) differ whenever
        their rows do; both oracles read pure."""

        def canon_of(self, rows):
            return oracle_mod._pack(self.n, rows)

        def neighborhood_pure(self, rows):
            return True

        def product_pure(self, rows):
            return True

    monkeypatch.setitem(oracle_mod._FORK_STATE, "index", LabeledIndex(3))
    violations = oracle_mod._Violations()
    oracle_mod._main_pass_for_n(3, True, violations)
    assert violation_kinds(violations.items)["simplus2"] > 0


@pytest.mark.parametrize("n", [3, 4])
def test_universe_index_shards_merge_to_the_serial_build(n):
    serial = oracle_mod._UniverseIndex(n)
    serial.build()
    total = enumerate_count(n, True)
    merged = oracle_mod._UniverseIndex(n)
    merged.build(stop=total // 3)
    for lo, hi in ((total // 3, total // 2), (total // 2, total)):
        part = oracle_mod._UniverseIndex(n)
        part.build(start=lo, stop=hi)
        merged.merge(part)
    assert merged.canon_packs == serial.canon_packs
    assert merged.nbhd == serial.nbhd
    assert merged.class_product == serial.class_product
    assert merged.product == serial.product
    for rows in iter_adj_rows(n, True):
        frozen = tuple(rows)
        assert serial.canon_of(frozen) == adjacency_index(n, canon_rows(n, frozen)[0])
        assert merged.product_pure(frozen) == serial.product_pure(frozen)
        assert merged.neighborhood_pure(frozen) == serial.neighborhood_pure(frozen)


def test_weichsel_pass_checks_each_factor_pair_once(monkeypatch):
    calls = []
    product = oracle_mod.direct_product
    monkeypatch.setattr(
        oracle_mod, "direct_product", lambda g, h: calls.append((g, h)) or product(g, h)
    )
    violations = oracle_mod._Violations()
    oracle_mod._weichsel_pass(4, violations)
    assert violations.total == 0
    # 75 connected factors with an edge (loops allowed up to n=3, loopless
    # at n=4), every ordered pair once
    assert len(calls) == len(set(calls)) == 75 * 75
