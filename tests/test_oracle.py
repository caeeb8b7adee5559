"""Scan oracles, product witnesses, and the verification harness."""
from __future__ import annotations

import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import cancelgraph.antiauto as antiauto_mod
import cancelgraph.iso as iso_mod
import cancelgraph.oracle as oracle_mod
from cancelgraph import (
    CapacityError,
    Graph,
    InvariantViolationError,
    Permutation,
    TwoFoldPair,
    UsageError,
    apply_anti,
    cancellation_counterexample,
    cancellation_oracle,
    direct_product,
    disjoint_union,
    enumerate_ant,
    extract_anti_from_product_iso,
    is_anti_automorphism,
    is_isomorphic,
    is_neighborhood_reconstructible,
    neighborhood_oracle,
    product_iso_witness,
    verify_theorems,
)
from cancelgraph.antiauto import apply_anti_rows, iter_ant_images
from cancelgraph.decide import _full_route, _permuted
from cancelgraph.graphs import (
    adjacency_index,
    component_masks,
    enumerate_count,
    iter_adj_rows,
    multiset_key,
)
from cancelgraph.iso import canon_connected, canon_rows, cert_bytes, compact_rows
from cancelgraph.product import bipartition

from conftest import graph_strategy, load_fixture

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
    with pytest.raises(CapacityError, match=r"lists up to n! rearrangements of G's rows; guarded at n<=6"):
        neighborhood_oracle(asym7)


def scan_neighborhood_oracle(g: Graph) -> list[Graph]:
    """The oracle as a scan of every labeled graph on V(G), loops allowed:
    the reference for the mates search."""
    key = multiset_key(g.adj)
    return [
        Graph(g.n, tuple(rows)) for rows in iter_adj_rows(g.n, True) if multiset_key(rows) == key
    ]


@pytest.mark.parametrize("name", ["2k3", "c6", "lp", "p_reconstruct", "sql", "sql_alpha"])
def test_neighborhood_oracle_matches_a_scan_on_the_fixtures(name):
    g = load_fixture(name)
    assert neighborhood_oracle(g) == scan_neighborhood_oracle(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_neighborhood_mates_are_the_multiset_groups_exhaustively(n):
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for rows in iter_adj_rows(n, True):
        groups.setdefault(multiset_key(rows), []).append(tuple(rows))
    for members in groups.values():
        for rows in members:
            mates = list(oracle_mod._neighborhood_mates(n, rows))
            assert len(mates) == len(members)
            assert set(mates) == set(members)


@settings(max_examples=150, deadline=None)
@given(graph_strategy(max_n=8, loops=True))
def test_neighborhood_mates_are_the_permuted_graphs(g):
    # H shares N(G) iff H = G^a for an anti-automorphism a: two independent
    # searches must find the same graphs
    mates = list(oracle_mod._neighborhood_mates(g.n, g.adj))
    assert len(set(mates)) == len(mates)
    assert set(mates) == {apply_anti_rows(g.adj, a) for a in iter_ant_images(g.n, g.adj)}


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
    with pytest.raises(CapacityError, match=r"scans 2\^\(n\(n\+1\)/2\) graphs; guarded at n<=6"):
        cancellation_oracle(asym7)


def test_cancellation_oracle_builds_products_past_eight_vertices(monkeypatch):
    # under force the scan reaches n >= 9, where a row no longer fits a byte;
    # four graphs of the 2^45 are enough to build products of that size
    real = oracle_mod.iter_adj_rows
    monkeypatch.setattr(
        oracle_mod, "iter_adj_rows", lambda *args, **kw: itertools.islice(real(*args, **kw), 4)
    )
    assert cancellation_oracle(Graph.from_edges(9, [(8, 8)]), force=True)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cancellation_oracle_matches_the_index_product_purity(n):
    # on the least member of each of the 2 + 6 + 20 + 90 loops-allowed classes
    index = oracle_mod._UniverseIndex(n)
    index.build()
    numbered = 0
    for k, rows in enumerate(iter_adj_rows(n, True)):
        if index.class_of[k] != numbered:
            continue
        numbered += 1
        g = Graph(n, tuple(rows))
        pure = index.product_pure(g.adj)
        assert cancellation_oracle(g) == pure
        assert (cancellation_counterexample(g) is None) == pure
    assert numbered == max(index.class_of) + 1


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


def least_product_pair(g: Graph, h: Graph):
    """Brute force over all (lambda, mu) with xy in E(G) iff mu(x)lambda(y)
    in E(H): the least by (mu[0], lambda[0], mu[1], lambda[1], ...)."""
    perms = list(itertools.permutations(range(g.n)))
    found = [
        (lam, mu)
        for lam in perms
        for mu in perms
        if all(
            g.has_edge(x, y) == h.has_edge(mu[x], lam[y])
            for x in range(g.n)
            for y in range(g.n)
        )
    ]
    if not found:
        return None
    return min(found, key=lambda pair: [v for xy in zip(pair[1], pair[0]) for v in xy])


def check_least_witness(g: Graph, h: Graph) -> None:
    expected = least_product_pair(g, h)
    got = extract_anti_from_product_iso(g, h)
    if expected is None:
        assert got is None
        return
    lam, mu = expected
    alpha = Permutation(mu).inverse().compose(Permutation(lam))
    assert got == (alpha, Permutation(mu))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extract_anti_returns_the_least_pair_exhaustively(n):
    graphs = [Graph(n, tuple(rows)) for rows in iter_adj_rows(n, True)]
    for g, h in itertools.product(graphs, repeat=2):
        check_least_witness(g, h)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_extract_anti_returns_the_least_pair(data):
    g = data.draw(graph_strategy(4, loops=True))
    if data.draw(st.booleans()):
        h = data.draw(graph_strategy(g.n, loops=True, min_n=g.n))
    else:
        # a relabeled permuted graph, so that a witness exists
        a = data.draw(st.sampled_from(enumerate_ant(g)))
        s = Permutation(tuple(data.draw(st.permutations(range(g.n)))))
        h = apply_anti(g, a).relabel(s)
    check_least_witness(g, h)


def test_extract_anti_guards(c6, asym7):
    with pytest.raises(UsageError):
        extract_anti_from_product_iso(c6, K2)
    with pytest.raises(CapacityError, match=r"search tries up to \(n!\)\^2 pairs; guarded at n<=6"):
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
    with pytest.raises(UsageError):
        verify_theorems(1, True, bip_max=-2)
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


def test_oracle_purity_fault_is_reported_by_the_main_pass(monkeypatch):
    # every graph reads reconstructible: the 0 + 2 + 20 non-reconstructible
    # graphs up to n=3 now disagree with both oracles
    monkeypatch.setattr(oracle_mod, "_full_route", lambda *args: True)
    kinds = violation_kinds(verify_theorems(3, True, bip_max=1, jobs=1).violations)
    assert kinds["theorem_vs_neighborhood_oracle"] == 22
    assert kinds["theorem_vs_cancellation_oracle"] == 22


def test_fast_path_fault_is_reported_by_the_main_pass(monkeypatch):
    # an involution test that never finds one sends every graph down the
    # "reconstructible outright" route: the 0 + 2 + 20 non-reconstructible
    # graphs up to n=3 now disagree with the full route
    monkeypatch.setattr(oracle_mod, "is_involution", lambda image: False)
    report = verify_theorems(3, True, bip_max=1, jobs=1)
    assert violation_kinds(report.violations) == {"fast_paths": 22}


def test_lovasz_pass_reports_a_mixed_product_class(monkeypatch):
    # every G x K3 reads as one vertex, so each n with two or more loopless
    # classes (n = 2, 3, 4) has one mixed product class
    monkeypatch.setattr(oracle_mod, "direct_product", lambda g, h: Graph(1, (0,)))
    violations = oracle_mod._Violations()
    oracle_mod._lovasz_pass(4, violations)
    assert [(item["suite"], item["n"]) for item in violations.items] == [
        ("lovasz_k3", 2), ("lovasz_k3", 3), ("lovasz_k3", 4),
    ]


def pair_membership_kinds() -> Counter:
    """Violations per suite of the pair-membership pass at n = 1..4, counted
    past the cap on recorded items."""
    kinds: Counter = Counter()

    class Counting(oracle_mod._Violations):
        def add(self, suite, n, **detail):
            kinds[suite] += 1
            super().add(suite, n, **detail)

    violations = Counting()
    oracle_mod._pair_membership_pass(4, violations)
    return kinds


LIST_AUT_TF = oracle_mod.enumerate_aut_tf


def with_reversal_pair(g):
    ident, rev = tuple(range(g.n)), tuple(reversed(range(g.n)))
    return LIST_AUT_TF(g) + [TwoFoldPair(Permutation(ident), Permutation(rev))]


# the 2 + 8 + 64 + 1024 loops-allowed graphs at n <= 4 hold 684 with an
# automorphism besides the identity, and 20 on which (identity, reversal)
# is a two-fold automorphism
@pytest.mark.parametrize("name, fake, expected", [
    ("enumerate_aut_tf", lambda g: LIST_AUT_TF(g)[:-1], {"aut_tf_enumeration": 1098}),
    ("enumerate_aut_tf", with_reversal_pair, {"aut_tf_enumeration": 1078}),
    ("iter_automorphism_images", lambda n, rows: iter([tuple(range(n))]),
     {"auto_pair_embedding": 684}),
    ("iter_ant_images", lambda n, rows: iter([tuple(range(n))]),
     {"action_closure": 3580, "anti_pair_embedding": 684}),
])
def test_pair_membership_faults_are_reported(monkeypatch, name, fake, expected):
    monkeypatch.setattr(oracle_mod, name, fake)
    assert pair_membership_kinds() == expected


def test_odd_power_fault_is_reported_by_the_main_pass():
    class LabeledIndex(oracle_mod._UniverseIndex):
        """Labeled rows as certificates, so G^a and G^(a^3) differ whenever
        their rows do; both oracles read pure."""

        def canon_of(self, rows):
            return adjacency_index(self.n, rows)

        def neighborhood_pure(self, rows):
            return True

        def product_pure(self, rows):
            return True

    violations = oracle_mod._Violations()
    oracle_mod._main_pass_for_n(LabeledIndex(3), True, violations)
    assert violation_kinds(violations.items)["simplus2"] > 0


LIST_ANT = oracle_mod.iter_ant_images


def ant_without_identity(n, rows):
    ident = tuple(range(n))
    return iter([img for img in LIST_ANT(n, rows) if img != ident] or [ident])


def test_ant_search_losing_the_identity_is_reported_by_the_main_pass(monkeypatch):
    # G is then no G^a, so the full route reads G's certificate from the
    # index rather than from the images' certificates
    monkeypatch.setattr(oracle_mod, "iter_ant_images", ant_without_identity)
    kinds: Counter = Counter()

    class Counting(oracle_mod._Violations):
        def add(self, suite, n, **detail):
            kinds[suite] += 1
            super().add(suite, n, **detail)

    violations = Counting()
    for n in range(1, 5):
        index = oracle_mod._UniverseIndex(n)
        index.build()
        oracle_mod._main_pass_for_n(index, True, violations)
    assert kinds == {"strong_routes": 276, "simeqiso_closure": 1206, "simplus2": 272}


def component_class_multiset(n: int, rows) -> tuple[bytes, ...]:
    """The sorted certificates of the components: the reference product
    class and double-cover key, computed apart from oracle._certificate."""
    parts = []
    for mask in component_masks(n, rows):
        local = compact_rows(rows, mask)
        crows, _ = canon_connected(len(local), local)
        parts.append(cert_bytes(len(local), crows))
    return tuple(sorted(parts))


def labeled_purity(n: int) -> list[tuple[bool, bool]]:
    """The oracle buckets as a walk of every labeled graph, loops allowed:
    each graph is filed under its sorted rows and under its product class,
    by its canonical rows, and a bucket is pure when it holds one iso
    class. Per enumeration index, (neighborhood, product) purity."""
    nbhd: dict[tuple[int, ...], set] = {}
    product: dict[tuple[bytes, ...], set] = {}
    cover_class: dict[tuple[int, ...], tuple[bytes, ...]] = {}
    keys = []
    for rows in iter_adj_rows(n, True):
        frozen = tuple(rows)
        canon = canon_rows(n, frozen)[0]
        if canon not in cover_class:
            # relabeling G relabels G x K2, so one product class per iso class
            cover = direct_product(Graph(n, canon), K2).adj
            cover_class[canon] = component_class_multiset(2 * n, cover)
        nkey, pkey = multiset_key(frozen), cover_class[canon]
        nbhd.setdefault(nkey, set()).add(canon)
        product.setdefault(pkey, set()).add(canon)
        keys.append((nkey, pkey))
    return [(len(nbhd[a]) == 1, len(product[b]) == 1) for a, b in keys]


# OEIS A000666: graphs with loops allowed, n = 1..5
@pytest.mark.parametrize("n, classes", [(1, 2), (2, 6), (3, 20), (4, 90), (5, 544)])
def test_universe_index_classes_are_the_canon_rows_classes(n, classes):
    # canon_of is equal on two graphs exactly when their canonical rows are
    index = oracle_mod._UniverseIndex(n)
    index.build()
    assert len(index.class_of) == enumerate_count(n, True)
    assert index.class_of.itemsize == 2
    class_of_canon: dict[tuple[int, ...], int] = {}
    canon_of_class: dict[int, tuple[int, ...]] = {}
    purity = labeled_purity(n)
    for k, rows in enumerate(iter_adj_rows(n, True)):
        frozen = tuple(rows)
        canon = canon_rows(n, frozen)[0]
        number = index.canon_of(frozen)
        assert class_of_canon.setdefault(canon, number) == number
        assert canon_of_class.setdefault(number, canon) == canon
        assert (index.neighborhood_pure(frozen), index.product_pure(frozen)) == purity[k]
    assert len(class_of_canon) == len(canon_of_class) == classes


@pytest.mark.parametrize("n", [3, 4])
def test_universe_index_builds_without_canonical_forms(n, monkeypatch):
    # G x K2 on 2n vertices is canonicalized for its product class; G never is
    def no_canon_rows(order, rows):
        if order == n:
            raise AssertionError("the index build called canon_rows on G")
        return canon_rows(order, rows)

    monkeypatch.setattr(oracle_mod, "canon_rows", no_canon_rows)
    index = oracle_mod._UniverseIndex(n)
    index.build()
    purity = labeled_purity(n)
    for k, rows in enumerate(iter_adj_rows(n, True)):
        assert (index.neighborhood_pure(rows), index.product_pure(rows)) == purity[k]
    assert not all(itertools.chain.from_iterable(purity))


# ---------------------------------------------------------------------------
# bipartite sweep: per iso class against graph by graph
# ---------------------------------------------------------------------------


def labeled_bip_sweep(n, violations, start=0, stop=None):
    """The bipartite sweep over every labeled graph of [start, stop): the
    reference the per-class sweep must reproduce, counts and violations."""
    checked = 0
    failures = 0

    def cert(rows):
        return canon_rows(n, rows)[0]

    for rows in iter_adj_rows(n, False, start=start, stop=stop):
        frozen = tuple(rows)
        g = Graph(n, frozen)
        bip = bipartition(g)
        if not bip.is_bipartite:
            continue
        checked += 1
        bip_verdict, _ = oracle_mod._bip_decide(g, bip)
        if not bip_verdict:
            failures += 1
        slow = _full_route(frozen, _permuted(frozen, iter_ant_images(n, frozen)), cert)
        if bip_verdict != slow:
            violations.add(
                "biprevinv", n,
                edges=oracle_mod._edges_of_rows(n, frozen),
                reversal_decider=bip_verdict, anti_route=slow,
            )
        doubled = component_class_multiset(n, frozen) * 2
        cover = component_class_multiset(2 * n, direct_product(g, K2).adj)
        if tuple(sorted(doubled)) != cover:
            violations.add("double_cover", n, edges=oracle_mod._edges_of_rows(n, frozen))
    return checked, failures


@pytest.fixture
def fresh_bip_classes():
    """Drop the sweep's cached classes before and after a test that patches
    what they are computed from."""
    oracle_mod._bip_classes.cache_clear()
    yield
    oracle_mod._bip_classes.cache_clear()


def split_points(total: int) -> list[int]:
    """Cut points of [0, total), most of them off byte boundaries."""
    return sorted({0, 1, 3, total // 3 + 1, total // 2 + 5, total - 1, total} & set(range(total + 1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_class_sweep_matches_the_labeled_sweep(n):
    total = enumerate_count(n, False)
    cuts = split_points(total)
    summed = [0, 0]
    for lo, hi in zip(cuts, cuts[1:]):
        reference = oracle_mod._Violations()
        counts = labeled_bip_sweep(n, reference, lo, hi)
        assert oracle_mod._worker_bip_sweep((n, lo, hi)) == (*counts, reference.items, 0)
        summed = [a + b for a, b in zip(summed, counts)]
    assert oracle_mod._worker_bip_sweep((n, 0, total)) == (*summed, [], 0)


# OEIS A033995: bipartite graphs, n = 1..6
@pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 3), (4, 7), (5, 13), (6, 35)])
def test_double_cover_fault_is_reported_once_per_class(n, classes, monkeypatch, fresh_bip_classes):
    # G + G with a loop at vertex 0 is never isomorphic to the loopless
    # G x K2 of a bipartite G
    def looped_union(g, h):
        union = disjoint_union(g, h)
        return Graph(union.n, (union.adj[0] | 1,) + union.adj[1:])

    monkeypatch.setattr(oracle_mod, "disjoint_union", looped_union)
    *_, items, total = oracle_mod._worker_bip_sweep((n, 0, enumerate_count(n, False)))
    assert Counter(item["suite"] for item in items) == {"double_cover": classes}
    assert total == classes


def test_corrupted_transposition_table_stops_index_and_sweep(monkeypatch, fresh_bip_classes):
    real = iso_mod._orbit_steps

    def corrupted(n, loops):
        steps = real(n, loops)
        identity = iso_mod._swap_tables(n, loops, 0, 0)
        return tuple(identity if tables is steps[0] else tables for tables in steps)

    monkeypatch.setattr(iso_mod, "_orbit_steps", corrupted)
    with pytest.raises(InvariantViolationError):
        oracle_mod._UniverseIndex(4).build()
    with pytest.raises(InvariantViolationError):
        oracle_mod._worker_bip_sweep((5, 0, enumerate_count(5, False)))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_faulty_decider_is_reported_once_per_class(n, monkeypatch, fresh_bip_classes):
    real = oracle_mod._bip_decide

    def faulty(g, bp):
        # wrong on every graph with an odd edge count, a class invariant
        verdict, witness = real(g, bp)
        return verdict != g.edge_count() % 2, witness

    monkeypatch.setattr(oracle_mod, "_bip_decide", faulty)
    total = enumerate_count(n, False)
    least: dict[tuple[int, ...], int] = {}
    for k, rows in enumerate(iter_adj_rows(n, False)):
        g = Graph(n, tuple(rows))
        if g.edge_count() % 2 and bipartition(g).is_bipartite:
            least.setdefault(canon_rows(n, g.adj)[0], k)
    serial = oracle_mod._worker_bip_sweep((n, 0, total))
    items = serial[2]
    assert {item["suite"] for item in items} == {"biprevinv"}
    reported = [
        adjacency_index(n, Graph.from_edges(n, item["edges"]).adj, False) for item in items
    ]
    assert reported == sorted(least.values())
    assert serial[3] == len(least)
    cuts = split_points(total)
    parts = [oracle_mod._worker_bip_sweep((n, lo, hi)) for lo, hi in zip(cuts, cuts[1:])]
    assert sum(part[0] for part in parts) == serial[0]
    assert sum(part[1] for part in parts) == serial[1]
    assert [item for part in parts for item in part[2]] == items
    assert sum(part[3] for part in parts) == serial[3]


@pytest.mark.parametrize("block", [1, 2, 1 << 20])
def test_count_bits_counts_each_range(monkeypatch, block):
    monkeypatch.setattr(oracle_mod, "_COUNT_BLOCK", block)
    bits = bytearray(random.Random(6).randbytes(5))
    for start in range(41):
        for stop in range(start, 41):
            expected = sum(bits[k >> 3] >> (k & 7) & 1 for k in range(start, stop))
            assert oracle_mod._count_bits(bits, start, stop) == expected


def test_bip_sweep_rejects_a_bad_slice():
    for lo, hi in ((-1, 4), (5, 4), (0, enumerate_count(3, False) + 1)):
        with pytest.raises(UsageError):
            oracle_mod._worker_bip_sweep((3, lo, hi))


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
