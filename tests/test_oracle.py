"""Scan oracles, product witnesses, and the verification harness."""
from __future__ import annotations

import itertools
import json
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

import cancelgraph.antiauto as antiauto_mod
import cancelgraph.cli as cli
import cancelgraph.decide as decide_mod
import cancelgraph.graphs as graphs_mod
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
from cancelgraph.decide import _full_route
from cancelgraph.graphs import (
    adjacency_index,
    component_masks,
    enumerate_count,
    iter_adj_rows,
    multiset_key,
)
from cancelgraph.iso import canon_connected, canon_rows, cert_bytes, compact_rows, stamp_orbit
from cancelgraph.product import bipartition, is_bipartite

from conftest import graph_strategy, load_fixture, product_bipartition_rows

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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cancellation_counterexample_is_the_least_offender_exhaustively(n):
    # the least H by adjacency_index with H x K2 isomorphic to G x K2 and H
    # not isomorphic to G, from certificates of every labeled graph, unfiltered
    graphs = [Graph(n, tuple(rows)) for rows in iter_adj_rows(n, True)]
    own = [canon_rows(n, h.adj)[0] for h in graphs]
    cover = [canon_rows(2 * n, direct_product(h, K2).adj)[0] for h in graphs]
    offended = 0
    for g, g_own, g_cover in zip(graphs, own, cover):
        offenders = [h for h, h_own, h_cover in zip(graphs, own, cover)
                     if h_cover == g_cover and h_own != g_own]
        least = min(offenders, key=lambda h: adjacency_index(n, h.adj), default=None)
        assert cancellation_counterexample(g) == least
        offended += least is not None
    assert offended == {1: 0, 2: 2, 3: 20}[n]


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
        pure = index.class_product_pure[index.canon_of(g.adj)]
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

# neighborhood_prop, simeqiso and simplus2 run inside main, on its Ant search
SUITE_NAMES = {
    "main",
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


def test_verify_forced_loops_census_at_six():
    # the largest universe index the table bound admits: 4.25 MiB of tables
    # over 2^21 graphs in 5096 classes
    report = verify_theorems(6, True, bip_max=0, force=True)
    assert report.violations == ()
    assert census_tuples(report)[-1] == (6, 2097152, 552644, 599324, 1915)
    assert report.bipartite_census == ()


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
    del data["suite_seconds"]
    return data


def test_verify_jobs_has_no_effect():
    # every suite runs in the calling process, whatever jobs asks for
    reports = [verify_theorems(2, True, bip_max=3, jobs=jobs) for jobs in (None, 1, 2)]
    first, *rest = map(without_timings, reports)
    assert first["jobs"] == 1
    assert all(data == first for data in rest)


def test_violations_keep_the_first_ones_and_count_all():
    violations = oracle_mod._Violations()
    for i in range(300):
        violations.add("main", 1, i=i)
    cap = oracle_mod.MAX_RECORDED_VIOLATIONS
    assert [item["i"] for item in violations.items[:-1]] == list(range(cap))
    assert violations.items[-1]["suite"] == "truncated"
    assert violations.total == 300


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
    labeled, per_class = labeled_main_pass_kinds(3)
    assert labeled == {"simeqiso_across_orbits": 30}
    report = verify_theorems(3, True, bip_max=1, jobs=1)
    assert violation_kinds(report.violations) == per_class == {"simeqiso_across_orbits": 14}


class CertificateIndex:
    """Stands in for the universe index at n=6, whose build takes seconds:
    each class is named by its certificate, and no class is product pure,
    which holds for C6 (C6 x K2 is 2K3 x K2)."""

    class_product_pure = defaultdict(bool)

    def canon_of(self, rows):
        return oracle_mod._certificate(6, rows)


def test_orbit_fault_is_reported_at_six(monkeypatch):
    # the orbit checks run at n=6 too: without generators each of C6's 22
    # anti-automorphisms is its own orbit, against 4 classes of G^a
    violations = oracle_mod._Violations()
    oracle_mod._graph_checks(CertificateIndex(), load_fixture("c6"), violations)
    assert violations.total == 0
    monkeypatch.setattr(antiauto_mod, "_tf_generators", lambda n, rows: [])
    oracle_mod._graph_checks(CertificateIndex(), load_fixture("c6"), violations)
    assert [(v["suite"], v["n"], v["orbits"], v["classes"]) for v in violations.items] == [
        ("simeqiso_across_orbits", 6, 22, 4)
    ]


def test_oracle_purity_fault_is_reported_by_the_main_pass(monkeypatch):
    # every graph reads reconstructible: the 0 + 2 + 20 non-reconstructible
    # graphs up to n=3, in 0 + 2 + 8 classes, now disagree with both oracles
    monkeypatch.setattr(oracle_mod, "_full_route", lambda *args: True)
    labeled, per_class = labeled_main_pass_kinds(3)
    kinds = violation_kinds(verify_theorems(3, True, bip_max=1, jobs=1).violations)
    assert kinds == per_class
    for suite in ("theorem_vs_neighborhood_oracle", "theorem_vs_cancellation_oracle"):
        assert labeled[suite] == 22
        assert kinds[suite] == 10


def test_fast_path_fault_is_reported_by_the_main_pass(monkeypatch):
    # an involution search that never finds one sends every graph down the
    # "reconstructible outright" route, so the non-reconstructible graphs (22
    # up to n=3, 384 up to n=4, in 10 and 54 classes) disagree with the full
    # route; it also misses the twin swap of every graph with twins (22 and
    # 330 graphs, in 10 and 48 classes)
    monkeypatch.setattr(iso_mod, "is_involution", lambda image: False)
    for nmax, labeled_count, class_count, twin_labeled, twin_class_count in (
            (3, 22, 10, 22, 10), (4, 384, 54, 330, 48)):
        labeled, per_class = labeled_main_pass_kinds(nmax)
        assert labeled == {"fast_paths": labeled_count, "twin_involution": twin_labeled}
        report = verify_theorems(nmax, True, bip_max=1, jobs=1)
        assert violation_kinds(report.violations) == per_class == {
            "fast_paths": class_count, "twin_involution": twin_class_count}


def test_twin_involution_fault_is_reported_by_the_main_pass(monkeypatch):
    # an involution search that misses the twin swap breaks the lemma the
    # decider's shortcut rests on: each of the 330 labeled graphs with twins
    # up to n=4, in 48 classes, is reported, and the non-reconstructible ones
    # among them (54 graphs in 10 classes) also disagree with the full route
    real = oracle_mod.involution_witness
    monkeypatch.setattr(oracle_mod, "involution_witness",
                        lambda g: None if len(set(g.adj)) < g.n else real(g))
    labeled, per_class = labeled_main_pass_kinds(4)
    assert labeled == {"twin_involution": 330, "fast_paths": 54}
    report = verify_theorems(4, True, bip_max=1, jobs=1)
    assert violation_kinds(report.violations) == per_class == {
        "twin_involution": 48, "fast_paths": 10}


def test_main_pass_expands_ant_once_per_class_at_every_n(monkeypatch):
    # the orbit checks run at every n: all of Ant(G) is listed once for each
    # of the 2 + 6 + 20 loops-allowed classes at n <= 3, and nowhere else
    expanded: Counter = Counter()
    monkeypatch.setattr(oracle_mod, "_full_listing",
                        lambda g: expanded.update([g.n]) or antiauto_mod._full_listing(g))
    assert verify_theorems(3, True, bip_max=0).ok
    assert expanded == {1: 2, 2: 6, 3: 20}


def test_graph_checks_look_up_no_rows_twice():
    # G's own class, both oracles, the full route and the orbit checks read
    # one memoised lookup: within a class, no rows reach the index twice,
    # and only G's neighborhood mates reach it
    calls = []

    class CountingIndex(oracle_mod._UniverseIndex):
        def canon_of(self, rows):
            calls.append(rows)
            return super().canon_of(rows)

    for n in range(1, 5):
        index = CountingIndex(n)
        index.build()
        for rows in index.class_rows:
            calls.clear()
            oracle_mod._graph_checks(index, Graph(n, rows), oracle_mod._Violations())
            assert rows in calls and len(calls) == len(set(calls))
            assert set(calls) <= set(oracle_mod._neighborhood_mates(n, rows))


@pytest.mark.parametrize("loops", [True, False])
def test_verify_feeds_the_side_suites_the_index_representatives(monkeypatch, loops):
    # one universe index per n, built once, and all five side suites read its
    # 2, 6, 20 and 90 loops-allowed class representatives at n = 1..4, one
    # graph of each class, in both modes
    builds = []
    build = oracle_mod._UniverseIndex.build
    monkeypatch.setattr(oracle_mod._UniverseIndex, "build",
                        lambda self: builds.append(self.n) or build(self))
    fed: dict[str, list] = {}
    for name in SIDE_SUITES:
        def suite(graphs, violations, name=name, real=getattr(oracle_mod, name)):
            fed.setdefault(name, []).append(graphs)
            real(graphs, violations)

        monkeypatch.setattr(oracle_mod, name, suite)
    assert verify_theorems(4, loops, bip_max=1, jobs=1).ok
    assert builds == [1, 2, 3, 4]
    indexes = universe_indexes(4)
    assert fed.keys() == set(SIDE_SUITES)
    for (graphs,) in fed.values():
        assert {n: len(feed) for n, feed in graphs.items()} == {1: 2, 2: 6, 3: 20, 4: 90}
        for n, feed in graphs.items():
            assert sorted(map(indexes[n].canon_of, feed)) == list(range(len(feed)))


def twin_fixing_cosets(rows):
    """A faulty _two_power_coset: it keeps only the cosets whose images map
    every twin class onto itself, so every G^a it keeps is G."""
    return lambda image: all(rows[w] == rows[v] for v, w in enumerate(image))


def test_two_power_filter_fault_is_reported_by_main_pass_and_sweep(monkeypatch, fresh_bip_classes):
    # every full route now reads reconstructible, and the main pass and the
    # bipartite sweep run the decider's filter: the 384 non-reconstructible
    # graphs up to n=4, in 54 classes, disagree with both oracles, and the
    # 28 of them the reversal decider rejects, in 6 classes, with the fast
    # path; in the sweep those 6 classes disagree with the reversal decider
    monkeypatch.setattr(decide_mod, "_two_power_coset", twin_fixing_cosets)
    labeled, per_class = labeled_main_pass_kinds(4)
    assert labeled == {
        "theorem_vs_neighborhood_oracle": 384, "theorem_vs_cancellation_oracle": 384,
        "fast_paths": 28,
    }
    assert per_class == {
        "theorem_vs_neighborhood_oracle": 54, "theorem_vs_cancellation_oracle": 54,
        "fast_paths": 6,
    }
    report = verify_theorems(4, True, bip_max=4, jobs=1)
    assert violation_kinds(report.violations) == {**per_class, "biprevinv": 6}


LIST_COSETS = antiauto_mod._iter_coset_images


def twin_fixing_coset_images(n, rows):
    """A faulty coset search: on graphs with twins it keeps only the members
    that map every vertex into its own twin class, so P alone."""
    images = LIST_COSETS(n, rows)
    if len(set(rows)) == n:
        return images
    return (img for img in images if all(rows[w] == rows[v] for v, w in enumerate(img)))


def test_coset_search_fault_is_reported_by_main_pass_and_sweep(monkeypatch, fresh_bip_classes):
    # every graph with twins now reads reconstructible, and the main pass and
    # the bipartite sweep read the coset listing the deciders read: the 54
    # non-reconstructible graphs with twins up to n=4, in 10 classes, have
    # neighborhood mates the listing lost and disagree with both oracles,
    # and the 9 of them the reversal decider rejects, in 2 classes, with the
    # fast path; in the sweep those 2 classes disagree with the reversal
    # decider
    monkeypatch.setattr(antiauto_mod, "_iter_coset_images", twin_fixing_coset_images)
    labeled, per_class = labeled_main_pass_kinds(4)
    assert labeled == {
        "neighborhood_prop": 54,
        "theorem_vs_neighborhood_oracle": 54, "theorem_vs_cancellation_oracle": 54,
        "fast_paths": 9,
    }
    assert per_class == {
        "neighborhood_prop": 10,
        "theorem_vs_neighborhood_oracle": 10, "theorem_vs_cancellation_oracle": 10,
        "fast_paths": 2,
    }
    report = verify_theorems(4, True, bip_max=4, jobs=1)
    assert violation_kinds(report.violations) == {**per_class, "biprevinv": 2}


def test_lovasz_pass_reports_a_mixed_product_class(monkeypatch):
    # every G x K3 reads as one vertex, so each n whose loopless graphs lie
    # in two or more classes (n = 2, 3, 4) has one mixed product class, on
    # either feed
    indexes = universe_indexes(4)
    monkeypatch.setattr(oracle_mod, "direct_product", lambda g, h: Graph(1, (0,)))
    mixed = [
        ("lovasz_k3", n) for n, index in indexes.items()
        if len({index.canon_of(rows) for rows in iter_adj_rows(n, False)}) > 1
    ]
    for feed in (labeled_feed(4), class_feed(indexes)):
        violations = oracle_mod._Violations()
        oracle_mod._lovasz_pass(feed, violations)
        assert [(item["suite"], item["n"]) for item in violations.items] == mixed
    assert mixed == [("lovasz_k3", 2), ("lovasz_k3", 3), ("lovasz_k3", 4)]


def counting_violations() -> tuple[Counter, oracle_mod._Violations]:
    """A collector and its violations per suite, counted past the cap on
    recorded items."""
    kinds: Counter = Counter()

    class Counting(oracle_mod._Violations):
        def add(self, suite, n, **detail):
            kinds[suite] += 1
            super().add(suite, n, **detail)

    return kinds, Counting()


def side_pass_kinds(suite, graphs) -> Counter:
    kinds, violations = counting_violations()
    suite(graphs, violations)
    return kinds


SIDE_SUITES = ("_pair_membership_pass", "_digraph_symmetry_pass", "_weichsel_pass",
               "_lovasz_pass", "_roundtrip_pass")


def labeled_feed(nmax: int) -> dict[int, list[tuple[int, ...]]]:
    """Every loops-allowed labeled graph at n = 1..nmax: the side suites'
    reference feed, as labeled_main_pass is the main pass's reference."""
    return {n: list(iter_adj_rows(n, True)) for n in range(1, nmax + 1)}


def universe_indexes(nmax: int) -> dict[int, oracle_mod._UniverseIndex]:
    indexes = {}
    for n in range(1, nmax + 1):
        indexes[n] = oracle_mod._UniverseIndex(n)
        indexes[n].build()
    return indexes


def class_feed(indexes) -> dict[int, list[tuple[int, ...]]]:
    """The class representatives verify feeds the side suites."""
    return {n: index.class_rows for n, index in indexes.items()}


def failing_graphs(suite, graphs, monkeypatch) -> set[tuple[str, tuple]]:
    """(suite, graphs it names) for every violation suite reports over
    graphs, each graph as (n, rows): a pair of factors for weichsel, read
    off the product it takes; one graph, checked alone, for the others."""
    failing = set()
    if suite is not oracle_mod._weichsel_pass:
        for n, feed in graphs.items():
            for rows in feed:
                failing.update((kind, ((n, rows),)) for kind in side_pass_kinds(suite, {n: [rows]}))
        return failing
    pairs = []

    class Recording(oracle_mod._Violations):
        def add(self, kind, n, **detail):
            failing.add((kind, tuple((f.n, f.adj) for f in pairs[-1])))

    with monkeypatch.context() as patch:
        product = oracle_mod.direct_product
        patch.setattr(oracle_mod, "direct_product",
                      lambda g, h: pairs.append((g, h)) or product(g, h))
        suite(graphs, Recording())
    return failing


def failing_class_counts(suite, indexes, monkeypatch) -> tuple[Counter, Counter]:
    """Per suite, the failing graphs (factor pairs for weichsel) of the class
    feed, and the number the labeled feed derives for them: the distinct
    index.canon_of classes (pairs of classes) among its failing graphs. The
    two agree wherever the fault does not depend on the labeling."""
    def classes(subject):
        return tuple((n, indexes[n].canon_of(rows)) for n, rows in subject)

    on_classes = failing_graphs(suite, class_feed(indexes), monkeypatch)
    labeled = failing_graphs(suite, labeled_feed(len(indexes)), monkeypatch)
    derived = {(kind, classes(subject)) for kind, subject in labeled}
    return Counter(kind for kind, _ in on_classes), Counter(kind for kind, _ in derived)


def main_pass_kinds(nmax: int) -> Counter:
    """Violations per suite of the loops-allowed main pass at n = 1..nmax."""
    kinds, violations = counting_violations()
    for index in universe_indexes(nmax).values():
        oracle_mod._main_pass_for_n(index, True, violations)
    return kinds


def labeled_main_pass(index, loops_allowed, violations):
    """The main pass's checks on every labeled graph of the mode's universe:
    the reference the per-class pass must reproduce, counts and verdicts."""
    n = index.n
    graphs = non_rec = non_strong = bip_failures = 0
    for rows in iter_adj_rows(n, loops_allowed):
        rec, strong, reversal_failure = oracle_mod._graph_checks(index, Graph(n, rows), violations)
        graphs += 1
        non_rec += not rec
        non_strong += not strong
        bip_failures += reversal_failure
    return graphs, non_rec, non_strong, bip_failures


def labeled_main_pass_kinds(nmax: int) -> tuple[Counter, Counter]:
    """Violations per suite of the main pass's checks over the loops-allowed
    graphs at n = 1..nmax: over every labeled graph, and over the least
    labeled member of each iso class alone, which is what the per-class pass
    reports. Classes are told apart by component_class_multiset."""
    every: Counter = Counter()
    least_only: Counter = Counter()
    for n, index in universe_indexes(nmax).items():
        classes = set()
        for rows in iter_adj_rows(n, True):
            kinds, violations = counting_violations()
            oracle_mod._graph_checks(index, Graph(n, rows), violations)
            every += kinds
            key = component_class_multiset(n, rows)
            if key not in classes:
                classes.add(key)
                least_only += kinds
    return every, least_only


@pytest.mark.parametrize(
    "n, loops", [(n, True) for n in range(1, 5)] + [(n, False) for n in range(1, 6)]
)
def test_class_main_pass_matches_the_labeled_pass(n, loops):
    # no verdict depends on the labeling: one representative per class,
    # weighted by class size, gives the labeled census row
    index = oracle_mod._UniverseIndex(n)
    index.build()
    per_class = oracle_mod._Violations()
    labeled = oracle_mod._Violations()
    counts = oracle_mod._main_pass_for_n(index, loops, per_class)
    assert counts == labeled_main_pass(index, loops, labeled)
    assert counts[0] == enumerate_count(n, loops)
    assert per_class.total == labeled.total == 0


@pytest.mark.parametrize("loops", [True, False])
def test_census_guard_catches_a_wrong_class_size(monkeypatch, loops):
    real = oracle_mod._UniverseIndex.build

    def short_build(self):
        real(self)
        self.class_size[0] -= 1

    monkeypatch.setattr(oracle_mod._UniverseIndex, "build", short_build)
    expected = enumerate_count(1, loops)
    with pytest.raises(
        InvariantViolationError, match=f"census covered {expected - 1} graphs, expected {expected}"
    ):
        verify_theorems(1, loops, bip_max=1, jobs=1)


LIST_AUT_TF = oracle_mod.enumerate_aut_tf


def with_reversal_pair(g):
    ident, rev = tuple(range(g.n)), tuple(reversed(range(g.n)))
    return LIST_AUT_TF(g) + [TwoFoldPair(Permutation(ident), Permutation(rev))]


# the 2 + 8 + 64 + 1024 loops-allowed graphs at n <= 4 hold 684 with an
# automorphism besides the identity, and 20 on which (identity, reversal)
# is a two-fold automorphism. The class feed reports each failing class
# once, except under the reversal pair, which is two-fold on some members
# of a class and not on others: a fault that depends on the labeling shows
# on the class feed only where the representative fails, and on the
# labeled feed everywhere
@pytest.mark.parametrize("name, fake, expected", [
    ("enumerate_aut_tf", lambda g: LIST_AUT_TF(g)[:-1], {"aut_tf_enumeration": 1098}),
    ("enumerate_aut_tf", with_reversal_pair, {"aut_tf_enumeration": 1078}),
    ("iter_automorphism_images", lambda n, rows: iter([tuple(range(n))]),
     {"auto_pair_embedding": 684}),
    ("iter_ant_images", lambda n, rows: iter([tuple(range(n))]),
     {"action_closure": 3580, "anti_pair_embedding": 684}),
])
def test_pair_membership_faults_are_reported(monkeypatch, name, fake, expected):
    suite = oracle_mod._pair_membership_pass
    indexes = universe_indexes(4)
    monkeypatch.setattr(oracle_mod, name, fake)
    assert side_pass_kinds(suite, labeled_feed(4)) == expected
    per_class, derived = failing_class_counts(suite, indexes, monkeypatch)
    assert derived.keys() == expected.keys()
    if fake is with_reversal_pair:
        assert per_class < derived
    else:
        assert per_class == derived


def test_odd_power_fault_is_reported_by_the_main_pass():
    class LabeledIndex(oracle_mod._UniverseIndex):
        """Labeled rows as certificates, so G^a and G^(a^3) differ whenever
        their rows do; the product oracle reads pure."""

        def canon_of(self, rows):
            return adjacency_index(self.n, rows)

        def build(self):
            super().build()
            self.class_product_pure = [True] * len(self.class_of)

    index = LabeledIndex(3)
    index.build()
    violations = oracle_mod._Violations()
    oracle_mod._main_pass_for_n(index, True, violations)
    assert violation_kinds(violations.items)["simplus2"] > 0


def cosets_without_identity(n, rows):
    ident = tuple(range(n))
    return iter([img for img in LIST_COSETS(n, rows) if img != ident] or [ident])


def test_ant_search_losing_the_identity_is_reported_by_the_main_pass(monkeypatch):
    # the coset search loses P, the identity's coset, and the full listing
    # every member of it, so the orbit checks find pair images and odd
    # powers outside the listing: one closure fault for each pair that sends
    # the least member left in G's own orbit into P, on the graphs where
    # that orbit holds more than P. G is then no G^a, so the full route reads
    # G's certificate from the index rather than from the images'
    # certificates. The strong routes still agree: both read the coset
    # listing, and every coset left is one whose G^a differs from G. Where
    # no other coset has G^a = G, G itself is a neighborhood mate the
    # listing lost
    monkeypatch.setattr(antiauto_mod, "_iter_coset_images", cosets_without_identity)
    labeled, per_class = labeled_main_pass_kinds(4)
    assert labeled == {"neighborhood_prop": 408, "simeqiso_closure": 276, "simplus2": 204}
    assert main_pass_kinds(4) == per_class == {
        "neighborhood_prop": 56, "simeqiso_closure": 42, "simplus2": 24,
    }


def test_multiset_fault_is_reported_by_the_main_pass(monkeypatch):
    # rows in vertex order as the multiset key: every coset image with
    # G^a != G, 38 of them on the labeled graphs up to n=3 and 18 on one
    # graph per class, now reads as changing the multiset
    monkeypatch.setattr(oracle_mod, "multiset_key", tuple)
    labeled, per_class = labeled_main_pass_kinds(3)
    assert labeled == {"eq1_multiset": 38}
    assert main_pass_kinds(3) == per_class == {"eq1_multiset": 18}


# the 22 loops-allowed graphs up to n=3 with a neighborhood mate not
# isomorphic to them, in 10 classes, are the ones whose mates differ from G
# alone. A mates search that yields only G loses their other mates
# (neighborhood_prop), and the neighborhood oracle then reads them pure. A
# coset search that yields only the identity loses their other G^a, so
# every full route reads reconstructible and both oracles disagree, as
# does the fast path on the 4 of them, in 2 classes, the reversal decider
# rejects
@pytest.mark.parametrize("module, name, fake, labeled_kinds, class_kinds", [
    (oracle_mod, "_neighborhood_mates", lambda n, rows: iter([rows]),
     {"neighborhood_prop": 22, "theorem_vs_neighborhood_oracle": 22},
     {"neighborhood_prop": 10, "theorem_vs_neighborhood_oracle": 10}),
    (antiauto_mod, "_iter_coset_images", lambda n, rows: iter([tuple(range(n))]),
     {"neighborhood_prop": 22, "theorem_vs_neighborhood_oracle": 22,
      "theorem_vs_cancellation_oracle": 22, "fast_paths": 4},
     {"neighborhood_prop": 10, "theorem_vs_neighborhood_oracle": 10,
      "theorem_vs_cancellation_oracle": 10, "fast_paths": 2}),
], ids=["mates", "cosets"])
def test_neighborhood_prop_fault_is_reported_by_the_main_pass(
    monkeypatch, module, name, fake, labeled_kinds, class_kinds
):
    monkeypatch.setattr(module, name, fake)
    labeled, per_class = labeled_main_pass_kinds(3)
    assert labeled == labeled_kinds
    assert per_class == class_kinds
    report = verify_theorems(3, True, bip_max=1, jobs=1)
    assert violation_kinds(report.violations) == per_class


@pytest.mark.parametrize("loops, classes", [
    (True, {1: 2, 2: 6, 3: 20, 4: 90}),
    (False, {1: 1, 2: 2, 3: 4, 4: 11}),
])
def test_verify_lists_the_neighborhood_mates_once_per_mode_class(monkeypatch, loops, classes):
    # neighborhood_prop and the neighborhood oracle read one mates search per
    # class of the mode's universe, in the main pass; the index lists none
    searches: Counter = Counter()
    mates = oracle_mod._neighborhood_mates
    monkeypatch.setattr(oracle_mod, "_neighborhood_mates",
                        lambda n, rows: searches.update([n]) or mates(n, rows))
    assert verify_theorems(4, loops, bip_max=0).ok
    assert searches == classes


def identity_pair(g, h):
    return Permutation.identity(g.n), Permutation.identity(g.n)


# each fake breaks the fact its pass checks, and the pass reports each case
# the fact then fails on: non-anti permutations (digraph_symmetry), pairs of bipartite factors with an edge (weichsel),
# anti-automorphisms (roundtrip_missing) and those with G^a not isomorphic
# to G (roundtrip_mismatch). On the labeled feed the counts are pinned; the
# class feed fails once per failing class, or pair of classes for weichsel
@pytest.mark.parametrize("name, fake, suite, nmax, expected", [
    ("is_anti_automorphism", lambda g, p: True,
     oracle_mod._digraph_symmetry_pass, 3, {"digraph_symmetry": 260}),
    ("component_masks", lambda n, rows: [(1 << n) - 1],
     oracle_mod._weichsel_pass, 3, {"weichsel": 49}),
    ("extract_anti_from_product_iso", lambda g, h: None,
     oracle_mod._roundtrip_pass, 3, {"roundtrip_missing": 142}),
    ("extract_anti_from_product_iso", identity_pair,
     oracle_mod._roundtrip_pass, 4, {"roundtrip_mismatch": 590}),
], ids=["digraph_symmetry", "weichsel", "roundtrip_missing", "roundtrip_mismatch"])
def test_side_pass_faults_are_reported(monkeypatch, name, fake, suite, nmax, expected):
    indexes = universe_indexes(nmax)
    monkeypatch.setattr(oracle_mod, name, fake)
    assert side_pass_kinds(suite, labeled_feed(nmax)) == expected
    per_class, derived = failing_class_counts(suite, indexes, monkeypatch)
    assert per_class == derived
    assert derived.keys() == expected.keys()


def component_class_multiset(n: int, rows) -> tuple[bytes, ...]:
    """The sorted certificates of the components: the reference product
    class and double-cover key, computed apart from oracle._certificate."""
    parts = []
    for mask in component_masks(n, rows):
        local = compact_rows(rows, mask)
        crows, _ = canon_connected(len(local), local)
        parts.append(cert_bytes(len(local), crows))
    return tuple(sorted(parts))


def index_purity(index, rows) -> tuple[bool, bool]:
    """(neighborhood, product) purity as _graph_checks reads it off the
    index: every neighborhood mate in G's class, and the product flag."""
    own = index.canon_of(rows)
    mates = oracle_mod._neighborhood_mates(index.n, rows)
    return all(index.canon_of(mate) == own for mate in mates), index.class_product_pure[own]


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
        assert index_purity(index, frozen) == purity[k]
    assert len(class_of_canon) == len(canon_of_class) == classes
    # each class's representative is its least member, its size its member count
    assert index.class_size == [size for _, size in sorted(Counter(index.class_of).items())]
    assert [adjacency_index(n, rows) for rows in index.class_rows] == [
        index.class_of.index(number) for number in range(classes)
    ]


def bitwise_index(n: int):
    """class_of, class_rows, class_size and class_product_pure of the
    loops-allowed universe at n, testing the bit of every index in turn, with
    purity from the canonical rows of every class's G x K2."""
    total = enumerate_count(n, True)
    seen = bytearray((total + 7) // 8)
    class_of = [0] * total
    class_rows, class_size = [], []
    for k, rows in enumerate(iter_adj_rows(n, True)):
        if not seen[k >> 3] >> (k & 7) & 1:
            members = stamp_orbit(n, tuple(rows), True, seen)
            for member in members:
                class_of[member] = len(class_rows)
            class_rows.append(tuple(rows))
            class_size.append(len(members))
    products = [canon_rows(2 * n, direct_product(Graph(n, rows), K2).adj)[0] for rows in class_rows]
    shared = Counter(products)
    return class_of, class_rows, class_size, [shared[p] == 1 for p in products]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_universe_index_scan_matches_a_bitwise_scan(n):
    # the build skips the bytes of its bitset that are full
    index = oracle_mod._UniverseIndex(n)
    index.build()
    built = (list(index.class_of), index.class_rows, index.class_size, index.class_product_pure)
    assert built == bitwise_index(n)


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
        assert index_purity(index, rows) == purity[k]
    assert not all(itertools.chain.from_iterable(purity))


def product_profile(n: int, rows) -> tuple[tuple[int, ...], ...]:
    """The common-neighbour profile of G x K2 computed on the product's own
    rows, halved: the two layers repeat each other's vertex profiles, and a
    vertex shares no neighbour with the n vertices of the other layer."""
    prod = direct_product(Graph(n, tuple(rows)), K2).adj
    profile = sorted(tuple(sorted((a & b).bit_count() for b in prod)) for a in prod)
    assert profile[::2] == profile[1::2]
    assert all(row[:n] == (0,) * n for row in profile)
    return tuple(row[n:] for row in profile[::2])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_key_is_the_halved_profile_of_the_product(n):
    # every labeled graph, loops allowed; the key is equal across each class
    index = oracle_mod._UniverseIndex(n)
    index.build()
    key_of_class: dict[int, tuple] = {}
    for k, rows in enumerate(iter_adj_rows(n, True)):
        key = oracle_mod._product_key(rows)
        assert key == product_profile(n, rows)
        assert key_of_class.setdefault(index.class_of[k], key) == key
    assert len(key_of_class) == len(index.class_rows)


def all_certificates_purity(index) -> list[bool]:
    """class_product_pure with the certificate of G x K2 taken for every
    class, the product key unread."""
    n = index.n
    products = [
        oracle_mod._certificate(2 * n, direct_product(Graph(n, rows), K2).adj)
        for rows in index.class_rows
    ]
    shared = Counter(products)
    return [shared[cert] == 1 for cert in products]


# only the classes that share their product key take a certificate of G x K2
@pytest.mark.parametrize("n, certified", [(1, 0), (2, 2), (3, 8), (4, 44), (5, 270)])
def test_index_certifies_only_the_colliding_product_keys(n, certified, monkeypatch):
    taken = []
    real = oracle_mod._certificate

    def counting(order, rows):
        taken.append(order)
        return real(order, rows)

    monkeypatch.setattr(oracle_mod, "_certificate", counting)
    index = oracle_mod._UniverseIndex(n)
    index.build()
    monkeypatch.undo()
    assert taken == [2 * n] * certified
    assert index.class_product_pure == all_certificates_purity(index)


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
        permuted = ((img, apply_anti_rows(frozen, img)) for img in iter_ant_images(n, frozen))
        slow = _full_route(frozen, permuted, cert)
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


def canonical_forms(n: int, seeds) -> set[tuple[int, ...]]:
    return {canon_rows(n, tuple(rows))[0] for rows in seeds}


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_sweep_seeds_reach_every_bipartite_class(n):
    # the seeds list the rows of the smaller side ascending only
    labeled = (rows for rows in iter_adj_rows(n, False) if is_bipartite(Graph(n, tuple(rows))))
    assert canonical_forms(n, oracle_mod._fixed_bipartition_rows(n)) == canonical_forms(n, labeled)


def test_sweep_seeds_reach_every_bipartite_class_at_seven():
    seeds = list(oracle_mod._fixed_bipartition_rows(7))
    assert len(seeds) == 1409
    reached = canonical_forms(7, seeds)
    assert len(reached) == 88
    assert reached == canonical_forms(7, product_bipartition_rows(7))


def looped_union(g: Graph, h: Graph) -> Graph:
    """G + H with a loop at vertex 0: never isomorphic to the loopless
    G x K2 of a bipartite G, so every class fails the double-cover check."""
    union = disjoint_union(g, h)
    return Graph(union.n, (union.adj[0] | 1,) + union.adj[1:])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_bip_classes_do_not_depend_on_the_seeds(n, monkeypatch, fresh_bip_classes):
    # every class's fault is listed at its least member, whichever seed
    # reached it
    monkeypatch.setattr(oracle_mod, "disjoint_union", looped_union)
    got = oracle_mod._bip_classes(n)
    monkeypatch.setattr(oracle_mod, "_fixed_bipartition_rows", product_bipartition_rows)
    assert got == oracle_mod._bip_classes.__wrapped__(n)
    assert len(got[2]) == (1, 1, 2, 3, 7, 13, 35, 88)[n]


# OEIS A033995: bipartite graphs, n = 1..6
@pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 3), (4, 7), (5, 13), (6, 35)])
def test_double_cover_fault_is_reported_once_per_class(n, classes, monkeypatch, fresh_bip_classes):
    monkeypatch.setattr(oracle_mod, "disjoint_union", looped_union)
    *_, items, total = oracle_mod._worker_bip_sweep((n, 0, enumerate_count(n, False)))
    assert Counter(item["suite"] for item in items) == {"double_cover": classes}
    assert total == classes


def test_corrupted_transposition_table_stops_index_and_sweep(monkeypatch, fresh_bip_classes):
    real = iso_mod._orbit_generators

    def corrupted(n, loops):
        # the cycle's tables replaced by the identity's
        swap, _ = real(n, loops)
        return swap, iso_mod._relabel_tables(n, loops, list(range(n)))

    monkeypatch.setattr(iso_mod, "_orbit_generators", corrupted)
    with pytest.raises(InvariantViolationError):
        oracle_mod._UniverseIndex(4).build()
    with pytest.raises(InvariantViolationError):
        oracle_mod._worker_bip_sweep((5, 0, enumerate_count(5, False)))


def unreachable(*args):
    raise AssertionError("reached work or allocation past the table bound")


# the universe index allows loops whatever the mode; the sweep is loopless.
# The table bound of the universes that stamping walks refuses both past
# 64 MiB: the index at n=7 would take 544 MiB, n=8 and the n=9 sweep more
@pytest.mark.parametrize("nmax, loops, bip_max", [
    (8, True, 1), (8, False, 1), (1, True, 9), (7, True, 1), (7, False, 1),
])
def test_verify_refuses_past_stamping_reach_up_front(monkeypatch, nmax, loops, bip_max):
    monkeypatch.setattr(oracle_mod._UniverseIndex, "build", unreachable)
    monkeypatch.setattr(oracle_mod, "_bip_classes", unreachable)
    if bip_max == 9:
        refusal = r"bipartite sweep at n=9 takes 2 bits for each of 2\^36 graphs"
    else:
        m = nmax * (nmax + 1) // 2
        refusal = rf"universe index at n={nmax} takes 17 bits for each of 2\^{m} graphs"
    with pytest.raises(CapacityError, match=refusal + "; tables bounded at 64 MiB$"):
        verify_theorems(nmax, loops, bip_max=bip_max, jobs=1, force=True)


def test_index_build_refuses_past_its_table_bound(monkeypatch):
    # n=6 fits: 4.25 MiB; n=7 is refused before its tables are allocated
    oracle_mod.check_table_bound(6, True)
    # the seen bitset is the build's first allocation
    monkeypatch.setattr(oracle_mod, "bytearray", unreachable, raising=False)
    with pytest.raises(CapacityError, match="n=7 .*bounded at 64 MiB"):
        oracle_mod._UniverseIndex(7).build()


def test_index_and_sweep_refuse_past_stamping_reach_before_allocating(
    monkeypatch, fresh_bip_classes
):
    # the n=8 sweep's two 32 MiB bitsets are exactly the bound
    oracle_mod.check_table_bound(8, False)
    monkeypatch.setattr(oracle_mod, "enumerate_count", unreachable)
    with pytest.raises(CapacityError, match="universe index at n=8 .*bounded at 64 MiB"):
        oracle_mod._UniverseIndex(8).build()
    with pytest.raises(CapacityError, match="bipartite sweep at n=9 .*bounded at 64 MiB"):
        oracle_mod._bip_classes(9)


@pytest.mark.parametrize("args, work, n", [
    (["--max-n", "100"], "universe index", 100),
    (["--max-n", "10000"], "universe index", 10000),
    (["--max-n", "1", "--bip-max", "2000"], "bipartite sweep", 2000),
], ids=["max-n-100", "max-n-10000", "bip-max-2000"])
def test_verify_refuses_a_huge_forced_n_without_listing_cells(
    monkeypatch, capsys, args, work, n
):
    # the bound computes the cell count: the cells of n=10000 would take
    # gigabytes to list
    for module in (graphs_mod, iso_mod, oracle_mod):
        monkeypatch.setattr(module, "upper_cells", unreachable, raising=False)
    assert cli.run(["verify", *args, "--force"]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{work} at n={n} takes" in err
    assert err.endswith("; tables bounded at 64 MiB\n")


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
    indexes = universe_indexes(4)
    calls = []
    product = oracle_mod.direct_product
    monkeypatch.setattr(
        oracle_mod, "direct_product", lambda g, h: calls.append((g, h)) or product(g, h)
    )
    # 75 connected factors with an edge (loops allowed up to n=3, loopless
    # at n=4) among the labeled graphs, in 20 classes, every ordered pair once
    for feed, factors in ((labeled_feed(4), 75), (class_feed(indexes), 20)):
        calls.clear()
        violations = oracle_mod._Violations()
        oracle_mod._weichsel_pass(feed, violations)
        assert violations.total == 0
        assert len(calls) == len(set(calls)) == factors * factors
