"""Deciders against an inline scan oracle, plus frozen full reports.

The mini oracle here re-derives reconstructibility from scratch: collect
every graph on the same vertices whose sorted row multiset matches, then ask
whether each one is carried onto G by some relabeling. No shared code with
the deciders beyond the Graph container.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cancelgraph import (
    AnalysisReport,
    CapacityError,
    Graph,
    InvariantViolationError,
    Permutation,
    UsageError,
    apply_anti,
    bipartite_cancellation_decider,
    bipartition,
    bipartite_reversal_witness,
    classify,
    enumerate_ant,
    is_anti_automorphism,
    is_bipartite,
    is_cancellation_graph,
    is_isomorphic,
    is_neighborhood_reconstructible,
    is_strongly_reconstructible,
    reconstruction_counterexample,
    strong_counterexample,
)
import cancelgraph.antiauto as antiauto_mod
import cancelgraph.iso as iso_mod
import cancelgraph.product as product_mod
from cancelgraph import decide
from cancelgraph.antiauto import apply_anti_rows, iter_ant_images
from cancelgraph.graphs import (adjacency_index, invert, is_involution, iter_adj_rows, multiset_key,
                                perm_order, relabel_rows, twin_classes)
from cancelgraph.iso import _canonical, involution_witness
from cancelgraph.oracle import _UniverseIndex

from conftest import graph_and_permutation, graph_strategy, load_fixture, product_bipartition_rows


def scan_reconstructible(g: Graph) -> bool:
    key = multiset_key(g.adj)
    perms = [Permutation(img) for img in itertools.permutations(range(g.n))]
    for rows in iter_adj_rows(g.n, True):
        if multiset_key(tuple(rows)) != key:
            continue
        h = Graph(g.n, tuple(rows))
        if not any(g.relabel(p) == h for p in perms):
            return False
    return True


# ---------------------------------------------------------------------------
# decider vs scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_decider_matches_scan_exhaustively(n):
    for rows in iter_adj_rows(n, True):
        g = Graph(n, tuple(rows))
        assert is_neighborhood_reconstructible(g) == scan_reconstructible(g)


@settings(max_examples=60, deadline=None)
@given(graph_strategy(max_n=4, min_n=4, loops=True))
def test_decider_matches_scan_sampled(g):
    assert is_neighborhood_reconstructible(g) == scan_reconstructible(g)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_agrees_with_the_deciders_exhaustively(n):
    # classify checks the decider's verdict (involution, bipartite or the
    # 2-power-order route) against its pass over all of Ant(G)
    for rows in iter_adj_rows(n, True):
        g = Graph(n, tuple(rows))
        rep = classify(g)
        assert rep.reconstructible == is_neighborhood_reconstructible(g)
        assert rep.strongly == is_strongly_reconstructible(g)


def test_classify_raises_when_the_decider_disagrees(q3, monkeypatch):
    # a decider whose involution test always reports none answers
    # "reconstructible", which the pass over Ant(Q3) contradicts
    monkeypatch.setattr(decide, "involution_witness", lambda g: None)
    with pytest.raises(InvariantViolationError, match="decider says True"):
        classify(q3)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        is_neighborhood_reconstructible(Graph(9, (0,) * 9))
    with pytest.raises(CapacityError):
        classify(Graph(9, (0,) * 9))


def test_cancellation_is_the_same_predicate(c6, lp, sql, p_reconstruct):
    for g in (c6, lp, sql, p_reconstruct):
        assert is_cancellation_graph(g) == is_neighborhood_reconstructible(g)


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def test_reconstruction_counterexample_hexagon(c6, two_k3):
    found = reconstruction_counterexample(c6)
    assert found is not None
    alpha, mate = found
    assert alpha.image == (3, 4, 5, 0, 1, 2)
    assert mate == two_k3
    assert apply_anti(c6, alpha) == mate
    assert not is_isomorphic(c6, mate)
    assert multiset_key(mate.adj) == multiset_key(c6.adj)


def test_reconstruction_counterexample_none_when_reconstructible(lp, p_reconstruct):
    assert reconstruction_counterexample(lp) is None
    assert reconstruction_counterexample(p_reconstruct) is None


def test_counterexample_is_least_over_the_mates(sql):
    alpha, mate = reconstruction_counterexample(sql)
    assert alpha.image == (0, 3, 2, 1)
    assert mate == Graph.from_edges(4, itertools.combinations(range(4), 2))
    best = adjacency_index(sql.n, mate.adj)
    for p in enumerate_ant(sql):
        moved = apply_anti(sql, p)
        if not is_isomorphic(moved, sql):
            assert best <= adjacency_index(sql.n, moved.adj)


def test_strongly_and_its_witness(c6, lp, p_reconstruct, asym7):
    assert is_strongly_reconstructible(lp)
    assert is_strongly_reconstructible(asym7)
    assert not is_strongly_reconstructible(c6)
    assert not is_strongly_reconstructible(p_reconstruct)
    assert strong_counterexample(lp) is None

    w = strong_counterexample(p_reconstruct)
    assert w is not None and w.image == (0, 3, 2, 1, 5, 4)
    assert is_anti_automorphism(p_reconstruct, w)
    moved = apply_anti(p_reconstruct, w)
    assert moved != p_reconstruct
    assert is_isomorphic(moved, p_reconstruct)  # reconstructible, just not strongly

    assert strong_counterexample(c6).image == (0, 5, 4, 3, 2, 1)


@settings(max_examples=80)
@given(graph_strategy(max_n=5, loops=True))
def test_strongly_means_every_permuted_graph_is_g(g):
    strong = is_strongly_reconstructible(g)
    assert strong == all(apply_anti(g, p) == g for p in enumerate_ant(g))
    if strong:
        assert is_neighborhood_reconstructible(g)


# ---------------------------------------------------------------------------
# bipartite route
# ---------------------------------------------------------------------------


def test_bipartite_decider_hexagon(c6):
    assert not bipartite_cancellation_decider(c6)
    w = bipartite_reversal_witness(c6)
    assert w is not None and w.image == (1, 0, 5, 4, 3, 2)
    assert w.is_involution()
    assert c6.relabel(w) == c6  # an automorphism
    # swaps the two sides
    assert {w(v) for v in (0, 2, 4)} == {1, 3, 5}


def test_bipartite_decider_small_cases():
    k2 = Graph.from_edges(2, [(0, 1)])
    assert not bipartite_cancellation_decider(k2)
    assert bipartite_reversal_witness(k2).image == (1, 0)

    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert bipartite_cancellation_decider(p3)
    assert bipartite_reversal_witness(p3) is None

    empty = Graph(3, (0, 0, 0))
    assert bipartite_cancellation_decider(empty)

    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(UsageError):
        bipartite_cancellation_decider(k3)


def test_bipartite_decider_matches_scan_exhaustively():
    for n in (1, 2, 3, 4):
        for rows in iter_adj_rows(n, False):
            g = Graph(n, tuple(rows))
            if not is_bipartite(g):
                continue
            assert bipartite_cancellation_decider(g) == scan_reconstructible(g)


def pair_test_reversing_involution(n, rows, xs, ys):
    """The reversal search as a pair test per candidate: y of x's degree,
    unused, and A[x][x'] == A[y][y'], A[x][y'] == A[y][x'] for every placed
    x' -> y'. The reference the candidate-mask search must reproduce."""
    image = list(range(n))
    deg = [rows[v].bit_count() for v in range(n)]

    def extend(i, used):
        if i == len(xs):
            return True
        x = xs[i]
        for y in ys:
            if used >> y & 1 or deg[y] != deg[x]:
                continue
            if all(
                rows[x] >> image[xj] & 1 == rows[y] >> xj & 1
                and rows[x] >> xj & 1 == rows[y] >> image[xj] & 1
                for xj in xs[:i]
            ):
                image[x], image[y] = y, x
                if extend(i + 1, used | 1 << y):
                    return True
                image[x], image[y] = x, y
        return False

    return tuple(image) if extend(0, 0) else None


def check_reversal_searches_agree(n, rows):
    for sides in bipartition(Graph(n, rows)).component_sides:
        xs, ys = sides
        for a, b in ((xs, ys), (ys, xs)):
            expected = pair_test_reversing_involution(n, rows, a, b)
            assert decide._reversing_involution(n, rows, a, b) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_reversal_search_matches_the_pair_test_exhaustively(n):
    # every side pair of every component, both ways round, of every loopless
    # bipartite graph
    for rows in iter_adj_rows(n, False):
        frozen = tuple(rows)
        if is_bipartite(Graph(n, frozen)):
            check_reversal_searches_agree(n, frozen)


def test_reversal_search_matches_the_pair_test_at_seven():
    # all 5,185 n=7 graphs with the smaller colour class first, its rows in
    # every order, not only the sweep's 1,409 seeds with those rows ascending
    count = 0
    for rows in product_bipartition_rows(7):
        check_reversal_searches_agree(7, rows)
        count += 1
    assert count == 5185


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

C6_REPORT = {
    "n": 6,
    "reconstructible": False,
    "strongly": False,
    "cancellation": False,
    "bipartite": True,
    "has_involution": True,
    "orbit_count": 4,
    "orbit_classes": ["01064504c0", "01066100d0", "01066210d0", "01066210e8"],
    "counterexample": {
        "alpha": [3, 4, 5, 0, 1, 2],
        "g_alpha_edges": [[0, 2], [0, 4], [1, 3], [1, 5], [2, 4], [3, 5]],
    },
    "witness_involution": [1, 0, 5, 4, 3, 2],
    "strongly_witness": [0, 5, 4, 3, 2, 1],
}

LP_REPORT = {
    "n": 2,
    "reconstructible": True,
    "strongly": True,
    "cancellation": True,
    "bipartite": False,
    "has_involution": False,
    "orbit_count": 1,
    "orbit_classes": ["010260"],
    "counterexample": None,
    "witness_involution": None,
    "strongly_witness": None,
}

SQL_REPORT = {
    "n": 4,
    "reconstructible": False,
    "strongly": False,
    "cancellation": False,
    "bipartite": False,
    "has_involution": True,
    "orbit_count": 3,
    "orbit_classes": ["01047680", "01047cc0", "0104ddc0"],
    "counterexample": {
        "alpha": [0, 3, 2, 1],
        "g_alpha_edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
    },
    "witness_involution": None,
    "strongly_witness": [0, 2, 3, 1],
}

P_RECONSTRUCT_REPORT = {
    "n": 6,
    "reconstructible": True,
    "strongly": False,
    "cancellation": True,
    "bipartite": True,
    "has_involution": True,
    "orbit_count": 1,
    "orbit_classes": ["01062182c0"],
    "counterexample": None,
    "witness_involution": None,
    "strongly_witness": [0, 3, 2, 1, 5, 4],
}


def test_classify_frozen_reports(c6, lp, sql, p_reconstruct):
    assert classify(c6).to_json_dict() == C6_REPORT
    assert classify(lp).to_json_dict() == LP_REPORT
    assert classify(sql).to_json_dict() == SQL_REPORT
    assert classify(p_reconstruct).to_json_dict() == P_RECONSTRUCT_REPORT


def test_classify_spider(asym7):
    rep = classify(asym7)
    assert rep.reconstructible and rep.strongly
    assert not rep.has_involution
    assert rep.orbit_count == 1
    assert rep.counterexample_alpha is None and rep.strongly_witness is None


def test_classify_cube(q3):
    rep = classify(q3)
    assert not rep.reconstructible
    assert rep.bipartite and rep.has_involution
    assert rep.orbit_count == 7
    assert rep.counterexample_alpha.image == (7, 6, 5, 4, 3, 2, 1, 0)
    assert rep.witness_involution.image == (1, 0, 3, 2, 5, 4, 7, 6)
    assert not is_isomorphic(rep.counterexample_graph, q3)
    assert multiset_key(rep.counterexample_graph.adj) == multiset_key(q3.adj)


def test_report_json_is_serializable(c6):
    text = json.dumps(classify(c6).to_json_dict())
    assert json.loads(text) == C6_REPORT


def test_report_invariants_are_enforced():
    base = dict(
        n=2,
        reconstructible=True,
        strongly=True,
        cancellation=True,
        bipartite=False,
        has_involution=False,
        orbit_count=1,
        orbit_classes=("010260",),
        counterexample_alpha=None,
        counterexample_graph=None,
        witness_involution=None,
        strongly_witness=None,
    )
    AnalysisReport(**base)  # sane baseline

    with pytest.raises(InvariantViolationError):
        AnalysisReport(**{**base, "cancellation": False})
    with pytest.raises(InvariantViolationError):
        AnalysisReport(**{**base, "reconstructible": False, "cancellation": False})
    with pytest.raises(InvariantViolationError):
        AnalysisReport(**{**base, "strongly_witness": Permutation((1, 0))})
    with pytest.raises(InvariantViolationError):
        AnalysisReport(**{**base, "witness_involution": Permutation((1, 0))})


@settings(max_examples=25, deadline=None)
@given(graph_and_permutation(max_n=8, loops=True))
def test_classify_witnesses_are_valid_and_label_free(gp):
    g, p = gp
    rep = classify(g)
    if rep.counterexample_alpha is not None:
        alpha = rep.counterexample_alpha
        assert is_anti_automorphism(g, alpha)
        assert apply_anti(g, alpha) == rep.counterexample_graph
        assert not is_isomorphic(rep.counterexample_graph, g)
    if rep.strongly_witness is not None:
        assert is_anti_automorphism(g, rep.strongly_witness)
        assert apply_anti(g, rep.strongly_witness) != g
    if rep.witness_involution is not None:
        w = rep.witness_involution
        assert w.is_involution() and w != Permutation.identity(g.n)
        assert g.relabel(w) == g
    moved = classify(g.relabel(p))
    assert (moved.reconstructible, moved.strongly, moved.has_involution) == (
        rep.reconstructible, rep.strongly, rep.has_involution
    )
    assert moved.orbit_classes == rep.orbit_classes


@settings(max_examples=100)
@given(st.integers(1, 7).flatmap(lambda n: st.permutations(range(n))))
def test_perm_order_matches_permutation_order(img):
    p = Permutation(tuple(img))
    assert perm_order(p.image) == p.order() == power_order(p.image)


def power_order(image: tuple[int, ...]) -> int:
    """Least k >= 1 with image^k the identity, by repeated composition."""
    k = 1
    cur = image
    ident = tuple(range(len(image)))
    while cur != ident:
        cur = tuple(image[v] for v in cur)
        k += 1
    return k


# ---------------------------------------------------------------------------
# the coset listing, the Ant pass and the full route against the full listing
# ---------------------------------------------------------------------------


def cosets_of(rows: tuple[int, ...], ant) -> list[list[tuple[int, ...]]]:
    """The ascending listing ant of Ant(G) cut into its cosets aP, P the
    permutations inside the equal-row classes T: a and b share a coset iff
    a(T) = b(T) for every T. Members ascend within each coset."""
    classes = twin_classes(rows)[0]
    groups: dict = {}
    for img in ant:
        groups.setdefault(tuple(frozenset(img[v] for v in verts) for verts in classes), []).append(img)
    return list(groups.values())


def twin_group_order(rows: tuple[int, ...]) -> int:
    """|P|, the product of the class-size factorials."""
    return prod(factorial(len(verts)) for verts in twin_classes(rows)[0])


def plain_listing(g: Graph) -> tuple[list, list]:
    """All of Ant(G) and the rows of each G^a by the plain Ant walk, apart
    from the coset listing and its expansion."""
    ant = list(iter_ant_images(g.n, g.adj))
    return ant, [apply_anti_rows(g.adj, img) for img in ant]


def reference_ant_pass(g: Graph):
    """decide._ant_pass as it was before certificates were shared across
    relabelings and before it read one member per coset: one canonical form
    for every distinct G^a, over the full listing, which comes first."""
    n, rows = g.n, g.adj
    ant, moved = plain_listing(g)
    base = _canonical(n, rows)[0]
    certs = {base}
    best = None
    strong_witness = None
    for img, arows in decide._distinct_images(rows, zip(ant, moved)):
        if strong_witness is None:
            strong_witness = img
        cert = _canonical(n, arows)[0]
        certs.add(cert)
        if cert != base:
            key = adjacency_index(n, arows)
            if best is None or key < best[0]:
                best = (key, img, arows)
    return ant, certs, None if best is None else best[1:], strong_witness


def reference_full_route(g: Graph) -> bool:
    """The decider's full route as it was, apart from decide._full_route:
    over the full listing, every G^a of a 2-power-order a shares G's
    certificate."""
    base = _canonical(g.n, g.adj)[0]
    return all(
        _canonical(g.n, arows)[0] == base
        for img, arows in zip(*plain_listing(g))
        if is_two_power(perm_order(img))
    )


def is_two_power(k: int) -> bool:
    return k & (k - 1) == 0


def assert_pass_matches_reference(g: Graph) -> None:
    """The coset listing, the Ant pass and the decider's full route against
    the full listing of the plain Ant walk and the references over it. The
    coset side gets a fresh Graph, so it makes its listing here."""
    rows = g.adj
    fresh = Graph(g.n, rows)
    got = decide._ant_pass(fresh, False)
    ref = reference_ant_pass(g)
    assert got[1:] == ref[1:]
    full, full_rows = plain_listing(g)
    groups = cosets_of(rows, full)
    assert list(got[0]) == sorted(members[0] for members in groups)
    assert {len(members) for members in groups} == {twin_group_order(rows)}
    assert len(full) == len(got[0]) * twin_group_order(rows)

    images, permuted = antiauto_mod._ant_cosets(fresh)
    assert images is got[0] and permuted[0] is fresh.adj
    first: dict = {}
    for img, arows in zip(images, permuted):
        assert arows == apply_anti_rows(rows, img)
        assert first.setdefault(arows, arows) is arows

    # the coset route admits a coset iff some member has 2-power order, so
    # it sees the same distinct G^a as the full route
    two_power = decide._two_power_coset(rows)
    pow2 = {img for img in full if is_two_power(perm_order(img))}
    for members in groups:
        assert two_power(members[0]) == any(m in pow2 for m in members)
    assert {arows for img, arows in zip(images, permuted) if two_power(img)} == {
        arows for img, arows in zip(full, full_rows) if img in pow2
    }
    # the decider's full route on the coset listing, and on the full listing
    cert = lambda r: _canonical(g.n, r)[0]  # noqa: E731
    coset_route = decide._full_route(rows, zip(images, permuted), cert)
    full_route = decide._full_route(rows, zip(full, full_rows), cert)
    assert coset_route == full_route == reference_full_route(g)


def circulant(n: int, jumps, loops: bool) -> Graph:
    edges = [(v, (v + s) % n) for v in range(n) for s in jumps]
    return Graph.from_edges(n, edges + [(v, v) for v in range(n)] * loops)


def complete(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite(a: int) -> Graph:
    return Graph.from_edges(2 * a, [(x, a + y) for x in range(a) for y in range(a)])


CUBE = Graph.from_edges(8, [(v, v ^ 1 << i) for v in range(8) for i in range(3)])
FIXTURES = ("2k3", "asym7", "c6", "lp", "p_reconstruct", "q3", "sql", "sql_alpha")


def empty(n: int) -> Graph:
    return Graph(n, (0,) * n)


def symmetric_graphs() -> list[Graph]:
    """C6-C8 circulants (every jump set) with and without loops, K3,3, K4,4,
    Q3, K6-K8, K6 with all loops, E6-E8 and the fixtures."""
    out = [
        circulant(n, jumps, loops)
        for n in (6, 7, 8)
        for size in range(1, n // 2 + 1)
        for jumps in itertools.combinations(range(1, n // 2 + 1), size)
        for loops in (False, True)
    ]
    out += [complete_bipartite(3), complete_bipartite(4), CUBE]
    out += [complete(n) for n in (6, 7, 8)]
    out += [Graph.from_edges(6, itertools.combinations_with_replacement(range(6), 2))]
    out += [empty(n) for n in (6, 7, 8)]
    return out + [load_fixture(name) for name in FIXTURES]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ant_pass_matches_reference_exhaustively(n):
    for rows in iter_adj_rows(n, True):
        assert_pass_matches_reference(Graph(n, rows))


def test_ant_pass_matches_reference_on_the_n5_classes():
    index = _UniverseIndex(5)
    index.build()
    assert len(index.class_rows) == 544
    for rows in index.class_rows:
        assert_pass_matches_reference(Graph(5, rows))


def test_ant_pass_matches_reference_on_symmetric_graphs():
    rng = random.Random(5)
    for g in symmetric_graphs():
        assert_pass_matches_reference(g)
        img = list(range(g.n))
        rng.shuffle(img)
        moved = g.relabel(Permutation(tuple(img)))
        if moved != g:  # every relabeling of an empty or complete graph is itself
            assert_pass_matches_reference(moved)


@settings(max_examples=40, deadline=None)
@given(graph_strategy(max_n=8, loops=True))
def test_ant_pass_matches_reference_sampled(g):
    assert_pass_matches_reference(g)


@pytest.mark.parametrize("g, forms", [
    (CUBE, 15),  # 124 with one canonical form per distinct G^a
    (complete(7), 4),  # 232
    (circulant(8, (1, 3), True), 7),  # 124
], ids=["Q3", "K7", "C8(1,3)+loops"])
def test_classify_canonical_form_count(g, forms):
    _canonical.cache_clear()
    classify(Graph(g.n, g.adj))
    assert _canonical.cache_info().misses == forms


# ---------------------------------------------------------------------------
# the certificate spread over coset images against the rows walk it replaced
# ---------------------------------------------------------------------------


def reference_spread(rows: tuple[int, ...], cosets, permuted, moved: dict) -> dict:
    """decide._spread_certificates as it was before it walked coset images:
    each certified G^a is relabeled by the listed automorphisms that join two
    orbits of those kept before and by a^-1, and a result outside moved is
    skipped."""
    n = len(rows)
    autos = (a for a, arows in zip(cosets, permuted) if arows == tuple(map(rows.__getitem__, a)))
    gens, orbit = [], list(range(n))
    for s in autos if len(moved) > 1 else ():
        if any(orbit[v] != orbit[w] for v, w in enumerate(s)):
            gens.append(s)
            for v, w in enumerate(s):
                orbit = [orbit[v] if o == orbit[w] else o for o in orbit]
    cert_of: dict = {}
    for arows in moved:
        if arows in cert_of:
            continue
        cert_of[arows] = decide._canonical(n, arows)[0]
        todo = [arows]
        for cur in todo:
            a = moved[cur]
            for s in gens if is_involution(a) else (*gens, invert(a)):
                if len(cert_of) == len(moved):
                    return cert_of
                nxt = relabel_rows(cur, s)
                if nxt in moved and nxt not in cert_of:
                    cert_of[nxt] = cert_of[arows]
                    todo.append(nxt)
    return cert_of


def spread_args(rows: tuple[int, ...], cosets, permuted):
    """The arguments _ant_pass gives the spread for the listing (cosets,
    permuted) of G = rows."""
    moved = {arows: img for img, arows in decide._distinct_images(rows, zip(cosets, permuted))}
    return rows, cosets, permuted, moved


def spread_faults(graphs) -> list[Graph]:
    """The graphs on which the image walk and the rows walk differ in the
    certificates they give, in their number of _canonical calls, or by a
    raise."""
    faults = []
    calls = [0]

    def counted(n, rows):
        calls[0] += 1
        return _canonical(n, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decide, "_canonical", counted)
        for g in graphs:
            args = spread_args(g.adj, *antiauto_mod._ant_cosets(Graph(g.n, g.adj)))
            calls[0] = 0
            want = reference_spread(*args)
            want_calls, calls[0] = calls[0], 0
            try:
                got = decide._spread_certificates(*args)
            except InvariantViolationError:
                faults.append(g)
                continue
            if got != want or calls[0] != want_calls:
                faults.append(g)
    return faults


@functools.lru_cache(maxsize=None)
def class_representatives(max_n: int) -> tuple[Graph, ...]:
    """One loops-allowed graph per isomorphism class, n = 1..max_n."""
    out = []
    for n in range(1, max_n + 1):
        index = _UniverseIndex(n)
        index.build()
        out.extend(Graph(n, rows) for rows in index.class_rows)
    return tuple(out)


def test_image_spread_matches_the_rows_walk_on_the_classes():
    graphs = class_representatives(5)
    assert len(graphs) == 662
    assert spread_faults(graphs) == []


def test_image_spread_matches_the_rows_walk_on_symmetric_graphs():
    rng = random.Random(27)
    graphs = [complete_bipartite(4), CUBE]
    for n in (6, 7, 8):
        for size in (1, 2):
            for jumps in itertools.combinations(range(1, n // 2 + 1), size):
                for loops in (False, True):
                    img = list(range(n))
                    rng.shuffle(img)
                    graphs.append(circulant(n, jumps, loops).relabel(Permutation(tuple(img))))
    assert spread_faults(graphs) == []


@settings(max_examples=150, deadline=None)
@given(graph_strategy(max_n=8, loops=True))
def test_image_spread_matches_the_rows_walk_sampled(g):
    assert spread_faults([g]) == []


def unsorted_coset_member(n: int, members, moves) -> tuple[int, ...]:
    """A member of the coset that maps each class onto its image class in
    reverse order: the least one only where every class is one vertex."""
    img = [-1] * n
    for c, t in enumerate(moves):
        for v, w in zip(members[c], reversed(members[t])):
            img[v] = w
    return tuple(img)


@pytest.mark.parametrize("mutation", ["unsorted_member", "no_inverse_step"])
def test_image_spread_check_catches_mutations(monkeypatch, mutation):
    if mutation == "unsorted_member":
        monkeypatch.setattr(decide, "_coset_least", unsorted_coset_member)
    else:
        # every a counts as its own inverse, so the walk never steps to a^-1
        monkeypatch.setattr(decide, "is_involution", lambda image: True)
    assert spread_faults(class_representatives(5))


def test_spread_step_outside_the_listing_raises():
    # a = (1, 3, 0, 2), a 4-cycle, moves G, and no listed automorphism
    # conjugates it to a^-1; the listing below drops the coset of a^-1
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 1), (1, 3), (2, 2)])
    cosets, permuted = antiauto_mod._ant_cosets(Graph(g.n, g.adj))
    a, inverse = (1, 3, 0, 2), (2, 0, 3, 1)
    assert permuted[cosets.index(a)] != g.adj and not is_involution(a)
    assert invert(a) == inverse and inverse in cosets
    autos = [s for s, arows in zip(cosets, permuted) if arows == tuple(map(g.adj.__getitem__, s))]
    assert len(autos) > 1 and all(tuple(s[a[x]] for x in invert(s)) != inverse for s in autos)
    kept = [(img, arows) for img, arows in zip(cosets, permuted) if img != inverse]
    faulty = tuple(img for img, _ in kept), tuple(arows for _, arows in kept)
    # the rows walk skipped the missing step without a word
    reference_spread(*spread_args(g.adj, *faulty))
    g.__dict__["_cosets"] = faulty
    with pytest.raises(InvariantViolationError, match=re.escape(f"step to {inverse} is outside")):
        classify(g)


# ---------------------------------------------------------------------------
# Ant(G) and the least involution, computed once per Graph
# ---------------------------------------------------------------------------


def counting(monkeypatch, module, name: str) -> list[tuple]:
    """Replace module.name by a wrapper that records the positional
    arguments of each call; it passes keyword arguments on."""
    calls: list[tuple] = []
    search = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_classify_searches_once_per_graph(monkeypatch):
    cosets = counting(monkeypatch, antiauto_mod, "iter_ant_images")
    aut = counting(monkeypatch, iso_mod, "iter_automorphism_images")
    bip = counting(monkeypatch, product_mod, "_bipartition")
    reversals = counting(monkeypatch, decide, "_reversing_involution")
    full = counting(monkeypatch, decide, "_full_route")
    # the coset listing walks Ant of the graph of the twin classes once and
    # nothing else is walked: K6 has no twins, so that graph is K6 and the
    # least involution is read off the listing; E8 (one class) and K4,4 (two)
    # have twins, so they have an involution. classify and both decider
    # calls share one reversal search (K4,4) or one full route (K6)
    for g, classes, reversed_, full_routes in (
            (complete(6), 6, 0, 1), (empty(8), 1, 0, 0), (complete_bipartite(4), 2, 1, 0)):
        for calls in (cosets, aut, bip, reversals, full):
            calls.clear()
        classify(Graph(g.n, g.adj))
        assert [args[0] for args in cosets] == [classes]
        assert (len(aut), len(bip)) == (0, 1)
        assert (len(reversals), len(full)) == (reversed_, full_routes)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_keeps_the_searched_involution(n):
    for rows in iter_adj_rows(n, True):
        g = Graph(n, rows)
        classify(g)
        assert involution_witness(g) == involution_witness(Graph(n, rows))


def twin_class_rows(rng: random.Random, n: int) -> tuple[int, ...]:
    """Rows of a random loops-allowed graph on n vertices with twins: each
    vertex joins one of k < n classes, and its row is the union of the
    classes adjacent to its own in a random graph on the k classes."""
    k = rng.randrange(1, n)
    home = list(range(k)) + [rng.randrange(k) for _ in range(n - k)]
    rng.shuffle(home)
    q = [0] * k
    for c, d in itertools.combinations_with_replacement(range(k), 2):
        if rng.random() < 0.5:
            q[c] |= 1 << d
            q[d] |= 1 << c
    return tuple(sum(1 << w for w in range(n) if q[home[v]] >> home[w] & 1) for v in range(n))


def test_twin_shortcut_and_kept_verdicts_match_fresh_searches(monkeypatch):
    # classify reads an involution off two equal rows without a search, and
    # the deciders keep their verdicts on the Graph: each answer must be the
    # one the searches give on a fresh Graph. The 32768 labeled graphs at
    # n=5 check the involution only
    rng = random.Random(36)
    every = ((n, rows) for n in range(1, 6) for rows in iter_adj_rows(n, True))
    twins = [(n, twin_class_rows(rng, n)) for n in (6, 7, 8) for _ in range(20)]
    for n, rows in itertools.chain(every, twins):
        g = Graph(n, rows)
        rep = classify(g)
        assert rep.has_involution == (involution_witness(Graph(n, rows)) is not None)
        if n == 5:
            continue
        deciders = [is_neighborhood_reconstructible, is_cancellation_graph]
        if rep.bipartite:
            deciders += [bipartite_cancellation_decider, bipartite_reversal_witness]
        else:
            with pytest.raises(UsageError):
                bipartite_cancellation_decider(g)
        for decider in deciders:
            assert decider(g) == decider(Graph(n, rows))
    # a kept reversal verdict does not pass over the bipartite check
    k44 = complete_bipartite(4)
    assert bipartite_reversal_witness(k44) is not None
    with pytest.raises(UsageError):
        decide._bip_decide(k44, bipartition(complete(3)))
    # twin-free, no involution, not bipartite: the decider answers outright
    full = counting(monkeypatch, decide, "_full_route")
    rows = Graph.from_edges(3, [(0, 0), (0, 1), (1, 2)]).adj
    assert len(set(rows)) == 3 and involution_witness(Graph(3, rows)) is None
    assert not is_bipartite(Graph(3, rows))
    assert is_neighborhood_reconstructible(Graph(3, rows)) and classify(Graph(3, rows)).reconstructible
    assert full == []


def test_classify_keeps_one_coset_of_the_empty_graph():
    # Ant(E8) is all 40320 permutations, one coset of P
    g = empty(8)
    _canonical.cache_clear()
    tracemalloc.start()
    try:
        rep = classify(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.strongly and rep.has_involution
    assert peak < 1 << 20
    assert set(g.__dict__) - {"n", "adj"} == {"_cosets", "_bipartition", "_reversal"}
    assert g.__dict__["_cosets"] == ((tuple(range(8)),), (g.adj,))
    assert involution_witness(g) == involution_witness(empty(8))


def test_enumerate_ant_returns_a_new_list_each_call(c6):
    g = Graph(c6.n, c6.adj)
    first, second = enumerate_ant(g), enumerate_ant(g)
    assert first == second and first is not second
    first.clear()
    assert enumerate_ant(g) == second


def test_kept_listings_leave_equality_hash_and_repr(c6):
    g = Graph(c6.n, c6.adj)
    before = (hash(g), repr(g), dataclasses.asdict(g))
    classify(g)
    assert (hash(g), repr(g), dataclasses.asdict(g)) == before
    assert g == c6 and g == Graph(c6.n, c6.adj)


def test_kept_listing_does_not_lift_the_capacity_guard():
    path = Graph.from_edges(9, [(v, v + 1) for v in range(8)] + [(0, 0)])
    assert len(enumerate_ant(path, force=True)) == 1
    with pytest.raises(CapacityError):
        enumerate_ant(path)


def test_forced_classify_refuses_a_listing_past_its_bound():
    # 7K2 has no twins, so its coset listing is all of Ant(7K2), about 2.4
    # million images; forced, classify must refuse at ANT_LISTING_MAX, in a
    # few seconds and tens of MiB rather than minutes and gigabytes
    # the child's own peak, VmHWM in KiB: ru_maxrss would inherit the high
    # water mark of the pytest process it was forked from
    code = (
        "from cancelgraph import CapacityError, Graph, classify\n"
        "try:\n"
        "    classify(Graph.from_edges(14, [(v, v + 1) for v in range(0, 14, 2)]), force=True)\n"
        "except CapacityError as refused:\n"
        "    print(refused)\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    refusal, peak_kib = proc.stdout.splitlines()
    assert refusal == ("anti-automorphism listing at n=14 has more than 50000 coset images; "
                       "listings bounded at 50000")
    assert int(peak_kib) < 128 << 10
