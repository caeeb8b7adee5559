"""Deciders against an inline scan oracle, plus frozen full reports.

The mini oracle here re-derives reconstructibility from scratch: collect
every graph on the same vertices whose sorted row multiset matches, then ask
whether each one is carried onto G by some relabeling. No shared code with
the deciders beyond the Graph container.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import random
import tracemalloc
from math import factorial, prod

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
from cancelgraph.antiauto import apply_anti_rows, permuted_rows
from cancelgraph.graphs import adjacency_index, iter_adj_rows, multiset_key, perm_order, row_classes
from cancelgraph.iso import _canonical, involution_witness
from cancelgraph.oracle import _UniverseIndex, _fixed_bipartition_rows

from conftest import graph_and_permutation, graph_strategy, load_fixture


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
    # every seed of the n=7 bipartite sweep, smaller colour class first
    for rows in _fixed_bipartition_rows(7):
        check_reversal_searches_agree(7, rows)


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
    classes = list(row_classes(rows).values())
    groups: dict = {}
    for img in ant:
        groups.setdefault(tuple(frozenset(img[v] for v in verts) for verts in classes), []).append(img)
    return list(groups.values())


def twin_group_order(rows: tuple[int, ...]) -> int:
    """|P|, the product of the class-size factorials."""
    return prod(factorial(len(verts)) for verts in row_classes(rows).values())


def reference_ant_pass(g: Graph, force: bool):
    """decide._ant_pass as it was before certificates were shared across
    relabelings and before it read one member per coset: one canonical form
    for every distinct G^a, over the full listing, which comes first."""
    n, rows = g.n, g.adj
    ant = [p.image for p in enumerate_ant(g, force=force)]
    base = _canonical(n, rows)[0]
    certs = {base}
    best = None
    strong_witness = None
    permuted = zip(ant, (apply_anti_rows(rows, img) for img in ant))
    for img, arows in decide._distinct_images(rows, permuted):
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
    """The decider's full route as it was: over the full listing, keeping
    the 2-power-order a."""
    pairs = zip((p.image for p in enumerate_ant(g)), permuted_rows(g))
    return decide._full_route(g.adj, pairs, lambda rows: _canonical(g.n, rows)[0])


def is_two_power(k: int) -> bool:
    return k & (k - 1) == 0


def assert_pass_matches_reference(g: Graph) -> None:
    """The coset listing, the Ant pass and the decider's full route against
    the full listing and the references over it. The coset side and the
    full side each get a fresh Graph, so neither reads a listing the other
    kept."""
    rows = g.adj
    fresh, listed = Graph(g.n, rows), Graph(g.n, rows)
    got = decide._ant_pass(fresh, False)
    ref = reference_ant_pass(listed, False)
    assert got[1:] == ref[1:]
    full = ref[0]
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
        arows for img, arows in zip(full, permuted_rows(listed)) if img in pow2
    }
    cert = lambda r: _canonical(g.n, r)[0]  # noqa: E731
    coset_route = decide._full_route(rows, zip(images, permuted), cert, two_power)
    assert coset_route == reference_full_route(listed)


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
    walks = counting(monkeypatch, decide, "iter_ant_images")
    aut = counting(monkeypatch, iso_mod, "iter_automorphism_images")
    bip = counting(monkeypatch, product_mod, "_bipartition")
    # the coset listing walks Ant of the graph of the twin classes once: K6
    # has no twins, so that graph is K6 and the least involution is read off
    # the listing; E8 (one class) and K4,4 (two) have twins, and it comes off
    # a lazy walk of the full Ant search
    for g, classes, walked in ((complete(6), 6, 0), (empty(8), 1, 1), (complete_bipartite(4), 2, 1)):
        for calls in (cosets, walks, aut, bip):
            calls.clear()
        classify(Graph(g.n, g.adj))
        assert [args[0] for args in cosets] == [classes]
        assert (len(walks), len(aut), len(bip)) == (walked, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_keeps_the_searched_involution(n):
    for rows in iter_adj_rows(n, True):
        g = Graph(n, rows)
        classify(g)
        assert involution_witness(g) == involution_witness(Graph(n, rows))


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
    assert "_ant" not in g.__dict__
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
