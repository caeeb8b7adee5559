"""Canonical forms cross-checked against brute-force relabeling.

The certificate engine (refinement plus backtracking) is the foundation every
other module leans on, so it gets the bluntest possible oracle: minimize the
relabeled rows over all n! relabelings and demand that certificates agree with
that exactly, graph by graph, over the full labeled universe for small n.
Larger graphs are checked against an independent engine, networkx's VF2.
"""
from __future__ import annotations

import itertools
import random
import sys
from math import factorial, prod
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

from cancelgraph import (
    CapacityError,
    Graph,
    InvariantViolationError,
    Permutation,
    canonical_form,
    canonical_graph,
    direct_product,
    disjoint_union,
    find_isomorphism,
    has_involution,
    involution_witness,
    is_isomorphic,
)
import cancelgraph.iso as iso_mod
import cancelgraph.oracle as oracle_mod
from cancelgraph.graphs import (adjacency_index, component_masks, enumerate_count, iter_adj_rows,
                                relabel_rows, twin_classes, upper_cells)
from cancelgraph.iso import (
    automorphisms,
    canon_rows,
    iter_automorphism_images,
    stamp_orbit,
)
from cancelgraph.oracle import _UniverseIndex

from conftest import build_graph, graph_and_permutation, graph_strategy


def brute_class_key(g: Graph) -> tuple[int, ...]:
    """Least relabeled rows over every relabeling; the ground-truth invariant."""
    return min(
        g.relabel(Permutation(img)).adj for img in itertools.permutations(range(g.n))
    )


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    return any(
        g.relabel(Permutation(img)) == h
        for img in itertools.permutations(range(g.n))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_certificates_match_brute_force_classes_exhaustively(n):
    by_brute: dict[tuple[int, ...], set[bytes]] = {}
    certs_seen: dict[bytes, tuple[int, ...]] = {}
    for rows in iter_adj_rows(n, True):
        g = Graph(n, tuple(rows))
        key = brute_class_key(g)
        cert = canonical_form(g).data
        by_brute.setdefault(key, set()).add(cert)
        assert certs_seen.setdefault(cert, key) == key
    for key, certs in by_brute.items():
        assert len(certs) == 1, f"brute class {key} split across certificates"


@settings(max_examples=150)
@given(graph_and_permutation(max_n=7, loops=True))
def test_certificate_is_relabeling_invariant(gp):
    g, p = gp
    assert canonical_form(g.relabel(p)) == canonical_form(g)


@settings(max_examples=80)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            graph_strategy(max_n=n, min_n=n, loops=True),
            graph_strategy(max_n=n, min_n=n, loops=True),
        )
    )
)
def test_isomorphism_agrees_with_permutation_scan(pair):
    g, h = pair
    assert is_isomorphic(g, h) == brute_isomorphic(g, h)


def test_relabeling_carries_graph_onto_canonical_graph(c6, sql, lp):
    for g in (c6, sql, lp, build_graph(5, 0b1011010011, True)):
        cert = canonical_form(g)
        assert g.relabel(cert.relabeling) == canonical_graph(g)


def test_is_isomorphic_concrete(c6, two_k3):
    assert not is_isomorphic(c6, two_k3)  # same degree sequence, different graphs
    rotated = c6.relabel(Permutation((1, 2, 3, 4, 5, 0)))
    assert is_isomorphic(c6, rotated)
    assert not is_isomorphic(c6, Graph.from_edges(6, [(i, i + 1) for i in range(5)]))
    assert not is_isomorphic(c6, Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))


def test_find_isomorphism_returns_checked_witness(c6, two_k3):
    shuffled = c6.relabel(Permutation((3, 1, 4, 0, 5, 2)))
    phi = find_isomorphism(c6, shuffled)
    assert phi is not None
    assert c6.relabel(phi) == shuffled
    assert find_isomorphism(c6, two_k3) is None
    assert find_isomorphism(c6, Graph(5, (0,) * 5)) is None


def test_certificate_equality_and_hex(c6):
    cert = canonical_form(c6)
    again = canonical_form(c6.relabel(Permutation((5, 4, 3, 2, 1, 0))))
    assert cert == again and hash(cert) == hash(again)
    assert cert != object()
    assert cert.hex() == cert.data.hex()
    assert {cert: "x"}[again] == "x"


def test_automorphism_counts(c6, q3, asym7):
    assert len(automorphisms(c6)) == 12
    assert len(automorphisms(Graph.from_edges(4, itertools.combinations(range(4), 2)))) == 24
    assert len(automorphisms(q3)) == 48
    assert [p.image for p in automorphisms(asym7)] == [tuple(range(7))]


def test_automorphism_listing_is_sorted_and_group_closed(c6):
    auts = automorphisms(c6)
    images = [p.image for p in auts]
    assert images == sorted(images)
    assert images[0] == tuple(range(6))
    pool = set(images)
    for p, q in itertools.product(auts, repeat=2):
        assert p.compose(q).image in pool


def test_automorphism_guard():
    path9 = Graph.from_edges(9, [(i, i + 1) for i in range(8)])
    with pytest.raises(CapacityError):
        automorphisms(path9)
    assert len(automorphisms(path9, force=True)) == 2


def test_involution_witness_is_least(c6, lp, asym7, p_reconstruct):
    w = involution_witness(c6)
    assert w is not None and w.image == (0, 5, 4, 3, 2, 1)
    brute = [
        Permutation(img)
        for img in iter_automorphism_images(c6.n, c6.adj)
        if Permutation(img).is_involution()
    ]
    assert w == brute[0]
    assert involution_witness(lp) is None
    assert involution_witness(asym7) is None
    pw = involution_witness(p_reconstruct)
    assert pw is not None and pw.image == (0, 3, 2, 1, 5, 4)


@settings(max_examples=100)
@given(graph_strategy(max_n=5, loops=True))
def test_has_involution_matches_listing(g):
    assert has_involution(g) == any(p.is_involution() for p in automorphisms(g))


def initial_colors(n: int, rows: tuple[int, ...]) -> list[int]:
    """Each vertex's rank among the (loop, degree) pairs: the start colouring
    of the reference searches."""
    pairs = [(rows[v] >> v & 1, rows[v].bit_count()) for v in range(n)]
    rank = {p: i for i, p in enumerate(sorted(set(pairs)))}
    return [rank[p] for p in pairs]


def per_bit_automorphism_images(n: int, rows: tuple[int, ...]):
    """The automorphism search testing one bit per placed vertex and
    candidate: the reference for iter_automorphism_images, order included."""
    if n == 0:
        yield ()
        return
    colors = reference_refine(n, rows, initial_colors(n, rows))
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(colors[v], []).append(v)
    img = [-1] * n

    def extend(v: int, used: int):
        if v == n:
            yield tuple(img)
            return
        for w in members[colors[v]]:
            if used >> w & 1:
                continue
            ok = True
            for u in range(v):
                if rows[v] >> u & 1 != rows[w] >> img[u] & 1:
                    ok = False
                    break
            if ok and rows[v] >> v & 1 == rows[w] >> w & 1:
                img[v] = w
                yield from extend(v + 1, used | 1 << w)
        img[v] = -1

    yield from extend(0, 0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_automorphism_search_matches_the_per_bit_search_exhaustively(n):
    for rows in iter_adj_rows(n, True):
        frozen = tuple(rows)
        assert list(iter_automorphism_images(n, frozen)) == list(
            per_bit_automorphism_images(n, frozen)
        )


@settings(max_examples=100, deadline=None)
@given(graph_strategy(max_n=8, loops=True))
def test_automorphism_search_matches_the_per_bit_search(g):
    assert list(iter_automorphism_images(g.n, g.adj)) == list(
        per_bit_automorphism_images(g.n, g.adj)
    )


# ---------------------------------------------------------------------------
# the canonical-form search against the one it replaced
# ---------------------------------------------------------------------------


def reference_refine(n: int, rows: tuple[int, ...], colors: list[int]) -> list[int]:
    """Refinement reading neighbours off the row bits, one round more than
    needed: the reference for _refine."""
    ncolors = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            m = rows[v]
            nb = []
            while m:
                b = m & -m
                nb.append(colors[b.bit_length() - 1])
                m ^= b
            nb.sort()
            sigs.append((colors[v], tuple(nb)))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == ncolors:
            return colors
        ncolors = len(rank)


def reference_leaf_key(n: int, rows: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """The relabeled rows, each with its bit order reversed, read off the
    row bits: the reference for _leaf_key."""
    out = [0] * n
    for v in range(n):
        for w in range(n):
            if rows[v] >> w & 1:
                out[perm[v]] |= 1 << (n - 1 - perm[w])
    return tuple(out)


def reference_canon_connected(n: int, rows: tuple[int, ...]):
    """The search that prunes a cell vertex only when one found automorphism
    fixing the prefix maps a tried vertex onto it: the reference for
    canon_connected, relabeling included. It finds every automorphism it
    prunes with."""
    if n <= 1:
        return tuple(rows), tuple(range(n))
    best_key: list = [None]
    best_perm: list = [None]
    best_inv: list = [None]
    autos: set[tuple[int, ...]] = set()

    def descend(colors: list[int], prefix: list[int]) -> None:
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = -1
        tcount = n + 1
        for c, cnt in counts.items():
            if cnt > 1 and (cnt < tcount or (cnt == tcount and c < target)):
                target = c
                tcount = cnt
        if target < 0:
            perm = [0] * n
            for pos, v in enumerate(sorted(range(n), key=colors.__getitem__)):
                perm[v] = pos
            key = reference_leaf_key(n, rows, perm)
            if best_key[0] is None or key < best_key[0]:
                best_key[0] = key
                best_perm[0] = perm
                best_inv[0] = iso_mod.invert(perm)
            elif key == best_key[0]:
                inv = best_inv[0]
                autos.add(tuple(inv[perm[v]] for v in range(n)))
            return
        cell = [v for v in range(n) if colors[v] == target]
        tried: list[int] = []
        for v in cell:
            if tried and any(
                all(s[p] == p for p in prefix) and any(s[u] == v for u in tried)
                for s in autos
            ):
                continue
            child = list(colors)
            child[v] = n + len(prefix)
            descend(reference_refine(n, rows, child), prefix + [v])
            tried.append(v)

    descend(reference_refine(n, rows, initial_colors(n, rows)), [])
    perm = best_perm[0]
    canon = [0] * n
    for v in range(n):
        canon[perm[v]] = iso_mod.permute_mask(rows[v], perm)
    return tuple(canon), tuple(perm)


def check_against_reference_search(graphs) -> None:
    """_refine and canon_rows against the reference search on each (n, rows);
    _refine from the initial coloring, from it with vertex 0 individualized,
    from a discrete coloring, from the initial coloring shifted up by n, and
    from it with its last two vertices individualized, the later one first.
    _refine goes first: a wrong refinement can blow up the search tree, and
    would then keep the canon_rows comparison running instead of failing."""
    for n, rows in graphs:
        nbrs, start = iso_mod._setup(n, rows)
        assert iso_mod._refine(n, nbrs, start) == reference_refine(n, rows, initial_colors(n, rows))
        start = initial_colors(n, rows)
        for colors in (start, [n, *start[1:]], [2 * (n - v) for v in range(n)],
                       [n + c for c in start], start[:-2] + [n + 1, n][-n:]):
            assert iso_mod._refine(n, nbrs, colors) == reference_refine(n, rows, colors)

    def canon_all():
        return [canon_rows(n, rows) for n, rows in graphs]

    got = canon_all()
    # a cached component would skip the reference search, and one the
    # reference searched must not outlive the patch
    iso_mod._canon_component.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(iso_mod, "canon_connected", reference_canon_connected)
            assert got == canon_all()
    finally:
        iso_mod._canon_component.cache_clear()


def circulant_rows(n: int, jumps, loops: bool) -> tuple[int, ...]:
    return tuple(
        sum(1 << (v + s) % n | 1 << (v - s) % n for s in jumps) | (loops << v)
        for v in range(n)
    )


def named_symmetric_rows() -> list[tuple[int, tuple[int, ...]]]:
    """Circulants on 6-9 vertices with and without loops, K_n, E_n, K_{a,a}
    and the cube Q3."""
    out = []
    for n in range(6, 10):
        for size in (1, 2):
            for jumps in itertools.combinations(range(1, n // 2 + 1), size):
                out.extend((n, circulant_rows(n, jumps, loops)) for loops in (False, True))
    for n in range(1, 10):
        full = (1 << n) - 1
        out.append((n, tuple(full ^ 1 << v for v in range(n))))
        out.append((n, (0,) * n))
    for a in range(1, 5):
        out.append((2 * a, tuple(((1 << a) - 1) << (a if v < a else 0) for v in range(2 * a))))
    out.append((8, tuple(sum(1 << (v ^ 1 << i) for i in range(3)) for v in range(8))))
    return out


@pytest.mark.parametrize("n, loops", [(1, True), (2, True), (3, True), (4, True), (5, True), (6, False)])
def test_canonical_search_matches_the_reference_search_exhaustively(n, loops):
    check_against_reference_search([(n, tuple(rows)) for rows in iter_adj_rows(n, loops)])


def test_canonical_search_matches_the_reference_search_on_double_covers():
    k2 = Graph.from_edges(2, [(0, 1)])
    check_against_reference_search([
        (2 * n, direct_product(Graph(n, tuple(rows)), k2).adj)
        for n in range(1, 5) for rows in iter_adj_rows(n, True)
    ])


def test_component_cache_matches_the_uncached_search():
    # the disconnected G x K2 and G + G of the loops-allowed classes up to
    # n=5; for a connected bipartite G both have two components with G's
    # own rows. Connected inputs do not reach the cache
    k2 = Graph.from_edges(2, [(0, 1)])
    inputs = []
    for n in range(1, 6):
        index = _UniverseIndex(n)
        index.build()
        for rows in index.class_rows:
            g = Graph(n, rows)
            for h in (direct_product(g, k2), disjoint_union(g, g)):
                if len(component_masks(h.n, h.adj)) > 1:
                    inputs.append((h.n, h.adj))
    iso_mod._canon_component.cache_clear()
    cached = [canon_rows(n, rows) for n, rows in inputs]
    assert iso_mod._canon_component.cache_info().hits > 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iso_mod, "_canon_component", iso_mod.canon_connected)
        assert cached == [canon_rows(n, rows) for n, rows in inputs]


# a connected 6-regular graph on 16 vertices, found by a random search over
# relabeled and edge-switched symmetric graphs, whose canonical rows change
# when the search prunes by found automorphisms that move the prefix too
PREFIX_MOVING_WITNESS = (
    19844, 49764, 963, 19664, 43336, 55426, 2590, 4397,
    41109, 13382, 29193, 4217, 11936, 38672, 33835, 24882,
)


def test_canonical_search_matches_the_reference_search_on_symmetric_graphs():
    check_against_reference_search(named_symmetric_rows() + [(16, PREFIX_MOVING_WITNESS)])


@settings(max_examples=150, deadline=None)
@given(graph_strategy(max_n=9, loops=True))
def test_canonical_search_matches_the_reference_search(g):
    check_against_reference_search([(g.n, g.adj)])


def random_connected_rows(rng: random.Random, n: int, p: float, loops: bool) -> tuple[int, ...]:
    """Each edge, and each loop when loops are allowed, with probability p,
    over a random recursive tree that keeps the graph connected."""
    rows = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    for u in range(n):
        for w in range(u if loops else u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << w
                rows[w] |= 1 << u
    return tuple(rows)


@pytest.mark.parametrize("loops", [False, True])
def test_canonical_search_matches_the_reference_search_past_nine_vertices(loops):
    rng = random.Random(10 + loops)
    check_against_reference_search([
        (n, random_connected_rows(rng, n, p, loops))
        for n in range(10, 17) for p in (0.03, 0.1, 0.5, 0.9) for _ in range(3)
    ])


def test_canonical_search_matches_the_reference_search_on_repeated_components():
    # 3 C5, and G + G + K1 with loops for random connected G with loops on
    # 2-6 vertices; each also relabeled, which interleaves the components
    rng = random.Random(5)
    c5 = Graph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)])
    graphs = [disjoint_union(disjoint_union(c5, c5), c5)]
    for n in range(2, 7):
        g = Graph(n, random_connected_rows(rng, n, 0.4, True))
        graphs.append(disjoint_union(disjoint_union(g, g), Graph(1, (1,))))
    graphs += [shuffled(rng, h) for h in graphs]
    check_against_reference_search([(h.n, h.adj) for h in graphs])


# ---------------------------------------------------------------------------
# the twin swaps the canonical-form search starts from
# ---------------------------------------------------------------------------


def swap_is_automorphism(rows: tuple[int, ...], u: int, w: int) -> bool:
    image = list(range(len(rows)))
    image[u], image[w] = w, u
    return relabel_rows(rows, image) == rows


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_twin_swaps_generate_every_automorphic_transposition(n):
    # by brute force over every loops-allowed labeled graph: each seeded swap
    # is an automorphism joining a vertex u to its next partner w, one swap
    # per u, every transposition that is an automorphism joins two vertices
    # that the seeded swaps connect, so it lies in their group, and each
    # vertex's twin representative is the least vertex of its twin class
    kinds = set()
    for rows in iter_adj_rows(n, True):
        swaps, twin = iso_mod._twin_swaps(n, rows)
        assert twin == least_twins(n, rows)
        joined = list(range(n))
        lower = []
        for swap in swaps:
            u, w = (v for v in range(n) if swap[v] != v)
            assert swap_is_automorphism(rows, u, w)
            assert not any(swap_is_automorphism(rows, u, x) for x in range(u + 1, w))
            lower.append(u)
            kinds.add((rows[u] >> w & 1, rows[u] >> u & 1))
            joined = [joined[u] if c == joined[w] else c for c in joined]
        assert len(lower) == len(set(lower))
        for u, w in itertools.combinations(range(n), 2):
            if swap_is_automorphism(rows, u, w):
                assert joined[u] == joined[w]
    # (adjacent, looped): open and closed twins, each with and without loops
    assert kinds == ({(0, 0), (1, 0), (0, 1), (1, 1)} if n > 1 else set())


def call_counts(name: str, graphs) -> list[int]:
    """The calls of iso_mod.<name> canon_connected makes on each graph,
    counted by wrapping it."""
    counts = []
    fn = getattr(iso_mod, name)

    def counted(*args):
        counts[-1] += 1
        return fn(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iso_mod, name, counted)
        for g in graphs:
            counts.append(0)
            iso_mod.canon_connected(g.n, g.adj)
    return counts


def leaf_counts(graphs) -> list[int]:
    """The search leaves canon_connected reaches on each graph, counted by
    wrapping _leaf_key."""
    return call_counts("_leaf_key", graphs)


def test_twin_swaps_cut_the_search_leaves(monkeypatch):
    # K8, K8 with all loops, K1,7 and K4,4 are each all twins but for K1,7's
    # centre; without the seeded swaps the search finds those automorphisms
    # at leaves, one leaf at a time
    graphs = [
        Graph.from_edges(8, itertools.combinations(range(8), 2)),
        Graph.from_edges(8, itertools.combinations_with_replacement(range(8), 2)),
        Graph.from_edges(8, [(0, v) for v in range(1, 8)]),
        Graph.from_edges(8, [(x, 4 + y) for x in range(4) for y in range(4)]),
    ]
    assert leaf_counts(graphs) == [1, 1, 1, 2]
    monkeypatch.setattr(iso_mod, "_twin_swaps", lambda n, rows: ([], list(range(n))))
    assert leaf_counts(graphs) == [29, 29, 22, 14]


# ---------------------------------------------------------------------------
# the twin step: a target cell of mutual twins individualized without _refine
# ---------------------------------------------------------------------------


def multipartite_rows(parts, loops: bool = False) -> tuple[int, ...]:
    """The complete multipartite graph with parts of the given sizes,
    numbered part by part; with loops, every vertex looped."""
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(part)
    return tuple(sum(1 << w for w in range(n) if part[w] != part[v] or (loops and w == v))
                 for v in range(n))


def partitions(n: int, most: int | None = None) -> Iterator[tuple[int, ...]]:
    """The partitions of n, parts descending, none above most."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, most or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


def pendant_rows(a: int, b: int, hung) -> tuple[int, tuple[int, ...]]:
    """K_{a,b} (sides 0..a-1 and a..a+b-1) with one new pendant vertex
    hung on each vertex of hung."""
    n = a + b + len(hung)
    edges = [(x, a + y) for x in range(a) for y in range(b)]
    edges += [(v, a + b + i) for i, v in enumerate(hung)]
    return n, Graph.from_edges(n, edges).adj


def twin_families() -> list[tuple[int, tuple[int, ...]]]:
    """K_n and looped K_n for n <= 9, every other complete multipartite
    graph on at most 8 vertices with and without loops, and K_{a,b} with
    pendant vertices."""
    out = []
    for n in range(1, 10):
        out.append((n, multipartite_rows((1,) * n)))
        out.append((n, multipartite_rows((1,) * n, loops=True)))
    for n in range(2, 9):
        for parts in partitions(n):
            if 1 < len(parts) < n:
                out.extend((n, multipartite_rows(parts, loops)) for loops in (False, True))
    for a in range(1, 5):
        for b in range(a, 5):
            for hung in ([0], [0, 1], [a], list(range(a, a + b)), list(range(a + b))):
                if max(hung) < a + b:
                    out.append(pendant_rows(a, b, hung))
    return out


# connected graphs in which the search individualizes a twin-class member
# that is not the least vertex of its mixed cell, leaving two or more of its
# twins in the cell: K_{3,3}, and relabeled blow-ups of random graphs on 3-5
# vertices into twin classes of 1-3 vertices
MIXED_CELL_SPLITS = [
    (6, (56, 56, 56, 7, 7, 7)),
    (9, (486, 189, 507, 486, 486, 383, 189, 479, 189)),
    (8, (246, 187, 189, 246, 95, 111, 249, 207)),
    (8, (90, 89, 232, 255, 75, 204, 255, 108)),
    (9, (430, 223, 375, 379, 430, 253, 430, 499, 477)),
    (9, (364, 496, 361, 357, 482, 479, 447, 370, 255)),
    (9, (245, 350, 511, 350, 495, 245, 511, 245, 350)),
    (7, (126, 15, 15, 15, 113, 113, 113)),
    (8, (222, 179, 109, 109, 179, 222, 109, 179)),
]


def least_twins(n: int, rows: tuple[int, ...]) -> list[int]:
    """The least member of each vertex's twin class, by brute force."""
    return [min(w for w in range(n) if w == v or swap_is_automorphism(rows, v, w))
            for v in range(n)]


def splits_a_twin_class_in_a_mixed_cell(n: int, rows: tuple[int, ...]) -> bool:
    """Whether canon_connected individualizes a vertex v, not the least of
    its cell, in a cell that holds a vertex outside v's twin class and at
    least two of v's twins; read off the colourings _refine is given."""
    twin = least_twins(n, rows)
    seen = []
    refine_ = iso_mod._refine

    def watched(n_, nbrs, colors):
        new = [v for v in range(n) if colors[v] >= n]
        if len(new) == 1:
            v = new[0]
            mates = [w for w in range(n) if w != v and twin[w] == twin[v] and colors[w] < n]
            cell = [x for x in range(n) if mates and colors[x] == colors[mates[0]]]
            seen.append(len(mates) >= 2 and min(cell) < v and any(twin[x] != twin[v] for x in cell))
        return refine_(n_, nbrs, colors)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iso_mod, "_refine", watched)
        iso_mod.canon_connected(n, rows)
    return any(seen)


def test_twin_step_matches_the_reference_search_on_twin_families():
    families = twin_families()
    assert (8, multipartite_rows((2, 2, 2, 2))) in families
    assert (8, multipartite_rows((4, 3, 1))) in families
    assert all(splits_a_twin_class_in_a_mixed_cell(n, rows) for n, rows in MIXED_CELL_SPLITS)
    check_against_reference_search(families + MIXED_CELL_SPLITS)


def test_twin_step_matches_the_reference_search_on_class_double_covers():
    # G x K2, as direct_product numbers it, of the 662 loops-allowed class
    # representatives up to n=5
    k2 = Graph.from_edges(2, [(0, 1)])
    covers = []
    for n in range(1, 6):
        index = _UniverseIndex(n)
        index.build()
        covers.extend((2 * n, direct_product(Graph(n, rows), k2).adj) for rows in index.class_rows)
    assert len(covers) == 662
    check_against_reference_search(covers)


@st.composite
def twin_blowups(draw, max_n: int = 8) -> tuple[int, tuple[int, ...]]:
    """A graph with loops on at most 4 vertices, each vertex blown up into a
    class of 1-3 twins, open or closed, on at most max_n vertices in all,
    then relabeled."""
    base = draw(graph_strategy(max_n=4, loops=True))
    sizes = [draw(st.integers(1, 3)) for _ in range(base.n)]
    while sum(sizes) > max_n:
        sizes[sizes.index(max(sizes))] -= 1
    joined = [draw(st.booleans()) for _ in range(base.n)]
    part = [x for x in range(base.n) for _ in range(sizes[x])]
    n = len(part)
    image = draw(st.permutations(range(n)))
    rows = [0] * n
    for v, w in itertools.product(range(n), repeat=2):
        x, y = part[v], part[w]
        if (base.adj[x] >> y & 1) if x != y or v == w else joined[x]:
            rows[image[v]] |= 1 << image[w]
    return n, tuple(rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(twin_blowups())
def test_twin_step_matches_the_reference_search_on_twin_blowups(graph):
    check_against_reference_search([graph])


def test_twin_step_cuts_the_refine_calls(monkeypatch):
    # _refine calls, the root's included: K8, K8 with all loops and K1,7
    # reach their leaf by twin steps alone, and K4,4 and K2,2,2,2 step each
    # cell of twins they reach; the search before the twin step made 8, 8,
    # 7, 13 and 21 calls. K8's twins have unequal rows, so twin classes read
    # off equal rows alone would not step it
    graphs = [Graph(8, multipartite_rows(parts, loops)) for parts, loops in [
        ((1,) * 8, False), ((1,) * 8, True), ((1, 7), False), ((4, 4), False), ((2, 2, 2, 2), False),
    ]]
    assert call_counts("_refine", graphs) == [1, 1, 1, 3, 14]
    assert leaf_counts(graphs) == [1, 1, 1, 2, 7]
    monkeypatch.setattr(iso_mod, "_twin_swaps", lambda n, rows: ([], list(range(n))))
    assert call_counts("_refine", graphs) == [92, 92, 63, 51, 31]


# ---------------------------------------------------------------------------
# orbit stamping
# ---------------------------------------------------------------------------


def orbit_classes(n: int, loops: bool) -> list[int]:
    """The class number of every enumeration index, numbered in order of
    each class's least index, from one stamp_orbit call per class."""
    total = enumerate_count(n, loops)
    seen = bytearray((total + 7) // 8)
    class_of = [-1] * total
    count = 0
    for k, rows in enumerate(iter_adj_rows(n, loops)):
        if class_of[k] < 0:
            members = stamp_orbit(n, tuple(rows), loops, seen)
            assert members[0] == k == min(members)
            for member in members:
                class_of[member] = count
            count += 1
    return class_of


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_loopless_orbit_classes_are_the_canon_rows_classes(n):
    class_of = orbit_classes(n, False)
    cert_of_class: dict[int, tuple[int, ...]] = {}
    class_of_cert: dict[tuple[int, ...], int] = {}
    for k, rows in enumerate(iter_adj_rows(n, False)):
        cert = canon_rows(n, tuple(rows))[0]
        assert cert_of_class.setdefault(class_of[k], cert) == cert
        assert class_of_cert.setdefault(cert, class_of[k]) == class_of[k]


# OEIS A000666 (loops allowed) and A000088 (loopless), n = 1, 2, ...
@pytest.mark.parametrize(
    "loops, counts",
    [(True, (2, 6, 20, 90, 544, 5096)), (False, (1, 2, 4, 11, 34, 156, 1044))],
)
def test_orbit_class_counts_match_oeis(loops, counts):
    for n, count in enumerate(counts, start=1):
        assert max(orbit_classes(n, loops)) + 1 == count


def generator_loop_orbit(n: int, rows: tuple[int, ...], loops: bool, seen: bytearray) -> list[int]:
    """stamp_orbit's closure as one loop over the generators, each member's
    chunks split once per generator; no class size check."""
    k = adjacency_index(n, rows, loops)
    if seen[k >> 3] >> (k & 7) & 1:
        return []
    seen[k >> 3] |= 1 << (k & 7)
    members = [k]
    width = -(-len(upper_cells(n, loops)) // 3)
    low = (1 << width) - 1
    for x in members:
        for t0, t1, t2 in iso_mod._orbit_generators(n, loops):
            y = t0[x & low] | t1[x >> width & low] | t2[x >> 2 * width]
            if not seen[y >> 3] >> (y & 7) & 1:
                seen[y >> 3] |= 1 << (y & 7)
                members.append(y)
    return members


@pytest.mark.parametrize(
    "n, loops", [(n, True) for n in range(6)] + [(n, False) for n in range(7)]
)
def test_stamp_orbit_lists_members_in_generator_loop_order(n, loops):
    # the swap's image of each member before the cycle's, on every graph
    seen = bytearray((enumerate_count(n, loops) + 7) // 8)
    reference = bytearray(len(seen))
    for rows in iter_adj_rows(n, loops):
        frozen = tuple(rows)
        assert stamp_orbit(n, frozen, loops, seen) == generator_loop_orbit(n, frozen, loops, reference)
    assert seen == reference


def test_stamp_orbit_skips_a_stamped_index():
    seen = bytearray(enumerate_count(3, True) // 8)
    path = (2, 5, 2)
    assert len(stamp_orbit(3, path, True, seen)) == 3
    assert stamp_orbit(3, (6, 1, 1), True, seen) == []
    assert sum(byte.bit_count() for byte in seen) == 3


def test_corrupted_transposition_table_trips_the_orbit_size_check(monkeypatch):
    # vertex 2 looped, 0-1-2-3 a path: no automorphism but the identity
    rows = (2, 5, 14, 4)
    size = enumerate_count(4, True) // 8
    assert len(stamp_orbit(4, rows, True, bytearray(size))) == 24
    # the cycle's tables replaced by the identity's: the swap alone reaches 2
    swap, _ = iso_mod._orbit_generators(4, True)
    identity = iso_mod._relabel_tables(4, True, [0, 1, 2, 3])
    monkeypatch.setattr(iso_mod, "_orbit_generators", lambda n, loops: (swap, identity))
    with pytest.raises(InvariantViolationError):
        stamp_orbit(4, rows, True, bytearray(size))


def size_blind_count(rows: tuple[int, ...]) -> int:
    """The twin-quotient count without its class-size test: every
    automorphism of Q, times |P|."""
    classes = twin_classes(rows)[0]
    sizes = [len(vs) for vs in classes]
    quotient = iso_mod.twin_quotient(rows, classes)
    return sum(1 for _ in iter_automorphism_images(len(sizes), quotient)) * prod(map(factorial, sizes))


def test_automorphism_count_is_the_brute_count():
    # every loops-allowed graph up to n=4, every loopless one up to n=5, the
    # n=5 loops-allowed classes, the n=7 bipartite classes, E7, K7 and K3,4
    inputs = [(n, tuple(rows)) for n in range(1, 5) for rows in iter_adj_rows(n, True)]
    inputs += [(n, tuple(rows)) for n in range(1, 6) for rows in iter_adj_rows(n, False)]
    index = _UniverseIndex(5)
    index.build()
    inputs += [(5, rows) for rows in index.class_rows]
    bipartite = {canon_rows(7, rows)[0]: rows for rows in oracle_mod._fixed_bipartition_rows(7)}
    assert len(bipartite) == 88
    inputs += [(7, rows) for rows in bipartite.values()]
    k34 = (7, tuple(0b1111000 if v < 3 else 0b111 for v in range(7)))
    inputs += [(7, (0,) * 7), (7, tuple(127 ^ 1 << v for v in range(7))), k34]
    for n, rows in inputs:
        assert iso_mod._automorphism_count(rows) == sum(1 for _ in iter_automorphism_images(n, rows))
    # Q of K3,4 is an edge, whose swap exchanges classes of sizes 3 and 4
    assert iso_mod._automorphism_count(k34[1]) == 3 * 2 * 4 * 3 * 2
    assert size_blind_count(k34[1]) == 2 * iso_mod._automorphism_count(k34[1])


def test_orbit_stamping_past_32_cells():
    # 36 cells: the empty graph is the one orbit that a 1-byte bitset holds
    assert stamp_orbit(8, (0,) * 8, True, bytearray(1)) == [0]


@pytest.mark.parametrize("loops", [True, False])
def test_orbit_stamping_below_three_vertices(loops):
    # n <= 1 has no generator and stamps only G; at n=2 the swap (0 1) and
    # the cycle v -> v+1 (mod 2) are the same relabeling
    for n in (0, 1):
        assert iso_mod._orbit_generators(n, loops) == ()
        seen = bytearray(1)
        for k, rows in enumerate(iter_adj_rows(n, loops)):
            assert stamp_orbit(n, tuple(rows), loops, seen) == [k]
    swap, cycle = iso_mod._orbit_generators(2, loops)
    assert swap == cycle
    classes = []
    seen = bytearray(1)
    for rows in iter_adj_rows(2, loops):
        members = stamp_orbit(2, tuple(rows), loops, seen)
        if members:
            classes.append(sorted(members))
    # loops allowed: one loop and the edge with one loop have 2 labelings
    # each, the other 4 graphs one; loopless: empty and the edge
    assert classes == ([[0], [1, 4], [2], [3, 6], [5], [7]] if loops else [[0], [1]])


def heap_swaps(n: int) -> Iterator[tuple[int, int]]:
    """The n! - 1 transpositions of Heap's algorithm: applied in turn, they
    run a relabeling through every permutation of 0..n-1 once."""
    count = [0] * n
    i = 1
    while i < n:
        if count[i] < i:
            yield (0 if i % 2 == 0 else count[i]), i
            count[i] += 1
            i = 1
        else:
            count[i] = 0
            i += 1


def transposition(n: int, a: int, b: int) -> list[int]:
    label = list(range(n))
    label[a], label[b] = b, a
    return label


def seven_bit_tables(n: int, loops: bool, label: list[int]) -> list[list[int]]:
    """The reference relabeling tables: per 7-bit chunk of an enumeration
    index, the bits its cells occupy once each vertex v takes label[v]."""
    cells = upper_cells(n, loops)
    m = len(cells)
    bit_of = {cell: m - 1 - p for p, cell in enumerate(cells)}
    moved = [bit_of[tuple(sorted((label[i], label[j])))] for i, j in reversed(cells)]
    return [
        [sum(1 << moved[lo + t] for t in range(min(7, m - lo)) if chunk >> t & 1)
         for chunk in range(1 << min(7, m - lo))]
        for lo in range(0, m, 7)
    ]


def seven_bit_image(tables: list[list[int]], x: int) -> int:
    out = 0
    for c, table in enumerate(tables):
        out |= table[x >> 7 * c & 127]
    return out


# up to 36 cells (n=8 with loops, n=9 loopless), past the 32 that 32-bit
# table entries would reach
@pytest.mark.parametrize(
    "n, loops", [(n, True) for n in range(1, 9)] + [(n, False) for n in range(1, 10)]
)
def test_three_chunk_tables_match_the_seven_bit_tables(n, loops):
    # the tables map indices bitwise, so single bits settle every index
    m = len(upper_cells(n, loops))
    width = -(-m // 3)
    low = (1 << width) - 1
    cycle = [(v + 1) % n for v in range(n)]
    labels = [cycle] + [transposition(n, a, b) for a, b in itertools.combinations(range(n), 2)]
    for label in labels:
        t0, t1, t2 = iso_mod._relabel_tables(n, loops, label)
        reference = seven_bit_tables(n, loops, label)
        for bit in range(m):
            x = 1 << bit
            got = t0[x & low] | t1[x >> width & low] | t2[x >> 2 * width]
            assert got == seven_bit_image(reference, x)
    if n >= 2:
        assert iso_mod._orbit_generators(n, loops) == tuple(
            iso_mod._relabel_tables(n, loops, label) for label in (transposition(n, 0, 1), cycle)
        )


@pytest.mark.parametrize(
    "n, loops", [(n, True) for n in range(1, 6)] + [(n, False) for n in range(1, 7)]
)
def test_stamp_orbit_matches_seven_bit_stamping(n, loops):
    # the reference walks all n! relabelings in Heap's order, one swap a step
    tables = {
        pair: seven_bit_tables(n, loops, transposition(n, *pair)) for pair in set(heap_swaps(n))
    }
    steps = [tables[pair] for pair in heap_swaps(n)]
    seen = bytearray((enumerate_count(n, loops) + 7) // 8)
    reference = bytearray(len(seen))
    for k, rows in enumerate(iter_adj_rows(n, loops)):
        if reference[k >> 3] >> (k & 7) & 1:
            continue
        walk = [k]
        for step in steps:
            walk.append(seven_bit_image(step, walk[-1]))
        orbit = list(dict.fromkeys(walk))
        for x in orbit:
            reference[x >> 3] |= 1 << (x & 7)
        members = stamp_orbit(n, tuple(rows), loops, seen)
        assert members[0] == k
        assert len(set(members)) == len(members)
        assert sorted(members) == sorted(orbit)
    assert seen == reference


@pytest.mark.parametrize("n, loops", [(7, True), (8, False)])
def test_orbit_tables_stay_under_half_a_mebibyte(n, loops):
    # 28 cells in 10-bit chunks, the largest universe stamped within the
    # table bound (the n=8 bipartite sweep); oracle.BIP_SWEEP_MAX states
    # their size. Each table is a tuple of int objects
    generators = iso_mod._orbit_generators(n, loops)
    assert len(generators) == 2
    size = sum(
        sys.getsizeof(table) + sum(map(sys.getsizeof, table))
        for tables in generators for table in tables
    )
    assert size < 1 << 19


# ---------------------------------------------------------------------------
# differential test against networkx VF2
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def to_nx(nx, g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_nx(h) -> Graph:
    label = {v: i for i, v in enumerate(sorted(h.nodes))}
    return Graph.from_edges(len(label), ((label[u], label[v]) for u, v in h.edges))


def random_graph(rng: random.Random, n: int) -> Graph:
    density = rng.random()
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    return Graph.from_edges(n, [c for c in cells if rng.random() < density])


def shuffled(rng: random.Random, g: Graph) -> Graph:
    img = list(range(g.n))
    rng.shuffle(img)
    return g.relabel(Permutation(tuple(img)))


def switched(rng: random.Random, g: Graph) -> Graph:
    """g with edges ab, cd replaced by ac, bd when such a switch exists, which
    keeps every degree and loop; else g with one cell flipped."""
    edges = [e for e in g.edges() if e[0] != e[1]]
    for _ in range(200):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(edges, 2)
        if len({a, b, c, d}) == 4 and not g.has_edge(a, c) and not g.has_edge(b, d):
            rest = set(g.edges()) - {(a, b), (c, d)}
            return Graph.from_edges(g.n, rest | {(a, c), (b, d)})
    x, y = rng.randrange(g.n), rng.randrange(g.n)
    return Graph.from_edges(g.n, set(g.edges()) ^ {(min(x, y), max(x, y))})


def check_against_vf2(nx, g: Graph, h: Graph) -> bool:
    expected = nx.is_isomorphic(to_nx(nx, g), to_nx(nx, h))
    assert is_isomorphic(g, h) == expected
    assert (canonical_form(g) == canonical_form(h)) == expected
    phi = find_isomorphism(g, h)
    assert (phi is not None) == expected
    if phi is not None:
        assert g.relabel(phi) == h
    return expected


def shrikhande(nx):
    """Cayley graph of Z4 x Z4 on +-(1,0), +-(0,1), +-(1,1): strongly regular
    with the parameters of the 4x4 rook's graph, so refinement alone cannot
    tell the two apart."""
    steps = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    return nx.Graph(
        ((x, y), ((x + dx) % 4, (y + dy) % 4))
        for x in range(4) for y in range(4) for dx, dy in steps
    )


def symmetric_family(nx) -> list[Graph]:
    graphs = [
        nx.petersen_graph(),
        nx.hypercube_graph(4),
        nx.paley_graph(13).to_undirected(),
        nx.desargues_graph(),
        nx.dodecahedral_graph(),
        nx.heawood_graph(),
        nx.cartesian_product(nx.complete_graph(4), nx.complete_graph(4)),
        shrikhande(nx),
        nx.circulant_graph(16, [1, 2]),
        nx.circulant_graph(16, [1, 3]),
        nx.circulant_graph(13, [1, 5]),
        nx.circulant_graph(13, [1, 3]),
        nx.circulant_graph(14, [1, 4]),
        nx.circulant_graph(20, [1, 9]),
    ]
    return [from_nx(h) for h in graphs]


def random_regular(nx, rng: random.Random, n: int) -> Graph:
    """A random 3- or 4-regular graph, looped at every vertex or at none:
    refinement leaves one colour class, so only the search can tell graphs
    apart."""
    g = from_nx(nx.random_regular_graph(3 if n % 2 == 0 else 4, n, seed=rng.randrange(1 << 30)))
    if rng.random() < 0.5:
        return g
    return Graph(n, tuple(row | 1 << v for v, row in enumerate(g.adj)))


def test_isomorphism_matches_vf2_on_random_graphs_with_loops(nx):
    rng = random.Random(5)
    verdicts = []
    for n in range(9, 17):
        for _ in range(12):
            for g in (random_graph(rng, n), random_regular(nx, rng, n)):
                h = shuffled(rng, g)
                verdicts.append(check_against_vf2(nx, g, h))
                verdicts.append(check_against_vf2(nx, g, shuffled(rng, switched(rng, h))))
    assert verdicts.count(True) >= len(verdicts) // 2 and False in verdicts


def test_isomorphism_matches_vf2_on_symmetric_families(nx):
    rng = random.Random(7)
    family = symmetric_family(nx)
    verdicts = []
    for g in family:
        verdicts.append(check_against_vf2(nx, g, shuffled(rng, g)))
        verdicts.append(check_against_vf2(nx, g, shuffled(rng, switched(rng, g))))
    # same order and degree sequence: Desargues and the dodecahedron, the
    # rook's graph and the Shrikhande graph, Q4 and two circulants, ...
    for g, h in itertools.combinations(family, 2):
        if sorted(r.bit_count() for r in g.adj) == sorted(r.bit_count() for r in h.adj):
            verdicts.append(check_against_vf2(nx, g, shuffled(rng, h)))
    assert verdicts.count(True) >= len(family) and False in verdicts
