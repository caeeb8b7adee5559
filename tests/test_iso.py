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

import pytest
from hypothesis import given, settings, strategies as st

from cancelgraph import (
    CapacityError,
    Graph,
    Permutation,
    canonical_form,
    canonical_graph,
    find_isomorphism,
    has_involution,
    involution_witness,
    is_isomorphic,
)
from cancelgraph.graphs import iter_adj_rows
from cancelgraph.iso import automorphisms, iter_automorphism_images

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
