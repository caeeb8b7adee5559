"""Direct products, components, and the bipartition certificate."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cancelgraph import (
    CapacityError,
    Graph,
    UsageError,
    bipartition,
    components,
    direct_product,
    is_bipartite,
    is_isomorphic,
)

from conftest import graph_strategy

K2 = Graph.from_edges(2, [(0, 1)])
K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


def test_product_encoding_is_row_major():
    p = direct_product(K2, K2)
    assert p.n == 4
    assert p.edges() == [(0, 3), (1, 2)]


def test_product_with_loops():
    lp = Graph.from_edges(2, [(0, 0), (0, 1)])
    p = direct_product(lp, lp)
    assert p.edges() == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 2)]


def test_product_definition_pointwise():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 2)])
    h = Graph.from_edges(2, [(0, 1), (1, 1)])
    p = direct_product(g, h)
    for (x, xp), (y, yp) in itertools.combinations_with_replacement(
        list(itertools.product(range(g.n), range(h.n))), 2
    ):
        expected = g.has_edge(x, y) and h.has_edge(xp, yp)
        assert p.has_edge(x * h.n + xp, y * h.n + yp) == expected


def test_product_capacity_guard():
    with pytest.raises(CapacityError):
        direct_product(Graph(9, (0,) * 9), Graph(8, (0,) * 8))


@settings(max_examples=80)
@given(graph_strategy(max_n=3, loops=True), graph_strategy(max_n=3, loops=True))
def test_product_commutes_up_to_isomorphism(g, h):
    assert is_isomorphic(direct_product(g, h), direct_product(h, g))


def test_k3_times_k2_is_a_hexagon(c6):
    assert is_isomorphic(direct_product(K3, K2), c6)


def test_bipartite_double_cover_of_bipartite_graph_splits(c6):
    doubled = direct_product(c6, K2)
    assert [len(c) for c in components(doubled)] == [6, 6]
    halves = components(doubled)
    for comp in halves:
        keep = {v: i for i, v in enumerate(comp)}
        sub = Graph.from_edges(
            len(comp),
            [(keep[u], keep[v]) for u, v in doubled.edges() if u in keep and v in keep],
        )
        assert is_isomorphic(sub, c6)


def test_components(two_k3, c6):
    assert components(two_k3) == [(0, 2, 4), (1, 3, 5)]
    assert components(c6) == [tuple(range(6))]
    assert components(Graph(3, (0, 0, 0))) == [(0,), (1,), (2,)]


def test_bipartition_sides(c6):
    bp = bipartition(c6)
    assert bp.is_bipartite
    assert bp.component_sides == (((0, 2, 4), (1, 3, 5)),)
    assert bp.left() == frozenset({0, 2, 4})
    assert bp.right() == frozenset({1, 3, 5})
    assert bp.sides_of_component(0) == ((0, 2, 4), (1, 3, 5))


def test_bipartition_mixed_components(two_k3):
    g = Graph.from_edges(5, [(0, 1), (2, 3), (2, 4), (3, 4)])
    bp = bipartition(g)
    assert not bp.is_bipartite
    assert bp.component_sides == (((0,), (1,)), None)
    assert bp.left() == frozenset({0})
    with pytest.raises(UsageError):
        bp.sides_of_component(1)
    assert not is_bipartite(two_k3)


@pytest.mark.parametrize("index", [2, 5, -1])
def test_sides_of_an_absent_component_are_refused(index):
    # a triangle, then an edge whose sides index -1 would wrap round to
    bp = bipartition(Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)]))
    assert bp.sides_of_component(1) == ((3,), (4,))
    with pytest.raises(UsageError):
        bp.sides_of_component(index)


def test_odd_walk_is_a_real_closed_odd_walk():
    looped = Graph.from_edges(3, [(0, 1), (2, 2)])
    assert bipartition(looped).odd_walk == (2, 2)

    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    walk = bipartition(c5).odd_walk
    assert walk is not None
    assert walk[0] == walk[-1]
    assert len(walk) % 2 == 0  # v0 .. v(2k+1)=v0 has even tuple length
    for u, v in zip(walk, walk[1:]):
        assert c5.has_edge(u, v)


@settings(max_examples=150)
@given(graph_strategy(max_n=7, loops=True))
def test_bipartition_certificates_check_out(g):
    bp = bipartition(g)
    if bp.is_bipartite:
        side = {}
        for sides in bp.component_sides:
            assert sides is not None
            # the reversal search takes the sides as they come
            assert all(list(part) == sorted(part) for part in sides)
            for v in sides[0]:
                side[v] = 0
            for v in sides[1]:
                side[v] = 1
        assert len(side) == g.n
        for u, v in g.edges():
            assert side[u] != side[v]
    else:
        walk = bp.odd_walk
        assert walk is not None and walk[0] == walk[-1]
        assert len(walk) % 2 == 0
        for u, v in zip(walk, walk[1:]):
            assert g.has_edge(u, v)
