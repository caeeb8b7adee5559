"""Core containers: permutations, graphs, digraphs, labeled enumeration."""
from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from cancelgraph import (
    CapacityError,
    Digraph,
    Graph,
    Permutation,
    UsageError,
    disjoint_union,
    enumerate_labeled_graphs,
    neighborhood,
    neighborhood_multiset,
    r_partition,
)
from cancelgraph.graphs import (
    adjacency_index,
    all_permutations,
    bits_of,
    component_masks,
    enumerate_count,
    iter_adj_rows,
    mask_of,
    multiset_key,
    permute_mask,
    upper_cells,
)

from conftest import graph_and_permutation, graph_strategy


def perms(n: int) -> st.SearchStrategy[Permutation]:
    return st.permutations(range(n)).map(lambda img: Permutation(tuple(img)))


# ---------------------------------------------------------------------------
# bit helpers
# ---------------------------------------------------------------------------


def test_mask_roundtrip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits_of(0b100101)) == [0, 2, 5]
    assert list(bits_of(0)) == []


def test_permute_mask_moves_bits():
    # vertices 0 and 1 go to 2 and 0
    assert permute_mask(0b011, (2, 0, 1)) == 0b101
    assert permute_mask(0, (1, 0)) == 0


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def test_permutation_rejects_non_bijections():
    with pytest.raises(UsageError):
        Permutation((0, 0))
    with pytest.raises(UsageError):
        Permutation((1, 2))


def test_permutation_is_slotted_with_its_value_semantics():
    # no instance __dict__, and == hash repr asdict copy and pickle as for
    # the plain frozen dataclass of one tuple field
    p = Permutation([2, 0, 1])
    assert not hasattr(p, "__dict__")
    assert p == Permutation((2, 0, 1)) and p != Permutation((0, 1, 2))
    assert hash(p) == hash(((2, 0, 1),))
    assert repr(p) == "Permutation(image=(2, 0, 1))"
    assert dataclasses.asdict(p) == {"image": (2, 0, 1)}
    assert copy.copy(p) == p and copy.deepcopy(p) == p
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(p, protocol))
        assert type(back) is Permutation and back == p
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.image = (0, 1, 2)


def test_compose_is_self_after_other():
    p = Permutation((1, 2, 0))
    q = Permutation((1, 0, 2))
    assert p.compose(q).image == (2, 1, 0)
    with pytest.raises(UsageError):
        p.compose(Permutation((0, 1)))


def test_order_and_involution_flags():
    ident = Permutation.identity(4)
    swap = Permutation((1, 0, 2, 3))
    cyc = Permutation((1, 2, 0))
    assert ident.order() == 1 and not ident.is_involution()
    assert swap.order() == 2 and swap.is_involution()
    assert cyc.order() == 3 and not cyc.is_involution()
    assert cyc.power(3).is_identity()
    assert cyc.power(-1) == cyc.inverse()
    assert cyc.power(0).is_identity()


@settings(max_examples=150)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(perms(n), perms(n))))
def test_permutation_group_laws(pq):
    p, q = pq
    assert p.compose(p.inverse()).is_identity()
    assert p.inverse().compose(p).is_identity()
    assert p.compose(q).inverse() == q.inverse().compose(p.inverse())


@settings(max_examples=100)
@given(st.integers(1, 6).flatmap(perms), st.integers(0, 12))
def test_power_matches_repeated_composition(p, k):
    expected = Permutation.identity(len(p))
    for _ in range(k):
        expected = p.compose(expected)
    assert p.power(k) == expected


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def test_from_edges_collapses_duplicates_and_orientations():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edges() == [(0, 1)]
    assert g.edge_count() == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)


def test_loops_count_once():
    g = Graph.from_edges(2, [(0, 0), (0, 1)])
    assert g.edges() == [(0, 0), (0, 1)]
    assert g.edge_count() == 2
    assert g.has_loop(0) and not g.has_loop(1)
    assert g.degree(0) == 2  # the loop contributes one neighbor: 0 itself
    assert g.degree(1) == 1


def test_graph_validation():
    with pytest.raises(UsageError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(UsageError):
        Graph(1, (2,))  # references vertex 1
    with pytest.raises(UsageError):
        Graph(2, (0,))  # wrong row count
    with pytest.raises(UsageError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(CapacityError):
        Graph(65, (0,) * 65)
    with pytest.raises(CapacityError):
        Graph(-1, ())
    with pytest.raises(UsageError):
        Graph.from_edges(2, []).degree(2)


def test_relabel_moves_edges():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    moved = path.relabel(Permutation((2, 0, 1)))
    assert moved.edges() == [(0, 1), (0, 2)]
    with pytest.raises(UsageError):
        path.relabel(Permutation((1, 0)))


@settings(max_examples=150)
@given(graph_and_permutation(max_n=6, loops=True))
def test_relabel_roundtrip(gp):
    g, p = gp
    assert g.relabel(p).relabel(p.inverse()) == g


def test_neighborhood_and_partition(c6):
    assert neighborhood(c6, 0) == frozenset({1, 5})
    ms = neighborhood_multiset(c6)
    assert len(ms) == 6
    assert ms.entries == ((0, 2), (0, 4), (1, 3), (1, 5), (2, 4), (3, 5))

    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    part = r_partition(path)
    assert part.same_block(0, 2)
    assert not part.same_block(0, 1)
    assert part.block_of(1) == (1,)


@pytest.mark.parametrize("x, y", [(0, 5), (5, 0), (-1, 0)])
def test_same_block_refuses_an_uncovered_vertex(x, y):
    part = r_partition(Graph.from_edges(3, [(0, 1), (1, 2)]))
    with pytest.raises(UsageError):
        part.same_block(x, y)


@settings(max_examples=100)
@given(graph_and_permutation(max_n=5, loops=True))
def test_multiset_key_is_relabeling_covariant(gp):
    # sorting the rows of a relabeled graph sorts the permuted masks
    g, p = gp
    moved = g.relabel(p)
    assert multiset_key(moved.adj) == tuple(
        sorted(permute_mask(row, p.image) for row in g.adj)
    )


def test_disjoint_union():
    k2 = Graph.from_edges(2, [(0, 1)])
    looped = Graph.from_edges(1, [(0, 0)])
    u = disjoint_union(k2, looped)
    assert u.n == 3
    assert u.edges() == [(0, 1), (2, 2)]
    with pytest.raises(CapacityError):
        disjoint_union(Graph(33, (0,) * 33), Graph(32, (0,) * 32))


def test_component_masks():
    g = Graph.from_edges(5, [(0, 1), (2, 3)])
    assert component_masks(g.n, g.adj) == [0b00011, 0b01100, 0b10000]


def test_digraph_symmetry():
    sym = Digraph(2, (0b10, 0b01))
    assert sym.is_symmetric()
    assert sym.to_graph() == Graph.from_edges(2, [(0, 1)])
    asym = Digraph(2, (0b10, 0))
    assert not asym.is_symmetric()
    with pytest.raises(UsageError):
        asym.to_graph()
    with pytest.raises(UsageError):
        Digraph(1, (0b10,))
    with pytest.raises(CapacityError):
        Digraph(65, (0,) * 65)


@pytest.mark.parametrize("n, rows, error", [
    (65, (0,) * 65, CapacityError),
    (-1, (), CapacityError),
    (2, (0,), UsageError),
    (1, (0b10,), UsageError),
])
def test_graph_and_digraph_refuse_a_bad_shape_alike(n, rows, error):
    with pytest.raises(error) as as_graph:
        Graph(n, rows)
    with pytest.raises(error) as as_digraph:
        Digraph(n, rows)
    assert str(as_digraph.value) == str(as_graph.value)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("loops", [False, True])
def test_enumeration_is_complete_and_duplicate_free(n, loops):
    # each graph comes as its own tuple, so the graphs can be kept as they come
    seen = set(iter_adj_rows(n, loops))
    assert len(seen) == enumerate_count(n, loops)
    assert (0,) * n in seen
    full = (1 << n) - 1
    complete = tuple(full if loops else full ^ (1 << v) for v in range(n))
    assert complete in seen


def test_enumeration_order_is_lexicographic_on_cells():
    cells = upper_cells(3, False)
    assert cells == [(0, 1), (0, 2), (1, 2)]
    first_four = [tuple(rows) for _, rows in zip(range(4), iter_adj_rows(3, False))]
    # counter 0..3: empty, {12}, {02}, {02,12}
    assert first_four == [
        (0, 0, 0),
        (0, 4, 2),
        (4, 0, 1),
        (4, 4, 3),
    ]


def test_enumeration_slices_concatenate():
    whole = [tuple(rows) for rows in iter_adj_rows(3, True)]
    pieces = []
    for start, stop in [(0, 20), (20, 21), (21, 64)]:
        pieces.extend(tuple(rows) for rows in iter_adj_rows(3, True, start=start, stop=stop))
    assert pieces == whole
    assert list(iter_adj_rows(3, True, start=10, stop=10)) == []
    with pytest.raises(UsageError):
        list(iter_adj_rows(3, True, start=-1))
    with pytest.raises(UsageError):
        list(iter_adj_rows(3, True, start=0, stop=65))
    with pytest.raises(UsageError):
        list(iter_adj_rows(3, True, start=5, stop=4))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_adjacency_index_inverts_the_enumeration(n):
    count = 0
    for k, rows in enumerate(iter_adj_rows(n, True)):
        assert adjacency_index(n, rows) == k
        count += 1
    assert count == enumerate_count(n, True)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_loopless_adjacency_index_inverts_the_loopless_enumeration(n):
    for k, rows in enumerate(iter_adj_rows(n, False)):
        assert adjacency_index(n, rows, False) == k
        # a loop is not a cell of the loopless encoding
        assert adjacency_index(n, [row | 1 << v for v, row in enumerate(rows)], False) == k


def adjacency_key(n: int, rows) -> tuple[int, ...]:
    """Each row with its bit order reversed: tuple comparison is row-major
    comparison of the adjacency matrix, 0 < 1."""
    return tuple(sum(1 << (n - 1 - y) for y in bits_of(row)) for row in rows)


@st.composite
def graph_and_neighbor(draw) -> tuple[Graph, Graph]:
    """A graph with loops and a copy with up to three cells flipped, so the
    two often share a long prefix of the encoding."""
    g = draw(graph_strategy(9, loops=True))
    rows = list(g.adj)
    for i, j in draw(st.sets(st.sampled_from(upper_cells(g.n, True)), max_size=3)):
        rows[i] ^= 1 << j
        if i != j:
            rows[j] ^= 1 << i
    return g, Graph(g.n, tuple(rows))


@settings(max_examples=200)
@given(graph_and_neighbor())
def test_adjacency_index_orders_graphs_like_the_row_key(pair):
    index = [adjacency_index(g.n, g.adj) for g in pair]
    key = [adjacency_key(g.n, g.adj) for g in pair]
    assert (index[0] < index[1], index[0] == index[1]) == (key[0] < key[1], key[0] == key[1])


def test_enumerate_labeled_graphs_guard():
    assert sum(1 for _ in enumerate_labeled_graphs(2, True)) == 8
    with pytest.raises(CapacityError):
        next(enumerate_labeled_graphs(7, True))
    with pytest.raises(CapacityError):
        next(enumerate_labeled_graphs(8, False))
    # force only overrides the guard, nothing else
    assert sum(1 for _ in enumerate_labeled_graphs(2, True, force=True)) == 8


def test_capacity_check_refuses_only_unforced_n_above_the_limit():
    with pytest.raises(CapacityError) as refused:
        CapacityError.check(7, 6, False, "work")
    assert str(refused.value) == "work; guarded at n<=6; pass force=True"
    assert CapacityError.check(6, 6, False, "work") is None
    assert CapacityError.check(7, 6, True, "work") is None


def test_all_permutations_count():
    assert len(list(all_permutations(4))) == 24
