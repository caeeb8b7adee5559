"""Anti-automorphisms, two-fold pairs, and orbits, against definitional scans.

The definitional checks below go through has_edge on every ordered vertex
pair, deliberately avoiding the bitmask shortcuts the implementation uses.
"""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cancelgraph import (
    CapacityError,
    Graph,
    InvalidActionError,
    InvalidAntiError,
    Permutation,
    TwoFoldPair,
    UsageError,
    act,
    ant_orbits,
    apply_anti,
    automorphisms,
    enumerate_ant,
    enumerate_aut_tf,
    is_anti_automorphism,
    is_isomorphic,
    is_two_fold,
    permuted_digraph,
)
from cancelgraph.antiauto import _tf_generators, apply_anti_rows, iter_two_fold
from cancelgraph.graphs import iter_adj_rows, multiset_key

from conftest import graph_and_permutation, graph_strategy


def anti_by_definition(g: Graph, a: Permutation) -> bool:
    inv = a.inverse()
    return all(
        g.has_edge(x, y) == g.has_edge(a(x), inv(y))
        for x in range(g.n)
        for y in range(g.n)
    )


def two_fold_by_definition(g: Graph, lam: Permutation, mu: Permutation) -> bool:
    return all(
        g.has_edge(x, y) == g.has_edge(lam(x), mu(y))
        for x in range(g.n)
        for y in range(g.n)
    )


def brute_ant(g: Graph) -> set[tuple[int, ...]]:
    return {
        img
        for img in itertools.permutations(range(g.n))
        if anti_by_definition(g, Permutation(img))
    }


def brute_tf(g: Graph) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    perms = list(itertools.permutations(range(g.n)))
    return {
        (lam, mu)
        for lam in perms
        for mu in perms
        if two_fold_by_definition(g, Permutation(lam), Permutation(mu))
    }


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ant_enumeration_matches_definition_exhaustively(n):
    for rows in iter_adj_rows(n, True):
        g = Graph(n, tuple(rows))
        assert {p.image for p in enumerate_ant(g)} == brute_ant(g)


@settings(max_examples=60)
@given(graph_strategy(max_n=5, min_n=4, loops=True))
def test_ant_enumeration_matches_definition_sampled(g):
    assert {p.image for p in enumerate_ant(g)} == brute_ant(g)


@settings(max_examples=120)
@given(graph_and_permutation(max_n=6, loops=True))
def test_is_anti_automorphism_matches_definition(gp):
    g, p = gp
    assert is_anti_automorphism(g, p) == anti_by_definition(g, p)


def test_ant_listing_shape(c6):
    ant = enumerate_ant(c6)
    images = [p.image for p in ant]
    assert len(ant) == 22
    assert images == sorted(images)
    assert images[0] == (0, 1, 2, 3, 4, 5)
    pool = set(images)
    for p in ant:
        assert p.inverse().image in pool
    # anti-automorphisms need not be automorphisms, nor involutions
    assert (1, 2, 5, 0, 3, 4) in pool
    assert not Permutation((1, 2, 5, 0, 3, 4)).is_involution()
    assert (1, 2, 5, 0, 3, 4) not in {p.image for p in automorphisms(c6)}


def test_ant_guard():
    big = Graph.from_edges(9, [(i, i + 1) for i in range(8)])
    with pytest.raises(CapacityError):
        enumerate_ant(big)
    # the path's reflection is an involutory automorphism, so it is also anti
    assert [p.image for p in enumerate_ant(big, force=True)] == [
        tuple(range(9)),
        tuple(reversed(range(9))),
    ]


def test_length_mismatch_rejected(c6):
    with pytest.raises(UsageError):
        is_anti_automorphism(c6, Permutation((0, 1)))


# ---------------------------------------------------------------------------
# the permuted graph
# ---------------------------------------------------------------------------


def test_apply_anti_rejects_non_anti(c6):
    rotation = Permutation((1, 2, 3, 4, 5, 0))
    assert not is_anti_automorphism(c6, rotation)
    with pytest.raises(InvalidAntiError):
        apply_anti(c6, rotation)


def test_apply_anti_antipodal_gives_two_triangles(c6, two_k3):
    antipodal = Permutation((3, 4, 5, 0, 1, 2))
    assert apply_anti(c6, antipodal) == two_k3


def test_permuted_digraph_symmetry_characterizes_ant(c6):
    for img in itertools.permutations(range(6)):
        p = Permutation(img)
        assert permuted_digraph(c6, p).is_symmetric() == is_anti_automorphism(c6, p)


@settings(max_examples=120)
@given(graph_and_permutation(max_n=5, loops=True))
def test_permuted_digraph_matches_apply_anti(gp):
    g, p = gp
    dig = permuted_digraph(g, p)
    if is_anti_automorphism(g, p):
        assert dig.to_graph() == apply_anti(g, p)
    else:
        assert not dig.is_symmetric()


@settings(max_examples=100)
@given(graph_strategy(max_n=5, loops=True))
def test_permuted_graphs_share_the_neighborhood_multiset(g):
    key = multiset_key(g.adj)
    for p in enumerate_ant(g):
        assert multiset_key(apply_anti_rows(g.adj, p.image)) == key


# ---------------------------------------------------------------------------
# two-fold pairs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tf_enumeration_matches_definition_exhaustively(n):
    for rows in iter_adj_rows(n, True):
        g = Graph(n, tuple(rows))
        assert {
            (p.lam.image, p.mu.image) for p in enumerate_aut_tf(g)
        } == brute_tf(g)


def lambdas_by_scan(g: Graph) -> set[tuple[int, ...]]:
    """Every lambda sending the multiset of neighborhoods onto itself, by
    trying all n! permutations; exactly the lambdas of Aut^TF(G)."""
    hoods = [frozenset(y for y in range(g.n) if g.has_edge(x, y)) for x in range(g.n)]
    target = sorted(map(sorted, hoods))
    return {
        lam
        for lam in itertools.permutations(range(g.n))
        if sorted(sorted(lam[y] for y in hood) for hood in hoods) == target
    }


def check_two_fold_search(g: Graph) -> None:
    pairs = list(iter_two_fold(g.adj, g.adj))
    lams = [lam for lam, _ in pairs]
    assert len(set(lams)) == len(lams)
    assert set(lams) == lambdas_by_scan(g)
    assert {lam for lam, _ in _tf_generators(g.n, g.adj)} == set(lams)
    classes = [
        [x for x in range(g.n) if g.adj[x] == g.adj[v]] for v in range(g.n)
    ]
    for lam, mu in pairs:
        assert two_fold_by_definition(g, Permutation(lam), Permutation(mu))
        for xs in classes:
            images = [mu[x] for x in xs]
            assert images == sorted(images)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_two_fold_search_matches_a_lambda_scan_exhaustively(n):
    for rows in iter_adj_rows(n, True):
        check_two_fold_search(Graph(n, tuple(rows)))


@settings(max_examples=60, deadline=None)
@given(graph_strategy(6, loops=True))
def test_two_fold_search_matches_a_lambda_scan(g):
    check_two_fold_search(g)


def test_tf_group_structure(c6):
    pairs = enumerate_aut_tf(c6)
    assert len(pairs) == 72
    keys = {(p.lam.image, p.mu.image) for p in pairs}
    assert (tuple(range(6)), tuple(range(6))) in keys
    # swapping the roles lands back in the same set
    assert {(mu, lam) for lam, mu in keys} == keys
    for p, q in itertools.islice(itertools.product(pairs, repeat=2), 600):
        assert (p.compose(q).lam.image, p.compose(q).mu.image) in keys
    for p in pairs:
        assert (p.inverse().lam.image, p.inverse().mu.image) in keys


def test_tf_embeds_ant_and_aut(c6):
    keys = {(p.lam.image, p.mu.image) for p in enumerate_aut_tf(c6)}
    ant = {p.image for p in enumerate_ant(c6)}
    assert {lam for lam, mu in keys if Permutation(lam).inverse().image == mu} == ant
    auts = {p.image for p in automorphisms(c6)}
    assert {lam for lam, mu in keys if lam == mu} == auts


def test_is_two_fold_matches_definition(c6):
    good = TwoFoldPair(Permutation((1, 2, 3, 4, 5, 0)), Permutation((5, 0, 1, 2, 3, 4)))
    assert is_two_fold(c6, good) == two_fold_by_definition(c6, good.lam, good.mu)
    bad = TwoFoldPair(Permutation((1, 2, 3, 4, 5, 0)), Permutation.identity(6))
    assert not is_two_fold(c6, bad)
    with pytest.raises(UsageError):
        TwoFoldPair(Permutation((0, 1)), Permutation((0, 1, 2)))


def test_tf_guard(asym7):
    with pytest.raises(CapacityError):
        enumerate_aut_tf(asym7)
    assert len(enumerate_aut_tf(asym7, force=True)) == 1


# ---------------------------------------------------------------------------
# the action and its orbits
# ---------------------------------------------------------------------------


def test_act_closure_and_errors(c6):
    pairs = enumerate_aut_tf(c6)
    ant = enumerate_ant(c6)
    ant_pool = {p.image for p in ant}
    for pair in pairs[:12]:
        for a in ant[:6]:
            moved = act(c6, pair, a)
            assert moved.image in ant_pool
            assert moved == pair.lam.compose(a).compose(pair.mu.inverse())
    rotation = Permutation((1, 2, 3, 4, 5, 0))
    with pytest.raises(InvalidActionError):
        act(c6, pairs[0], rotation)  # not an anti-automorphism
    with pytest.raises(InvalidActionError):
        act(c6, TwoFoldPair(rotation, Permutation.identity(6)), ant[0])


def test_action_is_compatible_with_composition(c6):
    pairs = enumerate_aut_tf(c6)
    a = enumerate_ant(c6)[3]
    for p, q in itertools.islice(itertools.product(pairs[:9], pairs[:9]), 40):
        assert act(c6, p.compose(q), a) == act(c6, p, act(c6, q, a))


def test_orbits_of_the_hexagon(c6):
    part = ant_orbits(c6)
    assert sorted(len(o) for o in part.orbits) == [1, 6, 6, 9]
    assert sum(len(o) for o in part.orbits) == len(part.ant) == 22
    # orbit sizes divide the group order
    for orbit in part.orbits:
        assert 72 % len(orbit) == 0

    ident = Permutation.identity(6)
    same_class = part.orbit_of(ident)
    assert len(same_class) == 6
    for a in same_class:
        assert is_isomorphic(apply_anti(c6, a), c6)

    antipodal = Permutation((3, 4, 5, 0, 1, 2))
    assert part.orbit_of(antipodal) == (antipodal,)
    assert part.same_orbit(ident, same_class[-1])
    assert not part.same_orbit(ident, antipodal)

    reps = part.representatives
    assert list(reps) == sorted(reps, key=lambda p: p.image)
    for orbit, rep in zip(part.orbits, reps):
        assert rep == min(orbit, key=lambda p: p.image)

    with pytest.raises(UsageError):
        part.orbit_of(Permutation((1, 2, 3, 4, 5, 0)))


def test_orbits_partition_by_isomorphism_type(two_k3, sql, lp):
    for g in (two_k3, sql, lp):
        part = ant_orbits(g)
        cert_of = {}
        for orbit in part.orbits:
            types = {
                tuple(apply_anti_rows(g.adj, a.image)) for a in orbit
            }
            first = apply_anti(g, orbit[0])
            for a in orbit[1:]:
                assert is_isomorphic(first, apply_anti(g, a))
            cert_of[orbit[0].image] = first
        reps = list(cert_of.values())
        for i, j in itertools.combinations(range(len(reps)), 2):
            assert not is_isomorphic(reps[i], reps[j])


def test_orbits_of_an_edge():
    k2 = Graph.from_edges(2, [(0, 1)])
    part = ant_orbits(k2)
    assert [len(o) for o in part.orbits] == [1, 1]
    assert len(enumerate_aut_tf(k2)) == 2


def test_orbit_guard(asym7):
    with pytest.raises(CapacityError):
        ant_orbits(asym7)
    assert len(ant_orbits(asym7, force=True).orbits) == 1
