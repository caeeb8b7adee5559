"""Anti-automorphisms, two-fold pairs, and orbits, against definitional scans.

The definitional checks below go through has_edge on every ordered vertex
pair, deliberately avoiding the bitmask shortcuts the implementation uses.
"""
from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cancelgraph import (
    CapacityError,
    Graph,
    InvalidActionError,
    InvalidAntiError,
    InvariantViolationError,
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
import cancelgraph.antiauto as antiauto_mod
from cancelgraph.antiauto import (_full_listing, _tf_generators, apply_anti_rows, iter_ant_images,
                                  iter_two_fold)
from cancelgraph.graphs import invert, iter_adj_rows, multiset_key, twin_classes
from cancelgraph.iso import _canonical, involution_witness
from cancelgraph.oracle import _UniverseIndex

from conftest import graph_and_permutation, graph_strategy, load_fixture


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


def test_rows_recheck_is_the_anti_automorphism_test_exhaustively():
    # every (graph, permutation) pair with n <= 4, loops allowed
    pairs = 0
    for n in range(1, 5):
        perms = list(itertools.permutations(range(n)))
        for rows in iter_adj_rows(n, True):
            g = Graph(n, rows)
            for img in perms:
                by_rows = antiauto_mod._reverses(rows, img, apply_anti_rows(rows, img))
                assert by_rows == is_anti_automorphism(g, Permutation(img))
                pairs += 1
    assert pairs == 24978


def test_enumerate_ant_rejects_a_search_image_outside_ant(monkeypatch):
    hexagon = Graph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)])
    rotation = (1, 2, 3, 4, 5, 0)
    assert not is_anti_automorphism(hexagon, Permutation(rotation))
    monkeypatch.setattr(antiauto_mod, "iter_ant_images", lambda n, rows: iter([rotation]))
    with pytest.raises(InvariantViolationError):
        enumerate_ant(hexagon)


@pytest.mark.parametrize("g, image", [
    # a bijection, but not in Ant(C6)
    (Graph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)]), (1, 2, 3, 4, 5, 0)),
    # not a bijection, though the rows check alone passes it on E3
    (Graph(3, (0, 0, 0)), (0, 0, 1)),
], ids=["non-anti", "non-bijection"])
def test_coset_listing_rejects_a_search_image_outside_ant(monkeypatch, g, image):
    monkeypatch.setattr(antiauto_mod, "_iter_coset_images", lambda n, rows: iter([image]))
    with pytest.raises(InvariantViolationError):
        antiauto_mod._ant_cosets(g)


def check_permuted_rows(g: Graph) -> None:
    """enumerate_ant and the G^a rows of _full_listing, the coset listing
    expanded by P, against the plain Ant walk, in order and in rows; each
    G^a is the coset listing's one tuple for it."""
    g = Graph(g.n, g.adj)  # fresh, so the listing is made here
    ant, permuted = enumerate_ant(g), _full_listing(g)[1]
    images = tuple(iter_ant_images(g.n, g.adj))
    assert tuple(a.image for a in ant) == images
    assert permuted == tuple(apply_anti_rows(g.adj, img) for img in images)
    assert permuted[0] is g.adj  # the identity
    kept = {id(arows) for arows in antiauto_mod._ant_cosets(g)[1]}
    first: dict = {}
    for arows in permuted:
        assert id(arows) in kept
        assert first.setdefault(arows, arows) is arows


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permuted_rows_are_the_permuted_graphs_exhaustively(n):
    for rows in iter_adj_rows(n, True):
        check_permuted_rows(Graph(n, rows))


@pytest.mark.parametrize("name", ["2k3", "asym7", "c6", "lp", "p_reconstruct", "q3", "sql",
                                  "sql_alpha"])
def test_permuted_rows_are_the_permuted_graphs_on_the_fixtures(name):
    check_permuted_rows(load_fixture(name))


def test_permuted_rows_are_the_permuted_graphs_on_the_n5_classes():
    index = _UniverseIndex(5)
    index.build()
    assert len(index.class_rows) == 544
    for rows in index.class_rows:
        check_permuted_rows(Graph(5, rows))


@pytest.mark.parametrize("g", [
    Graph(8, (0,) * 8),
    Graph.from_edges(8, [(x, 4 + y) for x in range(4) for y in range(4)]),
    Graph.from_edges(6, itertools.combinations_with_replacement(range(6), 2)),
], ids=["E8", "K4,4", "K6+loops"])
def test_permuted_rows_are_the_permuted_graphs_with_twins(g):
    check_permuted_rows(g)


def test_full_listing_rejects_an_expansion_outside_ant(monkeypatch):
    hexagon = Graph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)])
    rotation = (1, 2, 3, 4, 5, 0)
    monkeypatch.setattr(antiauto_mod, "_rearranged", lambda image, classes: iter([image, rotation]))
    with pytest.raises(InvariantViolationError):
        enumerate_ant(hexagon)


def test_permuted_rows_guard():
    path = Graph.from_edges(9, [(i, i + 1) for i in range(8)])
    with pytest.raises(CapacityError):
        _full_listing(path)
    reflection = tuple(reversed(range(9)))
    assert _full_listing(path, force=True)[1] == (path.adj, apply_anti_rows(path.adj, reflection))


@pytest.mark.parametrize("bound, refused", [(23, True), (24, False)])
def test_full_listing_refuses_past_its_bound(monkeypatch, bound, refused):
    # E4 has one coset image and 4! = 24 members
    monkeypatch.setattr(antiauto_mod, "ANT_LISTING_MAX", bound)
    empty = Graph(4, (0,) * 4)
    if refused:
        with pytest.raises(CapacityError, match="^anti-automorphism listing at n=4 has more than 23 "
                                                "images; listings bounded at 23$"):
            enumerate_ant(empty, force=True)
    else:
        assert len(enumerate_ant(empty, force=True)) == 24


def test_forced_full_listing_of_e9_refuses_in_seconds():
    # E9's coset listing holds one image, its full listing 9! = 362,880;
    # forced, enumerate_ant must refuse at ANT_LISTING_MAX rather than build
    # them all, which took 2.3 s and 127 MiB peak RSS. The child bounds what
    # it allocates: its ru_maxrss would carry the test runner's own peak
    code = (
        "import tracemalloc\n"
        "from cancelgraph import CapacityError, Graph, enumerate_ant\n"
        "tracemalloc.start()\n"
        "try:\n"
        "    enumerate_ant(Graph(9, (0,) * 9), force=True)\n"
        "except CapacityError as refused:\n"
        "    print(refused)\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    refusal, peak_bytes = proc.stdout.splitlines()
    assert refusal == ("anti-automorphism listing at n=9 has more than 50000 images; "
                       "listings bounded at 50000")
    assert int(peak_bytes) < 1 << 20


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


def tf_by_inline_expansion(g: Graph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """enumerate_aut_tf as it was before it shared the coset expansion: each
    pair of iter_two_fold with its mu permuted inside the equal-row classes,
    placed vertex by vertex."""
    classes = twin_classes(g.adj)[0]
    out = []
    for lam, mu in iter_two_fold(g.adj, g.adj):
        per_class = [itertools.permutations([mu[x] for x in xs]) for xs in classes]
        for choice in itertools.product(*per_class):
            image = [-1] * g.n
            for xs, targets in zip(classes, choice):
                for x, t in zip(xs, targets):
                    image[x] = t
            out.append((lam, tuple(image)))
    return sorted(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tf_enumeration_is_the_inline_expansion_exhaustively(n):
    for rows in iter_adj_rows(n, True):
        g = Graph(n, rows)
        assert [(p.lam.image, p.mu.image) for p in enumerate_aut_tf(g)] == tf_by_inline_expansion(g)


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
    assert _tf_generators(g.n, g.adj) == pairs
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


# ---------------------------------------------------------------------------
# the mask searches against the per-bit searches they replaced
# ---------------------------------------------------------------------------


def per_bit_ant_images(n: int, rows: tuple[int, ...]):
    """The Ant search testing, for each candidate w of img[v] and each u < v,
    A[v][img[u]] == A[w][u] and A[u][w] == A[img[u]][v] bit by bit: the
    reference for iter_ant_images, order included."""
    if n == 0:
        yield ()
        return
    deg = [r.bit_count() for r in rows]
    img = [-1] * n

    def extend(v: int, used: int):
        if v == n:
            yield tuple(img)
            return
        dv = deg[v]
        rv = rows[v]
        for w in range(n):
            if used >> w & 1 or deg[w] != dv:
                continue
            rw = rows[w]
            ok = True
            for u in range(v):
                t = img[u]
                if (rv >> t & 1) != (rw >> u & 1) or (rows[u] >> w & 1) != (
                    rows[t] >> v & 1
                ):
                    ok = False
                    break
            if ok:
                img[v] = w
                yield from extend(v + 1, used | 1 << w)
        img[v] = -1

    yield from extend(0, 0)


def per_bit_two_fold(src: tuple[int, ...], dst: tuple[int, ...]):
    """The two-fold search testing one cell pair per placed vertex and
    candidate: the reference for iter_two_fold, order included."""
    n = len(src)
    sdeg = [r.bit_count() for r in src]
    ddeg = [r.bit_count() for r in dst]
    prev_same = [-1] * n
    last: dict[int, int] = {}
    for v, row in enumerate(src):
        prev_same[v] = last.get(row, -1)
        last[row] = v
    mu = [-1] * n
    lam = [-1] * n

    def place_mu(v: int, used_mu: int, used_lam: int):
        if v == n:
            yield tuple(lam), tuple(mu)
            return
        rv = src[v]
        p = prev_same[v]
        for b in range(mu[p] + 1 if p >= 0 else 0, n):
            if used_mu >> b & 1 or ddeg[b] != sdeg[v]:
                continue
            rb = dst[b]
            ok = True
            for y in range(v):
                if (rv >> y & 1) != (rb >> lam[y] & 1):
                    ok = False
                    break
            if ok:
                mu[v] = b
                yield from place_lam(v, used_mu | 1 << b, used_lam)
        mu[v] = -1

    def place_lam(v: int, used_mu: int, used_lam: int):
        for c in range(n):
            if used_lam >> c & 1 or ddeg[c] != sdeg[v]:
                continue
            ok = True
            for x in range(v + 1):
                if (src[x] >> v & 1) != (dst[mu[x]] >> c & 1):
                    ok = False
                    break
            if ok:
                lam[v] = c
                yield from place_mu(v + 1, used_mu, used_lam | 1 << c)
        lam[v] = -1

    yield from place_mu(0, 0, 0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_mask_searches_match_the_per_bit_searches_exhaustively(n):
    for rows in iter_adj_rows(n, True):
        frozen = tuple(rows)
        assert list(iter_ant_images(n, frozen)) == list(per_bit_ant_images(n, frozen))
        assert list(iter_two_fold(frozen, frozen)) == list(per_bit_two_fold(frozen, frozen))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graph_strategy(8, loops=True))
def test_mask_searches_match_the_per_bit_searches(g):
    assert list(iter_ant_images(g.n, g.adj)) == list(per_bit_ant_images(g.n, g.adj))
    assert list(iter_two_fold(g.adj, g.adj)) == list(per_bit_two_fold(g.adj, g.adj))


@st.composite
def two_graphs_of_one_order(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    return draw(graph_strategy(n, min_n=n, loops=True)), draw(graph_strategy(n, min_n=n, loops=True))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(two_graphs_of_one_order())
def test_two_fold_search_matches_the_per_bit_search_between_graphs(gh):
    g, h = gh
    assert list(iter_two_fold(g.adj, h.adj)) == list(per_bit_two_fold(g.adj, h.adj))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(graph_strategy(8, loops=True), st.randoms(use_true_random=False))
def test_two_fold_search_matches_the_per_bit_search_onto_a_relabeled_permuted_graph(g, rng):
    # G x K2 and G^a x K2 are isomorphic, so a pair exists; relabeling G^a
    # moves where the search finds it
    alpha = rng.choice(list(iter_ant_images(g.n, g.adj)))
    relabel = list(range(g.n))
    rng.shuffle(relabel)
    h = Graph(g.n, apply_anti_rows(g.adj, alpha)).relabel(Permutation(tuple(relabel)))
    pairs = list(iter_two_fold(g.adj, h.adj))
    assert pairs and pairs == list(per_bit_two_fold(g.adj, h.adj))


def first_involution(n: int, rows: tuple[int, ...]):
    return next((img for img in iter_ant_images(n, rows) if Permutation(img).is_involution()), None)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_first_involution_in_ant_is_the_involution_witness_exhaustively(n):
    # an involution in Ant(G) is an automorphism, and every involutory
    # automorphism lies in Ant(G); both lists ascend
    for rows in iter_adj_rows(n, True):
        g = Graph(n, tuple(rows))
        witness = involution_witness(g)
        assert first_involution(n, g.adj) == (None if witness is None else witness.image)


@settings(max_examples=100, deadline=None)
@given(graph_strategy(8, loops=True))
def test_first_involution_in_ant_is_the_involution_witness(g):
    witness = involution_witness(g)
    assert first_involution(g.n, g.adj) == (None if witness is None else witness.image)


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


# ---------------------------------------------------------------------------
# the orbit partition by twin cosets, against closure under generators
# ---------------------------------------------------------------------------


def reference_orbit_partition(n, rows, ant, certs):
    """Orbits by closure: every member of Ant(G) moved by every generator of
    Aut^TF(G), iter_two_fold's pairs plus (id, t) for the transpositions t
    inside each equal-row class, until no new member turns up. The reference
    for _orbit_partition's labels."""
    ident = tuple(range(n))
    gens = list(iter_two_fold(rows, rows))
    for verts in twin_classes(rows)[0]:
        for other in verts[1:]:
            t = list(ident)
            t[verts[0]], t[other] = t[other], t[verts[0]]
            gens.append((ident, tuple(t)))
    gens = [(lam, invert(mu)) for lam, mu in gens]
    index = {img: i for i, img in enumerate(ant)}
    labels = [-1] * len(ant)
    faults = []
    norbits = 0
    for i, img in enumerate(ant):
        if labels[i] >= 0:
            continue
        labels[i] = norbits
        frontier = [img]
        while frontier:
            cur = frontier.pop()
            for lam, mu_inv in gens:
                moved = tuple(lam[cur[u]] for u in mu_inv)
                j = index.get(moved)
                if j is None:
                    faults.append(("closure", {"alpha": list(moved)}))
                elif labels[j] < 0:
                    labels[j] = norbits
                    frontier.append(moved)
        norbits += 1
    orbit_cert = [None] * norbits
    for img, label, cert in zip(ant, labels, certs):
        if orbit_cert[label] is None:
            orbit_cert[label] = cert
        elif orbit_cert[label] != cert:
            faults.append(("within_orbit", {"alpha": list(img)}))
    if len(set(orbit_cert)) != norbits:
        faults.append(("across_orbits", {"orbits": norbits, "classes": len(set(orbit_cert))}))
    return labels, faults


def orbit_inputs(g: Graph):
    ant, permuted = _full_listing(g, force=True)
    return g.n, g.adj, ant, [_canonical(g.n, arows)[0] for arows in permuted]


def check_orbit_partition(g: Graph) -> None:
    args = orbit_inputs(g)
    labels, faults = antiauto_mod._orbit_partition(*args)
    assert faults == []
    assert labels == reference_orbit_partition(*args)[0]


def relabeled(g: Graph, seed: int) -> Graph:
    image = list(range(g.n))
    random.Random(seed).shuffle(image)
    return g.relabel(Permutation(tuple(image)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_partition_is_the_closure_exhaustively(n):
    for rows in iter_adj_rows(n, True):
        check_orbit_partition(Graph(n, tuple(rows)))


def test_orbit_partition_is_the_closure_on_the_n5_classes():
    index = _UniverseIndex(5)
    index.build()
    assert len(index.class_rows) == 544
    for rows in index.class_rows:
        check_orbit_partition(Graph(5, rows))


@pytest.mark.parametrize("g", [
    *(load_fixture(name) for name in ("2k3", "c6", "lp", "p_reconstruct", "sql", "sql_alpha")),
    relabeled(Graph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)]), 1),
    relabeled(Graph.from_edges(6, [(x, 3 + y) for x in range(3) for y in range(3)]), 2),
    relabeled(Graph(6, (0,) * 6), 3),
], ids=["2k3", "c6", "lp", "p_reconstruct", "sql", "sql_alpha", "C6", "K3,3", "E6"])
def test_orbit_partition_is_the_closure_on_named_graphs(g):
    assert g.n <= 6
    check_orbit_partition(g)


# a loops-allowed graph on 6 vertices with Aut(G) trivial and three two-fold
# pairs, each sending the identity to another member of its orbit, so that
# no pair can go without splitting that orbit. Dropping any one pair of a
# loops-allowed graph up to n = 5 leaves the labels as they are
THREE_PAIRS = Graph(6, (48, 56, 12, 14, 3, 35))


@pytest.mark.parametrize("dropped", [1, 2])
def test_orbit_partition_reports_a_dropped_pair(monkeypatch, dropped):
    # the lost member starts an orbit of its own, in the identity's
    # isomorphism class, which the theorem check reports
    args = orbit_inputs(THREE_PAIRS)
    pairs = antiauto_mod._tf_generators(6, THREE_PAIRS.adj)
    assert len(pairs) == 3 and pairs[0] == (tuple(range(6)),) * 2
    assert antiauto_mod._orbit_partition(*args)[1] == []
    kept = pairs[:dropped] + pairs[dropped + 1:]
    monkeypatch.setattr(antiauto_mod, "_tf_generators", lambda n, rows: kept)
    labels, faults = antiauto_mod._orbit_partition(*args)
    assert labels != reference_orbit_partition(*args)[0]
    assert faults == [("across_orbits", {"orbits": max(labels) + 1, "classes": max(labels)})]


def test_orbit_partition_reports_a_short_coset():
    # a listing that lost one member of a coset aP fails the |P| count, and
    # an image landing on the lost member is outside the listing
    g = Graph.from_edges(3, [(0, 1), (0, 2)])
    n, rows, ant, certs = orbit_inputs(g)
    assert len(ant) == 2
    labels, faults = antiauto_mod._orbit_partition(n, rows, ant[1:], certs[1:])
    assert faults[0] == ("closure", {"alpha": list(ant[1]), "coset_members": 1})
    assert ("closure", {"alpha": list(ant[0])}) in faults
