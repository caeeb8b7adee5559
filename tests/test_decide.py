"""Deciders against an inline scan oracle, plus frozen full reports.

The mini oracle here re-derives reconstructibility from scratch: collect
every graph on the same vertices whose sorted row multiset matches, then ask
whether each one is carried onto G by some relabeling. No shared code with
the deciders beyond the Graph container.
"""
from __future__ import annotations

import itertools
import json

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
from cancelgraph import decide
from cancelgraph.graphs import adjacency_index, iter_adj_rows, multiset_key, perm_order
from cancelgraph.oracle import _fixed_bipartition_rows

from conftest import graph_and_permutation, graph_strategy


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
        xs, ys = sorted(sides[0]), sorted(sides[1])
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
