"""Acceptance gate: one test per shipped guarantee, with time budgets.

Each test prints a single PASS line on success (run with -v or -s to see
them); pytest's own per-test verdicts double as the pass/fail record. The
exhaustive verification runs are shared module-wide so the wall-clock
budget covers them exactly once, like a user running the CLI twice.
"""
from __future__ import annotations

import hashlib
import json
import time

import pytest

from cancelgraph import (
    Graph,
    Permutation,
    apply_anti,
    canonical_form,
    classify,
    direct_product,
    enumerate_ant,
    is_anti_automorphism,
    is_isomorphic,
    is_strongly_reconstructible,
    neighborhood_multiset,
    neighborhood_oracle,
    strong_counterexample,
    verify_theorems,
)
from cancelgraph.graphs import iter_adj_rows
from cancelgraph.oracle import _lovasz_pass, _roundtrip_pass, _weichsel_pass, _Violations

K2 = Graph.from_edges(2, [(0, 1)])
# every loops-allowed labeled graph up to n=4: verify runs these suites on
# one graph per iso class, so the direct calls keep the labeled coverage
LABELED_UP_TO_4 = {n: list(iter_adj_rows(n, True)) for n in range(1, 5)}


@pytest.fixture(scope="module")
def big_verification():
    """Both full verification runs, timed together."""
    t0 = time.perf_counter()
    loops = verify_theorems(5, True, jobs=1)
    loopless = verify_theorems(6, False, jobs=1)
    elapsed = time.perf_counter() - t0
    return loops, loopless, elapsed


def timed(budget_seconds: float):
    class Timer:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.seconds = time.perf_counter() - self.t0
            if exc[0] is None:
                assert self.seconds < budget_seconds, (
                    f"budget {budget_seconds}s exceeded: {self.seconds:.2f}s"
                )
            return False

    return Timer()


def test_hexagon_analysis(c6, two_k3):
    with timed(1.0) as t:
        report = classify(c6)
        assert report.reconstructible is False
        assert canonical_form(report.counterexample_graph) == canonical_form(two_k3)
        expected = ((0, 2), (0, 4), (1, 3), (1, 5), (2, 4), (3, 5))
        assert neighborhood_multiset(c6).entries == expected
        assert neighborhood_multiset(two_k3).entries == expected
    print(f"PASS: hexagon analysis ({t.seconds:.3f}s)")


def test_square_with_loops_permuted_graph(sql, sql_alpha, q3):
    with timed(1.0) as t:
        alpha = Permutation((3, 0, 1, 2))
        assert is_anti_automorphism(sql, alpha)
        moved = apply_anti(sql, alpha)
        assert moved == sql_alpha
        assert moved.edges() == sql_alpha.edges()
        assert not is_isomorphic(sql, moved)
        left = direct_product(sql, K2)
        right = direct_product(moved, K2)
        assert canonical_form(left) == canonical_form(right) == canonical_form(q3)
    print(f"PASS: square-with-loops permuted graph and products ({t.seconds:.3f}s)")


def test_reconstructible_but_not_strongly(p_reconstruct):
    with timed(1.0) as t:
        report = classify(p_reconstruct)
        assert report.reconstructible is True
        assert report.strongly is False
        w = strong_counterexample(p_reconstruct)
        assert w is not None
        moved = apply_anti(p_reconstruct, w)
        assert moved != p_reconstruct
        assert is_isomorphic(moved, p_reconstruct)
    print(f"PASS: reconstructible but not strongly ({t.seconds:.3f}s)")


def test_looped_edge_is_strongly_reconstructible(lp):
    with timed(1.0) as t:
        assert is_strongly_reconstructible(lp)
        assert neighborhood_oracle(lp) == [lp]
    print(f"PASS: looped edge determined by its neighborhoods ({t.seconds:.3f}s)")


def test_exhaustive_verification_runs_clean(big_verification):
    loops, loopless, elapsed = big_verification
    assert loops.ok, loops.violations[:5]
    assert loopless.ok, loopless.violations[:5]
    assert elapsed < 600.0, f"verification took {elapsed:.1f}s"

    assert [(r.n, r.graphs) for r in loops.census] == [
        (1, 2), (2, 8), (3, 64), (4, 1024), (5, 32768),
    ]
    assert [r.non_reconstructible for r in loops.census] == [0, 2, 20, 362, 10776]
    assert [(r.n, r.graphs) for r in loopless.census] == [
        (1, 1), (2, 2), (3, 8), (4, 64), (5, 1024), (6, 32768),
    ]
    assert [r.non_reconstructible for r in loopless.census] == [0, 1, 4, 47, 718, 19246]
    print(f"PASS: exhaustive verification, both universes clean ({elapsed:.1f}s)")


def report_digest(report) -> str:
    """sha256 of a verify report's JSON without its timings."""
    data = report.to_json_dict()
    del data["suite_seconds"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def test_flagship_reports_are_frozen(big_verification):
    # every census row, bipartite census row and violation of both flagship
    # runs; a change that moves any of them on purpose records new digests
    loops, loopless, _ = big_verification
    assert report_digest(loops) == (
        "e94ddffe78583e0e5d751e2cbc8175258089b6a4a072d64af11aa6aa3fea333b"
    )
    assert report_digest(loopless) == (
        "de7961f3830759713a9ffbe4243d86842a52a14368b50c16ad9183c54aa5d53a"
    )
    print("PASS: both flagship verify reports match their recorded digests")


def test_triangle_factor_cancellation(big_verification):
    loops, loopless, _ = big_verification
    for report in (loops, loopless):
        assert not [v for v in report.violations if v.get("suite") == "lovasz_k3"]
    violations = _Violations()
    with timed(120.0) as t:
        _lovasz_pass(LABELED_UP_TO_4, violations)
    assert violations.total == 0
    print(f"PASS: odd-factor cancellation against a triangle ({t.seconds:.1f}s)")


def test_product_connectivity_and_double_cover(big_verification):
    loops, loopless, _ = big_verification
    for report in (loops, loopless):
        assert not [
            v
            for v in report.violations
            if v.get("suite") in ("weichsel", "biprevinv", "double_cover")
        ]
    assert [(r.n, r.bipartite_graphs, r.reversal_failures) for r in loopless.bipartite_census] == [
        (1, 1, 0),
        (2, 2, 1),
        (3, 7, 3),
        (4, 41, 24),
        (5, 376, 130),
        (6, 5177, 1915),
        (7, 103237, 17416),
    ]
    assert loops.bipartite_census == loopless.bipartite_census
    violations = _Violations()
    _weichsel_pass(LABELED_UP_TO_4, violations)
    assert violations.total == 0
    print("PASS: product connectivity and bipartite double covers")


def test_product_isomorphism_roundtrip(big_verification):
    loops, _, _ = big_verification
    assert not [
        v for v in loops.violations
        if v.get("suite") in ("roundtrip_missing", "roundtrip_mismatch")
    ]
    violations = _Violations()
    _roundtrip_pass(LABELED_UP_TO_4, violations)
    assert violations.total == 0
    print("PASS: anti-automorphism recovered from every product isomorphism")


def test_census_cross_checks(big_verification):
    """The two universes must tell one consistent story where they overlap."""
    loops, loopless, _ = big_verification
    # loopless census rows are embedded in the sweep: same failure counts
    sweep = {r.n: r.reversal_failures for r in loopless.bipartite_census}
    for row in loopless.census:
        assert row.bipartite_failures == sweep[row.n]
    # every strongly-reconstructible graph is reconstructible
    for report in (loops, loopless):
        for row in report.census:
            assert row.non_reconstructible <= row.non_strongly <= row.graphs
    print("PASS: censuses agree across universes")
