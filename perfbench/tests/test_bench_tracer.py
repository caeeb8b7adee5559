"""Tracer arithmetic and installation.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import tracer as tracing  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _synthetic_tree(tr: tracing.Tracer, clock: FakeClock):
    def leaf():
        clock.advance(1)

    def gen(k):
        for i in range(k):
            clock.advance(2)
            yield i

    def rec(depth):
        clock.advance(3)
        if depth:
            rec_w(depth - 1)

    def top():
        clock.advance(5)
        leaf_w()
        for _ in gen_w(2):
            clock.advance(7)
        rec_w(2)

    leaf_w = tr.wrap("leaf", leaf)
    gen_w = tr.wrap("gen", gen)
    rec_w = tr.wrap("rec", rec)
    return tr.wrap("top", top)


def test_self_times_on_nested_recursive_and_generator_boundaries():
    clock = FakeClock()
    tr = tracing.Tracer(clock)
    top = _synthetic_tree(tr, clock)
    with tr.span("root"):
        top()
    spans = {(r["name"], r["parent"]): (r["count"], r["total_s"], r["self_s"])
             for r in tr.records()}
    assert spans == {
        ("root", None): (1, 33.0, 0.0),
        ("top", "root"): (1, 33.0, 19.0),  # 5 before, 14 between yields
        ("leaf", "top"): (1, 1.0, 1.0),
        ("gen", "top"): (3, 4.0, 4.0),  # two items and the final StopIteration
        ("rec", "top"): (1, 9.0, 3.0),
        ("rec", "rec"): (2, 9.0, 6.0),  # nested totals overlap; self times do not
    }
    assert tr.calls == {"root": 1, "top": 1, "leaf": 1, "gen": 1, "rec": 3}
    assert tr.items == {"gen": 2}
    assert sum(r["self_s"] for r in tr.records()) == 33.0


def test_stack_survives_exceptions_and_abandoned_generators():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def boom():
        clock.advance(1)
        raise ValueError

    def numbers():
        yield from range(10)

    boom_w = tr.wrap("boom", boom)
    numbers_w = tr.wrap("numbers", numbers)
    with tr.span("root"):
        with pytest.raises(ValueError):
            boom_w()
        for i in numbers_w():
            if i == 2:
                break
    assert tr._stack == []
    assert tr.items == {"numbers": 3}
    assert sum(r["self_s"] for r in tr.records()) == 1.0


def test_route_inferred_from_wrapped_return_values():
    tr = tracing.Tracer(FakeClock())

    class Bip:
        def __init__(self, flag):
            self.is_bipartite = flag

    witness = tr.wrap("iso.involution_witness", lambda g: g["inv"])
    bipartition = tr.wrap("product.bipartition", lambda g: Bip(g["bip"]))

    def decide(g):
        if witness(g) is None:
            return True
        bipartition(g)
        return False

    decide_w = tr.wrap("decide.is_neighborhood_reconstructible", decide)
    for g in ({"inv": None, "bip": True}, {"inv": 1, "bip": True}, {"inv": 1, "bip": False}):
        decide_w(g)
    witness({"inv": None})  # outside the decider: no route
    assert tr.routes == {"involution": 1, "bipartite": 1, "full": 1}
    assert tr.bipartitions == [2, 1]


def test_install_wraps_every_namespace_and_uninstall_restores():
    import cancelgraph
    from cancelgraph import decide, graphs, iso, oracle

    package_dir = Path(cancelgraph.__file__).parent
    modules = [cancelgraph] + [importlib.import_module(f"cancelgraph.{p.stem}")
                               for p in package_dir.glob("*.py") if p.stem != "__init__"]
    originals = []
    for module_name, name in tracing.cross_module_names(package_dir):
        value = getattr(sys.modules[f"cancelgraph.{module_name}"], name)
        if callable(value) and not isinstance(value, type):
            originals.append(value)
    canon_rows = iso.canon_rows
    post_init = graphs.Graph.__post_init__
    iso._canonical.cache_clear()
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        assert oracle.canon_rows is iso.canon_rows is not canon_rows
        assert decide.involution_witness is iso.involution_witness is cancelgraph.involution_witness
        assert graphs.Graph.__post_init__ is not post_init
        # no module keeps a binding of an unwrapped cross-module function
        kept = [(m.__name__, attr) for m in modules for attr, value in vars(m).items()
                if any(value is o for o in originals)]
        assert kept == []
        cancelgraph.classify(cancelgraph.parse_graph("p graph 6\ne 0 1\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 0\n"))
        assert tr.calls["iso.canon_rows"] > 0
        assert tr.calls["fileformat.parse_graph"] == 1
        assert tr.calls["graphs.Graph"] > 0
    finally:
        tracing.uninstall(undo)
    assert iso.canon_rows is canon_rows and oracle.canon_rows is canon_rows
    assert graphs.Graph.__post_init__ is post_init


def _traced_counts() -> dict:
    """Counts of a small traced mix of all three workloads, fresh caches."""
    import cancelgraph
    from cancelgraph import iso, oracle

    import workloads as wl

    iso._canonical.cache_clear()
    tr = tracing.Tracer()
    undo = tracing.install(tr)
    try:
        report = cancelgraph.verify_theorems(3, True, bip_max=4, jobs=1)
        lo, hi = wl.shard_range(63)
        shard = oracle._worker_bip_sweep((7, lo, hi))
        for _stratum, text in wl.analyze_stream(2, HERE.parents[1])[:200]:
            cancelgraph.classify(cancelgraph.parse_graph(text))
    finally:
        tracing.uninstall(undo)
    info = iso._canonical.cache_info()
    return {
        "census": [(r.n, r.graphs, r.non_reconstructible) for r in report.census],
        "shard": shard[:2],
        "iter_adj_rows.items": tr.items["graphs.iter_adj_rows"],
        "canon_rows.calls": tr.calls["iso.canon_rows"],
        "iter_ant_images.items": tr.items["antiauto.iter_ant_images"],
        "cache": (info.hits, info.misses),
        "routes": dict(tr.routes),
    }


def test_counts_repeat_exactly():
    first = _traced_counts()
    assert first["iter_adj_rows.items"] > 0 and first["canon_rows.calls"] > 0
    assert sum(first["routes"].values()) == 400  # two decider calls per classify
    assert _traced_counts() == first
