"""The correctness gate, the metric names and the bare-directory exit."""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def _pinned_report() -> dict:
    return {
        "ok": True,
        "violations": [],
        "census": [{"n": n, "graphs": g, "non_reconstructible": r, "non_strongly": s,
                    "bipartite_failures": 0} for n, g, r, s in wl.LOOPS5_CENSUS],
        "bipartite_census": [{"n": n, "bipartite_graphs": b, "reversal_failures": f}
                             for n, b, f in wl.LOOPS5_BIP_CENSUS],
    }


def test_verify_gate_accepts_the_pinned_census_and_rejects_a_mutated_one():
    assert wl.check_verify(_pinned_report()) == (11, 0, [])
    mutated = _pinned_report()
    mutated["census"][4]["non_strongly"] += 1
    attempted, failed, problems = wl.check_verify(mutated)
    assert (attempted, failed) == (11, 1) and "census row" in problems[0]
    mutated = _pinned_report()
    mutated["bipartite_census"].pop()
    assert wl.check_verify(mutated)[1] == 1
    mutated = _pinned_report()
    mutated["ok"] = False
    assert wl.check_verify(mutated)[1] == 11


def test_shard_gate_rejects_wrong_counts_and_violations():
    assert wl.check_shard(63, 1, 0, 0) == []
    assert wl.check_shard(63, 2, 0, 0)
    assert wl.check_shard(0, 5177, 1915, 1)


def _analysis(name: str) -> tuple[str, dict]:
    import cancelgraph

    text = (ROOT / "fixtures" / f"{name}.graph").read_text()
    out = json.loads(json.dumps(cancelgraph.classify(cancelgraph.parse_graph(text)).to_json_dict()))
    return text, out


def test_analysis_gate_accepts_real_outputs():
    for name in wl.FIXTURES:
        text, out = _analysis(name)
        assert wl.check_analysis(text, out) == [], name


def test_analysis_gate_rejects_tampered_outputs():
    text, out = _analysis("c6")
    assert out["counterexample"] and out["witness_involution"] and out["strongly_witness"]

    def problems(edit):
        bad = copy.deepcopy(out)
        edit(bad)
        return wl.check_analysis(text, bad)

    def not_anti(o):
        o["counterexample"]["alpha"] = [1, 0, 2, 3, 4, 5]

    def wrong_edges(o):
        o["counterexample"]["g_alpha_edges"][0] = [0, 1]

    def isomorphic_mate(o):  # the identity is an anti-automorphism with G^id = G
        o["counterexample"] = {"alpha": list(range(6)),
                               "g_alpha_edges": [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]]}

    def still_witness(o):
        o["strongly_witness"] = list(range(6))

    def not_involution(o):
        o["witness_involution"] = [1, 2, 3, 4, 5, 0]

    def not_automorphism(o):
        o["witness_involution"] = [1, 0, 2, 3, 4, 5]

    assert any("not an anti-automorphism" in p for p in problems(not_anti))
    assert any("g_alpha_edges" in p for p in problems(wrong_edges))
    assert any("isomorphic to G" in p for p in problems(isomorphic_mate))
    assert any("does not move G" in p for p in problems(still_witness))
    assert any("not an involution" in p for p in problems(not_involution))
    assert any("not an automorphism" in p for p in problems(not_automorphism))


def test_default_seed_outputs_are_compared_with_the_recorded_ones():
    import cancelgraph

    items = wl.analyze_stream(wl.DEFAULT_SEED, ROOT)[:40]
    _ops, outputs = worker.measure_analyze_mix(cancelgraph, wl.DEFAULT_SEED, items, None,
                                               worker.Calibration(enabled=False))
    assert worker.judge_analyze_mix(wl.DEFAULT_SEED, items, outputs)["failed"] == 0
    tampered = list(outputs)
    # same JSON value, different text: only the recorded output can catch it
    tampered[3] = outputs[3].replace('"n": ', '"n":  ')
    judged = worker.judge_analyze_mix(wl.DEFAULT_SEED, items, tampered)
    assert judged["failed"] == 1
    assert any("recorded output" in p for p in judged["problems"])


def _round(**extra) -> dict:
    base = {"wall_s": 2.0, "ops_s": [0.5, 1.5], "cal_s": [run.CAL_REF_S], "peak_rss_mb": 20.0,
            "setup_s": 0.05,
            "attempted": 2, "failed": 0, "problems": [], "cache": {"hits": 3, "misses": 1},
            "suite_seconds": {"main": 1.0}}
    base.update(extra)
    return base


def test_every_metric_of_the_spec_is_computed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # the second round ran at half the reference speed: its quanta took twice as long
    slow = _round(wall_s=2.0, ops_s=[0.4, 1.6], cal_s=[run.CAL_REF_S * 1.5, run.CAL_REF_S * 2.5])
    e2e = run.end_to_end([_round(), slow], [0.05, 0.06, 0.04])
    assert {m["name"] for m in spec["end_to_end"]} <= e2e.keys()
    # per operation, the median of (0.5, 0.4 / 2) and of (1.5, 1.6 / 2)
    assert abs(e2e["wall_scaled_s"] - (0.35 + 1.15)) < 1e-12
    assert abs(e2e["op_p50_scaled_ms"] - 750.0) < 1e-9
    assert abs(e2e["wall_raw_s"] - (0.45 + 1.55)) < 1e-12
    assert abs(e2e["quantum_ms"] - 1000 * run.CAL_REF_S * 1.5) < 1e-12
    assert e2e["setup_s"] == 0.05
    trace = {"spans": [{"name": "bench", "parent": None, "count": 1, "total_s": 2.9, "self_s": 0.4},
                       {"name": "iso.canon_rows", "parent": "bench", "count": 5,
                        "total_s": 2.5, "self_s": 2.5}],
             "calls": {"iso.canon_rows": 5}, "items": {},
             "routes": {"involution": 1, "bipartite": 0, "full": 2}, "bipartitions": [4, 1]}
    layer = run.per_layer(_round(), _round(wall_s=3.0, trace=trace))
    assert {m["name"] for m in spec["per_layer"]} <= layer.keys()
    assert layer["iso.canon_rows.calls"] == 5
    assert layer["trace.overhead_s"] == 1.0
    assert abs(layer["trace.unattributed_s"] - 0.1) < 1e-12
    assert layer["iso.canonical_cache.hit_ratio"] == 0.75
    assert layer["product.bipartition.bipartite_ratio"] == 0.25


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analyze-mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_quanta_taken_alongside_an_operation_are_not_its_time():
    cal = worker.Calibration(enabled=True)
    t0 = time.perf_counter()

    def busy():
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
        return "done"

    result, secs = cal.alongside(busy)
    wall = time.perf_counter() - t0
    assert result == "done"
    assert cal.times, "the second thread took no quantum"
    assert 0 < secs and secs + cal.total() <= wall
    assert sys.getswitchinterval() != worker.CAL_SWITCH_S


def test_disabled_calibration_takes_no_quantum():
    cal = worker.Calibration(enabled=False)
    cal.due = 0.0
    cal.between()
    assert cal.alongside(lambda: 7)[0] == 7
    assert cal.times == []
