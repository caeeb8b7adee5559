"""One round of one workload in a fresh Python process.

Run by run.py, never by hand: ``worker.py --workload W --seed S [--traced]``
prints one JSON object with the round's timings, counts and problems, and
``worker.py --probe`` only imports cancelgraph and prints the import time.
The program under test is always the cancelgraph under ``src/`` of the
checkout this file sits in.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import sys
import threading
import time
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
clock = time.perf_counter


def import_program():
    """Import cancelgraph from the checkout; (module, seconds taken)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = clock()
    import cancelgraph
    elapsed = clock() - t0
    if not Path(cancelgraph.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"cancelgraph imported from {cancelgraph.__file__}, not {src}")
    return cancelgraph, elapsed


# -- machine speed ------------------------------------------------------------
# The cores are shared, and how fast they run this process drifts by a
# quarter or more within a minute, with the neighbours' load. So a round
# also times a fixed piece of pure-Python work that never touches cancelgraph
# (a quantum) while it runs: one between operations whenever CAL_GAP_S has
# passed since the last, or, for a workload whose one operation cannot be
# split, from a second thread every CAL_GAP_S. run.py scales the round's
# times by its mean quantum time. Quantum time is never part of an
# operation's or of the round's time. Quanta timed before and after the round
# instead of during it did not follow the drift.
CAL_GAP_S = 0.05
QUANTUM_STEPS = 4000
# While the second thread runs a quantum it holds the interpreter lock, and
# the operation waits. A switch interval ten times a quantum keeps the
# operation from taking the lock back half-way through one.
CAL_SWITCH_S = 0.05


def quantum() -> float:
    """Time one quantum: integer bit work, list and dict stores, small
    sorts. It makes no object the garbage collector tracks, and the
    collector is off while it runs, so its time does not depend on how
    much the program has left on the heap."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = clock()
    rows = list(range(1, 33))
    seen: dict = {}
    acc = 0
    for i in range(QUANTUM_STEPS):
        r = rows[i & 31]
        x = ((r << 3) ^ (r >> 2) ^ i) & 0xFFFF
        rows[i & 31] = x | 1
        acc += bin(x).count("1")
        key = (x & 255) << 3 | (i & 7)
        seen[key] = seen.get(key, 0) + 1
        if not i & 127:
            rows.sort()
    elapsed = clock() - t0
    if collecting:
        gc.enable()
    return elapsed


class Calibration:
    """The quantum times of one round. Disabled, it takes none."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.times: list[float] = []
        self.due = clock() + CAL_GAP_S

    def between(self) -> None:
        """Take a quantum if one is due; call between operations."""
        if self.enabled and clock() >= self.due:
            self.times.append(quantum())
            self.due = clock() + CAL_GAP_S

    def alongside(self, fn):
        """Run fn() as one operation, taking quanta from a second thread
        meanwhile; (result, seconds fn ran, without the quanta)."""
        if not self.enabled:
            t0 = clock()
            result = fn()
            return result, clock() - t0
        stop = threading.Event()
        taken: list[tuple[float, float]] = []  # (start, seconds)

        def sample():
            while not stop.wait(CAL_GAP_S):
                start = clock()
                taken.append((start, quantum()))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(CAL_SWITCH_S)
        thread = threading.Thread(target=sample)
        t0 = clock()
        thread.start()
        try:
            result = fn()
            t1 = clock()
        finally:
            stop.set()
            thread.join()
            sys.setswitchinterval(switch)
        # fn cannot run during a quantum, so one begun before t1 ended before it
        during = [secs for start, secs in taken if start < t1]
        self.times.extend(during)
        return result, t1 - t0 - math.fsum(during)

    def total(self) -> float:
        return math.fsum(self.times)


# Each workload is a measure step, which is the timed section and returns
# (per-operation seconds, outputs), and a judge step, run after the clock
# stops, which returns the round's result fields. A measure step calls
# cal.between() between operations, or runs its one operation through
# cal.alongside().


def measure_verify_loops5(cg, seed, items, span, cal):
    # exhaustive: the seed changes nothing
    report, secs = cal.alongside(lambda: cg.verify_theorems(5, True, bip_max=6, jobs=1))
    return [secs], report.to_json_dict()


def judge_verify_loops5(seed, items, data):
    attempted, failed, problems = wl.check_verify(data)
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "suite_seconds": data["suite_seconds"]}


def measure_sweep_n7(cg, seed, items, span, cal):
    from cancelgraph import oracle

    ops = []
    results = []
    for shard in wl.sweep_order(seed):
        checked = failures = violations = 0
        for lo, hi in wl.shard_parts(shard):
            with span("oracle.worker_bip_sweep"):
                t0 = clock()
                c, f, _items, v = oracle._worker_bip_sweep((wl.SWEEP_N, lo, hi))
                ops.append(clock() - t0)
            cal.between()
            checked, failures, violations = checked + c, failures + f, violations + v
        results.append((shard, checked, failures, violations))
    return ops, results


def judge_sweep_n7(seed, items, results):
    problems = [wl.check_shard(*result) for result in results]
    return {"attempted": len(results), "failed": sum(map(bool, problems)),
            "problems": [p for found in problems for p in found],
            "shards": [list(r) for r in results]}


def measure_analyze_mix(cg, seed, items, span, cal):
    ops = []
    outputs = []
    for _stratum, text in items:
        t0 = clock()
        try:
            out = json.dumps(cg.classify(cg.parse_graph(text)).to_json_dict(), indent=2)
        except Exception as exc:  # one failed item must not stop the round
            out = exc
        ops.append(clock() - t0)
        outputs.append(out)
        cal.between()
    return ops, outputs


def judge_analyze_mix(seed, items, outputs):
    digests = wl.load_digests() if seed == wl.DEFAULT_SEED else None
    problems = []
    failed = 0
    for i, ((_stratum, text), out) in enumerate(zip(items, outputs)):
        if isinstance(out, Exception):
            found = [f"raised {out!r}"]
        else:
            found = wl.check_analysis(text, json.loads(out))
            if digests is not None and wl.output_digest(out) != digests[i]:
                found.append("output differs from the recorded output")
        if found:
            failed += 1
            problems.extend(f"item {i}: {p}" for p in found)
    return {"attempted": len(items), "failed": failed, "problems": problems,
            "strata": {s: sum(1 for k, _ in items if k == s) for s in ("random", "symmetric")}}


STEPS = {
    "verify-loops5": (measure_verify_loops5, judge_verify_loops5),
    "sweep-n7": (measure_sweep_n7, judge_sweep_n7),
    "analyze-mix": (measure_analyze_mix, judge_analyze_mix),
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    items = wl.analyze_stream(args.seed, ROOT) if args.workload == "analyze-mix" else None
    cg, setup_s = import_program()
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from cancelgraph import iso

    cache = iso._canonical
    tracer = None
    if args.traced:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        span = tracer.span
    else:
        from contextlib import nullcontext

        def span(_name):
            return nullcontext()

    measure, judge = STEPS[args.workload]
    # a traced round is not compared with the plain ones by speed
    cal = Calibration(enabled=tracer is None)
    before = cache.cache_info()
    c0 = time.process_time()
    w0 = clock()
    with span("bench"):
        ops, outputs = measure(cg, args.seed, items, span, cal)
    wall = clock() - w0 - cal.total()
    cpu = time.process_time() - c0 - cal.total()
    after = cache.cache_info()
    result = judge(args.seed, items, outputs)
    result.update(
        ops_s=ops,
        setup_s=setup_s,
        cal_s=cal.times,
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        cache={"hits": after.hits - before.hits, "misses": after.misses - before.misses},
    )
    if tracer is not None:
        result["trace"] = {
            "spans": tracer.records(),
            "calls": tracer.calls,
            "items": tracer.items,
            "routes": tracer.routes,
            "bipartitions": tracer.bipartitions,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
