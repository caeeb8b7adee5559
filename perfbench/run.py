"""cancelgraph benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze-mix --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program measured is ``src/cancelgraph``
of that checkout. Each round of work runs in a fresh Python process
(worker.py) with jobs=1. With ``--trace 0`` the run gives each round a
fixed share of ``--seconds`` (ROUND_SECONDS) and reports the end-to-end
metrics of BENCHMARK.json, its timings scaled to a reference machine speed
by calibration quanta timed during each round (end_to_end); with
``--trace 1`` it runs one plain and one traced round and reports the
per-layer metrics. The last line of standard output is the JSON result; a
readable summary goes to standard error and the full record, with every
per-round value and the run's metadata, to ``perfbench/out/``. The exit code is 0 only when every output
was correct.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 21
TIME_LIMIT_S = 170.0
# A calibration quantum's mean time on the 2-core reference machine at the
# commit that defined the benchmark (worker.quantum). Scaled timings are
# seconds at the speed at which a quantum takes this long.
CAL_REF_S = 0.0045
# Seconds of a run given to one round. A run makes ceil(seconds /
# ROUND_SECONDS) rounds, so its work is fixed and equal on every commit
# measured. On the 2-core reference machine at the commit that defined the
# benchmark a round took 20-30 s (verify-loops5, which cannot be split),
# 16-22 s (sweep-n7) and 18-22 s (analyze-mix).
ROUND_SECONDS = {"verify-loops5": 40.0, "sweep-n7": 20.0, "analyze-mix": 20.0}

# boundary span -> the per-layer figures recorded for it
BOUNDARIES = {
    "graphs.iter_adj_rows": ("items", "self_s"),
    "graphs.Graph": ("count", "self_s"),
    "graphs.component_masks": ("calls", "self_s"),
    "iso.canon_rows": ("calls", "self_s"),
    "iso.canon_connected": ("calls", "self_s"),
    "iso.cert_bytes": ("calls", "self_s"),
    "iso.compact_rows": ("calls", "self_s"),
    "iso.iter_automorphism_images": ("items", "self_s"),
    "iso.involution_witness": ("calls", "self_s"),
    "antiauto.iter_ant_images": ("calls", "items", "self_s"),
    "antiauto.apply_anti_rows": ("calls", "self_s"),
    "antiauto.enumerate_ant": ("calls", "self_s"),
    "antiauto.tf_generators": ("calls", "self_s"),
    "antiauto.ant_orbits": ("calls", "self_s"),
    "antiauto.enumerate_aut_tf": ("calls", "self_s"),
    "decide.classify": ("calls", "self_s"),
    "decide.is_neighborhood_reconstructible": ("calls", "self_s"),
    "decide.bip_decide": ("calls", "self_s"),
    "product.bipartition": ("calls", "self_s"),
    "product.direct_product": ("calls", "self_s"),
    "oracle.universe_build": ("calls", "self_s"),
    "fileformat.parse_graph": ("calls", "self_s"),
}

# Boundaries the profiles show running on each workload: zero calls there
# means a wrapper missed a namespace (or the program stopped calling it).
EXPECTED = {
    "verify-loops5": ("graphs.iter_adj_rows", "graphs.Graph", "iso.canon_rows",
                      "antiauto.iter_ant_images", "antiauto.tf_generators",
                      "product.bipartition", "product.direct_product",
                      "oracle.universe_build", "decide.bip_decide"),
    "sweep-n7": ("graphs.iter_adj_rows", "graphs.Graph", "graphs.component_masks",
                 "iso.canon_rows", "iso.canon_connected", "product.bipartition",
                 "decide.bip_decide", "antiauto.iter_ant_images"),
    "analyze-mix": ("fileformat.parse_graph", "decide.classify",
                    "decide.is_neighborhood_reconstructible", "iso.involution_witness",
                    "antiauto.enumerate_ant", "antiauto.ant_orbits", "iso.canon_rows",
                    "product.bipartition"),
}


class RoundError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundError("time limit reached before the round could start")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundError(f"worker {args} exceeded the time limit")
    if proc.returncode != 0:
        raise RoundError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def scaled(round_: dict) -> list[float]:
    """The round's operation times at the reference speed: each times
    CAL_REF_S over the round's mean quantum time."""
    factor = CAL_REF_S / statistics.fmean(round_["cal_s"])
    return [secs * factor for secs in round_["ops_s"]]


def end_to_end(rounds: list[dict], setup: list[float]) -> dict:
    """Every round of a run repeats the same operations on the same inputs.
    An operation's time is the median of its repeats, each first scaled to
    the reference speed by the quanta of its own round (worker.py), so a
    round that met a slow minute of the shared machine counts at the same
    speed as one that met a fast minute. The wall is the sum of these per
    operation times. The raw figures, unscaled, are in the record and the
    summary. Set-up time is the median of the run's imports, unscaled."""
    def per_op(times):
        return [statistics.median(repeats) for repeats in zip(*times)]

    values = {}
    for tag, ops in (("scaled", per_op(scaled(r) for r in rounds)),
                     ("raw", per_op(r["ops_s"] for r in rounds))):
        ops_ms = [secs * 1000 for secs in ops]
        values.update({
            f"wall_{tag}_s": math.fsum(ops),
            f"op_p50_{tag}_ms": statistics.median(ops_ms),
            f"op_p90_{tag}_ms": percentile(ops_ms, 90),
            f"op_p95_{tag}_ms": percentile(ops_ms, 95),
            f"op_p99_{tag}_ms": percentile(ops_ms, 99),
        })
    values["quantum_ms"] = 1000 * statistics.median(
        statistics.fmean(r["cal_s"]) for r in rounds)
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in rounds)
    return values


def per_layer(plain: dict, traced: dict) -> dict:
    trace = traced["trace"]
    self_s: dict[str, float] = {}
    for span in trace["spans"]:
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + span["self_s"]
    out = {}
    for name, kinds in BOUNDARIES.items():
        for kind in kinds:
            if kind == "self_s":
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
            elif kind == "items":
                out[f"{name}.items"] = trace["items"].get(name, 0)
            else:
                out[f"{name}.{kind}"] = trace["calls"].get(name, 0)
    hits, misses = plain["cache"]["hits"], plain["cache"]["misses"]
    out["iso.canonical_cache.hits"] = hits
    out["iso.canonical_cache.misses"] = misses
    out["iso.canonical_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for route, count in trace["routes"].items():
        out[f"decide.route.{route}"] = count
    calls, bipartite = trace["bipartitions"]
    out["product.bipartition.bipartite_ratio"] = bipartite / calls if calls else 0.0
    for suite, secs in plain.get("suite_seconds", {}).items():
        out[f"oracle.suite.{suite}_s"] = secs
    out["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    out["trace.unattributed_s"] = traced["wall_s"] - sum(self_s.values())
    return out


def trace_flags(workload: str, plain: dict, traced: dict) -> list[str]:
    """Counts that must agree between the plain and the traced round, and
    boundaries that should have run but recorded no call."""
    flags = []
    for key in ("attempted", "cache"):
        if plain[key] != traced[key]:
            flags.append(f"{key} differs between plain and traced rounds: "
                         f"{plain[key]} != {traced[key]}")
    calls = traced["trace"]["calls"]
    flags.extend(f"boundary {name} recorded 0 calls" for name in EXPECTED[workload]
                 if not calls.get(name))
    return flags


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metadata(args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": 1,
        "started_unix": time.time(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cancelgraph" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'cancelgraph'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIME_LIMIT_S
    round_args = ["--workload", args.workload, "--seed", str(args.seed)]
    record = {"meta": metadata(args)}
    try:
        if args.trace:
            rounds = [spawn(round_args, deadline)]
            traced = spawn(round_args + ["--traced"], deadline)
        else:
            traced = None
            count = math.ceil(args.seconds / ROUND_SECONDS[args.workload])
            rounds = [spawn(round_args, deadline) for _ in range(count)]
        setup = [r["setup_s"] for r in rounds]
        while len(setup) < SETUP_SAMPLES:
            setup.append(spawn(["--probe"], deadline)["setup_s"])
    except RoundError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    measured = rounds + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    problems = [p for r in measured for p in r["problems"]]
    if args.trace:
        values = per_layer(rounds[0], traced)
        names = spec["per_layer"]
        record["flags"] = trace_flags(args.workload, rounds[0], traced)
    else:
        values = end_to_end(rounds, setup)
        names = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}

    record.update(rounds=rounds, traced=traced, setup_s=setup, values=values,
                  attempted=attempted, failed=failed, problems=problems,
                  op_samples=len(rounds[0]["ops_s"]))
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))

    err = sys.stderr
    print(f"{args.workload} seed={args.seed} rounds={len(rounds)} "
          f"operations per round={record['op_samples']} setup samples={len(setup)}", file=err)
    units = {m["name"]: m["unit"] for m in names}
    for key, value in values.items():  # also the figures the result line leaves out
        unit = units.get(key) or ("s" if key.endswith("_s") else "ms" if key.endswith("_ms") else "")
        print(f"  {key:48s} {value:.6g} {unit}", file=err)
    print(f"  error rate {failed}/{attempted} operations", file=err)
    for line in problems[:20] + record.get("flags", []):
        print(f"  ! {line}", file=err)
    print(f"  record: {OUT_DIR / name}", file=err)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
