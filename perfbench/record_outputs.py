"""Record the analyze-mix outputs of the default seed as digests.

    python3 perfbench/record_outputs.py

Writes data/analyze_mix_seed1.json, which the correctness gate compares
every later run of the default seed against. Run it only at a commit whose
outputs are the reference.
"""
from __future__ import annotations

import json
from contextlib import nullcontext

import workloads as wl
import worker


def main() -> None:
    cg, _ = worker.import_program()
    items = wl.analyze_stream(wl.DEFAULT_SEED, worker.ROOT)
    _ops, outputs = worker.measure_analyze_mix(cg, wl.DEFAULT_SEED, items, lambda _: nullcontext(),
                                               worker.Calibration(enabled=False))
    wl.DIGEST_FILE.parent.mkdir(exist_ok=True)
    wl.DIGEST_FILE.write_text(json.dumps({
        "seed": wl.DEFAULT_SEED,
        "items": len(items),
        "digest": "first 16 hex digits of sha256 over each item's analyze JSON (indent=2)",
        "digests": [wl.output_digest(out) for out in outputs],
    }, indent=0) + "\n")


if __name__ == "__main__":
    main()
