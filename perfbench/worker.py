"""One measured pass of one workload, in a fresh process.

Usage: python3 worker.py '<spec json>' <run|setup> <trace 0|1> <spawn time>

``spawn time`` is the parent's ``time.monotonic()`` just before it started
this process; set-up time runs from then to the first timed operation.
``setup`` mode stops there.  The last line of standard output is a JSON
record of the pass.  A traced pass also writes its spans to the path in
the spec's ``trace_out``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402


def main(spec: dict, mode: str, traced: bool, spawned: float) -> dict:
    inputs = workloads.setup(spec)
    setup_s = time.monotonic() - spawned
    if mode == "setup":
        return {"setup_s": setup_s}

    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        records, lines = workloads.run(spec, inputs, tracer.site if tracer else None)
    finally:
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        if tracer:
            tracer.restore()
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": len(records),
        "failed": [{"op": r["op"], "known": r["known"], "why": r["why"]} for r in records if not r["ok"]],
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "make_corpus_s": inputs.get("make_corpus_s", 0.0),
    }
    if tracer:
        out["layers"] = tracer.layer_metrics(records)
        times = sorted(r["s"] for r in records)
        tracer.dump(
            Path(spec["trace_out"]),
            {"workload": spec, "ops": {r["op"]: r["s"] for r in records}, "op_s_p50": times[len(times) // 2], "op_s_p90": times[int(len(times) * 0.9)]},
        )
    return out


if __name__ == "__main__":
    spec_arg, mode_arg, trace_arg, spawned_arg = sys.argv[1:5]
    print(json.dumps(main(json.loads(spec_arg), mode_arg, trace_arg == "1", float(spawned_arg))), flush=True)
    # Skip interpreter teardown: freeing a law run's ~500 MB of atoms takes seconds.
    os._exit(0)
