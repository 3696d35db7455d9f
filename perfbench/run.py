"""The cohdiff benchmark: end-to-end metrics per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload laws-nucs --seed 7 --seconds 15 --trace 0

Run from the repository root.  Every pass of a workload runs in a fresh
process (module-level caches would otherwise carry over between passes),
one at a time, single-threaded.  A run makes whole passes until the next
one would end after ``--seconds``, and always at least one.

``--trace 0`` reports the end-to-end metrics, the median over passes:

* ``setup_s``: process start to the first timed operation (importing
  cohdiff and building the inputs), the median over the passes and
  ``SETUP_PROBES`` extra set-up-only processes;
* ``wall_s``: first verdict requested to the last;
* ``peak_rss_mb``: peak resident set of the measuring process;
* ``passed_share``: operations that passed over all operations.  Its
  complement ``failed_share`` is printed beside ``ops``; known failures
  (``known_failures.json``) stay counted.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of ``spans.Tracer.layer_metrics`` plus ``trace.overhead_s``
(traced minus untraced ``wall_s``) and ``process.cpu_s``.  Spans go to
``perfbench/results/``.

A run is correct when every pass produced the same output digest, the
digest matches earlier runs of the same source and seed, and every failed
operation is a known failure.  Each run appends its provenance and raw
values to ``perfbench/results/runs.jsonl``.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_PROBES = 6
HASH_SEED = "0"
RUN_LIMIT_S = 170  # a run must exit within 180 s


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def worker(spec: dict, mode: str, traced: bool, deadline: float, hash_seed: str = HASH_SEED) -> dict:
    """Run worker.py once in a fresh process and return its record."""
    env = {**os.environ, "PYTHONHASHSEED": hash_seed}
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec), mode, "1" if traced else "0", repr(spawned)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=max(1.0, deadline - spawned),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["process_s"] = time.monotonic() - spawned
    return rec


def summary(values: list) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2], "raw": values}


def check_digest(key: str, digest: str) -> bool:
    """True unless an earlier run of the same source and seed got another digest."""
    path = RESULTS / "digests.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    path.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    return True


def measure(spec: dict, seconds: float, traced: bool, deadline: float):
    """Returns (passes, setup times, traced pass or None)."""
    if traced:
        passes = [worker(spec, "run", False, deadline)]
        return passes, [p["setup_s"] for p in passes], worker(spec, "run", True, deadline)
    # half the set-up probes before the passes and half after, so that a
    # slow spell of the machine does not fall on all of them
    setups = [worker(spec, "setup", False, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
    passes = []
    start = time.monotonic()
    while True:
        passes.append(worker(spec, "run", False, deadline))
        last = passes[-1]["process_s"]
        now = time.monotonic()
        if now - start + last > seconds or now + last > deadline:
            break
    setups += [worker(spec, "setup", False, deadline)["setup_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    return passes, setups + [p["setup_s"] for p in passes], None


def main(argv=None, sizes=None) -> int:
    """Run the benchmark; ``sizes`` overrides workload parameters (the self-test shrinks them)."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: 7 for the laws, 0 for the corpus)")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    missing = [p for p in ("src/cohdiff/__init__.py", "demos") if not (ROOT / p).exists()]
    if missing:
        print(f"cannot benchmark: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2

    spec = dict(WORKLOADS[args.workload], name=args.workload, **(sizes or {}))
    if args.seed is not None:
        spec["seed"] = args.seed
    spec_sha = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    spec["trace_out"] = str(RESULTS / f"trace-{args.workload}-s{spec['seed']}-{stamp}.json")
    src = source_digest()

    passes, setups, traced = measure(spec, args.seconds, bool(args.trace), deadline)
    every = passes + ([traced] if traced else [])
    first = passes[0]
    ops, failed = first["ops"], first["failed"]
    unknown = [f for f in failed if not f["known"]]
    same = all(p["digest"] == first["digest"] and p["failed"] == failed for p in every)
    key = f"{src}:{spec_sha}"
    correct = same and not unknown and check_digest(key, first["digest"])

    wall = summary([p["wall_s"] for p in passes])
    rss = summary([p["peak_rss_mb"] for p in passes])
    setup = summary(setups)
    if traced:
        metrics = dict(traced["layers"])
        metrics["corpus.make_corpus.total_s"] = (traced["make_corpus_s"], "s")
        metrics["trace.overhead_s"] = (traced["wall_s"] - wall["median"], "s")
        metrics["process.cpu_s"] = (statistics.median(p["cpu_s"] for p in passes), "s")
    else:
        metrics = {
            "setup_s": (setup["median"], "s"),
            "wall_s": (wall["median"], "s"),
            "peak_rss_mb": (rss["median"], "MB"),
            "passed_share": ((ops - len(failed)) / ops, "ratio"),
        }

    record = {
        "workload": args.workload,
        "spec": spec,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "source_sha256": src,
        "spec_sha256": spec_sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "hash_seed": HASH_SEED,
        "workload_seed": spec["seed"],
        "passes": len(passes),
        "setup_s": setup,
        "wall_s": wall,
        "peak_rss_mb": rss,
        "cpu_s": summary([p["cpu_s"] for p in passes]),
        "ops": ops,
        "failed": failed,
        "digest": first["digest"],
        "correct": correct,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload {args.workload} seed {spec['seed']}: {len(passes)} pass(es), digest {first['digest'][:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_share = {len(failed) / ops:.6g} ratio (failed {len(failed)} of ops {ops})")
    for f in failed:
        print(f"  {'known' if f['known'] else 'NEW'} failure {f['op']}: {f['why']}")
    if not same:
        print("  passes disagree on their outputs")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ops,
                "failed": len(failed),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
