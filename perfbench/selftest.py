"""Fast self-test of the benchmark, at tiny workload sizes.

    python3 perfbench/selftest.py

Checks, for every workload, that an untraced and a traced run each emit
exactly the metrics ``BENCHMARK.json`` names, with their units, and a
correct result; that the output digest does not depend on the hash seed;
and that the tracer restores every attribute it rebinds.  Exits 0 when all
checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"laws-nucs": {"trials": 1}, "laws-b4": {"trials": 1}, "corpus": {"terms": 20}}


def check_metrics(workload: str, trace: int, declared: dict) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)], TINY[workload])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    errors = []
    if code != 0 or set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
        errors.append(f"{workload} trace={trace}: exit {code}, result {result}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        errors.append(f"{workload} trace={trace}: metrics {sorted(got.items())} != declared {sorted(declared.items())}")
    return errors


def check_hash_seed(workload: str) -> list:
    spec = dict(WORKLOADS[workload], name=workload, **TINY[workload])
    deadline = time.monotonic() + run.RUN_LIMIT_S
    digests = {h: run.worker(spec, "run", False, deadline, hash_seed=h)["digest"] for h in ("1", "2")}
    return [] if len(set(digests.values())) == 1 else [f"{workload}: digest depends on the hash seed: {digests}"]


def check_restore() -> list:
    import cohdiff.cli  # noqa: F401  (imports every cohdiff module)
    from spans import Tracer

    def snapshot():
        owners = [m for n, m in sys.modules.items() if n == "cohdiff" or n.startswith("cohdiff.")]
        owners += [sys.modules["cohdiff.web_core"].Multiset, sys.modules["cohdiff.maps"].PointMap]
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    during = snapshot()
    tracer.restore()
    after = snapshot()
    rebound = [k for k in before if during[k] is not before[k]]
    changed = [k for k in before if after[k] is not before[k]]
    errors = []
    if not rebound:
        errors.append("install rebound nothing")
    if changed or set(after) != set(before):
        errors.append(f"restore left {len(changed)} attributes rebound")
    return errors


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {t: {m["name"]: m["unit"] for m in bench[key]} for t, key in ((0, "end_to_end"), (1, "per_layer"))}
    errors = check_restore()
    for w in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            errors += check_metrics(w, trace, declared[trace])
        errors += check_hash_seed(w)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
