"""Count the Python-level calls of one benchmark pass.

    PYTHONHASHSEED=0 python3 scripts/py_calls.py [ROOT] --workload laws-b4

ROOT is the checkout to measure (default: this one).  Its
``perfbench/workloads.py`` is loaded by path, with ``ROOT/src`` first on
``sys.path``.  The workload's inputs are built first, unprofiled; then
one pass runs under ``sys.setprofile`` and the script prints the number
of ``call`` events it saw (Python frames entered; C functions are not
counted), with the pass's failed operations and output digest.  Atoms
hash by identity, so set order, and with it the count, still varies with
memory addresses: by under 0.02% between runs of one source under one
hash seed on the laws workloads.  That is far below wall time's spread
on a shared host, so two checkouts can be compared by it.  Counting
slows the pass about twofold.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
from pathlib import Path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("root", type=Path, nargs="?", default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path.insert(0, str(root / "src"))
    loader = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)

    spec = dict(workloads.WORKLOADS[args.workload], name=args.workload)
    inputs = workloads.setup(spec)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        records, lines = workloads.run(spec, inputs)
    finally:
        sys.setprofile(None)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    failed = sum(not r["ok"] for r in records)
    print(f"{args.workload} seed {spec['seed']}: {calls} calls, {len(records)} ops, {failed} failed, digest {digest[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
