"""Show what each run cache holds after one benchmark pass, and what it pins.

    python3 scripts/cache_memory.py [ROOT] --workload corpus

ROOT is the checkout to measure (default: this one), loaded as
``scripts/py_calls.py`` loads it.  ``tracemalloc`` starts before the
workload's inputs are built; then one pass runs.  For every
``web_core.run_cache`` and for ``spaces._enumerate_cached`` the script
prints:

* ``hits`` and ``misses``: summed over every ``end_run`` of the pass (the
  laws workloads call it twice per law check; the corpus never does) and
  what the cache counts when the pass ends;
* ``entries``: what the cache holds when the pass ends;
* ``freed_kb``: the traced memory that clearing that cache alone frees,
  after ``gc.collect()``.  Each cache is cleared in a forked child of the
  process that ran the pass, so every figure is taken against the same
  heap.  What a child that clears nothing reports (its own allocations,
  under 1 KB) is subtracted.

The first line gives the traced heap after the pass and what ``end_run``
(every run cache at once) frees.  Rows come largest ``freed_kb`` first.
Run it with ``PYTHONHASHSEED=0``, as the benchmark does.  Tracing slows the
pass about threefold.  Linux only (``os.fork``).  If the output is piped
into a reader that stops early, the script stops writing and exits 0.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import struct
import sys
import tracemalloc
from pathlib import Path


def _freed_by(clear) -> int:
    """Traced bytes that ``clear()`` frees, measured in a forked child; the heap here is untouched."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child clears, measures, reports and exits without cleanup
        os.close(r)
        clear()
        gc.collect()
        os.write(w, struct.pack("q", before - tracemalloc.get_traced_memory()[0]))
        os._exit(0)
    os.close(w)
    data = os.read(r, 8)
    os.close(r)
    os.waitpid(pid, 0)
    return struct.unpack("q", data)[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("root", type=Path, nargs="?", default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--workload", required=True)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    tracemalloc.start()
    sys.path.insert(0, str(root / "src"))
    loader = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    # differential imports every module that makes a run cache (the corpus pass imports it through cli)
    importlib.import_module("cohdiff.differential")
    from cohdiff import spaces, web_core

    caches = {f"{c.__module__.removeprefix('cohdiff.')}.{c.__qualname__}": c for c in web_core._RUN_CACHES}
    caches["spaces._enumerate_cached"] = spaces._enumerate_cached
    counts = dict.fromkeys(caches, (0, 0))
    clears = {name: cached.cache_clear for name, cached in caches.items()}  # the children call these

    def counting_clear(name, cached, clear):
        def cache_clear():
            info = cached.cache_info()
            hits, misses = counts[name]
            counts[name] = (hits + info.hits, misses + info.misses)
            clear()

        return cache_clear

    for name, cached in caches.items():
        # end_run calls cached.cache_clear(); an instance attribute comes before the method
        cached.cache_clear = counting_clear(name, cached, cached.cache_clear)

    spec = dict(workloads.WORKLOADS[args.workload], name=args.workload)
    inputs = workloads.setup(spec)
    workloads.run(spec, inputs)
    if len(web_core._RUN_CACHES) + 1 != len(caches):
        raise SystemExit("a run cache was made after the counters were set up")

    rows, noise = [], _freed_by(lambda: None)
    for name, cached in caches.items():
        info = cached.cache_info()
        hits, misses = counts[name]
        freed = _freed_by(clears[name]) - noise
        rows.append((freed, name, hits + info.hits, misses + info.misses, info.currsize))
    rows.sort(key=lambda row: (-row[0], row[1]))
    gc.collect()
    heap = tracemalloc.get_traced_memory()[0]
    all_runs = _freed_by(lambda: [clears[name]() for name in caches if name != "spaces._enumerate_cached"]) - noise
    try:
        print(f"{args.workload} seed {spec['seed']}: traced heap {heap / 2**20:.2f} MB after the pass, end_run frees {all_runs / 2**20:.2f} MB")
        print(f"{'cache':40s} {'hits':>9s} {'misses':>9s} {'entries':>8s} {'freed_kb':>9s}")
        for freed, name, hits, misses, entries in rows:
            print(f"{name:40s} {hits:9d} {misses:9d} {entries:8d} {freed / 1024:9.1f}")
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed the pipe (`| head -3`): stop writing, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
