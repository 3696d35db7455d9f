"""Run the NUCS law registry for seeds 7-12 in one process; print time and peak RSS per seed.

    python3 scripts/rss_over_seeds.py [ROOT]

Each seed runs every law of ``lawcheck.REGISTRY`` on NUCS with 100
trials at budget 3, as the laws-nucs benchmark workload does.  ROOT is
the checkout whose ``src/`` is imported (default: this one), so two
checkouts can be compared.  Every seed runs in the same process, so a
peak RSS or an intern table that grows from seed to seed shows memory
that outlives a run: a law check empties its own memos when it returns,
and only the bounded cache of ``!`` webs (``spaces._enumerate_cached``,
4096 webs) is meant to carry over.  Each line gives the seed, the wall
time of its run, the process's peak RSS after it, the live entries of
the intern table, and the laws that passed.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

SEEDS = range(7, 13)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("root", type=Path, nargs="?", default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from cohdiff import lawcheck, web_core

    for seed in SEEDS:
        t0 = time.perf_counter()
        results = lawcheck.run_all(kinds=("nucs",), seed=seed, trials=100, budget=web_core.Budget(3))
        wall = time.perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passed = sum(r.ok for r in results)
        print(
            f"seed {seed}: wall {wall:.2f} s, peak RSS {rss:.1f} MB,"
            f" table {len(web_core._TABLE)}, passed {passed}/{len(results)}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
