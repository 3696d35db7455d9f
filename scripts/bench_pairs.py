"""Pair the benchmark runs of two checkouts and summarise them as a BENCH file.

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --out BENCH_6.json

Each root is a checkout in which ``perfbench/run.py --trace 0`` was run;
its runs are read from ``perfbench/results/runs.jsonl``.  Only runs of
the source of the last untraced run there count (``source_sha256``).
The k-th such run of a workload and seed on one side is paired with the
k-th on the other, so run the two sides alternately.  For every workload
seed and end-to-end metric of ``BENCHMARK.json``, the output holds both
sides' raw values, medians and quartiles, the relative change of the
median, how many pairs each side won, and whether the gain rule holds:
the change wins at least 9 of every 10 pairs (ties count for neither
side) and its median is better than the parent's by more than the
parent's interquartile range.  It also holds ``regression``, the
no-regression rule: ``worse`` when the change's median is worse than
the parent's by more than the metric's ``bound`` (a fraction of the
parent's median), ``unresolved`` when the parent's IQR/median exceeds
the bound and not every change run beats every parent run, and
``none`` otherwise.  Workloads are keyed ``name/seed<seed>``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(root: Path) -> tuple[str, dict]:
    """The source digest of root's last untraced run, and (workload, seed) -> its runs."""
    with open(root / "perfbench" / "results" / "runs.jsonl") as fh:
        records = [r for r in map(json.loads, fh) if r["trace"] == 0]
    src = records[-1]["source_sha256"]
    runs: dict = {}
    for r in records:
        if r["source_sha256"] == src:
            runs.setdefault((r["workload"], r["workload_seed"]), []).append(r)
    return src, runs


def summary(values: list) -> dict:
    """As perfbench/run.py summarises a run's passes."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2], "raw": values}


def compare(parent: list, change: list, metric: dict) -> dict:
    a = [r["metrics"][metric["name"]] for r in parent]
    b = [r["metrics"][metric["name"]] for r in change]
    sign = 1 if metric["better"] == "lower" else -1
    won = {"parent": 0, "change": 0, "tie": 0}
    for x, y in zip(a, b):
        won["tie" if x == y else "change" if sign * (y - x) < 0 else "parent"] += 1
    pa, ch = summary(a), summary(b)
    gain = sign * (pa["median"] - ch["median"])
    median_change = (ch["median"] - pa["median"]) / pa["median"]
    every_run_beats = all(sign * (y - x) < 0 for x in a for y in b)
    if sign * median_change > metric["bound"]:
        regression = "worse"
    elif (pa["q3"] - pa["q1"]) / pa["median"] > metric["bound"] and not every_run_beats:
        regression = "unresolved"
    else:
        regression = "none"
    return {
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": pa,
        "change": ch,
        "median_change": median_change,
        "pairs_won": won,
        "gain_holds": 10 * won["change"] >= 9 * len(a) and gain > pa["q3"] - pa["q1"],
        "regression": regression,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent checkout")
    ap.add_argument("change", type=Path, help="root of the changed checkout")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_src, parent = load_runs(args.parent)
    change_src, change = load_runs(args.change)
    workloads = {}
    for name, seed in sorted(parent.keys() & change.keys()):
        p, c = parent[name, seed], change[name, seed]
        n = min(len(p), len(c))
        workloads[f"{name}/seed{seed}"] = {
            "workload": name,
            "seed": seed,
            "pairs": n,
            "correct": {"parent": all(r["correct"] for r in p[:n]), "change": all(r["correct"] for r in c[:n])},
            "metrics": {m["name"]: compare(p[:n], c[:n], m) for m in metrics},
        }
    host = next(iter(change.values()))[0]
    out = {
        "parent_source_sha256": parent_src,
        "change_source_sha256": change_src,
        "host": {k: host[k] for k in ("python", "nproc", "cpus_usable", "seconds", "hash_seed")},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for name, w in workloads.items():
        for m, v in w["metrics"].items():
            print(
                f"{name} {m}: median {v['parent']['median']:.4g} -> {v['change']['median']:.4g}"
                f" ({v['median_change']:+.1%}), pairs won {v['pairs_won']}, gain holds: {v['gain_holds']},"
                f" regression: {v['regression']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
