"""scripts/bench_pairs.py on synthetic runs: one entry per workload and seed, the gain rule and the no-regression rule."""

import importlib.util
import json
import os

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench_pairs.py")

spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = ("setup_s", "wall_s", "peak_rss_mb", "passed_share")


def write_runs(root, src, walls):
    """One untraced corpus run per (seed, wall_s) in walls, all of source src."""
    results = root / "perfbench" / "results"
    results.mkdir(parents=True)
    with open(results / "runs.jsonl", "w") as fh:
        for seed, wall in walls:
            metrics = dict.fromkeys(METRICS, 1.0) | {"wall_s": wall}
            record = {
                "workload": "corpus", "workload_seed": seed, "trace": 0, "source_sha256": src,
                "correct": True, "metrics": metrics, "python": "3", "nproc": 2, "cpus_usable": 2,
                "seconds": 15, "hash_seed": "0",
            }
            fh.write(json.dumps(record) + "\n")


def pair(tmp_path, parent_walls, change_walls):
    write_runs(tmp_path / "parent", "p", parent_walls)
    write_runs(tmp_path / "change", "c", change_walls)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--out", str(out)]) == 0
    return json.loads(out.read_text())["workloads"]


def test_each_seed_of_a_workload_is_kept(tmp_path):
    walls = [(0, 3.0), (1, 5.0), (0, 3.1), (1, 5.1)]
    got = pair(tmp_path, walls, [(s, w - 1) for s, w in walls])
    assert sorted(got) == ["corpus/seed0", "corpus/seed1"]
    assert got["corpus/seed0"]["metrics"]["wall_s"]["parent"]["raw"] == [3.0, 3.1]
    assert got["corpus/seed1"]["metrics"]["wall_s"]["change"]["raw"] == [4.0, 4.1]


def test_gain_needs_nine_in_ten_pairs_and_a_shift_beyond_the_parent_iqr(tmp_path):
    parent = [3.0 + 0.01 * k for k in range(10)]
    faster = [w - 1 for w in parent]
    one_loss = faster[:9] + [parent[9] + 1]
    two_losses = faster[:8] + [w + 1 for w in parent[8:]]
    within_iqr = [w - 0.001 for w in parent]
    for k, (change, holds) in enumerate(
        [(faster, True), (one_loss, True), (two_losses, False), (within_iqr, False)]
    ):
        got = pair(tmp_path / str(k), [(0, w) for w in parent], [(0, w) for w in change])
        assert got["corpus/seed0"]["metrics"]["wall_s"]["gain_holds"] is holds, k
        # a metric the change leaves equal wins no pair
        assert got["corpus/seed0"]["metrics"]["setup_s"]["gain_holds"] is False


def test_no_regression_rule_follows_the_metric_bound(tmp_path):
    parent = [3.0 + 0.01 * k for k in range(10)]
    wide = [2.0, 4.0] * 5  # IQR/median 0.67, beyond wall_s's bound 0.25
    cases = [
        (parent, [w * 1.3 for w in parent], "worse"),
        (parent, [w * 1.05 for w in parent], "none"),
        (parent, [w * 0.9 for w in parent], "none"),
        (wide, list(wide), "unresolved"),
        (wide, [1.9] * 10, "none"),  # every change run beats every parent run
    ]
    for k, (p, c, want) in enumerate(cases):
        got = pair(tmp_path / str(k), [(0, w) for w in p], [(0, w) for w in c])
        metrics = got["corpus/seed0"]["metrics"]
        assert metrics["wall_s"]["regression"] == want, k
        assert metrics["setup_s"]["regression"] == "none"
