"""Perf harness report shape and the bench CLI timing output."""

import json
import os

from repro.cli import main
from repro.perf import (
    current_revision,
    default_report_path,
    format_report,
    run_perf_suite,
    write_report,
)
from repro.sim.config import TINY_CONFIG

SUITE_KWARGS = dict(quick=True, workloads=("astar",), policies=("lru",),
                    config=TINY_CONFIG, num_accesses=400, repeats=1, jobs=1)


def test_run_perf_suite_report_shape():
    report = run_perf_suite(**SUITE_KWARGS)
    assert report["schema"] == 1
    assert report["quick"] is True
    assert report["params"]["num_accesses"] == 400
    names = [timing["name"] for timing in report["timings"]]
    assert "trace_generation/astar" in names
    assert "replay_full/astar/lru" in names
    assert "replay_stats/astar/lru" in names
    assert "database_build/cold_serial" in names
    assert "database_build/warm_memoised" in names
    assert "store/cold_build_and_save" in names
    assert "database_build/store_warm" in names
    assert all(timing["seconds"] >= 0 for timing in report["timings"])
    derived = report["derived"]
    assert derived["stats_replay_speedup"]["astar/lru"] > 0
    assert derived["warm_build_speedup"] > 1  # memoised rebuild must be faster
    store_section = report["store_warm_start"]
    assert store_section["speedup"] == derived["store_warm_speedup"] > 0
    assert store_section["zero_simulations"] is True
    assert store_section["store_records"] >= 1


def test_run_perf_suite_serving_section():
    report = run_perf_suite(**SUITE_KWARGS)
    names = [timing["name"] for timing in report["timings"]]
    assert "serving/batch_ask" in names
    serving = report["serving"]
    assert serving["questions_per_batch"] >= 1
    assert serving["throughput_qps"] > 0
    assert serving["errors"] == 0
    assert serving["latency_ms"]["p95"] >= serving["latency_ms"]["p50"] >= 0
    derived = report["derived"]
    assert derived["serving_qps"] == serving["throughput_qps"]
    assert "serving:" in format_report(report)


def test_run_perf_suite_analytics_section():
    report = run_perf_suite(**SUITE_KWARGS)
    names = [timing["name"] for timing in report["timings"]]
    assert "analytics/stdlib_small" in names
    assert "analytics/stdlib_large" in names
    assert not any("sqlite" in name for name in names)
    analytics = report["analytics"]
    assert len(analytics["sizes"]) == 2
    for size in analytics["sizes"]:
        assert size["stdlib_rows_per_second"] > 0
    derived = report["derived"]
    largest = analytics["sizes"][-1]
    assert derived["analytics_stdlib_rows_per_s"] == largest["stdlib_rows_per_second"]
    assert "analytics_sqlite_rows_per_s" not in derived
    rendered = format_report(report)
    assert "analytics: stdlib" in rendered and "sqlite" not in rendered


def test_run_perf_suite_keeps_named_store_dir(tmp_path):
    store_dir = str(tmp_path / "bench_store")
    report = run_perf_suite(store_dir=store_dir, **SUITE_KWARGS)
    section = report["store_warm_start"]
    assert section["store_dir"] == store_dir
    assert os.path.isdir(store_dir)  # kept for artifact upload
    assert section["store_records"] >= 1


def test_write_and_format_report(tmp_path):
    report = run_perf_suite(**SUITE_KWARGS)
    path = tmp_path / "BENCH_test.json"
    written = write_report(report, path=str(path))
    assert written == str(path)
    loaded = json.loads(path.read_text())
    assert loaded["revision"] == report["revision"]
    rendered = format_report(report)
    assert "perf suite @" in rendered
    assert "stats-only replay speedup" in rendered


def test_default_report_path_uses_revision():
    assert default_report_path("abc1234") == "BENCH_abc1234.json"
    assert current_revision()  # never empty


def test_bench_cli_prints_timings_and_cache_stats(capsys):
    code = main(["bench", "--workloads", "astar", "--policies", "lru,belady",
                 "--accesses", "400", "--config", "tiny"])
    assert code == 0
    out = capsys.readouterr().out
    assert "built in" in out and "ms/simulation" in out
    assert "simulation cache:" in out


def test_bench_cli_perf_mode_writes_report(tmp_path, capsys):
    output = tmp_path / "BENCH_cli.json"
    code = main(["bench", "--perf", "--quick", "--workloads", "astar",
                 "--policies", "lru", "--accesses", "400", "--config", "tiny",
                 "--perf-output", str(output)])
    assert code == 0
    out = capsys.readouterr().out
    assert "perf suite @" in out
    assert output.exists()
    report = json.loads(output.read_text())
    assert report["params"]["policies"] == ["lru"]
    assert report["params"]["num_accesses"] == 400


def test_bench_cli_compare_refuses_mismatched_params(tmp_path, capsys):
    old = tmp_path / "BENCH_old.json"
    old.write_text(json.dumps({
        "revision": "old", "timings": [{"name": "replay_full/astar/lru", "seconds": 1.0}],
        "params": {"workloads": ["astar"], "policies": ["lru"], "config": "tiny",
                   "mode": "llc_only", "num_accesses": 20000, "repeats": 1, "jobs": 1,
                   "seed": 0}}))
    code = main(["bench", "--perf", "--quick", "--workloads", "astar",
                 "--policies", "lru", "--accesses", "400", "--config", "tiny",
                 "--jobs", "1", "--perf-output", str(tmp_path / "BENCH_new.json"),
                 "--compare", str(old)])
    assert code == 1
    out = capsys.readouterr().out
    assert "refused: params differ" in out
    assert "num_accesses: old 20000 vs new 400" in out
    assert "ms  x" not in out  # no ratio lines
