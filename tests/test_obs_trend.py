"""Tests for the cross-run perf trend tracker (repro.obs.trend)."""

import json

import pytest

from repro.campaign.__main__ import main as campaign_main
from repro.errors import ConfigurationError
from repro.obs.trend import (
    append_history,
    check_trends,
    collect_bench_entries,
    load_history,
    metric_direction,
    profile_entries,
)


def _history(tmp_path, runs):
    """Write a history of {metric: value} dicts; returns its records."""
    path = tmp_path / "BENCH_HISTORY.jsonl"
    for index, entries in enumerate(runs):
        append_history(path, entries, run_id=f"run{index}",
                       timestamp=float(index))
    return load_history(path)


# -- direction registry --------------------------------------------------------

def test_metric_directions():
    assert metric_direction("BENCH_x.speedup") == "higher"
    assert metric_direction("BENCH_x.overhead_fraction") == "lower"
    assert metric_direction("BENCH_x.guard_cost_ns") == "lower"
    assert metric_direction("BENCH_x.wall_seconds") == "lower"
    assert metric_direction("profile.t5.total_cycles") == "lower"
    # Resilience metrics: a creeping retry rate or chaos recovery cost
    # means the wire (or the retry loop) regressed.
    assert metric_direction("BENCH_service.chaos_retry_rate") == "lower"
    assert metric_direction("BENCH_service.chaos_wall_seconds") == "lower"
    # Configuration values never gate.
    assert metric_direction("BENCH_x.bound") is None
    assert metric_direction("BENCH_x.min_speedup") is None
    assert metric_direction("BENCH_x.iterations") is None
    assert metric_direction("BENCH_x.resilient_overhead_bound") is None
    assert metric_direction("BENCH_x.retry_count") is None
    # A spread is the noise beside a figure, not a figure to gate.
    assert metric_direction(
        "BENCH_service.resilient_overhead_spread") is None
    assert metric_direction("BENCH_shard_reduce.reduce_160_spread") is None
    assert metric_direction("BENCH_shard_reduce.reduce_160_ratio") == "higher"
    assert metric_direction("BENCH_shard_reduce.reduce_160_ms") == "lower"


# -- ingest --------------------------------------------------------------------

def test_collect_bench_entries(tmp_path):
    (tmp_path / "BENCH_a.json").write_text(
        json.dumps({"speedup": 3.5, "bound": 2.0, "note": "text"}))
    (tmp_path / "BENCH_b.json").write_text(
        json.dumps({"overhead_fraction": 0.01}))
    (tmp_path / "BENCH_HISTORY.jsonl").write_text("not json\n")
    entries = collect_bench_entries(tmp_path)
    assert entries == {"BENCH_a.speedup": 3.5, "BENCH_a.bound": 2.0,
                       "BENCH_b.overhead_fraction": 0.01}


def test_collect_rejects_corrupt_bench_file(tmp_path):
    (tmp_path / "BENCH_bad.json").write_text("{")
    with pytest.raises(ConfigurationError):
        collect_bench_entries(tmp_path)


def test_profile_entries():
    from repro.obs import ProfileReport
    profile = ProfileReport(label="table 5", total_cycles=100,
                            wall_seconds=0.25)
    entries = profile_entries([profile])
    assert entries == {"profile.table_5.total_cycles": 100.0,
                       "profile.table_5.wall_seconds": 0.25}


def test_history_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "h.jsonl"
    append_history(path, {"a.speedup": 1.0}, timestamp=0.0)
    with open(path, "a") as handle:
        handle.write('{"run": "torn", "entr')
    assert len(load_history(path)) == 1
    assert load_history(tmp_path / "missing.jsonl") == []


# -- the gate ------------------------------------------------------------------

def test_flags_injected_2x_slowdown(tmp_path):
    history = _history(tmp_path, [
        {"BENCH_x.wall_seconds": 1.0, "BENCH_x.speedup": 4.0},
        {"BENCH_x.wall_seconds": 1.1, "BENCH_x.speedup": 3.9},
        {"BENCH_x.wall_seconds": 0.9, "BENCH_x.speedup": 4.1},
        {"BENCH_x.wall_seconds": 2.0, "BENCH_x.speedup": 1.9},  # 2x hit
    ])
    report = check_trends(history, window=5, tolerance=0.75)
    assert report.has_regressions
    regressed = {row[0] for row in report.regressions}
    assert regressed == {"BENCH_x.wall_seconds", "BENCH_x.speedup"}
    text = report.render()
    assert "REGRESSION" in text and "BENCH_x.wall_seconds" in text


def test_passes_on_unchanged_rerun(tmp_path):
    history = _history(tmp_path, [
        {"BENCH_x.wall_seconds": 1.0, "BENCH_x.speedup": 4.0},
        {"BENCH_x.wall_seconds": 1.0, "BENCH_x.speedup": 4.0},
        {"BENCH_x.wall_seconds": 1.0, "BENCH_x.speedup": 4.0},
    ])
    report = check_trends(history)
    assert not report.has_regressions
    assert len(report.steady) == 2


def test_improvements_do_not_gate(tmp_path):
    history = _history(tmp_path, [
        {"BENCH_x.wall_seconds": 2.0},
        {"BENCH_x.wall_seconds": 2.0},
        {"BENCH_x.wall_seconds": 0.5},    # 4x faster
    ])
    report = check_trends(history)
    assert not report.has_regressions
    assert [row[0] for row in report.improvements] == \
        ["BENCH_x.wall_seconds"]


def test_single_run_and_new_metrics_never_gate(tmp_path):
    assert not check_trends(_history(
        tmp_path, [{"BENCH_x.wall_seconds": 1.0}])).has_regressions
    history = _history(tmp_path / "b", [
        {"BENCH_x.wall_seconds": 1.0},
        {"BENCH_y.wall_seconds": 99.0},    # no baseline for y
    ])
    report = check_trends(history)
    assert not report.has_regressions
    assert report.unbaselined == ["BENCH_y.wall_seconds"]


def test_rolling_window_forgets_ancient_baseline(tmp_path):
    # Five recent slow runs re-baseline an old fast one away.
    history = _history(tmp_path, [{"BENCH_x.wall_seconds": 0.1}]
                       + [{"BENCH_x.wall_seconds": 1.0}] * 6)
    report = check_trends(history, window=5)
    assert not report.has_regressions


# -- the CLI verb --------------------------------------------------------------

def test_trend_cli_appends_and_gates(tmp_path, capsys):
    bench = tmp_path / "bench"
    bench.mkdir()
    history = tmp_path / "BENCH_HISTORY.jsonl"
    (bench / "BENCH_x.json").write_text(
        json.dumps({"wall_seconds": 1.0, "speedup": 4.0}))
    args = ["trend", "--bench-dir", str(bench),
            "--history", str(history)]
    assert campaign_main(args) == 0           # first run: no baseline
    assert campaign_main(args) == 0           # unchanged rerun passes
    (bench / "BENCH_x.json").write_text(
        json.dumps({"wall_seconds": 2.0, "speedup": 4.0}))
    assert campaign_main(args) == 1           # injected 2x slowdown
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert len(load_history(history)) == 3
    # --check-only re-gates the existing history without appending.
    assert campaign_main(args + ["--check-only"]) == 1
    assert len(load_history(history)) == 3


def test_trend_cli_errors_without_bench_files(tmp_path):
    assert campaign_main(["trend", "--bench-dir", str(tmp_path),
                          "--history",
                          str(tmp_path / "h.jsonl")]) == 2
