"""Cross-run performance trends: BENCH_* history and regression gating.

Every benchmark guard in ``benchmarks/`` writes a ``BENCH_*.json``
record, but each guard only checks a one-shot bound (a minimum speedup,
a maximum overhead fraction).  This module gives the records a
*trajectory*: :func:`collect_bench_entries` flattens the BENCH_* family
(plus profile reports) into metric entries, :func:`append_history`
appends them as one run-line of ``BENCH_HISTORY.jsonl``, and
:func:`check_trends` compares the latest run against a rolling baseline
(the median of the preceding window) — flagging *unexplained* slowdowns
long before they cross a hard guard.

Metric direction is inferred from the name: wall-clock and overhead
metrics are lower-is-better, speedups higher-is-better; everything else
is informational and never gates.  The tolerance is deliberately loose
(default 75% worse than baseline) because the benchmarks run on shared
CI machines — the gate exists to catch 2x-and-worse cliffs, not noise.
"""

from __future__ import annotations

import json
import time as time_module
from pathlib import Path
from typing import Iterable, Mapping, Optional, Union

from repro.errors import ConfigurationError

HISTORY_NAME = "BENCH_HISTORY.jsonl"

#: Name fragments marking a lower-is-better metric.  ``retry`` covers
#: the resilient client's retry rate under a reference chaos plan;
#: ``chaos`` covers wire-chaos recovery metrics — for both, creeping
#: upward means the wire (or the retry loop) got worse.
_LOWER_IS_BETTER = (
    "seconds", "_ms", "_us", "_ns", "overhead", "cost", "cycles",
    "duration", "latency", "retry", "chaos",
)

#: Name fragments marking a higher-is-better metric.  ``savings``
#: covers the SoCDMMU memory-pressure record's CoW cycle savings
#: (``BENCH_socdmmu_pressure.cow_savings_ratio``) — sharing getting
#: cheaper relative to eager copies is the direction we want.
_HIGHER_IS_BETTER = ("speedup", "throughput", "per_second", "fraction_ok",
                     "ratio", "savings")

#: Name fragments that are configuration, not measurements.  A
#: ``spread`` (interquartile range over median of a figure's samples)
#: is the noise context of a measurement, not one itself.
_IGNORED = ("bound", "min_speedup", "min_batch_ratio", "cadence",
            "iterations", "passes", "visits", "events", "count", "size",
            "state", "workload", "benchmark", "tenants", "spread")


def metric_direction(name: str) -> Optional[str]:
    """``"lower"``, ``"higher"``, or ``None`` (ungated) for a metric."""
    base = name.rsplit(".", 1)[-1]
    if any(fragment in base for fragment in _IGNORED):
        return None
    if any(fragment in base for fragment in _HIGHER_IS_BETTER):
        return "higher"
    if any(fragment in base for fragment in _LOWER_IS_BETTER):
        return "lower"
    return None


def collect_bench_entries(root: Union[str, Path]) -> dict:
    """Flatten every ``BENCH_*.json`` under ``root`` into metric entries.

    Returns ``{"<file-stem>.<key>": value}`` for every numeric key, e.g.
    ``BENCH_matrix_kernels.speedup`` — the series names the trend
    checker tracks.
    """
    entries: dict = {}
    for path in sorted(Path(root).glob("BENCH_*.json")):
        if path.name == HISTORY_NAME:
            continue
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path} is not a JSON benchmark record: {exc}") from exc
        if not isinstance(payload, Mapping):
            continue
        stem = path.stem
        for key, value in payload.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entries[f"{stem}.{key}"] = value
    return entries


def profile_entries(profiles: Iterable, prefix: str = "profile") -> dict:
    """Trend entries from :class:`~repro.obs.profile.ProfileReport`s.

    Simulated cycle totals are deterministic, so even a tight tolerance
    on them is meaningful — a cycle regression is a model change, not
    machine noise.
    """
    entries: dict = {}
    for profile in profiles:
        label = profile.label.replace(" ", "_")
        entries[f"{prefix}.{label}.total_cycles"] = profile.total_cycles
        entries[f"{prefix}.{label}.wall_seconds"] = profile.wall_seconds
    return entries


def append_history(history_path: Union[str, Path], entries: Mapping,
                   run_id: Optional[str] = None,
                   timestamp: Optional[float] = None) -> dict:
    """Append one run-line to the history; returns the written record."""
    record = {
        "run": run_id if run_id is not None else "local",
        "time": timestamp if timestamp is not None else time_module.time(),
        "entries": dict(entries),
    }
    path = Path(history_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def load_history(history_path: Union[str, Path]) -> list:
    """All run-lines, oldest first; torn final line tolerated."""
    try:
        text = Path(history_path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    records: list = []
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if number == len(lines):
                break
            raise ConfigurationError(
                f"{history_path}:{number} is corrupt mid-history: "
                f"{exc}") from exc
    return records


def _median(values: list) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class TrendReport:
    """Latest run vs the rolling baseline, per tracked metric."""

    def __init__(self, window: int, tolerance: float) -> None:
        self.window = window
        self.tolerance = tolerance
        #: [(metric, baseline, latest, ratio)] — worse than tolerated.
        self.regressions: list = []
        #: [(metric, baseline, latest, ratio)] — improved past tolerance.
        self.improvements: list = []
        #: Metrics tracked and within band.
        self.steady: list = []
        #: Metrics without enough history to gate.
        self.unbaselined: list = []

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)

    def render(self) -> str:
        checked = (len(self.regressions) + len(self.improvements)
                   + len(self.steady))
        lines = [f"trend check: {checked} metric(s) against a "
                 f"window-{self.window} baseline "
                 f"(tolerance {self.tolerance * 100:.0f}%)"]
        for metric, baseline, latest, ratio in self.regressions:
            lines.append(f"  REGRESSION  {metric}: {baseline:g} -> "
                         f"{latest:g} ({ratio:.2f}x worse)")
        for metric, baseline, latest, ratio in self.improvements:
            lines.append(f"  improved    {metric}: {baseline:g} -> "
                         f"{latest:g} ({ratio:.2f}x better)")
        if not self.regressions:
            lines.append(f"  no regressions; {len(self.steady)} steady, "
                         f"{len(self.unbaselined)} without baseline")
        return "\n".join(lines)


def check_trends(history: list, window: int = 5,
                 tolerance: float = 0.75) -> TrendReport:
    """Gate the newest history run against the preceding runs.

    For each metric with a direction, the baseline is the median of up
    to ``window`` preceding observations.  Lower-is-better metrics
    regress when ``latest > baseline * (1 + tolerance)``;
    higher-is-better when ``latest < baseline / (1 + tolerance)``.
    """
    report = TrendReport(window=window, tolerance=tolerance)
    if len(history) < 2:
        return report
    latest = history[-1].get("entries", {})
    previous = history[:-1]
    for metric, value in sorted(latest.items()):
        direction = metric_direction(metric)
        if direction is None:
            continue
        series = [run["entries"][metric] for run in previous[-window:]
                  if metric in run.get("entries", {})]
        if not series:
            report.unbaselined.append(metric)
            continue
        baseline = _median(series)
        if baseline <= 0:
            report.unbaselined.append(metric)
            continue
        ratio = value / baseline
        if direction == "lower":
            if ratio > 1 + tolerance:
                report.regressions.append((metric, baseline, value, ratio))
            elif ratio < 1 / (1 + tolerance):
                report.improvements.append(
                    (metric, baseline, value, 1 / ratio))
            else:
                report.steady.append(metric)
        else:
            if ratio < 1 / (1 + tolerance):
                report.regressions.append(
                    (metric, baseline, value, 1 / ratio))
            elif ratio > 1 + tolerance:
                report.improvements.append((metric, baseline, value, ratio))
            else:
                report.steady.append(metric)
    return report
