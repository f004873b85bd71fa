"""The ``sim_campaign`` workload: the paper's simulator, in this process.

One *round* runs Tables 5, 7, 9, 10 and 12 and every scenario of the
builtin ``faults`` and ``memory-pressure`` campaigns through
:func:`repro.campaign.runner.execute_scenario`, in an order the seed
shuffles.  Rounds repeat until ``--seconds`` have passed; only whole
rounds are counted, so every round does the same work whatever the
order.

``ops_per_cpu_s`` is the measured rounds' ops over their CPU seconds,
and ``lat_p50_ms`` the wall time of one whole round, averaged over the
measured rounds: the simulator has no request stream, and a round is
the unit a campaign user waits for.  (A shared host changes speed in
phases of seconds to minutes; when a run's rounds fall into a fast and
a slow cluster, their median jumps between the two, the mean does not.)

Checks: each table's rendering (its simulated cycle counts) must equal
``golden.json``, every scenario must pass, and each round's
timing-stripped scenario results must hash to the golden digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import launch

TABLES = ("table5", "table7", "table9", "table10", "table12")
CAMPAIGNS = ("faults", "memory-pressure")
#: Seed root of the campaign scenarios; fixed, so the digest is golden.
SEED_ROOT = "repobench"
GOLDEN = Path(__file__).with_name("golden.json")
SETUPS = 7


def expand_ops() -> list:
    """Every op of a round: ``(group, name, scenario or None)``."""
    from repro.campaign.presets import builtin_campaign
    from repro.campaign.runner import execute_scenario  # noqa: F401
    from repro.experiments.registry import run_experiment  # noqa: F401

    ops = [("tables", name, None) for name in TABLES]
    for campaign in CAMPAIGNS:
        for scenario in builtin_campaign(campaign).expand(SEED_ROOT):
            ops.append((campaign, scenario.scenario_id, scenario))
    return ops


def digest(records: list) -> str:
    from repro.campaign.runner import strip_timing

    canonical = [strip_timing(record)
                 for record in sorted(records,
                                      key=lambda r: r["scenario_id"])]
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()
                          ).hexdigest()


def run_op(op: tuple):
    """Run one op; its table text or its scenario result record."""
    from repro.campaign.runner import execute_scenario
    from repro.experiments.registry import run_experiment

    group, name, scenario = op
    if scenario is None:
        return run_experiment(name).render()
    return execute_scenario(scenario).to_record()


class Round:
    """Runs rounds and checks each against the golden file."""

    def __init__(self, seed: int, golden: dict) -> None:
        self.ops = expand_ops()
        self.rng = random.Random(f"sim|{seed}")
        self.golden = golden
        self.failed = 0
        self.attempted = 0
        self.problems: list = []
        #: Wall milliseconds of each whole round.
        self.round_ms: list = []
        self.group_cpu: dict = {}

    def _fail(self, text: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(text)

    def run(self, around=None) -> float:
        """One shuffled round; returns its CPU seconds.  ``around``, if
        given, is called as ``around(op, thunk)`` to wrap each op."""
        order = list(self.ops)
        self.rng.shuffle(order)
        records = []
        cpu = time.process_time
        started, wall = cpu(), time.perf_counter()
        for op in order:
            self.attempted += 1
            cpu0 = cpu()
            out = around(op, lambda: run_op(op)) if around else run_op(op)
            self.group_cpu[op[0]] = self.group_cpu.get(op[0], 0.0) \
                + cpu() - cpu0
            if op[2] is None:
                if out != self.golden["tables"].get(op[1]):
                    self._fail(f"{op[1]} differs from golden.json")
            else:
                records.append(out)
                if not out["ok"]:
                    self._fail(f"{op[1]}: {out['verdict']} {out['detail']}")
        elapsed = cpu() - started
        self.round_ms.append((time.perf_counter() - wall) * 1e3)
        got = digest(records)
        if got != self.golden["campaign_digest"]:
            self._fail(f"campaign digest {got[:12]} != golden "
                       f"{self.golden['campaign_digest'][:12]}")
        return elapsed


def measure_setup(timed: int = SETUPS) -> list:
    """Spawn-to-ready seconds of ``timed`` set-ups after one warm-up."""
    times = []
    script = str(Path(__file__).with_name("sim_ready.py"))
    for index in range(timed + 1):
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, script], cwd=str(launch.ROOT),
                                env=launch.pinned_env(),
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or not line.startswith("ready"):
            raise RuntimeError("sim set-up process failed")
        if index:
            times.append(elapsed)
    return times


def rounds_for(rounds: Round, seconds: float, around=None) -> list:
    """CPU seconds of each whole round, run until ``seconds`` of wall
    time have passed."""
    cpu_s = []
    deadline = time.perf_counter() + seconds
    while True:
        cpu_s.append(rounds.run(around))
        if time.perf_counter() >= deadline:
            return cpu_s


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def run(seed: int, seconds: float) -> dict:
    setup_times = measure_setup()
    rounds = Round(seed, load_golden())
    rounds.run()                       # warm-up round, checked, untimed
    rounds.round_ms.clear()
    rounds.group_cpu.clear()
    round_cpu = rounds_for(rounds, seconds)
    group_total = sum(rounds.group_cpu.values())
    return {
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {
            "ops_per_cpu_s": (len(rounds.ops) * len(round_cpu)
                              / sum(round_cpu), "1/s"),
            "lat_p50_ms": (statistics.mean(rounds.round_ms), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (launch.vm_hwm_mb(os.getpid()), "MB"),
        },
        "detail": {"setup_s": setup_times, "ops_per_round": len(rounds.ops),
                   "round_cpu_s": round_cpu,
                   "group_cpu_share": {
                       group: value / group_total
                       for group, value in rounds.group_cpu.items()},
                   "problems": rounds.problems},
    }


def write_golden() -> None:
    """Record the current tables and campaign digest as golden."""
    rounds = Round(0, {"tables": {}, "campaign_digest": ""})
    records, tables = [], {}
    for op in rounds.ops:
        out = run_op(op)
        if op[2] is None:
            tables[op[1]] = out
        else:
            records.append(out)
    GOLDEN.write_text(json.dumps({"tables": tables,
                                  "campaign_digest": digest(records)},
                                 indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write-golden"]:
        launch.reexec_pinned()
        write_golden()
    else:
        sys.exit("usage: python3 repobench/sim.py --write-golden")
