"""Self-tests of the benchmark's own machinery.

Run from the root of a checkout with ``python -m pytest -q repobench``.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from oracle import Oracle  # noqa: E402
from shadow import SHAPES, Shadow, build_shadows  # noqa: E402
from spans import Tracer, diff, self_seconds  # noqa: E402

from repro.deadlock.pdda import pdda_detect  # noqa: E402
from repro.rag.bitmatrix import BitMatrix  # noqa: E402
from repro.service.protocol import ServiceOpError  # noqa: E402
from repro.service.tenant import Tenant  # noqa: E402

#: A two-process cycle: each holds one resource and waits for the other.
CYCLE = [("claim", 0, 0), ("claim", 1, 1), ("claim", 0, 1), ("claim", 1, 0)]


def _served(attach: dict, ops: list) -> list:
    """``[op, response]`` entries as the service's tenant answers them."""
    tenant = Tenant.from_attach(attach["tenant"], attach)
    entries = []
    for op in ops:
        if op[0] == "detect":
            result = pdda_detect(tenant.matrix.copy())
            response = {"ok": True, **tenant.detect_payload(
                result.deadlock, result.iterations, result.passes,
                result.residual, batched=1)}
        else:
            message = {"process": f"p{op[1] + 1}",
                       "resource": f"q{op[2] + 1}"}
            reply = (tenant.claim(message) if op[0] == "claim"
                     else tenant.release(message))
            response = {"ok": True, **reply}
        entries.append([op, response])
    return entries


def _replayed(entries: list) -> Oracle:
    oracle = Oracle(reference_every=1)
    oracle.replay({"tenant": "t", "m": 4, "n": 4}, entries)
    return oracle


def test_oracle_accepts_the_service_answers():
    entries = _served({"tenant": "t", "m": 4, "n": 4},
                      CYCLE + [("detect",), ("release", 0, 0), ("detect",)])
    assert entries[4][1]["deadlock"] is True
    oracle = _replayed(entries)
    assert (oracle.failed, oracle.checked, oracle.detects) == (0, 7, 2)
    assert oracle.reference_checks == 2


def test_oracle_flags_a_flipped_verdict():
    entries = _served({"tenant": "t", "m": 4, "n": 4}, CYCLE + [("detect",)])
    entries[-1][1]["deadlock"] = False
    oracle = _replayed(entries)
    assert oracle.failed == 1
    assert "detect" in oracle.problems[0]


def test_oracle_flags_a_stale_op_seq():
    entries = _served({"tenant": "t", "m": 4, "n": 4}, CYCLE + [("detect",)])
    entries[-1][1]["op_seq"] -= 1
    oracle = _replayed(entries)
    assert oracle.failed == 1
    assert "stale" in oracle.problems[0]


def test_oracle_checks_a_verdict_against_the_prefix_it_names():
    # A tick answers detects after all of its mutations: a verdict sent
    # before the last claim may already cover it.
    entries = _served({"tenant": "t", "m": 4, "n": 4},
                      CYCLE[:3] + [CYCLE[3], ("detect",)])
    detect = entries.pop()
    entries.insert(3, detect)
    assert _replayed(entries).failed == 0
    detect[1]["deadlock"] = False
    assert _replayed(entries).failed == 1


def test_oracle_flags_errors_and_missing_responses():
    entries = _served({"tenant": "t", "m": 4, "n": 4}, CYCLE[:2])
    entries[0][1] = {"ok": False, "error": "protocol-violation"}
    entries[1][1] = None
    assert _replayed(entries).failed == 2


@pytest.mark.parametrize("workload", sorted(SHAPES))
def test_shadow_draws_only_legal_ops(workload):
    """100k draws per shape, each applied to the service's own Tenant."""
    shadows, attaches = build_shadows(workload, seed=7)
    tenants = [Tenant.from_attach(attach["tenant"], attach)
               for attach in attaches]
    draws = 0
    while draws < 100_000:
        for shadow, tenant in zip(shadows, tenants):
            op = shadow.draw()
            draws += 1
            if op[0] == "detect":
                continue
            message = {"process": f"p{op[1] + 1}", "resource": f"q{op[2] + 1}"}
            try:
                reply = (tenant.claim(message) if op[0] == "claim"
                         else tenant.release(message))
            except ServiceOpError as exc:  # pragma: no cover - the failure
                pytest.fail(f"{workload}: illegal {op} after {draws} "
                            f"draws: {exc}")
            assert reply["op_seq"] == shadow.op_seq
    for shadow, tenant in zip(shadows, tenants):
        assert shadow.edges == tenant.matrix.edge_count


def test_shadow_edges_revert_to_target():
    shadow = Shadow(16, random.Random(3), 8, 24)
    counts = []
    for _ in range(20_000):
        shadow.draw()
        counts.append(shadow.edges)
    late = counts[len(counts) // 2:]
    assert 12 < sum(late) / len(late) < 36


def test_shadow_rows_match_the_attached_matrix():
    shadows, attaches = build_shadows("svc_large_detect", seed=1)
    matrix = BitMatrix.from_rows(attaches[0]["rows"])
    assert (matrix.m, matrix.n) == (160, 160)
    assert shadows[0].edges == matrix.edge_count > 0


class ScriptedClock:
    def __init__(self, *times: float) -> None:
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]; then d [20, 22].
    clock = ScriptedClock(0, 1, 2, 3, 4, 5, 9, 10, 20, 22)
    tracer = Tracer(clock=clock)
    tracer.enter("root")
    tracer.enter("a")
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("d")
    tracer.exit()
    stats = tracer.stats
    assert stats["b"] == [1, 1, 1]
    assert stats["a"] == [1, 2, 3]
    assert stats["c"] == [1, 4, 4]
    assert stats["root"] == [1, 3, 10]
    assert stats["d"] == [1, 2, 2]
    # Self times add up to the outermost spans' durations.
    assert sum(own for _n, own, _t in stats.values()) == 10 + 2
    assert not tracer.stack
    # A share built from named spans misses the time of unnamed ones.
    assert self_seconds(stats, ("root", "a", "b", "c")) == 10
    assert self_seconds(stats, ("root", "b", "missing")) == 4


def test_wrapped_calls_nest_and_diff():
    clock = ScriptedClock(0, 1, 3, 4, 5, 6, 10, 12)
    tracer = Tracer(clock=clock)
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        inner()
        inner()

    tracer.wrap("outer", outer)()
    before = tracer.snapshot()
    assert before == {"inner": [2, 3, 3], "outer": [1, 3, 6]}
    tracer.wrap("inner", lambda: None)()
    assert diff(tracer.snapshot(), before) == {"inner": [1, 2, 2]}
