"""Benchmark guard: tenant state converts on the bit planes.

A service tenant's matrix is converted three ways: parsed from text
rows when it is attached by ``rows`` (and on every restore), rendered
to text rows for each snapshot refresh, and restored from a snapshot on
migration and shard-crash recovery.
:class:`~repro.rag.bitmatrix.BitMatrix` does all three on whole
row/column bit vectors.  (The residual a detect verdict is built from
is the reduced copy of the tenant's mirror itself, so it has no
conversion left to time; ``test_bench_shard_reduce.py`` covers it.)

Each conversion is timed at 16x16 and 160x160 against a reference
route through the :class:`~repro.rag.matrix.StateMatrix` reference,
which reads or writes one cell object at a time:

* ``attach_rows``: ``BitMatrix.from_rows`` against
  ``BitMatrix.from_matrix(StateMatrix.from_rows(rows))``;
* ``snapshot``: ``BitMatrix.snapshot_state`` against
  ``StateMatrix.from_matrix(matrix).snapshot_state()``;
* ``restore``: ``BitMatrix.restore_state`` against
  ``BitMatrix.from_matrix(StateMatrix.restore_state(envelope))``.

Both sides must give the same planes and the same ``state_hash`` before
anything is timed.  Every figure is the median of ``REPEATS`` samples,
with the spread (interquartile range over median) beside it.  Snapshot
and restore at 160x160 must beat the reference by ``RATIO_BOUND``x.
The record goes to ``BENCH_tenant_state.json`` at the repo root, with
``reference_routes`` naming each reference.
"""

import json
import statistics
from pathlib import Path

from benchmarks.conftest import (
    backend_stamp,
    bench_once,
    sample_pair_ms,
    spread,
)
from repro.rag.bitmatrix import BitMatrix
from repro.rag.generate import random_state, resolve_rng
from repro.rag.matrix import StateMatrix

RECORD_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_tenant_state.json"

#: side -> (grant_fraction, request_fraction): the 16x16 tenants of the
#: service's mutation-heavy mix, and the sparse 160x160 tenants its
#: detect-heavy mix attaches by rows.
SHAPES = {16: (0.6, 0.3), 160: (0.6, 0.012)}
#: Samples per figure; each sample times as many calls as fill about
#: ``SAMPLE_SECONDS``, so sub-millisecond calls are not timed singly.
#: The two sides of a comparison are sampled alternately.
REPEATS = 7
SAMPLE_SECONDS = 0.01
RATIO_BOUND = 10.0
GATED = ("snapshot", "restore")
REFERENCE_ROUTES = {
    "attach_rows": "BitMatrix.from_matrix(StateMatrix.from_rows(rows))",
    "snapshot": "StateMatrix.from_matrix(matrix).snapshot_state()",
    "restore": "BitMatrix.from_matrix(StateMatrix.restore_state(envelope))",
}


def _same_planes(a: BitMatrix, b: BitMatrix) -> bool:
    return ((a._row_r, a._row_g, a._col_r, a._col_g, a._edges)
            == (b._row_r, b._row_g, b._col_r, b._col_g, b._edges))


def _conversions(side: int) -> dict:
    """name -> (plane-native call, reference call), checked equal."""
    grants, requests = SHAPES[side]
    rows = BitMatrix.from_rag(random_state(
        side, side, grant_fraction=grants, request_fraction=requests,
        rng=resolve_rng(seed=13_000 + side))).text_rows()
    matrix = BitMatrix.from_rows(rows)
    envelope = matrix.snapshot_state()
    assert _same_planes(
        matrix, BitMatrix.from_matrix(StateMatrix.from_rows(rows)))
    assert envelope["state_hash"] == StateMatrix.from_matrix(
        matrix).snapshot_state()["state_hash"]
    assert _same_planes(BitMatrix.restore_state(envelope), matrix)

    return {
        "attach_rows": (
            lambda: BitMatrix.from_rows(rows),
            lambda: BitMatrix.from_matrix(StateMatrix.from_rows(rows))),
        "snapshot": (
            matrix.snapshot_state,
            lambda: StateMatrix.from_matrix(matrix).snapshot_state()),
        "restore": (
            lambda: BitMatrix.restore_state(envelope),
            lambda: BitMatrix.from_matrix(
                StateMatrix.restore_state(envelope))),
    }


def _measure() -> dict:
    record = {"benchmark": "tenant_state", "repeats": REPEATS,
              "ratio_bound": RATIO_BOUND,
              "reference_routes": REFERENCE_ROUTES, **backend_stamp(160)}
    for side in SHAPES:
        for name, (fast, reference) in _conversions(side).items():
            fast_ms, reference_ms = sample_pair_ms(
                fast, reference, REPEATS, SAMPLE_SECONDS)
            key = f"{name}_{side}"
            record[f"{key}_ms"] = statistics.median(fast_ms)
            record[f"{key}_spread"] = spread(fast_ms)
            record[f"{key}_reference_ms"] = statistics.median(reference_ms)
            record[f"{key}_reference_spread"] = spread(reference_ms)
            record[f"{key}_ratio"] = (statistics.median(reference_ms)
                                      / statistics.median(fast_ms))
    return record


def test_bench_tenant_state_conversions(benchmark):
    record = bench_once(benchmark, _measure)
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True)
                           + "\n")
    benchmark.extra_info["tenant_state"] = {
        name: record[f"{name}_160_ratio"] for name in GATED}
    for name in GATED:
        ratio = record[f"{name}_160_ratio"]
        assert ratio >= RATIO_BOUND, (
            f"{name} at 160x160 is only {ratio:.1f}x faster than the "
            f"StateMatrix route ({record[f'{name}_160_ms']:.3f} ms vs "
            f"{record[f'{name}_160_reference_ms']:.3f} ms); the floor is "
            f"{RATIO_BOUND}x")
