"""Benchmark guard: tenant state converts on the bit planes.

A service tenant's matrix is converted four ways: parsed from text rows
when it is attached by ``rows`` (and on every restore), rendered to text
rows for each snapshot refresh, restored from a snapshot on migration
and shard-crash recovery, and read back from the packed planes after a
batched reduction (the residual a detect verdict is built from).
:class:`~repro.rag.bitmatrix.BitMatrix` does the first three on whole
row/column bit vectors and :class:`~repro.rag.batch.PlaneReduction`
reads whole word spans for the fourth.

Each conversion is timed at 16x16 and 160x160 against a reference
route.  The first three go through the
:class:`~repro.rag.matrix.StateMatrix` reference, which reads or writes
one cell object at a time; the residual has no cell-level counterpart,
so its reference reads the same planes one word at a time:

* ``attach_rows``: ``BitMatrix.from_rows`` against
  ``BitMatrix.from_matrix(StateMatrix.from_rows(rows))``;
* ``snapshot``: ``BitMatrix.snapshot_state`` against
  ``StateMatrix.from_matrix(matrix).snapshot_state()``;
* ``restore``: ``BitMatrix.restore_state`` against
  ``BitMatrix.from_matrix(StateMatrix.restore_state(envelope))``;
* ``residual`` (with NumPy only): ``PlaneReduction.residual`` against
  ``_per_word_residual`` below, which rebuilds the same BitMatrix from
  the same reduced planes with one ``int()`` per uint64 word — not a
  StateMatrix comparison.

Both sides must give the same planes and the same ``state_hash`` before
anything is timed.  Every figure is the median of ``REPEATS`` samples,
with the spread (interquartile range over median) beside it.  Snapshot
and restore at 160x160 must beat the reference by ``RATIO_BOUND``x.
The record goes to ``BENCH_tenant_state.json`` at the repo root, with
``reference_routes`` naming each reference.
"""

import json
import statistics
import time
from pathlib import Path

from benchmarks.conftest import backend_stamp, bench_once
from repro.rag.batch import HAS_NUMPY, PLANE_WORD_BITS, PlaneAccumulator
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
    "residual": "same planes read one uint64 word at a time",
}


def _sample_pair_ms(fast, reference) -> tuple:
    """``REPEATS`` per-call samples of each side, taken alternately so
    both sides see the same minutes of a shared host."""
    samplers = []
    for fn in (fast, reference):
        start = time.perf_counter()
        fn()
        calls = max(1, round(SAMPLE_SECONDS
                             / (time.perf_counter() - start)))
        samplers.append((fn, calls, []))
    for _ in range(REPEATS):
        for fn, calls, samples in samplers:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            samples.append((time.perf_counter() - start) * 1e3 / calls)
    return samplers[0][2], samplers[1][2]


def _spread(samples: list) -> float:
    low, _, high = statistics.quantiles(samples, n=4)
    return (high - low) / statistics.median(samples)


def _same_planes(a: BitMatrix, b: BitMatrix) -> bool:
    return ((a._row_r, a._row_g, a._col_r, a._col_g, a._edges)
            == (b._row_r, b._row_g, b._col_r, b._col_g, b._edges))


def _per_word_vector(span) -> int:
    """One word span recombined a word at a time, high word first."""
    value = 0
    for j in range(span.shape[0] - 1, -1, -1):
        value = (value << PLANE_WORD_BITS) | int(span[j])
    return value


def _per_word_residual(reduction, position: int,
                       like: BitMatrix) -> BitMatrix:
    """``reduction.residual(position, like)`` read one word at a time."""
    matrix = BitMatrix(like.m, like.n, resource_names=like.resource_names,
                       process_names=like.process_names)
    matrix._row_r = [_per_word_vector(reduction._row_r[position, s])
                     for s in range(like.m)]
    matrix._row_g = [_per_word_vector(reduction._row_g[position, s])
                     for s in range(like.m)]
    matrix._col_r = [_per_word_vector(reduction._col_r[position, t])
                     for t in range(like.n)]
    matrix._col_g = [_per_word_vector(reduction._col_g[position, t])
                     for t in range(like.n)]
    matrix._edges = (sum(map(int.bit_count, matrix._row_r))
                     + sum(map(int.bit_count, matrix._row_g)))
    return matrix


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

    conversions = {
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
    if HAS_NUMPY:
        plane = PlaneAccumulator()
        reduction = plane.reduce([plane.add(matrix)])
        residual = reduction.residual(0, matrix)
        solo = matrix.copy()
        solo.reduce()
        assert _same_planes(residual, solo)
        assert _same_planes(_per_word_residual(reduction, 0, matrix), solo)
        conversions["residual"] = (
            lambda: reduction.residual(0, matrix),
            lambda: _per_word_residual(reduction, 0, matrix))
    return conversions


def _measure() -> dict:
    record = {"benchmark": "tenant_state", "repeats": REPEATS,
              "ratio_bound": RATIO_BOUND,
              "reference_routes": REFERENCE_ROUTES, **backend_stamp(160)}
    for side in SHAPES:
        for name, (fast, reference) in _conversions(side).items():
            fast_ms, reference_ms = _sample_pair_ms(fast, reference)
            key = f"{name}_{side}"
            record[f"{key}_ms"] = statistics.median(fast_ms)
            record[f"{key}_spread"] = _spread(fast_ms)
            record[f"{key}_reference_ms"] = statistics.median(reference_ms)
            record[f"{key}_reference_spread"] = _spread(reference_ms)
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
