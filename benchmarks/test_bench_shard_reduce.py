"""Benchmark guard: a shard reduces dirty tenants on their own mirrors.

Each service tick reduces only the tenants that mutated since their last
verdict — a handful per shard — and answers each detect with the
iteration/pass counts, the verdict and the residual matrix.  The shard
does that through :class:`~repro.rag.batch.PlaneAccumulator`: one
:meth:`BitMatrix.reduce` on a copy of each dirty tenant's bit-vector
mirror, whose reduced copy *is* the residual.  The reference is the
same dirty sets through the vectorized
:class:`~repro.rag.batch.BatchPlane`: pack the dirty tenants into NumPy
``uint64`` planes, ``reduce_all``, then read each residual back from
the planes.

Shapes are the repository benchmark's two tenant shapes, with states
generated here:

* 160x160 at grant 0.6 / request 0.012 (the detect-heavy mix), 4
  dirty tenants per tick;
* 16x16 at about 24 edges (the mutation-heavy mix), 7 dirty tenants
  per tick.

Both routes must give the same counts, verdicts and residual planes
before anything is timed.  Each sample runs ``TICKS`` dirty sets; the
figure is milliseconds per dirty tenant, the median of ``REPEATS``
samples taken alternately with the reference, with the spread
(interquartile range over median) beside it.  At 160x160 the mirrors
must beat the reference by ``RATIO_BOUND``x.  The record goes to
``BENCH_shard_reduce.json`` at the repo root, with ``reference_routes``
naming the reference.
"""

import json
import statistics
from pathlib import Path

import pytest

from benchmarks.conftest import (
    backend_stamp,
    bench_once,
    sample_pair_ms,
    spread,
)
from repro.rag.batch import HAS_NUMPY, BatchPlane, PlaneAccumulator
from repro.rag.bitmatrix import BitMatrix
from repro.rag.generate import random_state, resolve_rng

RECORD_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_shard_reduce.json"

#: side -> (grant_fraction, request_fraction, dirty tenants per tick).
#: At 16x16, 0.6 / 0.06 averages about 24 edges per tenant.
SHAPES = {160: (0.6, 0.012, 4), 16: (0.6, 0.06, 7)}
#: Dirty sets per sample, each from its own seeds.
TICKS = 6
REPEATS = 7
SAMPLE_SECONDS = 0.05
RATIO_BOUND = 1.5
GATED_SIDE = 160
REFERENCE_ROUTES = {
    "reduce": "BatchPlane(dirty tenants): pack, reduce_all, deadlocked, "
              "residual read-back per tenant",
}

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="the BatchPlane reference needs numpy")


def _dirty_sets(side: int) -> list:
    grants, requests, per_tick = SHAPES[side]
    return [[BitMatrix.from_rag(random_state(
        side, side, grant_fraction=grants, request_fraction=requests,
        rng=resolve_rng(seed=17_000 + side * 100 + tick * per_tick + i)))
        for i in range(per_tick)]
        for tick in range(TICKS)]


def _mirror_tick(acc: PlaneAccumulator, slots: list) -> list:
    """What ``ShardCore`` does per tick: reduce, then per tenant counts,
    verdict and residual."""
    reduction = acc.reduce(slots)
    return [(reduction.counts(i), reduction.deadlocked(i),
             reduction.residual(i)) for i in range(len(slots))]


def _plane_tick(matrices: list) -> list:
    plane = BatchPlane(matrices)
    counts = plane.reduce_all()
    verdicts = plane.deadlocked()
    return [(counts[i], verdicts[i], plane.residual(i))
            for i in range(len(matrices))]


def _routes(side: int) -> tuple:
    """(mirror route, reference route, dirty tenants, mean edges), both
    routes checked equal to each other tenant by tenant."""
    dirty_sets = _dirty_sets(side)
    acc = PlaneAccumulator()
    slot_sets = [[acc.add(matrix) for matrix in matrices]
                 for matrices in dirty_sets]
    for matrices, slots in zip(dirty_sets, slot_sets):
        mirrored = _mirror_tick(acc, slots)
        planed = _plane_tick(matrices)
        for (counts, deadlock, residual), (p_counts, p_deadlock,
                                           p_residual) in zip(mirrored,
                                                              planed):
            assert counts == p_counts
            assert deadlock == p_deadlock
            assert residual == p_residual
            assert residual.edge_count == p_residual.edge_count

    def mirror():
        for slots in slot_sets:
            _mirror_tick(acc, slots)

    def reference():
        for matrices in dirty_sets:
            _plane_tick(matrices)

    tenants = sum(len(matrices) for matrices in dirty_sets)
    edges = statistics.mean(matrix.edge_count for matrices in dirty_sets
                            for matrix in matrices)
    return mirror, reference, tenants, edges


def _measure() -> dict:
    record = {"benchmark": "shard_reduce", "repeats": REPEATS,
              "ticks": TICKS, "ratio_bound": RATIO_BOUND,
              "reference_routes": REFERENCE_ROUTES,
              **backend_stamp(GATED_SIDE)}
    for side, (_, _, per_tick) in SHAPES.items():
        mirror, reference, tenants, edges = _routes(side)
        mirror_ms, reference_ms = sample_pair_ms(
            mirror, reference, REPEATS, SAMPLE_SECONDS)
        mirror_ms = [ms / tenants for ms in mirror_ms]
        reference_ms = [ms / tenants for ms in reference_ms]
        key = f"reduce_{side}"
        record[f"{key}_tenants_per_tick"] = per_tick
        record[f"{key}_mean_edges"] = edges
        record[f"{key}_ms"] = statistics.median(mirror_ms)
        record[f"{key}_spread"] = spread(mirror_ms)
        record[f"{key}_reference_ms"] = statistics.median(reference_ms)
        record[f"{key}_reference_spread"] = spread(reference_ms)
        record[f"{key}_ratio"] = (statistics.median(reference_ms)
                                  / statistics.median(mirror_ms))
    return record


@needs_numpy
def test_bench_shard_reduce_mirrors_beat_batch_plane(benchmark):
    record = bench_once(benchmark, _measure)
    RECORD_PATH.write_text(json.dumps(record, indent=2, sort_keys=True)
                           + "\n")
    key = f"reduce_{GATED_SIDE}"
    ratio = record[f"{key}_ratio"]
    benchmark.extra_info["shard_reduce"] = {"ratio": ratio}
    assert ratio >= RATIO_BOUND, (
        f"mirror reduction at {GATED_SIDE}x{GATED_SIDE} is only "
        f"{ratio:.2f}x faster than the BatchPlane route "
        f"({record[f'{key}_ms']:.3f} ms vs "
        f"{record[f'{key}_reference_ms']:.3f} ms per dirty tenant); "
        f"the floor is {RATIO_BOUND}x")
