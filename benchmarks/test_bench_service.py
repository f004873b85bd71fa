"""Benchmark guard: the service's batched plane beats sequential.

Four claims, all recorded to ``BENCH_service.json`` at the repo root
for the trend gate (``python -m repro.campaign trend``):

* **kernel**: one :class:`~repro.rag.batch.BatchPlane` reduction over
  N=64 seeded tenant matrices — *including* the packing cost — must
  beat N sequential per-tenant :meth:`BitMatrix.reduce` calls by at
  least ``MIN_BATCH_RATIO``x (measured ~3.1x after the bulk-packing
  rewrite; the floor leaves CI headroom), after first proving the
  verdicts, iteration counts and pass counts bit-identical;
* **end to end**: a real :class:`DetectionService` on TCP, 64 tenants
  driven by pipelined clients, reporting requests/sec and p99
  grant/verdict latency (no floor — latency depends on the tick — but
  throughput must clear a coarse sanity bar so a pathological
  regression fails loudly);
* **resilience tax**: the retrying
  :class:`~repro.service.client.ResilientServiceClient` on a
  fault-free wire must cost < ``MAX_RESILIENT_OVERHEAD`` over the
  plain pipelined client, as the median ratio of ``RESILIENT_PAIRS``
  alternated plain/resilient runs — deadlines, idempotency keys and
  the circuit-breaker bookkeeping are per-request dict work, dwarfed
  by the tick round-trip;
* **chaos profile**: the same client driven through a fixed
  drop+duplicate :class:`~repro.service.chaos.ChaosTransport` plan,
  recording wall time and retry rate (``chaos_``/``retry`` trend
  fragments) so a regression in the retry loop shows up as a trend
  cliff, not a user-visible outage.
"""

import asyncio
import json
import statistics
import time
from pathlib import Path

import pytest

from benchmarks.conftest import backend_stamp, bench_once, spread
from repro.rag.batch import HAS_NUMPY, BatchPlane, batch_plane
from repro.obs import Observability
from repro.rag.bitmatrix import BitMatrix
from repro.rag.generate import random_state, resolve_rng
from repro.service import (
    ChaosTransport,
    DetectionService,
    NetFaultPlan,
    NetFaultSpec,
    ResilientServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceConfig,
)

TENANTS = 64
SIZE = 24
MIN_BATCH_RATIO = 2.0
MIN_REQUESTS_PER_SECOND = 5_000.0
MAX_RESILIENT_OVERHEAD = 0.05
#: Alternated plain/resilient pairs the overhead guard takes the
#: median per-pair ratio of.
RESILIENT_PAIRS = 7
RECORD_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_service.json"

needs_numpy = pytest.mark.skipif(
    not HAS_NUMPY, reason="vectorized batch plane needs numpy")


def _population(count: int = TENANTS, size: int = SIZE) -> list:
    return [BitMatrix.from_rag(random_state(
        size, size, grant_fraction=0.65, request_fraction=0.35,
        rng=resolve_rng(seed=9_000 + index)))
        for index in range(count)]


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _write_record(update: dict) -> None:
    """Merge into BENCH_service.json so both tests contribute."""
    record = {"benchmark": "service"}
    if RECORD_PATH.exists():
        try:
            previous = json.loads(RECORD_PATH.read_text())
            if previous.get("benchmark") == "service":
                record = previous
        except (ValueError, OSError):
            pass
    record.update(update)
    RECORD_PATH.write_text(json.dumps(record, indent=2,
                                      sort_keys=True) + "\n")


@needs_numpy
def test_bench_batched_plane_beats_sequential(benchmark):
    matrices = _population()

    # Bit-identical first: the speed claim is worthless otherwise.
    plane = batch_plane(matrices, vectorized=True)
    assert isinstance(plane, BatchPlane)
    batched = plane.reduce_all()
    verdicts = plane.deadlocked()
    for index, matrix in enumerate(matrices):
        solo = matrix.copy()
        counts = solo.reduce()
        assert counts == batched[index], f"tenant {index} counts"
        assert (not solo.is_empty()) == verdicts[index], \
            f"tenant {index} verdict"

    def run_batched():
        batch_plane(matrices, vectorized=True).reduce_all()

    def run_sequential():
        for matrix in matrices:
            matrix.copy().reduce()

    batched_s = bench_once(benchmark,
                           lambda: _best_of(run_batched, repeats=5))
    sequential_s = _best_of(run_sequential, repeats=5)
    ratio = sequential_s / batched_s

    _write_record({
        "tenants": TENANTS,
        "size": f"{SIZE}x{SIZE}",
        "batched_seconds": batched_s,
        "sequential_seconds": sequential_s,
        "batch_ratio": ratio,
        "min_batch_ratio": MIN_BATCH_RATIO,
        **backend_stamp(SIZE),
    })
    benchmark.extra_info["service_batch"] = {"ratio": ratio}

    assert ratio >= MIN_BATCH_RATIO, (
        f"batched plane only {ratio:.2f}x over {TENANTS} sequential "
        f"reductions (batched {batched_s * 1e3:.2f}ms incl. packing, "
        f"sequential {sequential_s * 1e3:.2f}ms); the guard floor is "
        f"{MIN_BATCH_RATIO}x")


def test_bench_service_end_to_end(benchmark):
    """64 tenants through a real server: requests/sec + p99 latency."""
    ops_per_tenant = 30

    async def drive() -> dict:
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False, tick_interval=0.001,
            max_pending=100_000, max_pending_per_tenant=1_000))
        await service.start(host="127.0.0.1", port=0)
        client = await ServiceClient.connect_tcp("127.0.0.1",
                                                 service.tcp_port)
        try:
            for index in range(TENANTS):
                await client.attach(f"t{index}", seed=index,
                                    m=16, n=16)

            async def tenant_stream(index: int):
                tenant = f"t{index}"
                rng = resolve_rng(seed=5_000 + index)
                held = set()
                for step in range(ops_per_tenant):
                    if step % 5 == 4:
                        await client.detect(tenant)
                        continue
                    pair = (rng.randrange(1, 17), rng.randrange(1, 17))
                    try:
                        if pair in held:
                            held.discard(pair)
                            await client.release(
                                tenant, f"p{pair[0]}", f"q{pair[1]}")
                        else:
                            held.add(pair)
                            await client.claim(
                                tenant, f"p{pair[0]}", f"q{pair[1]}")
                    except Exception:
                        pass        # violations still count as traffic

            started = time.perf_counter()
            await asyncio.gather(*(tenant_stream(index)
                                   for index in range(TENANTS)))
            elapsed = time.perf_counter() - started
            stats = await client.stats()
            total_ops = TENANTS * ops_per_tenant
            return {
                "tenants": TENANTS,
                "ops": total_ops,
                "seconds": elapsed,
                "requests_per_second": total_ops / elapsed,
                "p99_grant_latency_us":
                    stats["grant_latency"].get("p99_us", 0.0),
                "p99_verdict_latency_us":
                    stats["verdict_latency"].get("p99_us", 0.0),
                "mean_batch_size":
                    (stats["requests"] / stats["batches"]
                     if stats["batches"] else 0.0),
            }
        finally:
            await client.close()
            await service.stop()

    result = bench_once(benchmark, lambda: asyncio.run(drive()))
    _write_record({key: result[key] for key in (
        "requests_per_second", "p99_grant_latency_us",
        "p99_verdict_latency_us", "mean_batch_size")})
    benchmark.extra_info["service_end_to_end"] = result

    assert result["requests_per_second"] >= MIN_REQUESTS_PER_SECOND, (
        f"service served only {result['requests_per_second']:.0f} "
        f"requests/sec end to end; the sanity floor is "
        f"{MIN_REQUESTS_PER_SECOND:.0f}")
    assert result["p99_grant_latency_us"] > 0
    assert result["p99_verdict_latency_us"] > 0


async def _drive_streams(client, tenants: int, ops_per_tenant: int,
                         seed_base: int) -> float:
    """The shared claim/release/detect workload; returns wall seconds."""
    for index in range(tenants):
        await client.attach(f"t{index}", seed=index, m=16, n=16)

    async def stream(index: int) -> None:
        tenant = f"t{index}"
        rng = resolve_rng(seed=seed_base + index)
        for step in range(ops_per_tenant):
            if step % 5 == 4:
                await client.detect(tenant)
                continue
            process = f"p{rng.randrange(1, 17)}"
            resource = f"q{rng.randrange(1, 17)}"
            try:
                if rng.random() < 0.4:
                    await client.release(tenant, process, resource)
                else:
                    await client.claim(tenant, process, resource)
            except Exception:
                pass            # violations still count as traffic

    started = time.perf_counter()
    await asyncio.gather(*(stream(index) for index in range(tenants)))
    return time.perf_counter() - started


def test_bench_resilient_client_overhead(benchmark):
    """Fault-free wire: the retry machinery must cost < 5%.

    One sequential stream: every request pays the wrapper's per-call
    work (the timeout context, deadline/idem stamping, breaker
    bookkeeping — ~20us) against a full tick round-trip (~2ms), which
    is the overhead a caller actually observes.  Concurrent streams
    would instead measure event-loop contention between client
    bookkeeping and the in-process server tick — real, but a property
    of co-locating server and clients on one loop, not of the client.
    """
    tenants = 1
    ops_per_tenant = 80

    async def run(resilient: bool) -> float:
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False, tick_interval=0.001,
            max_pending=100_000, max_pending_per_tenant=1_000))
        await service.start(host="127.0.0.1", port=0)
        if resilient:
            client = ResilientServiceClient.tcp(
                "127.0.0.1", service.tcp_port, seed=7, tag="bench")
        else:
            client = await ServiceClient.connect_tcp(
                "127.0.0.1", service.tcp_port)
        try:
            return await _drive_streams(client, tenants,
                                        ops_per_tenant, 7_000)
        finally:
            await client.close()
            await service.stop()

    # Alternated pairs: each pair runs both variants back to back,
    # swapping which goes first, so a pair's ratio compares two runs
    # that saw the same minute of a shared host.  One best-of figure
    # per variant let a slow phase on one side alone cross the bound;
    # the median of the per-pair ratios does not.
    def pair(index: int) -> tuple:
        order = (True, False) if index % 2 else (False, True)
        seconds = {resilient: asyncio.run(run(resilient))
                   for resilient in order}
        return seconds[False], seconds[True]

    def all_pairs() -> list:
        return [pair(index) for index in range(RESILIENT_PAIRS)]

    pair(0)                         # warmup pair, discarded
    pairs = benchmark.pedantic(all_pairs, rounds=1, iterations=1,
                               warmup_rounds=0)
    ratios = [resilient_s / plain_s for plain_s, resilient_s in pairs]
    overhead = statistics.median(ratios) - 1.0
    plain_s = statistics.median(plain for plain, _ in pairs)
    resilient_s = statistics.median(resilient for _, resilient in pairs)

    _write_record({
        "plain_wire_seconds": plain_s,
        "resilient_wire_seconds": resilient_s,
        "resilient_overhead_fraction": max(0.0, overhead),
        "resilient_overhead_bound": MAX_RESILIENT_OVERHEAD,
        "resilient_pairs": RESILIENT_PAIRS,
        "resilient_pair_ratios": ratios,
        "resilient_overhead_spread": spread(ratios),
    })
    benchmark.extra_info["resilient_overhead"] = overhead

    assert overhead < MAX_RESILIENT_OVERHEAD, (
        f"resilient client costs {overhead * 100:.1f}% over the plain "
        f"client on a fault-free wire (median of {RESILIENT_PAIRS} "
        f"alternated pairs; per-pair ratios "
        f"{', '.join(f'{ratio:.3f}' for ratio in ratios)}); the bound "
        f"is {MAX_RESILIENT_OVERHEAD * 100:.0f}%")


def test_bench_chaos_retry_profile(benchmark):
    """A fixed drop+duplicate plan: wall time + retry rate trended."""
    tenants = 6
    ops_per_tenant = 30

    async def run() -> dict:
        service = DetectionService(ServiceConfig(
            shards=2, use_processes=False, tick_interval=0.001,
            max_pending=100_000, max_pending_per_tenant=1_000))
        await service.start(host="127.0.0.1", port=0)
        plan = NetFaultPlan(
            name="bench-chaos", seed=99, specs=[
                NetFaultSpec("drop", direction="s2c", at=5, every=23),
                NetFaultSpec("duplicate", direction="c2s", at=3,
                             every=11),
            ])
        proxy = ChaosTransport(plan, target_host="127.0.0.1",
                               target_port=service.tcp_port)
        await proxy.start()
        obs = Observability(enabled=True)
        client = ResilientServiceClient.tcp(
            "127.0.0.1", proxy.listen_port, seed=99, tag="bench-chaos",
            obs=obs, policy=RetryPolicy(
                request_timeout_s=0.1, max_attempts=10,
                backoff_base_s=0.002, backoff_cap_s=0.02,
                fail_threshold=8, recover_after=1, cooldown_s=0.02))
        try:
            elapsed = await _drive_streams(client, tenants,
                                           ops_per_tenant, 9_000)
            requests = tenants * (1 + ops_per_tenant)
            retries = obs.metrics.get("service.client.retries").value
            return {
                "chaos_wall_seconds": elapsed,
                "chaos_retry_rate": retries / requests,
                "faults_fired": sum(proxy.fired.values()),
            }
        finally:
            await client.close()
            await proxy.stop()
            await service.stop()

    result = bench_once(benchmark, lambda: asyncio.run(run()))
    _write_record({
        "chaos_wall_seconds": result["chaos_wall_seconds"],
        "chaos_retry_rate": result["chaos_retry_rate"],
    })
    benchmark.extra_info["chaos_profile"] = result

    assert result["faults_fired"] > 0, \
        "the chaos plan injected nothing; the profile is meaningless"
    assert result["chaos_retry_rate"] > 0, \
        "no retries under drop faults; the retry loop never engaged"
