"""``--trace 1``: per-layer metrics from traced runs.

Spans wrap each layer's public entry points from outside the program:
the service's in :mod:`traced_server` (a separate, traced service
process), the simulator's here, in this process.  End-to-end figures
come from untraced runs only; a traced run of a workload repeats its
load with spans on, and ``trace.overhead`` is the traced CPU per op over
the untraced CPU per op of the same run.

Every traced run prints every layer.  The workload's own layers come
from its own traced segment; the other side's layers come from a short
companion segment (one simulator round for the ``svc_*`` workloads, a
short ``svc_small_mixed`` session for ``sim_campaign``), which is also
checked for correctness.
"""

from __future__ import annotations

import sim
import spans
import svc
from spans import calls, mean_self, mean_total

#: Seconds of load in the companion service session of a sim trace run.
COMPANION_SVC_S = 2.0
#: The service spans behind the printed layer metrics.
SERVICE_LAYER_SPANS = (
    "protocol.decode", "protocol.validate", "protocol.encode",
    "server.submit", "shard.batch", "tenant.mutate", "tenant.snapshot",
    "tenant.restore", "tenant.attach", "tenant.detect_payload",
    "batch.add", "batch.update", "batch.reduce", "batch.residual",
    "checkpoint.envelope")
#: Spans whose self time is ``server.other_us_per_op``: the event loop
#: and selector (futures, callbacks, socket I/O) and the server's own
#: tick dispatch and settle code.
SERVICE_OTHER_SPANS = ("loop", "loop.select", "server.tick",
                       "server.settle")
#: Counters of the ``shards`` admin op that the load window diffs.
SHARD_COUNTERS = ("dirty_tenants", "skipped_detects", "repacks")


# -- service -----------------------------------------------------------------

def _mark(wire, label: str) -> dict:
    response = wire.call({"op": "ping", "id": f"mark-{label}",
                          "mark": label})
    return response["trace"]


def _shard_counters(wire, label: str) -> dict:
    """:data:`SHARD_COUNTERS` summed over the shards (they count from
    server start)."""
    shards = wire.call({"op": "shards", "id": f"shards-{label}"})["shards"]
    return {key: sum(entry.get(key, 0) for entry in shards)
            for key in SHARD_COUNTERS}


def traced_service(workload: str, seed: int, seconds: float) -> dict:
    """Set up and load a traced service; its layer metrics."""
    traffic = svc.Traffic(workload, seed)
    server, wire, _elapsed, failed = svc.start_service(traffic, traced=True)
    try:
        svc.stagger(wire, traffic, seed)
        counters0 = _shard_counters(wire, "attached")
        attached = _mark(wire, "attached")
        cpu0 = server.cpu_ns()
        closed = svc.closed_loop(wire, server, traffic, seconds, warmup=0.0)
        cpu1 = server.cpu_ns()
        loaded = _mark(wire, "loaded")
        counters = _shard_counters(wire, "loaded")
    except BaseException:
        server.kill()
        raise
    server.stop(wire.sock)
    checked = svc.replay(traffic)
    ops = closed["total_ops"]
    cpu_s = (cpu1 - cpu0) / 1e9
    setup = attached["stats"]
    load = spans.diff(loaded["stats"], setup)
    both = loaded["stats"]
    other_s = spans.self_seconds(load, SERVICE_OTHER_SPANS)
    counted = {key: counters[key] - counters0[key] for key in SHARD_COUNTERS}
    dirty, skipped = counted["dirty_tenants"], counted["skipped_detects"]
    reduces = calls(load, "batch.reduce")
    decode_calls = calls(load, "protocol.decode")
    layers = {
        "protocol.decode_us": (
            spans.self_seconds(load, ("protocol.decode", "protocol.validate"))
            / decode_calls * 1e6 if decode_calls else 0.0, "us"),
        "protocol.encode_us": (mean_self(load, "protocol.encode"), "us"),
        "server.submit_us": (mean_self(load, "server.submit"), "us"),
        "server.queue_wait_ms_p50": (loaded["queue_wait_ms_p50"], "ms"),
        "server.reply_lag_ms_p50": (loaded["reply_lag_ms_p50"], "ms"),
        "server.other_us_per_op": (other_s / ops * 1e6, "us"),
        "shard.batch_us": (mean_self(load, "shard.batch"), "us"),
        "shard.ops_per_batch": (loaded["samples"]
                                / calls(load, "shard.batch"), "count"),
        "shard.dirty_share": (dirty / (dirty + skipped)
                              if dirty + skipped else 0.0, "ratio"),
        "shard.repacks": (counted["repacks"], "count"),
        "tenant.mutate_us": (mean_self(load, "tenant.mutate"), "us"),
        "tenant.snapshot_ms": (mean_total(both, "tenant.snapshot"), "ms"),
        "tenant.snapshots_per_kop": (calls(load, "tenant.snapshot")
                                     / ops * 1e3, "count"),
        "tenant.restore_ms": (mean_total(setup, "tenant.restore"), "ms"),
        "tenant.attach_ms": (mean_total(setup, "tenant.attach"), "ms"),
        "tenant.detect_payload_us": (mean_self(load,
                                               "tenant.detect_payload"),
                                     "us"),
        "batch.add_us": (mean_self(both, "batch.add"), "us"),
        "batch.update_us": (mean_self(load, "batch.update"), "us"),
        "batch.reduce_us": (mean_self(load, "batch.reduce"), "us"),
        "batch.tenants_per_reduce": (
            (loaded["tenants_reduced"] - attached["tenants_reduced"])
            / reduces if reduces else 0.0, "count"),
        "batch.residual_us": (mean_self(load, "batch.residual"), "us"),
        "checkpoint.envelope_us": (mean_self(both, "checkpoint.envelope"),
                                   "us"),
    }
    return {"layers": layers,
            "cpu_us_per_op": cpu_s / ops * 1e6,
            "attributed_share": (spans.self_seconds(load,
                                                    SERVICE_LAYER_SPANS)
                                 + other_s) / cpu_s,
            "attempted": len(traffic.attaches) + traffic.sent,
            "failed": failed + checked["failed"],
            "detail": {"ops": ops, "server_cpu_s": cpu_s, "oracle": checked,
                       "load_spans": load}}


def client_layers(result: dict) -> dict:
    client = result["client"]
    return {"client.lat_p99_ms": (client["lat_p99_ms"], "ms"),
            "client.wall_ops_per_s": (client["wall_ops_per_s"], "1/s"),
            "client.gen_late_p99_ms": (client["gen_late_p99_ms"], "ms"),
            "client.cpu_s_per_kop": (client["cpu_s_per_kop"], "s")}


# -- simulator ---------------------------------------------------------------

class SimTracer:
    """Spans around the simulator's layers, installed in this process."""

    def __init__(self) -> None:
        self.tracer = spans.Tracer()
        self.events = 0

    def install(self) -> None:
        from repro.deadlock.dau import DAU
        from repro.deadlock.ddu import DDU
        from repro.sim.engine import Engine
        from repro.socdmmu.allocator import BlockAllocator

        patch = self.tracer.patch
        for name in ("allocate", "share", "write_fault", "deallocate"):
            patch(BlockAllocator, name, "socdmmu.allocator")
        patch(BlockAllocator, "audit", "socdmmu.audit")
        patch(DDU, "detect", "deadlock.ddu_detect")
        patch(DAU, "request", "deadlock.dau_request")
        run = Engine.run
        tracer = self

        def traced_run(engine, *args, **kwargs):
            tracer.tracer.enter("engine.run")
            before = engine.events_processed
            try:
                return run(engine, *args, **kwargs)
            finally:
                tracer.events += engine.events_processed - before
                tracer.tracer.exit()

        Engine.run = traced_run

    def around(self, op: tuple, thunk):
        group, name, scenario = op
        self.tracer.enter(f"apps.{name}" if scenario is None
                          else f"campaign.{group}")
        try:
            return thunk()
        finally:
            self.tracer.exit()


def traced_sim(rounds: sim.Round, seconds: float, tracer: SimTracer) -> dict:
    """Whole traced rounds for ``seconds``; the simulator's layers."""
    before, events0 = tracer.tracer.snapshot(), tracer.events
    round_cpu = sim.rounds_for(rounds, seconds, tracer.around)
    ops, cpu_s = len(round_cpu) * len(rounds.ops), sum(round_cpu)
    tallies = spans.diff(tracer.tracer.snapshot(), before)
    events = tracer.events - events0
    op_seconds = sum(total for name, (_count, _own, total) in tallies.items()
                     if name.startswith(("apps.", "campaign.")))
    layers = {
        "engine.events_per_round": (events / len(round_cpu), "count"),
        "engine.us_per_event": (tallies["engine.run"][1] / events * 1e6,
                                "us"),
        "apps.table5_ms": (mean_total(tallies, "apps.table5"), "ms"),
        "apps.table10_ms": (mean_total(tallies, "apps.table10"), "ms"),
        "apps.table12_ms": (mean_total(tallies, "apps.table12"), "ms"),
        "campaign.faults_ms": (mean_total(tallies, "campaign.faults"), "ms"),
        "campaign.memory_ms": (mean_total(tallies,
                                          "campaign.memory-pressure"), "ms"),
        "socdmmu.allocator_us": (mean_self(tallies, "socdmmu.allocator"),
                                 "us"),
        "socdmmu.audit_us": (mean_self(tallies, "socdmmu.audit"), "us"),
        "deadlock.ddu_detect_us": (mean_self(tallies, "deadlock.ddu_detect"),
                                   "us"),
        "deadlock.dau_request_us": (mean_self(tallies,
                                              "deadlock.dau_request"), "us"),
    }
    return {"layers": layers, "cpu_us_per_op": cpu_s / ops * 1e6,
            "attributed_share": op_seconds / cpu_s,
            "detail": {"ops": ops, "cpu_s": cpu_s, "spans": tallies}}


# -- the traced run ------------------------------------------------------------

def run(workload: str, seed: int, seconds: float) -> dict:
    tracer = SimTracer()
    rounds = sim.Round(seed, sim.load_golden())
    if workload == "sim_campaign":
        rounds.run()                    # warm-up round, untimed
        base = sim.rounds_for(rounds, seconds / 2)
        untraced_us = sum(base) / (len(base) * len(rounds.ops)) * 1e6
        tracer.install()
        own = traced_sim(rounds, seconds / 2, tracer)
        client = svc.run("svc_small_mixed", seed, COMPANION_SVC_S, setups=1)
        companion = traced_service("svc_small_mixed", seed,
                                   COMPANION_SVC_S / 2)
        attempted = rounds.attempted + client["attempted"] \
            + companion["attempted"]
        failed = rounds.failed + client["failed"] + companion["failed"]
    else:
        client = svc.run(workload, seed, seconds / 2, setups=1)
        untraced_us = client["cpu_us_per_op"]
        own = traced_service(workload, seed, seconds / 2)
        tracer.install()
        rounds.run()                    # warm-up round, untimed
        companion = traced_sim(rounds, 0.0, tracer)
        attempted = rounds.attempted + client["attempted"] + own["attempted"]
        failed = rounds.failed + client["failed"] + own["failed"]
    metrics = {**companion["layers"], **own["layers"], **client_layers(client),
               "trace.overhead": (own["cpu_us_per_op"] / untraced_us,
                                  "ratio"),
               "trace.attributed_share": (own["attributed_share"], "ratio")}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "detail": {"own": own["detail"], "companion": companion["detail"],
                       "untraced_cpu_us_per_op": untraced_us,
                       "client": client["detail"],
                       "problems": rounds.problems}}
