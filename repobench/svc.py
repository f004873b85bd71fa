"""The ``svc_*`` workloads: one client process against ``repro.service``.

A run has three parts:

1. **set-up** — spawn the service (``--no-processes --shards 2``),
   connect, attach every tenant; one untimed warm-up set-up, then
   several timed ones, each on a fresh process, whose median is
   ``setup_s``.  The last one stays up for the load, and each of its
   tenants is advanced to a seeded point of its snapshot cycle
   (:func:`stagger`);
2. **closed loop** — one request outstanding per tenant; the operations
   completed over the CPU seconds of the server process, both summed
   over the slices, are ``ops_per_cpu_s``;
3. **open loop** — requests sent on a fixed schedule at a frozen rate,
   each timed from when it was due; the lowest over slices of the
   median over ``detect`` verdicts is ``lat_p50_ms``.  (In
   ``svc_large_detect`` half the ops are detects that each reduce a
   160x160 tenant and half are cheap mutations; the median over both
   sits in the gap between the two clusters and jumps between runs, so
   the gated median is taken over verdicts in both workloads.  Steal on
   a shared host comes in stretches that raise every wall-clock latency
   inside them, so the slice least touched by one is reported; a change
   that waits longer per tick raises every slice, the lowest too.)

The closed and open loops alternate in :data:`SLICES` slices on the same
server, so both metrics sample the host over the whole run.

Every response is then replayed through :mod:`oracle`.
"""

from __future__ import annotations

import json
import random
import statistics
import time

import launch
from launch import Server
from shadow import SHAPES, build_shadows
from wire import Wire, format_op

#: Open-loop offered rates (ops/s), frozen at about a tenth of the
#: closed-loop capacity of a 2-core host at its slowest observed speed
#: (a shared host ran 2-3x slower for long stretches).  The service
#: answers on a 2 ms tick whose cycle stretches with the CPU a tick
#: takes, so the median latency grows with 1 / (1 - load); at higher
#: rates it followed the host's speed (4000/s small: 3.2-6.0 ms between
#: runs of the same code), at these it stayed within a few per cent.
OPEN_RATE = {"svc_small_mixed": 1000.0, "svc_large_detect": 125.0}
#: Timed set-ups per run (after one untimed warm-up set-up).
SETUPS = {"svc_small_mixed": 7, "svc_large_detect": 5}
#: One detect in this many is also reduced on the reference StateMatrix.
REFERENCE_EVERY = {"svc_small_mixed": 256, "svc_large_detect": 1024}
#: The service refreshes a tenant's snapshot every this many mutations
#: (``ServiceConfig.snapshot_every``).
SNAPSHOT_EVERY = 64
#: Closed- and open-loop phases alternate this many times, so that each
#: metric samples the host over the whole run, not one stretch of it.
SLICES = 5
#: Untimed load before the first slice of each phase, and before later ones.
WARMUP_S = 0.5
REWARM_S = 0.1


def percentile(values: list, share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


class Traffic:
    """The seeded op stream of every tenant and the log the oracle reads."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.shadows, self.attaches = build_shadows(workload, seed)
        self.names = [attach["tenant"] for attach in self.attaches]
        #: Per tenant, ``[op, response]`` in send order.
        self.entries = [[] for _ in self.shadows]
        #: Request id -> ``(tenant index, entry)``.
        self.route: list = []
        self.attach_text = "".join(
            json.dumps({**attach, "id": f"a{index}"}) + "\n"
            for index, attach in enumerate(self.attaches))

    def issue(self, tenant: int) -> tuple:
        op = self.shadows[tenant].draw()
        rid = len(self.route)
        entry = [op, None]
        self.entries[tenant].append(entry)
        self.route.append((tenant, entry))
        return rid, format_op(rid, self.names[tenant], op)

    def complete(self, response: dict) -> int:
        tenant, entry = self.route[response["id"]]
        entry[1] = response
        return tenant

    @property
    def sent(self) -> int:
        return len(self.route)


def start_service(traffic: Traffic, traced: bool = False) -> tuple:
    """Spawn a service and attach every tenant.

    Returns ``(server, wire, seconds from spawn to all attached,
    failed attaches)``.
    """
    server = Server(traced=traced)
    try:
        wire = Wire(server.connect())
        side = SHAPES[traffic.workload]["side"]
        wire.send(traffic.attach_text)
        pending = len(traffic.attaches)
        failed = 0
        while pending:
            for response in wire.poll():
                pending -= 1
                if not (response.get("ok") and response.get("attached")
                        and response.get("m") == side
                        and response.get("n") == side):
                    failed += 1
        elapsed = time.perf_counter() - server.started
    except BaseException:
        server.kill()
        raise
    return server, wire, elapsed, failed


def timed_setups(traffic: Traffic, timed: int) -> tuple:
    """One warm-up set-up, then ``timed`` more; the last stays up."""
    times, failed = [], 0
    server = wire = None
    for index in range(timed + 1):
        if server is not None:
            server.stop(wire.sock)
        server, wire, elapsed, bad = start_service(traffic)
        failed += bad
        if index:
            times.append(elapsed)
    attempted = (timed + 1) * len(traffic.attaches)
    return server, wire, times, attempted, failed


def stagger(wire: Wire, traffic: Traffic, seed: int) -> None:
    """Advance each tenant to a seeded point of its snapshot cycle.

    A closed loop drives every tenant in lock-step, so tenants attached
    together would all reach the refresh point together, and the service
    would stall on all their snapshots at once (16 x 40 ms on a slow host
    for ``svc_large_detect``): whether such a burst fell into the open
    loop decided the run's median latency.  Staggered, the refreshes are
    spread out; each still stalls the loop, which ``client.lat_p99_ms``
    and ``tenant.snapshot_ms`` show.
    """
    rng = random.Random(f"stagger|{seed}")
    shadows = traffic.shadows
    goals = [shadow.op_seq + rng.randrange(SNAPSHOT_EVERY)
             for shadow in shadows]
    active = [t for t in range(len(shadows)) if shadows[t].op_seq < goals[t]]
    wire.send("".join(traffic.issue(t)[1] for t in active))
    outstanding = len(active)
    while outstanding:
        batch = []
        for response in wire.poll():
            outstanding -= 1
            tenant = traffic.complete(response)
            if shadows[tenant].op_seq < goals[tenant]:
                batch.append(traffic.issue(tenant)[1])
        wire.send("".join(batch))
        outstanding += len(batch)


def closed_loop(wire: Wire, server: Server, traffic: Traffic,
                seconds: float, warmup: float) -> dict:
    """One op outstanding per tenant; measure after ``warmup``."""
    clock = time.perf_counter
    tenants = len(traffic.shadows)
    wire.send("".join(traffic.issue(t)[1] for t in range(tenants)))
    begin = clock() + warmup
    end = begin + seconds
    measuring = False
    ops = total = 0
    while True:
        responses = wire.poll()
        now = clock()
        total += len(responses)
        if measuring:
            ops += len(responses)
        elif now >= begin:
            measuring = True
            cpu0, client0, wall0 = server.cpu_ns(), time.process_time(), now
        if now >= end:
            cpu1, client1, wall1 = server.cpu_ns(), time.process_time(), now
            for response in responses:
                traffic.complete(response)
            break
        wire.send("".join(traffic.issue(traffic.complete(response))[1]
                          for response in responses))
    outstanding = tenants - len(responses)
    while outstanding:
        responses = wire.poll()
        outstanding -= len(responses)
        total += len(responses)
        for response in responses:
            traffic.complete(response)
    return {"ops": ops, "total_ops": total, "cpu_s": (cpu1 - cpu0) / 1e9,
            "client_cpu_s": client1 - client0, "wall_s": wall1 - wall0}


def open_loop(wire: Wire, traffic: Traffic, rate: float, seconds: float,
              warmup: float, rng: random.Random) -> dict:
    """Send on a fixed schedule; time each op from when it was due.

    Every op that is due at a wake-up is sent at once, and how late the
    generator ran is recorded per op.  Latencies are kept apart for
    detect verdicts and for mutations.
    """
    clock = time.perf_counter
    tenants = len(traffic.shadows)
    interval = 1.0 / rate
    total = int((warmup + seconds) * rate)
    first = int(warmup * rate)
    due_of: dict = {}
    verdicts, mutations, late = [], [], []
    k = outstanding = 0
    start = clock() + 0.001
    while k < total or outstanding:
        now = clock()
        timeout = None                 # all sent: block for replies
        if k < total:
            batch = []
            while k < total and start + k * interval <= now:
                rid, text = traffic.issue(rng.randrange(tenants))
                batch.append(text)
                if k >= first:
                    due = start + k * interval
                    due_of[rid] = due
                    late.append(now - due)
                k += 1
            if batch:
                wire.send("".join(batch))
                outstanding += len(batch)
            if k < total:
                timeout = start + k * interval - clock()
        responses = wire.poll(timeout)
        if not responses:
            continue
        received = clock()
        outstanding -= len(responses)
        for response in responses:
            traffic.complete(response)
            due = due_of.pop(response["id"], None)
            if due is not None:
                (verdicts if "deadlock" in response else mutations).append(
                    received - due)
    return {"verdicts": verdicts, "mutations": mutations, "late": late}


def replay(traffic: Traffic) -> dict:
    from oracle import Oracle

    oracle = Oracle(reference_every=REFERENCE_EVERY[traffic.workload])
    for attach, entries in zip(traffic.attaches, traffic.entries):
        oracle.replay(attach, entries)
    return {"checked": oracle.checked, "failed": oracle.failed,
            "detects": oracle.detects,
            "reference_checks": oracle.reference_checks,
            "problems": oracle.problems}


def run(workload: str, seed: int, seconds: float,
        setups: int = 0) -> dict:
    """The untraced run: set-up, closed loop, open loop, oracle."""
    traffic = Traffic(workload, seed)
    server, wire, setup_times, attempted, failed = timed_setups(
        traffic, setups or SETUPS[workload])
    rng = random.Random(f"open|{seed}")
    closed = {"ops": 0, "cpu_s": 0.0, "client_cpu_s": 0.0, "wall_s": 0.0}
    rates, verdicts, mutations, late, slice_lat = [], [], [], [], []
    span = seconds / 2 / SLICES
    try:
        stagger(wire, traffic, seed)
        for index in range(SLICES):
            warmup = REWARM_S if index else WARMUP_S
            part = closed_loop(wire, server, traffic, span, warmup)
            rates.append(part["ops"] / part["cpu_s"])
            for key in closed:
                closed[key] += part[key]
            part = open_loop(wire, traffic, OPEN_RATE[workload], span,
                             warmup, rng)
            verdicts += part["verdicts"]
            if part["verdicts"]:
                slice_lat.append(statistics.median(part["verdicts"]) * 1e3)
            mutations += part["mutations"]
            late += part["late"]
        peak_rss_mb = server.vm_hwm_mb()
    except BaseException:
        server.kill()
        raise
    server.stop(wire.sock)
    checked = replay(traffic)
    ops = closed["ops"]
    latency = verdicts + mutations
    return {
        "attempted": attempted + traffic.sent,
        "failed": failed + checked["failed"],
        "metrics": {
            "ops_per_cpu_s": (ops / closed["cpu_s"], "1/s"),
            "lat_p50_ms": (min(slice_lat), "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
        "client": {
            "lat_p99_ms": percentile(latency, 0.99) * 1e3,
            "wall_ops_per_s": ops / closed["wall_s"],
            "gen_late_p99_ms": percentile(late, 0.99) * 1e3,
            "cpu_s_per_kop": closed["client_cpu_s"] / ops * 1e3,
        },
        "cpu_us_per_op": closed["cpu_s"] / ops * 1e6,
        "detail": {"setup_s": setup_times, "closed_ops": ops,
                   "slice_ops_per_cpu_s": rates,
                   "slice_lat_p50_ms": slice_lat,
                   "closed_server_cpu_s": closed["cpu_s"],
                   "open_verdicts": len(verdicts),
                   "verdict_p50_ms": statistics.median(verdicts) * 1e3,
                   "mutation_p50_ms": statistics.median(mutations) * 1e3,
                   "all_ops_p50_ms": statistics.median(latency) * 1e3,
                   "open_rate": OPEN_RATE[workload],
                   "oracle": checked},
    }
