"""Run ``python -m repro.service`` with spans around each layer's entry points.

Usage: ``python repobench/traced_server.py [service options...]``

The spans are installed from outside the program by replacing module and
class attributes before the service starts; nothing in ``src/`` changes.
Every event-loop iteration is the root span, and the selector wait inside
it is its own span, so the loop's self time plus the selector's is the
server CPU no layer span covers (the event loop, futures and socket
I/O).

A ``ping`` request carrying a ``mark`` field is answered with the span
tallies so far plus the median queue wait (``submit`` to the start of
the shard batch) and reply lag (end of the batch to the encoded reply)
of the ops seen since the previous mark.
"""

from __future__ import annotations

import selectors
import statistics
import sys
import time
from asyncio import base_events
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402

import repro.checkpoint.protocol as checkpoint_protocol  # noqa: E402
import repro.rag.batch as batch  # noqa: E402
import repro.service.server as server  # noqa: E402
import repro.service.shard as shard  # noqa: E402
import repro.service.tenant as tenant  # noqa: E402
from repro.service.__main__ import main  # noqa: E402

TRACER = Tracer()
#: Waits (queue wait, reply lag) are wall time; spans are CPU time.
clock = time.perf_counter
_submitted: dict = {}     # id(message) -> (message, submit time)
_finished: dict = {}      # id(response) -> (response, batch end time)
_queue_wait: list = []
_reply_lag: list = []
_reduced = [0]            # tenants handed to PlaneAccumulator.reduce


def _install() -> None:
    patch = TRACER.patch
    patch(base_events.BaseEventLoop, "_run_once", "loop")
    patch(selectors.DefaultSelector, "select", "loop.select")
    patch(server, "decode_line", "protocol.decode")
    patch(server, "validate_request", "protocol.validate")
    patch(server.DetectionService, "_run_tick", "server.tick")
    patch(server.DetectionService, "_settle", "server.settle")
    for name in ("claim", "release"):
        patch(tenant.Tenant, name, "tenant.mutate")
    patch(tenant.Tenant, "snapshot_state", "tenant.snapshot")
    patch(tenant.Tenant, "restore_state", "tenant.restore")
    patch(tenant.Tenant, "from_attach", "tenant.attach")
    patch(tenant.Tenant, "detect_payload", "tenant.detect_payload")
    patch(batch.PlaneAccumulator, "add", "batch.add")
    patch(batch.PlaneAccumulator, "update", "batch.update")
    patch(batch.PlaneReduction, "residual", "batch.residual")
    for owner in (tenant, checkpoint_protocol):
        patch(owner, "snapshot_envelope", "checkpoint.envelope")
        patch(owner, "open_envelope", "checkpoint.envelope")

    submit = server.DetectionService.submit
    handle_batch = shard.ShardCore.handle_batch
    encode = server.encode_message
    reduce = batch.PlaneAccumulator.reduce
    admin = server.DetectionService._admin

    def traced_submit(self, message):
        TRACER.enter("server.submit")
        try:
            _submitted[id(message)] = (message, clock())
            return submit(self, message)
        finally:
            TRACER.exit()

    def traced_handle_batch(self, ops):
        TRACER.enter("shard.batch")
        try:
            now = clock()
            for op in ops:
                entry = _submitted.pop(id(op), None)
                if entry is not None and entry[0] is op:
                    _queue_wait.append(now - entry[1])
            responses = handle_batch(self, ops)
            now = clock()
            for response in responses:
                _finished[id(response)] = (response, now)
            return responses
        finally:
            TRACER.exit()

    def traced_encode(message):
        TRACER.enter("protocol.encode")
        try:
            line = encode(message)
            entry = _finished.pop(id(message), None)
            if entry is not None and entry[0] is message:
                _reply_lag.append(clock() - entry[1])
            return line
        finally:
            TRACER.exit()

    def traced_reduce(self, slots):
        TRACER.enter("batch.reduce")
        try:
            _reduced[0] += len(slots)
            return reduce(self, slots)
        finally:
            TRACER.exit()

    async def traced_admin(self, op, message):
        if op == "ping" and "mark" in message:
            return server.ok_response(message, trace=_mark())
        return await admin(self, op, message)

    server.DetectionService.submit = traced_submit
    shard.ShardCore.handle_batch = traced_handle_batch
    server.encode_message = traced_encode
    batch.PlaneAccumulator.reduce = traced_reduce
    server.DetectionService._admin = traced_admin


def _median_ms(samples: list) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


def _mark() -> dict:
    report = {"stats": TRACER.snapshot(),
              "tenants_reduced": _reduced[0],
              "queue_wait_ms_p50": _median_ms(_queue_wait),
              "reply_lag_ms_p50": _median_ms(_reply_lag),
              "samples": len(_queue_wait)}
    _queue_wait.clear()
    _reply_lag.clear()
    _submitted.clear()
    _finished.clear()
    return report


if __name__ == "__main__":
    _install()
    sys.exit(main(sys.argv[1:]))
