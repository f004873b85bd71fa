"""repro.service — multi-tenant async deadlock-detection service.

The paper's DDU serves one kernel; this package serves *populations*:
an asyncio front end multiplexes thousands of tenants — each a
(tasks x resources) RAG instance — over a pool of worker shards, and
each tick's ``detect`` requests are answered after the tick's
mutations, reducing only the tenants that changed, each on its own
bit-vector mirror (:class:`repro.rag.batch.PlaneAccumulator`).  See
``docs/service.md`` for the wire protocol, batching-tick semantics,
backpressure, and live migration.

Layering:

* :mod:`repro.service.protocol` — newline-delimited JSON wire format,
  stable error codes;
* :mod:`repro.service.tenant` — per-tenant matrix + deterministic
  claim/release policy + checkpoint envelopes;
* :mod:`repro.service.shard` — the worker state machine (in-process or
  behind a ``multiprocessing`` pipe);
* :mod:`repro.service.server` — admission control, tick batching,
  journal-backed crash recovery, live migration;
* :mod:`repro.service.client` — a pipelined asyncio client, plus the
  retrying/reconnecting :class:`ResilientServiceClient`;
* :mod:`repro.service.chaos` — a deterministic fault-injecting wire
  proxy (:class:`ChaosTransport`) driven by replayable
  :class:`NetFaultPlan`\\ s.

``python -m repro.service`` starts a server.
"""

from repro.service.protocol import (
    ADMIN_OPS,
    ERROR_CODES,
    MAX_LINE_BYTES,
    MUTATING_OPS,
    PROTOCOL_VERSION,
    TENANT_OPS,
    ServiceOpError,
    decode_line,
    encode_message,
    error_response,
    ok_response,
    validate_request,
)
from repro.service.tenant import (
    IDEM_WINDOW,
    MAX_TENANT_SIDE,
    SNAPSHOT_KIND,
    Tenant,
)
from repro.service.shard import ShardCore, shard_main
from repro.service.server import DetectionService, ServiceConfig, ShardHandle
from repro.service.client import (
    CircuitOpenError,
    IDEMPOTENT_OPS,
    RETRYABLE_CODES,
    ResilientServiceClient,
    RetryPolicy,
    ServiceClient,
)
from repro.service.chaos import (
    NET_FAULT_KINDS,
    ChaosTransport,
    NetFaultPlan,
    NetFaultSpec,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_LINE_BYTES",
    "TENANT_OPS",
    "ADMIN_OPS",
    "MUTATING_OPS",
    "ERROR_CODES",
    "ServiceOpError",
    "encode_message",
    "decode_line",
    "validate_request",
    "ok_response",
    "error_response",
    "Tenant",
    "MAX_TENANT_SIDE",
    "SNAPSHOT_KIND",
    "IDEM_WINDOW",
    "ShardCore",
    "shard_main",
    "DetectionService",
    "ServiceConfig",
    "ShardHandle",
    "ServiceClient",
    "ResilientServiceClient",
    "RetryPolicy",
    "CircuitOpenError",
    "RETRYABLE_CODES",
    "IDEMPOTENT_OPS",
    "ChaosTransport",
    "NetFaultPlan",
    "NetFaultSpec",
    "NET_FAULT_KINDS",
]
