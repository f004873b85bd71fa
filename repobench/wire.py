"""A lean blocking client for the service's newline-delimited JSON wire.

The load generator runs in one process over one TCP connection.  It
pipelines requests, so it keeps its own receive buffer and matches
responses back to requests by their integer ``id``.  Requests are
formatted directly rather than through ``json.dumps``; the client's
own CPU cost is reported, but it must stay well below the server's so
that the server is what the benchmark measures.
"""

from __future__ import annotations

import json
import select
import time

CLAIM = '{"id":%d,"op":"claim","tenant":"%s","process":"p%d","resource":"q%d"}\n'
RELEASE = ('{"id":%d,"op":"release","tenant":"%s","process":"p%d",'
           '"resource":"q%d"}\n')
DETECT = '{"id":%d,"op":"detect","tenant":"%s"}\n'


def format_op(rid: int, tenant: str, op: tuple) -> str:
    if op[0] == "claim":
        return CLAIM % (rid, tenant, op[1] + 1, op[2] + 1)
    if op[0] == "release":
        return RELEASE % (rid, tenant, op[1] + 1, op[2] + 1)
    return DETECT % (rid, tenant)


class Wire:
    """Pipelined request/response over one connected socket."""

    def __init__(self, sock) -> None:
        self.sock = sock
        self.buffer = b""

    def send(self, text: str) -> None:
        self.sock.sendall(text.encode())

    def poll(self, timeout=None) -> list:
        """Responses that arrive within ``timeout`` seconds (may be []);
        ``None`` blocks until at least one byte arrives."""
        if timeout is not None:
            ready, _, _ = select.select([self.sock], [], [],
                                        max(0.0, timeout))
            if not ready:
                return []
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("service closed the connection")
        lines = (self.buffer + data).split(b"\n")
        self.buffer = lines.pop()
        return [json.loads(line) for line in lines]

    def call(self, message: dict, timeout: float = 60.0) -> dict:
        """One request, waiting for its response (no other traffic)."""
        self.send(json.dumps(message) + "\n")
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for response in self.poll(deadline - time.monotonic()):
                if response.get("id") == message.get("id"):
                    return response
        raise TimeoutError(f"no response to {message.get('op')!r}")
