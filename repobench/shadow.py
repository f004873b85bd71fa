"""Seeded shadow traffic: legal claim/release/detect streams per tenant.

A :class:`Shadow` mirrors one tenant's resource-allocation state with
the service's grant policy (claim grants iff the resource is free,
otherwise it queues a request edge; release frees the grant and
promotes the lowest-index waiter).  It only ever draws operations that
are legal in that state, so every error response the service sends is
a failure of the program, never of the load.

Each tenant draws from its own ``random.Random``, so a tenant's op
sequence depends on the seed alone, not on how responses interleave.
The edge count is mean-reverting around a target: release gets likelier
as the matrix fills, so a long run neither empties nor saturates it.
"""

from __future__ import annotations

import random

#: Workload shapes: tenants, side, mutations per detect, and whether the
#: tenants attach empty (``m``/``n``) or with explicit seeded ``rows``.
SHAPES = {
    "svc_small_mixed": {"tenants": 128, "side": 16,
                        "mutations_per_detect": 8, "rows": False,
                        "target_edges": 24},
    "svc_large_detect": {"tenants": 16, "side": 160,
                         "mutations_per_detect": 1, "rows": True,
                         "grant_fraction": 0.6, "request_fraction": 0.012},
}


def tenant_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"repobench|{seed}|{index}")


def random_rows(side: int, rng: random.Random, grant_fraction: float,
                request_fraction: float) -> list:
    """A random legal state as text rows (``g``/``r``/``.`` tokens).

    Rows are resources, columns processes: each resource is held with
    ``grant_fraction`` by a random process, and every other cell is a
    request edge with ``request_fraction``.
    """
    rows = []
    for _q in range(side):
        holder = rng.randrange(side) if rng.random() < grant_fraction else -1
        cells = []
        for p in range(side):
            if p == holder:
                cells.append("g")
            elif rng.random() < request_fraction:
                cells.append("r")
            else:
                cells.append(".")
        rows.append(" ".join(cells))
    return rows


class Shadow:
    """One tenant's state as the service's grant policy evolves it."""

    __slots__ = ("side", "holder", "waiters", "held", "edges", "op_seq",
                 "target", "rng", "mutations_per_detect", "until_detect")

    def __init__(self, side: int, rng: random.Random,
                 mutations_per_detect: int, target_edges: int,
                 rows=None) -> None:
        self.side = side
        self.rng = rng
        self.mutations_per_detect = mutations_per_detect
        self.until_detect = mutations_per_detect
        #: ``holder[q]`` = process index holding resource q, or -1.
        self.holder = [-1] * side
        #: ``waiters[q]`` = bitmask of processes requesting q.
        self.waiters = [0] * side
        #: Resources currently held (release candidates), unordered.
        self.held: list = []
        self.edges = 0
        self.op_seq = 0
        if rows is not None:
            for q, row in enumerate(rows):
                for p, token in enumerate(row.split()):
                    if token == "g":
                        self.holder[q] = p
                        self.held.append(q)
                        self.edges += 1
                    elif token == "r":
                        self.waiters[q] |= 1 << p
                        self.edges += 1
        self.target = max(1, target_edges if rows is None else self.edges)

    def legal_claim(self, p: int, q: int) -> bool:
        """Empty cell: ``p`` neither holds nor already waits for ``q``."""
        return self.holder[q] != p and not (self.waiters[q] >> p) & 1

    def draw(self) -> tuple:
        """The next op: ``("detect",)`` or ``(kind, p, q)``, applied."""
        if self.until_detect == 0:
            self.until_detect = self.mutations_per_detect
            return ("detect",)
        self.until_detect -= 1
        rng = self.rng
        release_odds = self.edges / (2.0 * self.target)
        if self.held and rng.random() < release_odds:
            q = self.held[rng.randrange(len(self.held))]
            p = self.holder[q]
            self.apply_release(q)
            return ("release", p, q)
        side = self.side
        while True:
            p = rng.randrange(side)
            q = rng.randrange(side)
            if self.legal_claim(p, q):
                self.apply_claim(p, q)
                return ("claim", p, q)

    def apply_claim(self, p: int, q: int) -> None:
        """Grant a free resource, else queue a request edge."""
        self.op_seq += 1
        self.edges += 1
        if self.holder[q] == -1:
            self.holder[q] = p
            self.held.append(q)
        else:
            self.waiters[q] |= 1 << p

    def apply_release(self, q: int) -> None:
        """Free the grant; the lowest-index waiter is promoted."""
        self.op_seq += 1
        self.edges -= 1
        waiting = self.waiters[q]
        if waiting:
            low = waiting & -waiting
            self.waiters[q] = waiting ^ low
            self.holder[q] = low.bit_length() - 1
        else:
            self.holder[q] = -1
            self.held.remove(q)


def build_shadows(workload: str, seed: int) -> tuple:
    """The workload's shadows and the attach request of every tenant."""
    shape = SHAPES[workload]
    side = shape["side"]
    shadows, attaches = [], []
    for index in range(shape["tenants"]):
        rng = tenant_rng(seed, index)
        name = f"t{index:03d}"
        if shape["rows"]:
            rows = random_rows(side, rng, shape["grant_fraction"],
                               shape["request_fraction"])
            attaches.append({"op": "attach", "tenant": name, "rows": rows})
            shadows.append(Shadow(side, rng, shape["mutations_per_detect"],
                                  0, rows=rows))
        else:
            attaches.append({"op": "attach", "tenant": name,
                             "m": side, "n": side})
            shadows.append(Shadow(side, rng, shape["mutations_per_detect"],
                                  shape["target_edges"]))
    return shadows, attaches
