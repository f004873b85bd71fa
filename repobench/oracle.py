"""Replay oracle: every service response checked after timing.

Each tenant's log is replayed in send order (one connection, so the
service applies a tenant's ops in exactly that order) on an independent
model of the grant policy held in a :class:`~repro.rag.bitmatrix.BitMatrix`:

* ``claim`` must answer ``granted``/``blocked`` as the model does, and
  ``release`` must name the same promoted waiter;
* every mutation must carry the ``op_seq`` the model reached;
* every ``detect`` verdict (deadlock flag, iteration and pass counts,
  deadlocked processes) must equal :func:`repro.deadlock.pdda.pdda_detect`
  on the replayed matrix after the mutations its ``op_seq`` names, and
  one detect in ``reference_every`` is also reduced on the per-cell
  reference ``StateMatrix``.

Any error response is a failure: the shadow traffic only draws legal ops.
"""

from __future__ import annotations

from repro.deadlock.pdda import pdda_detect
from repro.rag.bitmatrix import BitMatrix
from repro.rag.matrix import CellState


def _initial_matrix(attach: dict) -> BitMatrix:
    if "rows" in attach:
        return BitMatrix.from_rows(attach["rows"])
    return BitMatrix(attach["m"], attach["n"])


class Oracle:
    """Tallies checks and keeps the first few mismatch descriptions."""

    def __init__(self, reference_every: int = 64, keep: int = 10) -> None:
        self.reference_every = reference_every
        self.keep = keep
        self.checked = 0
        self.failed = 0
        self.detects = 0
        self.reference_checks = 0
        self.problems: list = []

    def _fail(self, tenant: str, index: int, text: str) -> None:
        self.failed += 1
        if len(self.problems) < self.keep:
            self.problems.append(f"{tenant}#{index}: {text}")

    def replay(self, attach: dict, entries: list) -> None:
        """Check one tenant's ``[op, response]`` entries in send order.

        The service answers a tick's detects after applying all of the
        tick's mutations, so a verdict may cover mutations sent after
        the detect; its ``op_seq`` says how many.  A verdict is checked
        against the state after exactly that many mutations, and one
        whose ``op_seq`` is below the mutations sent before it is stale.
        """
        tenant = attach["tenant"]
        matrix = _initial_matrix(attach)
        op_seq = 0
        waiting: dict = {}      # op_seq -> [(index, response), ...]
        for index, (op, response) in enumerate(entries):
            self.checked += 1
            if response is None:
                self._fail(tenant, index, f"{op[0]} got no response")
                continue
            if not response.get("ok"):
                self._fail(tenant, index, f"{op[0]} answered "
                           f"{response.get('error')}: "
                           f"{response.get('detail', '')}")
                continue
            if op[0] == "detect":
                seen = response.get("op_seq")
                if not isinstance(seen, int) or seen < op_seq:
                    self._fail(tenant, index, f"stale verdict: op_seq "
                               f"{seen!r} < {op_seq} mutations sent before")
                elif seen == op_seq:
                    self._check_verdict(tenant, index, matrix, op_seq,
                                        response)
                else:
                    waiting.setdefault(seen, []).append((index, response))
                continue
            op_seq += 1
            expected = self._mutate(matrix, op, op_seq)
            if isinstance(expected, str):
                self._fail(tenant, index, expected)
                continue
            got = {key: response.get(key) for key in expected}
            if got != expected:
                self._fail(tenant, index, f"{op[0]} {got} != {expected}")
            for later, verdict in waiting.pop(op_seq, ()):
                self._check_verdict(tenant, later, matrix, op_seq, verdict)
        for seen, verdicts in waiting.items():
            for index, _response in verdicts:
                self._fail(tenant, index, f"verdict op_seq {seen} beyond "
                           f"the {op_seq} mutations sent")

    @staticmethod
    def _mutate(matrix: BitMatrix, op: tuple, op_seq: int):
        """Apply one claim/release; the expected response fields, or a
        description of why the op was illegal."""
        p, q = op[1], op[2]
        cell = matrix.get(q, p)
        if op[0] == "claim":
            if cell is not CellState.EMPTY:
                return f"claim on a {cell.name} cell"
            free = matrix._row_g[q] == 0
            if free:
                matrix.set_grant(q, p)
            else:
                matrix.set_request(q, p)
            return {"granted": free, "blocked": not free, "op_seq": op_seq}
        if cell is not CellState.GRANT:
            return f"release of a {cell.name} cell"
        matrix.clear(q, p)
        promoted = None
        waiters = matrix._row_r[q]
        if waiters:
            low = (waiters & -waiters).bit_length() - 1
            matrix.clear(q, low)
            matrix.set_grant(q, low)
            promoted = matrix.process_names[low]
        return {"released": True, "promoted": promoted, "op_seq": op_seq}

    def _check_verdict(self, tenant: str, index: int, matrix: BitMatrix,
                       op_seq: int, response: dict) -> None:
        expected = self._verdict(matrix, op_seq)
        got = {key: response.get(key) for key in expected}
        if got != expected:
            self._fail(tenant, index, f"detect {got} != oracle {expected}")

    def _verdict(self, matrix: BitMatrix, op_seq: int) -> dict:
        self.detects += 1
        result = pdda_detect(matrix, backend="bitmask")
        residual = result.residual
        # Columns with a surviving edge, read from the bit planes: the
        # cell-by-cell DetectionResult.deadlocked_processes() is kept for
        # the sampled reference check, where it is affordable.
        processes = [name for t, name in enumerate(residual.process_names)
                     if residual._col_r[t] | residual._col_g[t]]
        verdict = {"deadlock": result.deadlock,
                   "iterations": result.iterations,
                   "passes": result.passes,
                   "deadlocked_processes": processes,
                   "op_seq": op_seq}
        if (self.detects - 1) % self.reference_every == 0:
            self.reference_checks += 1
            reference = pdda_detect(matrix.to_state_matrix(),
                                    backend="reference")
            if (reference.deadlock, reference.iterations, reference.passes,
                    reference.deadlocked_processes()) != (
                    result.deadlock, result.iterations, result.passes,
                    processes):
                self._fail("reference", self.detects,
                           "StateMatrix and BitMatrix reductions disagree")
        return verdict
