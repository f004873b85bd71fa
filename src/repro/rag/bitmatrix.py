"""Bit-packed state matrix: the DDU's wide-OR lattice as Python ints.

:class:`~repro.rag.matrix.StateMatrix` models Definition 6 one cell
object at a time, which makes every Equation 3-6 reduction an O(m*n)
Python loop.  The hardware evaluates those reductions *in parallel*
each cycle — an m-wide / n-wide OR tree per row and column — and the
closest software analogue is a word-parallel bitset: store each row's
request plane and grant plane as one n-bit integer, keep the column
transposes as m-bit integers, and the hardware reductions collapse to
mask tests:

* row/column bit-wise OR (Equation 3) — ``mask != 0``;
* terminal flag tau (Equation 4)      — ``bool(r) ^ bool(g)``;
* connect flag phi (Equation 6)       — ``bool(r) and bool(g)``;
* clearing a terminal row/column (Definition 12) — zero two words and
  patch the transposes of the set bits.

The edge count is maintained incrementally from ``int.bit_count()``
deltas, so ``is_empty()`` — consulted once per reduction pass — never
rescans the plane.  A full terminal-reduction pass costs O(m + n)
instead of O(m*n), which is what lets the campaign presets and scaling
surveys run 64x64-128x128 matrices.

:class:`BitMatrix` speaks the full :class:`StateMatrix` protocol
(constructors, cell access, Equations 3-6, rendering, equality against
either representation), so every consumer — PDDA, the DDU/DAU models,
serialization, the experiments — can hold either type.  The *backend
knob* at the bottom picks which one the hot paths build:
``"bitmask"`` (the default), ``"reference"``, or ``"native"``; set
``REPRO_MATRIX_BACKEND=reference`` to force the cell-object oracle
process-wide, or ``REPRO_MATRIX_BACKEND=native`` to run whole-matrix
reductions through the compiled kernel in :mod:`repro.rag.native`
(graceful degradation to the pure-Python sweep when no kernel loads).
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Union

from repro.errors import ConfigurationError, ResourceProtocolError
from repro.rag.graph import RAG
from repro.rag.matrix import (
    CellState,
    StateMatrix,
    matrix_snapshot_state,
    open_matrix_envelope,
)

#: The word-parallel integer-bitmask backend (the fast path).
FAST_BACKEND = "bitmask"
#: The per-cell :class:`StateMatrix` oracle.
REFERENCE_BACKEND = "reference"
#: The bitmask backend with compiled whole-matrix reductions
#: (:class:`NativeBitMatrix`; falls back to pure Python per matrix).
NATIVE_BACKEND = "native"
BACKENDS = (FAST_BACKEND, REFERENCE_BACKEND, NATIVE_BACKEND)
#: Environment escape hatch: ``REPRO_MATRIX_BACKEND=reference``.
BACKEND_ENV_VAR = "REPRO_MATRIX_BACKEND"

#: Text-row cell tokens, as :meth:`StateMatrix.from_rows` accepts them.
_CELL_TOKENS = ("g", "r", ".", "0")
_CELL_CHARS = "".join(_CELL_TOKENS)
#: Cell token -> plane bit: ``str.translate`` then ``int(_, 2)`` turns a
#: string of cell tokens into request or grant words in C.
_REQUEST_DIGITS = str.maketrans(_CELL_CHARS, "0100")
_GRANT_DIGITS = str.maketrans(_CELL_CHARS, "1000")


def _row_cells(row: str) -> str:
    """A text row's cell tokens joined into one string, one per cell."""
    tokens = row.split()
    text = "".join(tokens)
    if len(text) != len(tokens) or text.strip(_CELL_CHARS):
        bad = next(token for token in tokens if token not in _CELL_TOKENS)
        raise ResourceProtocolError(f"bad cell token {bad!r}")
    return text


def _bit_vectors(bits: str, m: int, n: int) -> tuple[list[int], list[int]]:
    """Row and column words of a row-major string of ``0``/``1`` cells.

    Reversed, the string holds row ``m - 1`` first with column 0
    rightmost, so each ``n``-slice parses to a row word with cell ``t``
    on bit ``t``, and each ``n``-strided slice to a column word with
    cell ``s`` on bit ``s`` — both lists come out last-first.
    """
    flipped = bits[::-1]
    rows = [int(flipped[k:k + n], 2) for k in range(0, m * n, n)]
    columns = [int(flipped[k::n], 2) for k in range(n)]
    rows.reverse()
    columns.reverse()
    return rows, columns


class BitMatrix:
    """An m x n state matrix stored as per-row/per-column bit vectors.

    ``m`` is the number of resources (rows), ``n`` the number of
    processes (columns) — the paper's ``M_ij`` layout, identical to
    :class:`StateMatrix`.  Cell ``(s, t)`` is a request edge iff bit
    ``t`` of ``_row_r[s]`` is set, a grant edge iff bit ``t`` of
    ``_row_g[s]`` is set; the planes are disjoint by construction.
    """

    def __init__(self, num_resources: int, num_processes: int,
                 resource_names: Optional[Iterable[str]] = None,
                 process_names: Optional[Iterable[str]] = None) -> None:
        if num_resources < 1 or num_processes < 1:
            raise ResourceProtocolError(
                "matrix dimensions must be at least 1x1")
        self.m = num_resources
        self.n = num_processes
        self.resource_names = (list(resource_names) if resource_names
                               else [f"q{s + 1}" for s in range(self.m)])
        self.process_names = (list(process_names) if process_names
                              else [f"p{t + 1}" for t in range(self.n)])
        if len(self.resource_names) != self.m:
            raise ResourceProtocolError("resource_names length != m")
        if len(self.process_names) != self.n:
            raise ResourceProtocolError("process_names length != n")
        self._row_r: list[int] = [0] * self.m
        self._row_g: list[int] = [0] * self.m
        self._col_r: list[int] = [0] * self.n
        self._col_g: list[int] = [0] * self.n
        self._edges = 0

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_rag(cls, rag: RAG) -> "BitMatrix":
        """Map a RAG to its state matrix (lines 2-6 of Algorithm 2)."""
        matrix = cls(rag.num_resources, rag.num_processes,
                     resource_names=rag.resources,
                     process_names=rag.processes)
        for p, q in rag.request_edges():
            matrix.set_request(rag.resource_index(q), rag.process_index(p))
        for q, p in rag.grant_edges():
            matrix.set_grant(rag.resource_index(q), rag.process_index(p))
        return matrix

    @classmethod
    def from_rows(cls, rows: Iterable[str]) -> "BitMatrix":
        """Build from compact text rows, e.g. ``["g r .", "r g ."]``.

        Same tokens, same degenerate states and same errors as
        :meth:`StateMatrix.from_rows`, parsed straight into the planes:
        the cells join into one row-major string, and every row and
        column word is one slice of it read by ``int(_, 2)``.
        """
        texts = [_row_cells(row) for row in rows]
        if not texts:
            raise ResourceProtocolError("no rows given")
        widths = {len(text) for text in texts}
        if len(widths) != 1:
            raise ResourceProtocolError("ragged rows")
        m, n, cells = len(texts), widths.pop(), "".join(texts)
        matrix = cls(m, n)
        matrix._row_r, matrix._col_r = _bit_vectors(
            cells.translate(_REQUEST_DIGITS), m, n)
        matrix._row_g, matrix._col_g = _bit_vectors(
            cells.translate(_GRANT_DIGITS), m, n)
        matrix._edges = cells.count("r") + cells.count("g")
        return matrix

    @classmethod
    def from_matrix(cls, other: "AnyStateMatrix") -> "BitMatrix":
        """Convert from anything speaking the cell protocol.

        Writes the bit planes directly (no protocol checks), so even
        degenerate states representable by :meth:`StateMatrix.from_rows`
        convert faithfully.
        """
        matrix = cls(other.m, other.n,
                     resource_names=other.resource_names,
                     process_names=other.process_names)
        for s in range(other.m):
            sbit = 1 << s
            for t in range(other.n):
                cell = other.get(s, t)
                if cell is CellState.REQUEST:
                    matrix._row_r[s] |= 1 << t
                    matrix._col_r[t] |= sbit
                    matrix._edges += 1
                elif cell is CellState.GRANT:
                    matrix._row_g[s] |= 1 << t
                    matrix._col_g[t] |= sbit
                    matrix._edges += 1
        return matrix

    def to_rag(self) -> RAG:
        """Inverse mapping back to a RAG (single-grant rule enforced)."""
        rag = RAG(self.process_names, self.resource_names)
        for s in range(self.m):
            requests = self._row_r[s]
            while requests:
                low = requests & -requests
                t = low.bit_length() - 1
                rag.add_request(self.process_names[t],
                                self.resource_names[s])
                requests ^= low
            grants = self._row_g[s]
            while grants:
                low = grants & -grants
                t = low.bit_length() - 1
                rag.grant(self.resource_names[s], self.process_names[t])
                grants ^= low
        return rag

    def to_state_matrix(self) -> StateMatrix:
        """Convert to the per-cell reference representation."""
        return StateMatrix.from_matrix(self)

    def copy(self) -> "BitMatrix":
        clone = type(self)(self.m, self.n,
                           resource_names=self.resource_names,
                           process_names=self.process_names)
        clone._row_r = list(self._row_r)
        clone._row_g = list(self._row_g)
        clone._col_r = list(self._col_r)
        clone._col_g = list(self._col_g)
        clone._edges = self._edges
        return clone

    # -- checkpoint protocol -----------------------------------------------------

    SNAPSHOT_KIND = "rag.bitmatrix"

    def _row_symbols(self, s: int) -> list[str]:
        """Row ``s`` as one token per cell, walked off its set bits."""
        cells = ["."] * self.n
        for bits, symbol in ((self._row_r[s], "r"), (self._row_g[s], "g")):
            while bits:
                low = bits & -bits
                cells[low.bit_length() - 1] = symbol
                bits ^= low
        return cells

    def text_rows(self) -> list[str]:
        """Compact text rows, the inverse of :meth:`from_rows`."""
        return [" ".join(self._row_symbols(s)) for s in range(self.m)]

    def snapshot_state(self) -> dict:
        """Versioned, hashed snapshot.

        The payload is identical to the :class:`StateMatrix` payload for
        the same state — ``state_hash`` is representation-independent,
        so BitMatrix <-> StateMatrix conversions are hash-preserving.
        The rows are rendered from the planes, never cell by cell.
        """
        return matrix_snapshot_state(self, self.SNAPSHOT_KIND)

    @classmethod
    def restore_state(cls, envelope: dict) -> "BitMatrix":
        """Rebuild from a matrix snapshot of either backend kind."""
        state = open_matrix_envelope(envelope)
        matrix = cls.from_rows(state["rows"])
        matrix.resource_names = list(state["resource_names"])
        matrix.process_names = list(state["process_names"])
        if len(matrix.process_names) != matrix.n:
            from repro.errors import CheckpointError
            raise CheckpointError(
                "matrix snapshot: process_names length != n")
        return matrix

    # -- cell access -------------------------------------------------------------

    def _span(self, index: int, size: int, axis: str) -> int:
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(f"{axis} index out of range")
        return index

    def get(self, s: int, t: int) -> CellState:
        s = self._span(s, self.m, "row")
        t = self._span(t, self.n, "column")
        bit = 1 << t
        if self._row_r[s] & bit:
            return CellState.REQUEST
        if self._row_g[s] & bit:
            return CellState.GRANT
        return CellState.EMPTY

    def set_request(self, s: int, t: int) -> None:
        s = self._span(s, self.m, "row")
        t = self._span(t, self.n, "column")
        existing = self.get(s, t)
        if existing is not CellState.EMPTY:
            raise ResourceProtocolError(
                f"cell ({s},{t}) already {existing.name}")
        self._row_r[s] |= 1 << t
        self._col_r[t] |= 1 << s
        self._edges += 1

    def set_grant(self, s: int, t: int) -> None:
        s = self._span(s, self.m, "row")
        t = self._span(t, self.n, "column")
        bit = 1 << t
        grants = self._row_g[s]
        if grants & bit:
            raise ResourceProtocolError(f"cell ({s},{t}) already GRANT")
        if grants:
            holder = (grants & -grants).bit_length() - 1
            raise ResourceProtocolError(
                f"resource row {s} already granted to column {holder} "
                "(single-unit rule)")
        if self._row_r[s] & bit:
            # A pending request may be promoted to a grant in place.
            self._row_r[s] &= ~bit
            self._col_r[t] &= ~(1 << s)
        else:
            self._edges += 1
        self._row_g[s] |= bit
        self._col_g[t] |= 1 << s

    def clear(self, s: int, t: int) -> None:
        s = self._span(s, self.m, "row")
        t = self._span(t, self.n, "column")
        bit = 1 << t
        sbit = 1 << s
        if (self._row_r[s] | self._row_g[s]) & bit:
            self._edges -= 1
        self._row_r[s] &= ~bit
        self._row_g[s] &= ~bit
        self._col_r[t] &= ~sbit
        self._col_g[t] &= ~sbit

    def row(self, s: int) -> tuple[CellState, ...]:
        return tuple(self.get(s, t) for t in range(self.n))

    def column(self, t: int) -> tuple[CellState, ...]:
        return tuple(self.get(s, t) for s in range(self.m))

    @property
    def edge_count(self) -> int:
        return self._edges

    def is_empty(self) -> bool:
        return self._edges == 0

    # -- hardware reductions (Equations 3-6) ---------------------------------------

    def row_bwo(self, s: int) -> tuple[int, int]:
        """Bit-wise OR across row ``s``: (r_or, g_or)  (Equation 3)."""
        return (1 if self._row_r[s] else 0, 1 if self._row_g[s] else 0)

    def column_bwo(self, t: int) -> tuple[int, int]:
        """Bit-wise OR down column ``t``: (r_or, g_or)  (Equation 3)."""
        return (1 if self._col_r[t] else 0, 1 if self._col_g[t] else 0)

    def row_terminal(self, s: int) -> bool:
        """Terminal flag tau for row ``s`` (Equation 4 / Definition 7)."""
        return (self._row_r[s] == 0) != (self._row_g[s] == 0)

    def column_terminal(self, t: int) -> bool:
        """Terminal flag tau for column ``t`` (Equation 4 / Definition 8)."""
        return (self._col_r[t] == 0) != (self._col_g[t] == 0)

    def row_connect(self, s: int) -> bool:
        """Connect flag phi for row ``s`` (Equation 6)."""
        return bool(self._row_r[s]) and bool(self._row_g[s])

    def column_connect(self, t: int) -> bool:
        """Connect flag phi for column ``t`` (Equation 6)."""
        return bool(self._col_r[t]) and bool(self._col_g[t])

    def terminal_rows(self) -> list[int]:
        """On-set of terminal rows, the function T_r (Definition 9)."""
        row_r, row_g = self._row_r, self._row_g
        return [s for s in range(self.m)
                if (row_r[s] == 0) != (row_g[s] == 0)]

    def terminal_columns(self) -> list[int]:
        """On-set of terminal columns, the function T_c (Definition 10)."""
        col_r, col_g = self._col_r, self._col_g
        return [t for t in range(self.n)
                if (col_r[t] == 0) != (col_g[t] == 0)]

    def clear_row(self, s: int) -> None:
        bits = self._row_r[s] | self._row_g[s]
        self._edges -= bits.bit_count()
        keep = ~(1 << s)
        col_r, col_g = self._col_r, self._col_g
        while bits:
            low = bits & -bits
            t = low.bit_length() - 1
            col_r[t] &= keep
            col_g[t] &= keep
            bits ^= low
        self._row_r[s] = 0
        self._row_g[s] = 0

    def clear_column(self, t: int) -> None:
        bits = self._col_r[t] | self._col_g[t]
        self._edges -= bits.bit_count()
        keep = ~(1 << t)
        row_r, row_g = self._row_r, self._row_g
        while bits:
            low = bits & -bits
            s = low.bit_length() - 1
            row_r[s] &= keep
            row_g[s] &= keep
            bits ^= low
        self._col_r[t] = 0
        self._col_g[t] = 0

    # -- whole-matrix reduction (Algorithm 1 on the fast path) ---------------------

    def reduce(self) -> tuple[int, int]:
        """Run the terminal reduction sequence in place (Algorithm 1).

        Returns ``(iterations, passes)`` with the exact semantics of
        :func:`repro.deadlock.pdda.terminal_reduction`: both terminal
        on-sets are computed against the same pre-clear snapshot, every
        flagged row/column is cleared at once, and the final pass that
        finds no terminal edges is counted.  Each pass costs O(m + n)
        mask tests plus O(edges cleared) transpose patches.
        """
        iterations = 0
        passes = 0
        while True:
            passes += 1
            term_rows = self.terminal_rows()
            term_cols = self.terminal_columns()
            if not term_rows and not term_cols:
                break
            for s in term_rows:
                self.clear_row(s)
            for t in term_cols:
                self.clear_column(t)
            iterations += 1
        return iterations, passes

    # -- comparisons / rendering -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitMatrix):
            return ((self.m, self.n) == (other.m, other.n)
                    and self._row_r == other._row_r
                    and self._row_g == other._row_g)
        if isinstance(other, StateMatrix):
            if (self.m, self.n) != (other.m, other.n):
                return False
            return all(self.get(s, t) is other.get(s, t)
                       for s in range(self.m) for t in range(self.n))
        return NotImplemented

    def render(self) -> str:
        """Figure 11-style text rendering, identical to StateMatrix."""
        col_width = max([len(p) for p in self.process_names] + [1])
        header = " " * 6 + " ".join(
            p.rjust(col_width) for p in self.process_names)
        lines = [header]
        for s in range(self.m):
            cells = " ".join(symbol.rjust(col_width)
                             for symbol in self._row_symbols(s))
            lines.append(f"{self.resource_names[s]:<6s}{cells}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BitMatrix {self.m}x{self.n} edges={self._edges}>"


class NativeBitMatrix(BitMatrix):
    """A :class:`BitMatrix` whose Algorithm-1 sweep runs compiled code.

    Selected by ``REPRO_MATRIX_BACKEND=native``.  Everything except
    :meth:`reduce` is inherited: cell mutation stays on the Python-int
    planes, and only the whole-matrix reduction — the hot loop PDDA and
    the DDU model spend their time in — drops into the kernel from
    :mod:`repro.rag.native` (numba when importable, else a
    ctypes-loaded C kernel).  When no kernel can be loaded the
    reduction silently degrades to the inherited pure-Python sweep:
    same bits, same ``(iterations, passes)``, held identical by
    ``tests/test_native_backend.py`` and the ``pdda-backends-agree``
    campaign checker.
    """

    def reduce(self) -> tuple[int, int]:
        from repro.rag import native
        if not native.available():
            return super().reduce()
        return native.reduce_matrix(self)


#: Either state-matrix representation; both speak the same protocol.
AnyStateMatrix = Union[StateMatrix, BitMatrix]


# -- backend knob -----------------------------------------------------------------

def default_backend() -> str:
    """The process default: ``REPRO_MATRIX_BACKEND`` or the fast path."""
    value = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
    if not value:
        return FAST_BACKEND
    if value not in BACKENDS:
        raise ConfigurationError(
            f"{BACKEND_ENV_VAR}={value!r} is not one of {sorted(BACKENDS)}")
    return value


def resolve_backend(backend: Optional[str] = None) -> str:
    """Normalize a ``backend=`` argument (None -> process default)."""
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown matrix backend {backend!r}; "
            f"available: {sorted(BACKENDS)}")
    return backend


def matrix_class(backend: Optional[str] = None):
    """The matrix type the given backend builds."""
    resolved = resolve_backend(backend)
    if resolved == FAST_BACKEND:
        return BitMatrix
    if resolved == NATIVE_BACKEND:
        return NativeBitMatrix
    return StateMatrix


def matrix_from_rag(rag: RAG, backend: Optional[str] = None) -> AnyStateMatrix:
    """Build the backend's matrix straight from a RAG."""
    return matrix_class(backend).from_rag(rag)


def as_backend_matrix(source: Union[RAG, AnyStateMatrix],
                      backend: Optional[str] = None) -> AnyStateMatrix:
    """A fresh, safely-mutable matrix of the backend's type.

    RAGs are mapped, same-type matrices are copied, and cross-type
    matrices are converted — callers always own the result.
    """
    cls = matrix_class(backend)
    if isinstance(source, RAG):
        return cls.from_rag(source)
    if type(source) is cls:
        return source.copy()
    return cls.from_matrix(source)
