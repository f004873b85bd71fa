"""Batched terminal reduction: many tenant matrices per vector op.

:class:`~repro.rag.bitmatrix.BitMatrix` collapses one Algorithm-1 pass
to O(m + n) Python-int mask tests.  A large ensemble of small
matrices (dozens of tenants reduced at once) wants one verdict per
matrix — running the per-tenant kernel N times re-pays the interpreter
dispatch cost N times per pass.

:class:`BatchPlane` packs N tenant matrices into four shared NumPy
``uint64`` planes — ``row_r[N, M, Wn]`` / ``row_g[N, M, Wn]`` hold each
tenant's per-row request/grant words, ``col_r[N, T, Wm]`` /
``col_g[N, T, Wm]`` the column transposes — so a single sweep of
vectorized mask ops runs one Algorithm-1 pass for *every* tenant at
once:

* terminal flags (Equation 4)   — ``(plane == 0).all() ^
  (other == 0).all()`` across each row's word span, elementwise over
  the whole batch;
* clearing terminal rows/cols (Definition 12) — zero the flagged word
  spans and mask the flagged bits out of the transposes with one
  ``&= ~mask`` broadcast per plane.

Each side packs into ``ceil(side / 64)`` words (``Wn`` words per row,
``Wm`` per column), so there is **no upper limit** on tenant width —
128x128 and larger instances ride the same vectorized kernel as 8x8
ones, just with a wider word span.  ``Wn``/``Wm`` are 1 for the dense
small-tenant regime, so the extra axis costs nothing there.

Tenants converge at different pass counts, so per-tenant ``iterations``
/ ``passes`` counters advance under an ``active`` mask with exactly the
semantics of :meth:`BitMatrix.reduce`: both terminal on-sets are taken
against the same pre-clear snapshot, and the final no-terminal pass is
counted.  ``tests/test_batch_differential.py`` holds the batched plane
bit-identical to the per-tenant kernel over randomized ensembles,
including 65x65 / 100x100 / 128x128 multi-word cases.

Tenant matrices may have *different* shapes: every tenant is packed
into the ensemble's (max m, max n) envelope, and the padding is inert —
an all-empty row or column has both planes zero, so its terminal flag
(an XOR) is never raised and no pass ever touches it.

When NumPy is unavailable the same API is served by
:class:`PythonBatchPlane`, which simply runs the per-tenant kernel in a
loop — slower, but bit-identical by construction; :func:`batch_plane`
signals that degradation through the ``matrix.batch.unpacked_fallbacks``
counter and a flight-recorder event when given an observability hub.

:class:`PlaneAccumulator` is the store the service tick path uses, and
it does **not** use the planes: each tenant is mirrored once as a
:class:`BitMatrix`, each accepted mutation copies just the touched row
and column ints, and each tick runs :meth:`BitMatrix.reduce` on a copy
of each dirty tenant's mirror — see :mod:`repro.service.shard`.  A tick
reduces a handful of tenants, too few for the vectorized sweep to pay
its per-pass NumPy dispatch and residual read-back, so
:class:`BatchPlane` stays the ensemble kernel for other callers.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.rag.bitmatrix import AnyStateMatrix, BitMatrix
from repro.rag.graph import RAG

try:  # NumPy is optional: the service degrades to the Python plane.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only without numpy
    _np = None

#: True when the vectorized NumPy plane is available in this process.
HAS_NUMPY = _np is not None

#: Bits per plane word; a side of ``n`` packs into ``ceil(n / 64)`` words.
PLANE_WORD_BITS = 64

_WORD_MASK = (1 << PLANE_WORD_BITS) - 1


def plane_words(side: int) -> int:
    """uint64 words needed to pack a ``side``-bit row/column (>= 1)."""
    return max(1, (side + PLANE_WORD_BITS - 1) // PLANE_WORD_BITS)


def _dims(source) -> tuple[int, int]:
    if isinstance(source, RAG):
        return source.num_resources, source.num_processes
    return source.m, source.n


def _as_bitmatrix(source) -> BitMatrix:
    if isinstance(source, BitMatrix):
        return source
    if isinstance(source, RAG):
        return BitMatrix.from_rag(source)
    return BitMatrix.from_matrix(source)


# -- word marshalling ---------------------------------------------------

def _read_vectors(plane, count: int) -> list[int]:
    """Recombine the first ``count`` word spans of a ``(side, words)``
    plane into Python-int bit vectors: one ``tobytes()`` for the plane,
    one ``int.from_bytes`` per span (word ``j`` holds bits
    ``64j .. 64j + 63``, so little-endian bytes read it in order)."""
    data = plane[:count].astype("<u8", copy=False).tobytes()
    step = plane.shape[1] * (PLANE_WORD_BITS // 8)
    return [int.from_bytes(data[i:i + step], "little")
            for i in range(0, count * step, step)]


def _plane_residual(row_r, row_g, col_r, col_g, index: int,
                    like: BitMatrix) -> BitMatrix:
    """Slot ``index`` of four packed planes as a standalone BitMatrix
    shaped and named after ``like``."""
    matrix = BitMatrix(like.m, like.n,
                       resource_names=like.resource_names,
                       process_names=like.process_names)
    matrix._row_r = _read_vectors(row_r[index], like.m)
    matrix._row_g = _read_vectors(row_g[index], like.m)
    matrix._col_r = _read_vectors(col_r[index], like.n)
    matrix._col_g = _read_vectors(col_g[index], like.n)
    matrix._edges = (sum(map(int.bit_count, matrix._row_r))
                     + sum(map(int.bit_count, matrix._row_g)))
    return matrix


def _pack_vectors(plane_r, plane_g, index: int, values_r, values_g,
                  count: int, words: int) -> None:
    """Pack per-row (or per-column) int vectors into slot ``index``.

    Bulk list-to-array assignment per word column: one NumPy conversion
    per word instead of one scalar store per row.
    """
    if words == 1:
        plane_r[index, :count, 0] = values_r
        plane_g[index, :count, 0] = values_g
        return
    for j in range(words):
        shift = j * PLANE_WORD_BITS
        plane_r[index, :count, j] = [(v >> shift) & _WORD_MASK
                                     for v in values_r]
        plane_g[index, :count, j] = [(v >> shift) & _WORD_MASK
                                     for v in values_g]


def _bit_table(count: int, words: int):
    """(count, words) table: row ``i`` holds only bit ``i`` of its word."""
    table = _np.zeros((count, words), dtype=_np.uint64)
    for i in range(count):
        table[i, i >> 6] = 1 << (i & 63)
    return table


def _reduce_plane_arrays(row_r, row_g, col_r, col_g, row_bits, col_bits):
    """The vectorized Algorithm-1 sweep over packed word planes.

    Mutates the four planes in place; returns per-tenant
    ``(iterations, passes)`` int64 arrays with the exact semantics of
    :meth:`BitMatrix.reduce`: terminal on-sets are computed against the
    pre-clear snapshot each pass, and the final no-terminal pass is
    counted.
    """
    np = _np
    count = row_r.shape[0]
    iterations = np.zeros(count, dtype=np.int64)
    passes = np.zeros(count, dtype=np.int64)
    active = np.ones(count, dtype=bool)
    while True:
        # Equation 4 for every row/column of every tenant at once; an
        # all-empty (padding) row has both word spans zero and XORs to
        # False, so it never reads as terminal.
        term_rows = (row_r == 0).all(axis=2) ^ (row_g == 0).all(axis=2)
        term_cols = (col_r == 0).all(axis=2) ^ (col_g == 0).all(axis=2)
        any_term = term_rows.any(axis=1) | term_cols.any(axis=1)
        passes += active
        iterations += active & any_term
        active &= any_term
        if not active.any():
            break
        # Definition 12, batch-wide: zero every terminal row/column
        # word span and strip its bit from the transposed plane.  A
        # cell in both a terminal row and a terminal column is cleared
        # by either path — same outcome as the sequential kernel.
        row_clear = np.bitwise_or.reduce(
            np.where(term_rows[:, :, None], row_bits[None, :, :],
                     np.uint64(0)), axis=1)
        col_clear = np.bitwise_or.reduce(
            np.where(term_cols[:, :, None], col_bits[None, :, :],
                     np.uint64(0)), axis=1)
        row_r[term_rows] = 0
        row_g[term_rows] = 0
        row_r &= ~col_clear[:, None, :]
        row_g &= ~col_clear[:, None, :]
        col_r[term_cols] = 0
        col_g[term_cols] = 0
        col_r &= ~row_clear[:, None, :]
        col_g &= ~row_clear[:, None, :]
    return iterations, passes


class PythonBatchPlane:
    """The batched API served by the per-tenant kernel in a loop.

    The fallback for NumPy-less processes; bit-identical to
    :class:`BatchPlane` by construction (it *is* the per-tenant
    kernel), with no width limit either.
    """

    vectorized = False

    def __init__(self, matrices: Sequence[AnyStateMatrix]) -> None:
        if not matrices:
            raise ConfigurationError("batch plane needs at least 1 tenant")
        self._matrices = [_as_bitmatrix(m).copy() for m in matrices]

    @property
    def count(self) -> int:
        return len(self._matrices)

    def reduce_all(self) -> list[tuple[int, int]]:
        """Per-tenant ``(iterations, passes)``, semantics of
        :meth:`BitMatrix.reduce`."""
        return [matrix.reduce() for matrix in self._matrices]

    def residual(self, index: int) -> BitMatrix:
        return self._matrices[index].copy()

    def residuals(self) -> list[BitMatrix]:
        return [matrix.copy() for matrix in self._matrices]

    def deadlocked(self) -> list[bool]:
        """Per-tenant verdict: surviving edges mean deadlock."""
        return [not matrix.is_empty() for matrix in self._matrices]


class BatchPlane:
    """N tenant matrices packed into shared multi-word uint64 planes."""

    vectorized = True

    def __init__(self, matrices: Sequence[AnyStateMatrix]) -> None:
        if _np is None:
            raise ConfigurationError(
                "BatchPlane needs numpy; use PythonBatchPlane "
                "(or batch_plane(), which picks automatically)")
        if not matrices:
            raise ConfigurationError("batch plane needs at least 1 tenant")
        sources = [_as_bitmatrix(m) for m in matrices]
        self._sources = sources
        count = len(sources)
        self._m = max(matrix.m for matrix in sources)
        self._n = max(matrix.n for matrix in sources)
        self._wn = plane_words(self._n)
        self._wm = plane_words(self._m)
        shape_rows = (count, self._m, self._wn)
        shape_cols = (count, self._n, self._wm)
        self._row_r = _np.zeros(shape_rows, dtype=_np.uint64)
        self._row_g = _np.zeros(shape_rows, dtype=_np.uint64)
        self._col_r = _np.zeros(shape_cols, dtype=_np.uint64)
        self._col_g = _np.zeros(shape_cols, dtype=_np.uint64)
        for i, matrix in enumerate(sources):
            _pack_vectors(self._row_r, self._row_g, i,
                          matrix._row_r, matrix._row_g, matrix.m,
                          self._wn)
            _pack_vectors(self._col_r, self._col_g, i,
                          matrix._col_r, matrix._col_g, matrix.n,
                          self._wm)
        self._row_bits = _bit_table(self._m, self._wm)
        self._col_bits = _bit_table(self._n, self._wn)

    @property
    def count(self) -> int:
        return len(self._sources)

    @property
    def words_per_row(self) -> int:
        """uint64 words spanning one packed row (``ceil(n_max / 64)``)."""
        return self._wn

    @property
    def words_per_column(self) -> int:
        """uint64 words spanning one packed column (``ceil(m_max / 64)``)."""
        return self._wm

    def reduce_all(self) -> list[tuple[int, int]]:
        """One vectorized Algorithm-1 sweep over every tenant."""
        iterations, passes = _reduce_plane_arrays(
            self._row_r, self._row_g, self._col_r, self._col_g,
            self._row_bits, self._col_bits)
        return [(int(iterations[i]), int(passes[i]))
                for i in range(self.count)]

    def residual(self, index: int) -> BitMatrix:
        """Tenant ``index``'s current plane as a standalone BitMatrix."""
        return _plane_residual(self._row_r, self._row_g, self._col_r,
                               self._col_g, index, self._sources[index])

    def residuals(self) -> list[BitMatrix]:
        return [self.residual(i) for i in range(self.count)]

    def deadlocked(self) -> list[bool]:
        """Per-tenant verdict: surviving edges mean deadlock."""
        survived = ((self._row_r | self._row_g) != 0).any(axis=(1, 2))
        return [bool(survived[i]) for i in range(self.count)]


class PlaneReduction:
    """One :meth:`PlaneAccumulator.reduce` result: the reduced copies.

    Positions index the ``slots`` sequence the reduction was asked for,
    not accumulator slots.  Each position owns a reduced copy of its
    tenant's mirror, so nothing here aliases the accumulator.
    """

    __slots__ = ("_matrices", "_counts")

    def __init__(self, matrices: list[BitMatrix],
                 counts: list[tuple[int, int]]) -> None:
        self._matrices = matrices
        self._counts = counts

    @property
    def count(self) -> int:
        return len(self._matrices)

    def counts(self, position: int) -> tuple[int, int]:
        return self._counts[position]

    def deadlocked(self, position: int) -> bool:
        return not self._matrices[position].is_empty()

    def residual(self, position: int) -> BitMatrix:
        """The reduced copy itself: no read-back, nothing to convert."""
        return self._matrices[position]


class PlaneAccumulator:
    """Per-tenant bit-vector mirrors with in-place row/column refresh.

    A service shard adds each tenant **once** into a slot here (a
    :class:`BitMatrix` mirror of its row and column vectors), copies
    just the mutated row and column ints after each accepted operation
    (:meth:`update`), and reduces only the tenants whose verdict cache
    went stale (:meth:`reduce`) — each reduction runs
    :meth:`BitMatrix.reduce` on a copy of the mirror, so the mirrors
    are never consumed.

    At service batch sizes (a handful of dirty tenants per tick) this
    beats packing the dirty tenants into :class:`BatchPlane` words:
    the vectorized sweep pays NumPy dispatch per pass for every
    tenant, then a read-back to answer with a residual
    (``benchmarks/test_bench_shard_reduce.py``).  ``repacks`` counts
    full tenant adds, surfaced as ``matrix.batch.repacks`` by the
    shard.
    """

    def __init__(self) -> None:
        self._mirrors: list[Optional[BitMatrix]] = []
        self._free: list[int] = []
        #: Full tenant packs (initial adds and re-adds after restore).
        self.repacks = 0

    @property
    def slots_in_use(self) -> int:
        return len(self._mirrors) - len(self._free)

    def add(self, matrix: BitMatrix) -> int:
        """Mirror one tenant into a fresh (or recycled) slot."""
        mirror = matrix.copy()
        if self._free:
            slot = self._free.pop()
            self._mirrors[slot] = mirror
        else:
            slot = len(self._mirrors)
            self._mirrors.append(mirror)
        self.repacks += 1
        return slot

    def update(self, slot: int, matrix: BitMatrix, s: int, t: int) -> None:
        """Copy the vectors a mutation at cell ``(s, t)`` touched.

        One claim/release changes row ``s`` and column ``t`` only, so
        only those four ints are copied — no full repack.  The edge
        count moves by row ``s``'s change, so it stays exact whatever
        order a multi-cell mutation's cells arrive in.
        """
        mirror = self._mirrors[slot]
        row_r = matrix._row_r[s]
        row_g = matrix._row_g[s]
        mirror._edges += (row_r.bit_count() + row_g.bit_count()
                          - mirror._row_r[s].bit_count()
                          - mirror._row_g[s].bit_count())
        mirror._row_r[s] = row_r
        mirror._row_g[s] = row_g
        mirror._col_r[t] = matrix._col_r[t]
        mirror._col_g[t] = matrix._col_g[t]

    def remove(self, slot: int) -> None:
        """Drop and recycle one slot (tenant detached or replaced)."""
        self._mirrors[slot] = None
        self._free.append(slot)

    def reduce(self, slots: Sequence[int]) -> PlaneReduction:
        """Reduce a copy of each given slot's mirror."""
        if not len(slots):
            raise ConfigurationError("accumulator reduce needs >= 1 slot")
        matrices = [self._mirrors[slot].copy() for slot in slots]
        return PlaneReduction(matrices,
                              [matrix.reduce() for matrix in matrices])


def batch_plane(matrices: Sequence[AnyStateMatrix],
                vectorized: Optional[bool] = None, obs=None):
    """The right plane for an ensemble: vectorized when it can be.

    ``vectorized=None`` (the default) picks :class:`BatchPlane`
    whenever NumPy is importable — there is no width limit anymore —
    else :class:`PythonBatchPlane`.  That silent degradation is now
    observable: pass an :class:`~repro.obs.Observability` hub as
    ``obs`` and every automatic fallback increments the
    ``matrix.batch.unpacked_fallbacks`` counter and records a
    ``batch_unpacked_fallback`` flight event.  Forcing
    ``vectorized=True`` without NumPy raises
    :class:`~repro.errors.ConfigurationError`; forcing
    ``vectorized=False`` is a deliberate choice and emits no signal.
    """
    if vectorized is None:
        vectorized = HAS_NUMPY and bool(matrices)
        if not vectorized and matrices and obs is not None:
            obs.metrics.counter(
                "matrix.batch.unpacked_fallbacks",
                "ensembles served by the sequential per-tenant kernel",
            ).inc()
            if obs.flight.enabled:
                obs.flight.record("batch_unpacked_fallback",
                                  actor="batch", tenants=len(matrices))
    return BatchPlane(matrices) if vectorized \
        else PythonBatchPlane(matrices)


def batched_reduce(matrices: Sequence[AnyStateMatrix],
                   vectorized: Optional[bool] = None
                   ) -> list[tuple[bool, int, int, BitMatrix]]:
    """Reduce an ensemble; per-tenant ``(deadlock, iterations, passes,
    residual)`` — the batch analogue of running
    :func:`repro.deadlock.pdda.terminal_reduction` per tenant."""
    plane = batch_plane(matrices, vectorized=vectorized)
    counts = plane.reduce_all()
    verdicts = plane.deadlocked()
    residuals = plane.residuals()
    return [(verdicts[i], counts[i][0], counts[i][1], residuals[i])
            for i in range(plane.count)]
