"""Differential suite: the batched plane === the per-tenant kernel.

Every case builds an ensemble of seeded states, reduces it once through
:class:`~repro.rag.batch.BatchPlane` (or the Python fallback) and once
through per-tenant :meth:`BitMatrix.reduce`, and demands bit-identical
iterations, passes, verdicts and residual cells — the same contract
``tests/test_bitmatrix_equiv.py`` holds between BitMatrix and the
cell-object reference.  The parametrized ensembles cover > 100 seeded
cases plus the structured adversaries (chains, cycles, worst cases),
mixed-shape packing, multi-word (65x65 / 100x100 / 128x128) planes,
and the persistent :class:`~repro.rag.batch.PlaneAccumulator` (the
service's bit-vector mirrors, no NumPy needed) under seeded random
update / remove / re-add streams, also against the
:func:`~repro.deadlock.pdda.terminal_reduction` reference on
:class:`~repro.rag.matrix.StateMatrix`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deadlock.pdda import terminal_reduction
from repro.rag.batch import (
    HAS_NUMPY,
    PLANE_WORD_BITS,
    BatchPlane,
    PlaneAccumulator,
    PythonBatchPlane,
    batch_plane,
    batched_reduce,
    plane_words,
)
from repro.rag.bitmatrix import BitMatrix
from repro.rag.generate import (
    chain_state,
    cycle_state,
    deadlock_free_state,
    random_state,
    worst_case_state,
)
from repro.rag.matrix import CellState, StateMatrix
from tests.test_bitmatrix_equiv import (
    CONVERSION_WIDTHS,
    assert_same_planes,
    random_text_rows,
)

SEED_ROOT = 42

needs_numpy = pytest.mark.skipif(not HAS_NUMPY,
                                 reason="numpy not installed")

#: (m, n, grant_fraction, request_fraction) shape mix per ensemble.
SHAPES = ((3, 3, 0.5, 0.3), (5, 8, 0.6, 0.3), (8, 5, 0.8, 0.5),
          (16, 16, 0.7, 0.4), (32, 24, 0.9, 0.5), (1, 1, 0.6, 0.3))


def _ensemble(seed_root: int) -> list:
    states = []
    for offset, (m, n, grants, requests) in enumerate(SHAPES):
        states.append(random_state(
            m, n, grant_fraction=grants, request_fraction=requests,
            seed=seed_root * 100 + offset))
    return states


def _assert_matches_per_tenant(states, vectorized) -> None:
    plane = batch_plane(states, vectorized=vectorized)
    batch_counts = plane.reduce_all()
    batch_verdicts = plane.deadlocked()
    for index, state in enumerate(states):
        solo = BitMatrix.from_rag(state) if not isinstance(
            state, BitMatrix) else state.copy()
        solo_counts = solo.reduce()
        assert batch_counts[index] == solo_counts, (
            f"tenant {index}: batched {batch_counts[index]} != "
            f"per-tenant {solo_counts}")
        assert batch_verdicts[index] == (not solo.is_empty())
        residual = plane.residual(index)
        assert residual == solo, f"tenant {index}: residual cells differ"
        assert residual.edge_count == solo.edge_count


@needs_numpy
@pytest.mark.parametrize("seed_root", range(18))
def test_vectorized_matches_per_tenant_random(seed_root):
    """18 ensembles x 6 shapes = 108 seeded random cases."""
    _assert_matches_per_tenant(_ensemble(seed_root), vectorized=True)


@pytest.mark.parametrize("seed_root", range(4))
def test_python_fallback_matches_per_tenant(seed_root):
    _assert_matches_per_tenant(_ensemble(seed_root), vectorized=False)


@needs_numpy
def test_structured_adversaries_match():
    """Chains (deepest reduction), cycles (irreducible), worst cases."""
    states = [chain_state(2), chain_state(17), chain_state(32),
              cycle_state(2), cycle_state(9), cycle_state(24),
              worst_case_state(12, 31), worst_case_state(31, 12),
              deadlock_free_state(10, 10, seed=7)]
    _assert_matches_per_tenant(states, vectorized=True)


@needs_numpy
def test_mixed_shapes_pack_inertly():
    """Padding rows/columns never read as terminal or leak edges."""
    states = [random_state(2, 11, seed=1), random_state(11, 2, seed=2),
              random_state(7, 7, seed=3), cycle_state(3)]
    results = batched_reduce(states, vectorized=True)
    for (deadlock, iterations, passes, residual), state in zip(results,
                                                               states):
        solo = BitMatrix.from_rag(state)
        solo_iters, solo_passes = solo.reduce()
        assert (iterations, passes) == (solo_iters, solo_passes)
        assert deadlock == (not solo.is_empty())
        assert residual == solo
        assert (residual.m, residual.n) == (state.num_resources,
                                            state.num_processes)


@needs_numpy
def test_vectorized_and_fallback_agree():
    states = _ensemble(99)
    fast = batched_reduce(states, vectorized=True)
    slow = batched_reduce(states, vectorized=False)
    for (fd, fi, fp, fres), (sd, si, sp, sres) in zip(fast, slow):
        assert (fd, fi, fp) == (sd, si, sp)
        assert fres == sres


@needs_numpy
@pytest.mark.parametrize("m,n", [(65, 65), (100, 100), (128, 128),
                                 (65, 4), (4, 65), (128, 24)])
def test_multiword_planes_match_per_tenant(m, n):
    """Sides past one word pack into ceil(side/64) words, same bits.

    The old single-word plane rejected anything wider than 64; these
    ensembles must now ride the vectorized kernel (no fallback) and
    stay bit-identical to per-tenant reduction.
    """
    states = [random_state(m, n, grant_fraction=0.7,
                           request_fraction=0.4,
                           seed=SEED_ROOT * 1000 + m * 7 + n + index)
              for index in range(4)]
    states.append(worst_case_state(m, n))
    plane = batch_plane(states)
    assert plane.vectorized, "wide tenants must not fall back"
    assert plane.words_per_row == plane_words(n)
    assert plane.words_per_column == plane_words(m)
    _assert_matches_per_tenant(states, vectorized=True)


@needs_numpy
@pytest.mark.parametrize("side", [65, 100, 128])
def test_multiword_random_op_streams(side):
    """Drive a wide matrix through a seeded op stream; after every few
    mutations the batched reduction of a copy must equal the solo
    kernel's — the multi-word analogue of the service tick."""
    rng = random.Random(SEED_ROOT * side)
    matrix = BitMatrix(side, side)
    for step in range(120):
        s = rng.randrange(side)
        t = rng.randrange(side)
        cell = matrix.get(s, t)
        if cell is CellState.EMPTY:
            if matrix.row_bwo(s)[1] == 0:
                matrix.set_grant(s, t)
            else:
                matrix.set_request(s, t)
        else:
            matrix.clear(s, t)
        if step % 10 == 9:
            plane = BatchPlane([matrix])
            (iterations, passes), = plane.reduce_all()
            solo = matrix.copy()
            assert (iterations, passes) == solo.reduce()
            assert plane.residual(0) == solo


def test_word_width_unbounded():
    """There is no packing width limit anymore, only word growth."""
    assert plane_words(1) == 1
    assert plane_words(64) == 1
    assert plane_words(65) == 2
    assert plane_words(128) == 2
    assert plane_words(129) == 3
    assert PLANE_WORD_BITS == 64


@needs_numpy
def test_fallback_is_observable():
    """An automatic drop to the sequential plane must leave a trace:
    the ``matrix.batch.unpacked_fallbacks`` counter and a flight
    event.  (With numpy importable the automatic path never falls
    back, so force the decision by faking HAS_NUMPY off.)"""
    from repro.obs import Observability
    import repro.rag.batch as batch_module

    obs = Observability(label="fallback-test")
    obs.flight.enable()
    original = batch_module.HAS_NUMPY
    batch_module.HAS_NUMPY = False
    try:
        plane = batch_module.batch_plane(
            [cycle_state(4)], obs=obs)
    finally:
        batch_module.HAS_NUMPY = original
    assert isinstance(plane, PythonBatchPlane)
    counter = obs.metrics.counter(
        "matrix.batch.unpacked_fallbacks", "")
    assert counter.value == 1
    kinds = [event["kind"] for event in obs.flight.events()]
    assert "batch_unpacked_fallback" in kinds
    # An explicit vectorized=False is a deliberate choice: no signal.
    batch_module.batch_plane([cycle_state(4)], vectorized=False,
                             obs=obs)
    assert counter.value == 1


def test_empty_ensemble_rejected():
    from repro.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        batch_plane([])


@needs_numpy
def test_residuals_are_independent_copies():
    states = [cycle_state(4)]
    plane = BatchPlane(states)
    plane.reduce_all()
    first = plane.residual(0)
    first.clear_row(0)
    assert plane.residual(0).edge_count == 8  # plane unaffected


# -- the persistent accumulator (the service tick path) -----------------

def test_accumulator_matches_batch_plane():
    """add() + reduce() must equal per-tenant reduction, and the
    mirrors must survive the reduction untouched."""
    matrices = [BitMatrix.from_rag(state) for state in _ensemble(7)]
    acc = PlaneAccumulator()
    slots = [acc.add(matrix) for matrix in matrices]
    assert acc.repacks == len(matrices)
    reduction = acc.reduce(slots)
    for position, matrix in enumerate(matrices):
        solo = matrix.copy()
        counts = solo.reduce()
        assert reduction.counts(position) == counts
        assert reduction.deadlocked(position) == (not solo.is_empty())
        assert reduction.residual(position) == solo
    # Scratch semantics: reducing the same slots again gives the same
    # answer — the mirrors were not consumed.
    again = acc.reduce(slots)
    for position in range(len(matrices)):
        assert again.counts(position) == reduction.counts(position)


@pytest.mark.parametrize("side", [12, 65, 100])
def test_accumulator_incremental_updates(side):
    """In-place row/column refreshes track a seeded op stream exactly —
    no repack between mutations, including past one 64-bit word."""
    acc = PlaneAccumulator()
    matrix = BitMatrix(side, side)
    slot = acc.add(matrix)
    rng = random.Random(SEED_ROOT * 31 + side)
    for step in range(150):
        s = rng.randrange(side)
        t = rng.randrange(side)
        cell = matrix.get(s, t)
        if cell is CellState.EMPTY:
            if matrix.row_bwo(s)[1] == 0:
                matrix.set_grant(s, t)
            else:
                matrix.set_request(s, t)
        else:
            matrix.clear(s, t)
        acc.update(slot, matrix, s, t)
        if step % 15 == 14:
            reduction = acc.reduce([slot])
            solo = matrix.copy()
            assert reduction.counts(0) == solo.reduce()
            assert reduction.residual(0) == solo
    assert acc.repacks == 1, "updates must never trigger a repack"


def test_accumulator_slot_recycling_and_growth():
    """remove() recycles slots; wider late-comers join without
    disturbing existing tenants."""
    acc = PlaneAccumulator()
    small = BitMatrix.from_rag(cycle_state(4))
    slot_a = acc.add(small)
    acc.remove(slot_a)
    replacement = BitMatrix.from_rag(chain_state(3))
    slot_b = acc.add(replacement)
    assert slot_b == slot_a, "freed slot should be recycled"
    reduction = acc.reduce([slot_b])
    solo = replacement.copy()
    assert reduction.counts(0) == solo.reduce()
    assert reduction.residual(0) == solo
    # A 100-wide tenant joins; the recycled small tenant must still
    # reduce identically afterwards.
    wide = BitMatrix.from_rag(worst_case_state(100, 100))
    slot_c = acc.add(wide)
    reduction = acc.reduce([slot_b, slot_c])
    solo_small, solo_wide = replacement.copy(), wide.copy()
    assert reduction.counts(0) == solo_small.reduce()
    assert reduction.counts(1) == solo_wide.reduce()
    assert reduction.residual(1) == solo_wide


#: Tenant widths of the accumulator stream differential: one bit, the
#: service's small tenants, both sides of each 64-bit boundary, and the
#: detect-heavy mix's 160-wide tenants.
STREAM_WIDTHS = (1, 16, 63, 64, 65, 160)


def _mutate(matrix: BitMatrix, rng: random.Random) -> tuple:
    """One legal single-cell op: grant a free resource, request a held
    one, or clear the cell; returns the touched cell."""
    s = rng.randrange(matrix.m)
    t = rng.randrange(matrix.n)
    if matrix.get(s, t) is not CellState.EMPTY:
        matrix.clear(s, t)
    elif matrix.row_bwo(s)[1] == 0:
        matrix.set_grant(s, t)
    else:
        matrix.set_request(s, t)
    return s, t


def _assert_reduction_matches_references(reduction, position: int,
                                         matrix: BitMatrix) -> None:
    solo = matrix.copy()
    counts = solo.reduce()
    reference = terminal_reduction(StateMatrix.from_matrix(matrix),
                                   backend="reference")
    assert reduction.counts(position) == counts
    assert counts == (reference.iterations, reference.passes)
    assert reduction.deadlocked(position) == (not solo.is_empty())
    assert reduction.deadlocked(position) == (
        not reference.matrix.is_empty())
    residual = reduction.residual(position)
    assert_same_planes(residual, solo)
    assert residual == reference.matrix
    assert residual.process_names == matrix.process_names
    assert residual.resource_names == matrix.resource_names


@pytest.mark.parametrize("width", STREAM_WIDTHS)
def test_accumulator_streams_match_per_tenant_and_reference(width):
    """Seeded update / remove / re-add streams over three tenants of
    ``width`` columns (and 1, ``width`` and ``width + 3`` rows): every
    reduction equals per-tenant ``BitMatrix.reduce()`` and the
    ``pdda.terminal_reduction`` reference on ``StateMatrix`` — counts,
    verdict, residual cells, planes and edge count.  Releases that
    touch two cells are synced in either order."""
    rng = random.Random(SEED_ROOT * 1009 + width)
    acc = PlaneAccumulator()
    matrices = [BitMatrix(m, width) for m in (1, width, width + 3)]
    slots = [acc.add(matrix) for matrix in matrices]
    checks = 0
    for step in range(240):
        index = rng.randrange(len(matrices))
        matrix = matrices[index]
        roll = rng.random()
        if roll < 0.04:
            # Detach, mutate while detached, then attach afresh: the
            # re-add must mirror the matrix as it is now.
            acc.remove(slots[index])
            _mutate(matrix, rng)
            slots[index] = acc.add(matrix)
        elif roll < 0.2:
            cells = [_mutate(matrix, rng), _mutate(matrix, rng)]
            if rng.random() < 0.5:
                cells.reverse()
            for s, t in cells:
                acc.update(slots[index], matrix, s, t)
        else:
            s, t = _mutate(matrix, rng)
            acc.update(slots[index], matrix, s, t)
        if step % 12 == 11:
            chosen = rng.sample(range(len(matrices)),
                                rng.randrange(1, len(matrices) + 1))
            reduction = acc.reduce([slots[i] for i in chosen])
            assert reduction.count == len(chosen)
            for position, i in enumerate(chosen):
                _assert_reduction_matches_references(
                    reduction, position, matrices[i])
            checks += 1
    assert checks == 20
    assert acc.slots_in_use == len(matrices)


def test_accumulator_reduction_never_consumes_or_aliases_the_mirror():
    """Reducing twice gives the same answer, and mutating one
    reduction's residual leaves the next reduction unchanged."""
    matrix = BitMatrix.from_rag(cycle_state(5))
    chain = BitMatrix.from_rag(chain_state(6))
    acc = PlaneAccumulator()
    slots = [acc.add(matrix), acc.add(chain)]
    first = acc.reduce(slots)
    second = acc.reduce(slots)
    for position in range(2):
        assert second.counts(position) == first.counts(position)
        assert second.deadlocked(position) == first.deadlocked(position)
        assert_same_planes(second.residual(position),
                           first.residual(position))
        assert second.residual(position) is not first.residual(position)
    residual = first.residual(0)
    assert residual.edge_count == 10
    residual.clear_row(0)
    residual.set_grant(0, 4)
    third = acc.reduce(slots)
    assert third.counts(0) == second.counts(0)
    assert_same_planes(third.residual(0), second.residual(0))
    # Mutating the tenant's own matrix without an update() does not
    # reach the mirror either: add() copied it.
    matrix.clear_row(0)
    assert_same_planes(acc.reduce([slots[0]]).residual(0),
                       second.residual(0))


# -- residuals: the mirror copies and the BatchPlane read-back ---------

def _assert_residuals_match_reduce(matrices) -> None:
    """Both residuals equal per-tenant ``BitMatrix.reduce()`` in all
    four planes and the edge count — the accumulator's always, and
    (with NumPy) the BatchPlane read-back of tenants packed at their
    own widths inside the ensemble's widest envelope."""
    acc = PlaneAccumulator()
    slots = [acc.add(matrix) for matrix in matrices]
    reduction = acc.reduce(slots[::-1])
    plane = BatchPlane(matrices) if HAS_NUMPY else None
    if plane is not None:
        plane.reduce_all()
    for index, matrix in enumerate(matrices):
        solo = matrix.copy()
        solo.reduce()
        position = len(matrices) - 1 - index
        assert_same_planes(reduction.residual(position), solo)
        if plane is not None:
            assert_same_planes(plane.residual(index), solo)


@pytest.mark.parametrize("width", CONVERSION_WIDTHS)
def test_residuals_match_per_tenant_reduce(width):
    rng = random.Random(SEED_ROOT * 7 + width)
    matrices = [
        BitMatrix.from_rows(
            random_text_rows(m, width, rng, density, degenerate))
        for m in sorted({1, width, max(1, width // 2)})
        for density in (0.02, 0.3)
        for degenerate in (False, True)]
    # A mixed-width ensemble: the narrow tenants ride in wide slots.
    matrices.append(BitMatrix.from_rag(cycle_state(5)))
    _assert_residuals_match_reduce(matrices)


@settings(max_examples=40, deadline=None)
@given(shapes=st.lists(st.tuples(st.sampled_from(CONVERSION_WIDTHS),
                                 st.sampled_from(CONVERSION_WIDTHS),
                                 st.floats(0.0, 1.0), st.booleans()),
                       min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_residuals_match_per_tenant_reduce_hypothesis(shapes, seed):
    rng = random.Random(seed)
    _assert_residuals_match_reduce([
        BitMatrix.from_rows(
            random_text_rows(m, n, rng, density, degenerate))
        for m, n, density, degenerate in shapes])
