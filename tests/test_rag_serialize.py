"""Tests for RAG/matrix serialization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ResourceProtocolError
from repro.rag.bitmatrix import BitMatrix
from repro.rag.generate import cycle_state, random_state
from repro.rag.matrix import StateMatrix
from repro.rag.serialize import (
    matrix_from_dict,
    matrix_to_dict,
    matrix_to_rows,
    rag_from_dict,
    rag_from_json,
    rag_to_dict,
    rag_to_json,
    restore,
    snapshot,
)


def test_rag_dict_round_trip():
    state = cycle_state(3)
    assert rag_from_dict(rag_to_dict(state)) == state


def test_rag_json_round_trip():
    state = cycle_state(4)
    text = rag_to_json(state, indent=2)
    assert '"grants"' in text
    assert rag_from_json(text) == state


def test_rag_dict_missing_field():
    with pytest.raises(ResourceProtocolError):
        rag_from_dict({"processes": ["p1"]})


def test_rag_dict_rejects_illegal_edges():
    data = rag_to_dict(cycle_state(2))
    data["grants"].append(["q1", "p2"])      # q1 already granted
    with pytest.raises(ResourceProtocolError):
        rag_from_dict(data)


def test_matrix_rows_round_trip():
    matrix = StateMatrix.from_rows(["g r .", ". . g"])
    rows = matrix_to_rows(matrix)
    assert rows == ["g r .", ". . g"]
    assert StateMatrix.from_rows(rows) == matrix


def test_matrix_dict_round_trip_preserves_names():
    matrix = StateMatrix.from_rows(["g r"])
    matrix.resource_names = ["IDCT"]
    matrix.process_names = ["alpha", "beta"]
    rebuilt = matrix_from_dict(matrix_to_dict(matrix))
    assert rebuilt == matrix
    assert rebuilt.resource_names == ["IDCT"]
    assert rebuilt.process_names == ["alpha", "beta"]


def test_matrix_dict_name_length_mismatch():
    data = matrix_to_dict(StateMatrix.from_rows(["g r"]))
    data["process_names"] = ["only-one"]
    with pytest.raises(ResourceProtocolError):
        matrix_from_dict(data)


def test_snapshot_restore_dispatch():
    state = cycle_state(3)
    assert restore(snapshot(state)) == state
    matrix = StateMatrix.from_rag(state)
    assert restore(snapshot(matrix)) == matrix
    with pytest.raises(ResourceProtocolError):
        restore({"kind": "hologram"})
    with pytest.raises(ResourceProtocolError):
        snapshot(42)


def test_bitmatrix_snapshot_restores_planes_and_names():
    matrix = BitMatrix.from_rows(["g r .", ". . g"])
    matrix.resource_names = ["IDCT", "FFT"]
    data = snapshot(matrix)
    assert data["rows"] == matrix_to_rows(
        StateMatrix.from_matrix(matrix)) == ["g r .", ". . g"]
    rebuilt = restore(data)
    assert type(rebuilt) is BitMatrix and rebuilt == matrix
    assert rebuilt.resource_names == ["IDCT", "FFT"]
    data["process_names"] = ["only-one"]
    with pytest.raises(ResourceProtocolError, match="process_names"):
        restore(data)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 6))
@settings(max_examples=100, deadline=None)
def test_property_round_trip_any_state(seed, m, n):
    state = random_state(m, n, rng=random.Random(seed))
    assert rag_from_dict(rag_to_dict(state)) == state
    matrix = StateMatrix.from_rag(state)
    assert matrix_from_dict(matrix_to_dict(matrix)) == matrix
