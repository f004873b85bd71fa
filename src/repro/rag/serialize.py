"""Serialization of RAG states and matrices.

System states travel between tools (the framework's exploration sweeps,
trace dumps, regression fixtures), so both representations round-trip
through plain dictionaries (JSON-safe) and compact text.
"""

from __future__ import annotations

import json
from typing import Union

from repro.errors import ResourceProtocolError
from repro.rag.bitmatrix import AnyStateMatrix, BitMatrix
from repro.rag.graph import RAG
from repro.rag.matrix import StateMatrix
from repro.rag.multiunit import MultiUnitSystem


def rag_to_dict(rag: RAG) -> dict:
    """JSON-safe snapshot of a RAG state."""
    return {
        "processes": list(rag.processes),
        "resources": list(rag.resources),
        "grants": [[q, p] for q, p in rag.grant_edges()],
        "requests": [[p, q] for p, q in rag.request_edges()],
    }


def rag_from_dict(data: dict) -> RAG:
    """Rebuild a RAG from :func:`rag_to_dict` output (validated)."""
    try:
        rag = RAG(data["processes"], data["resources"])
        for q, p in data["grants"]:
            rag.grant(q, p)
        for p, q in data["requests"]:
            rag.add_request(p, q)
    except KeyError as missing:
        raise ResourceProtocolError(
            f"missing field {missing} in RAG snapshot") from None
    return rag


def rag_to_json(rag: RAG, indent: int = None) -> str:
    """Serialize a RAG state to a JSON document."""
    return json.dumps(rag_to_dict(rag), indent=indent, sort_keys=True)


def rag_from_json(text: str) -> RAG:
    """Rebuild a RAG state from :func:`rag_to_json` output."""
    return rag_from_dict(json.loads(text))


def matrix_to_rows(matrix: AnyStateMatrix) -> list:
    """Compact text rows accepted by :meth:`StateMatrix.from_rows`."""
    return matrix.text_rows()


def matrix_to_dict(matrix: AnyStateMatrix) -> dict:
    return {
        "resource_names": list(matrix.resource_names),
        "process_names": list(matrix.process_names),
        "rows": matrix_to_rows(matrix),
    }


def _named_matrix(cls, data: dict) -> AnyStateMatrix:
    """A ``cls`` matrix parsed from :func:`matrix_to_dict` output."""
    try:
        matrix = cls.from_rows(data["rows"])
        names_r = data.get("resource_names")
        names_p = data.get("process_names")
    except KeyError as missing:
        raise ResourceProtocolError(
            f"missing field {missing} in matrix snapshot") from None
    if names_r is not None:
        if len(names_r) != matrix.m:
            raise ResourceProtocolError("resource_names length mismatch")
        matrix.resource_names = list(names_r)
    if names_p is not None:
        if len(names_p) != matrix.n:
            raise ResourceProtocolError("process_names length mismatch")
        matrix.process_names = list(names_p)
    return matrix


def matrix_from_dict(data: dict) -> StateMatrix:
    return _named_matrix(StateMatrix, data)


def multiunit_to_dict(system: MultiUnitSystem) -> dict:
    """JSON-safe snapshot of a multi-unit allocation state."""
    allocation = [[p, q, system.allocation_of(p, q)]
                  for p in system.processes for q in system.resources
                  if system.allocation_of(p, q)]
    requests = [[p, q, system.outstanding_request(p, q)]
                for p in system.processes for q in system.resources
                if system.outstanding_request(p, q)]
    return {
        "processes": list(system.processes),
        "resources": [[q, system.total_units(q)] for q in system.resources],
        "allocation": allocation,
        "requests": requests,
    }


def multiunit_from_dict(data: dict) -> MultiUnitSystem:
    """Rebuild a multi-unit state by replaying through the protocol."""
    try:
        system = MultiUnitSystem(
            data["processes"], dict(map(tuple, data["resources"])))
        for p, q, units in data["allocation"]:
            system.request(p, q, units)
            system.grant(p, q, units)
        for p, q, units in data["requests"]:
            system.request(p, q, units)
    except KeyError as missing:
        raise ResourceProtocolError(
            f"missing field {missing} in multiunit snapshot") from None
    return system


AnyRagState = Union[RAG, StateMatrix, BitMatrix, MultiUnitSystem]


def snapshot(state: AnyRagState) -> dict:
    """Uniform snapshot entry point for any RAG-layer representation."""
    if isinstance(state, RAG):
        return {"kind": "rag", **rag_to_dict(state)}
    if isinstance(state, StateMatrix):
        return {"kind": "matrix", **matrix_to_dict(state)}
    if isinstance(state, BitMatrix):
        return {"kind": "bitmatrix", **matrix_to_dict(state)}
    if isinstance(state, MultiUnitSystem):
        return {"kind": "multiunit", **multiunit_to_dict(state)}
    raise ResourceProtocolError(f"cannot snapshot {type(state).__name__}")


def restore(data: dict) -> AnyRagState:
    """Inverse of :func:`snapshot`: rebuild any representation."""
    kind = data.get("kind")
    if kind == "rag":
        return rag_from_dict(data)
    if kind == "matrix":
        return matrix_from_dict(data)
    if kind == "bitmatrix":
        return _named_matrix(BitMatrix, data)
    if kind == "multiunit":
        return multiunit_from_dict(data)
    raise ResourceProtocolError(f"unknown snapshot kind {kind!r}")
