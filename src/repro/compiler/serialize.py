"""JSON serialisation of compiled results.

A compiled circuit is only useful downstream together with its provenance —
which device it targets, where each logical qubit starts and ends, what the
flow cost.  This module persists the whole :class:`CompiledQAOA` (or
:class:`CompiledCircuit`) as a self-contained JSON document and restores it,
so compilation results can be cached, diffed, shipped to an execution
service, or inspected offline.

The circuit itself is embedded as OpenQASM 2.0 (see
:mod:`repro.circuits.qasm`), keeping the payload readable by other tools.
"""

from __future__ import annotations

import json
from typing import Union

from ..circuits import QuantumCircuit
from ..circuits.qasm import dumps as qasm_dumps
from ..circuits.qasm import loads as qasm_loads
from ..hardware.coupling import CouplingGraph
from ..hardware.target import intern_coupling
from ..qaoa.problems import Level, QAOAProgram
from .backend import CompiledCircuit
from .flow import CompiledQAOA
from .pipeline import PassRecord

__all__ = [
    "to_document",
    "to_json",
    "from_document",
    "from_json",
    "FORMAT_VERSION",
]

#: Version stamped into every payload.  Bump when the payload layout
#: changes so stale caches invalidate cleanly.
#: v2: QAOA payloads carry the per-pass ``pass_trace`` (pipeline refactor).
#: v3: QAOA payloads carry the ``target_fingerprint`` (Target layer).
#: v4: QAOA payloads carry ``encoding``/``encoding_info`` (parity method).
#: v5: same layout; every method measures each logical qubit at its final
#:     home (naive/qaim/greedy/ip outputs could measure a qubit and then
#:     SWAP it away), so results cached before that fix recompile.
#: Only the current version is read: an older document's classical bits
#: need not match its ``final_mapping``.
FORMAT_VERSION = 5

#: The fields :func:`from_document` reads: every document's, a QAOA
#: document's, and those of the nested ``coupling``, ``program`` and
#: ``pass_trace`` records, each with the JSON type it relies on
#: (``object`` where any value passes through).
_FIELDS = {
    "kind": object,
    "method": object,
    "coupling": dict,
    "qasm": str,
    "initial_mapping": dict,
    "final_mapping": dict,
    "swap_count": object,
    "compile_time": object,
}
_QAOA_FIELDS = {
    "warnings": list,
    "pass_trace": list,
    "target_fingerprint": object,
    "encoding": object,
    "encoding_info": dict,
    "program": dict,
}
_COUPLING_FIELDS = {"name": object, "num_qubits": object, "edges": list}
_PROGRAM_FIELDS = {
    "num_qubits": object,
    "edges": list,
    "levels": list,
    "linear": dict,
}
_PASS_FIELDS = {"name": object, "seconds": object}

_JSON_TYPES = {dict: "object", list: "array", str: "string"}


def _coupling_payload(coupling: CouplingGraph) -> dict:
    return {
        "name": coupling.name,
        "num_qubits": coupling.num_qubits,
        "edges": sorted(list(e) for e in coupling.edges),
    }


def _coupling_from(payload: dict) -> CouplingGraph:
    """The interned graph for the payload's device: every read-back of a
    device shares one :class:`CouplingGraph` (built and checked once)."""
    return intern_coupling(
        payload["num_qubits"], payload["edges"], name=payload["name"]
    )


def to_document(compiled: Union[CompiledQAOA, CompiledCircuit]) -> dict:
    """The JSON document of a compiled result, as a dict (what
    :func:`to_json` encodes; the result envelope embeds it directly)."""
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "qaoa" if isinstance(compiled, CompiledQAOA) else "circuit",
        "method": compiled.method,
        "coupling": _coupling_payload(compiled.coupling),
        "qasm": qasm_dumps(compiled.circuit),
        "initial_mapping": {
            str(k): v for k, v in compiled.initial_mapping.items()
        },
        "final_mapping": {
            str(k): v for k, v in compiled.final_mapping.items()
        },
        "swap_count": compiled.swap_count,
        "compile_time": compiled.compile_time,
    }
    if isinstance(compiled, CompiledQAOA):
        payload["warnings"] = list(compiled.warnings)
        payload["pass_trace"] = [r.to_dict() for r in compiled.pass_trace]
        payload["target_fingerprint"] = compiled.target_fingerprint
        payload["encoding"] = compiled.encoding
        payload["encoding_info"] = compiled.encoding_info
        program = compiled.program
        payload["program"] = {
            "num_qubits": program.num_qubits,
            "edges": [list(e) for e in program.edges],
            "levels": [[lv.gamma, lv.beta] for lv in program.levels],
            "linear": {str(k): v for k, v in program.linear.items()},
        }
    return payload


def to_json(compiled: Union[CompiledQAOA, CompiledCircuit]) -> str:
    """Serialise a compiled result (QAOA flow or raw backend output)."""
    return json.dumps(to_document(compiled), indent=2)


def from_json(text: str) -> Union[CompiledQAOA, CompiledCircuit]:
    """Restore a compiled result produced by :func:`to_json`."""
    return from_document(json.loads(text))


def _wrong_type(name: str, kind: type, value) -> ValueError:
    """The refusal of field ``name`` for holding ``value``, not ``kind``."""
    return ValueError(
        f"compiled-result payload field {name!r} must be a JSON "
        f"{_JSON_TYPES[kind]}, got {type(value).__name__}"
    )


def _require(document: dict, fields: dict, where: str = "") -> None:
    """Refuse a document that lacks one of ``fields``, or holds one of
    another JSON type, with a ``ValueError`` naming it (``where``
    prefixes a nested field's name)."""
    for field, kind in fields.items():
        if field not in document:
            raise ValueError(
                f"compiled-result payload has no {where + field!r} field"
            )
        if not isinstance(document[field], kind):
            raise _wrong_type(where + field, kind, document[field])


def from_document(payload: dict) -> Union[CompiledQAOA, CompiledCircuit]:
    """Restore a compiled result from its decoded document (the inverse of
    :func:`to_document`).  A document of another format version, or one
    that lacks a field or holds one of the wrong JSON type, raises
    ``ValueError``."""
    if not isinstance(payload, dict):
        raise ValueError(
            f"compiled-result payload must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version is None:
        raise ValueError(
            "payload carries no 'format_version' field — it was not "
            "produced by repro.compiler.serialize.to_json"
        )
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported serialisation format version {version!r} "
            f"(this build reads version {FORMAT_VERSION}); recompile the "
            f"circuit or prune the stale cache entry"
        )
    qaoa = payload.get("kind") == "qaoa"
    _require(payload, _FIELDS)
    _require(payload["coupling"], _COUPLING_FIELDS, "coupling.")
    if qaoa:
        _require(payload, _QAOA_FIELDS)
        _require(payload["program"], _PROGRAM_FIELDS, "program.")
        for record in payload["pass_trace"]:
            if not isinstance(record, dict):
                raise _wrong_type("pass_trace[]", dict, record)
            _require(record, _PASS_FIELDS, "pass_trace[].")
    coupling = _coupling_from(payload["coupling"])
    loaded = qasm_loads(payload["qasm"])
    # Widen to the device register; the parsed instructions are already
    # validated, so only their qubit range is checked again.
    circuit = QuantumCircuit(coupling.num_qubits, loaded, name=loaded.name)
    common = dict(
        circuit=circuit,
        coupling=coupling,
        initial_mapping={
            int(k): v for k, v in payload["initial_mapping"].items()
        },
        final_mapping={
            int(k): v for k, v in payload["final_mapping"].items()
        },
        swap_count=payload["swap_count"],
        compile_time=payload["compile_time"],
        method=payload["method"],
    )
    if qaoa:
        prog = payload["program"]
        program = QAOAProgram(
            num_qubits=prog["num_qubits"],
            edges=[tuple(e) for e in prog["edges"]],
            levels=[Level(g, b) for g, b in prog["levels"]],
            linear={int(k): v for k, v in prog["linear"].items()},
        )
        fingerprint = payload["target_fingerprint"]
        result = CompiledQAOA(
            program=program,
            warnings=[str(w) for w in payload["warnings"]],
            pass_trace=[PassRecord.from_dict(r) for r in payload["pass_trace"]],
            target_fingerprint=(
                str(fingerprint) if fingerprint is not None else None
            ),
            encoding=str(payload["encoding"]),
            encoding_info=dict(payload["encoding_info"]),
            **common,
        )
    else:
        result = CompiledCircuit(**common)
    result.validate()
    return result
