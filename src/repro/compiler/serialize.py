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
    "COMPAT_READ_VERSIONS",
]

#: Version stamped into every payload.  Bump when the payload layout
#: changes so stale caches invalidate cleanly.
#: v2: QAOA payloads carry the per-pass ``pass_trace`` (pipeline refactor).
#: v3: QAOA payloads carry the ``target_fingerprint`` (Target layer).
#: v4: QAOA payloads carry ``encoding``/``encoding_info`` (parity method).
#: v5: same layout; every method measures each logical qubit at its final
#:     home (naive/qaim/greedy/ip outputs could measure a qubit and then
#:     SWAP it away), so results cached before that fix recompile.
FORMAT_VERSION = 5

#: Versions :func:`from_json` can restore.  v2/v3 payloads are a strict
#: subset of v4 (they lack the fingerprint and/or encoding fields), so
#: they load with ``target_fingerprint=None`` / ``encoding="direct"``
#: instead of forcing a recompile; v4 has the v5 layout.
COMPAT_READ_VERSIONS = frozenset({2, 3, 4, 5})

# Backwards-compatible alias (pre-service-layer name).
_FORMAT_VERSION = FORMAT_VERSION


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
        "format_version": _FORMAT_VERSION,
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


def from_document(payload: dict) -> Union[CompiledQAOA, CompiledCircuit]:
    """Restore a compiled result from its decoded document (the inverse of
    :func:`to_document`)."""
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
    if version not in COMPAT_READ_VERSIONS:
        raise ValueError(
            f"unsupported serialisation format version {version!r} "
            f"(this build reads version {FORMAT_VERSION} and compatible "
            f"versions {sorted(COMPAT_READ_VERSIONS)}); recompile the "
            f"circuit or prune the stale cache entry"
        )
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
    if payload["kind"] == "qaoa":
        prog = payload["program"]
        program = QAOAProgram(
            num_qubits=prog["num_qubits"],
            edges=[tuple(e) for e in prog["edges"]],
            levels=[Level(g, b) for g, b in prog["levels"]],
            linear={int(k): v for k, v in prog.get("linear", {}).items()},
        )
        fingerprint = payload.get("target_fingerprint")
        result = CompiledQAOA(
            program=program,
            warnings=[str(w) for w in payload.get("warnings", [])],
            pass_trace=[
                PassRecord.from_dict(r)
                for r in payload.get("pass_trace", [])
            ],
            target_fingerprint=(
                str(fingerprint) if fingerprint is not None else None
            ),
            encoding=str(payload.get("encoding", "direct")),
            encoding_info=dict(payload.get("encoding_info") or {}),
            **common,
        )
    else:
        result = CompiledCircuit(**common)
    result.validate()
    return result
