"""OpenQASM 2.0 export / import.

Compiled circuits should be portable to real toolchains; OpenQASM 2.0 is the
interchange format IBM devices of the paper's era consumed.  The exporter
emits standard-library gates (``qelib1.inc`` names); the importer accepts the
same subset back, so ``loads(dumps(qc))`` round-trips every circuit this
package produces.

Name mapping (ours -> QASM): ``cnot -> cx``, ``cphase -> rzz``,
``cu1 -> cu1``, everything else keeps its name.  Our ``cphase`` is the ZZ
interaction ``exp(-i*theta/2 Z(x)Z)``, which is exactly qelib1's ``rzz``.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from .circuit import QuantumCircuit
from .gates import GATES, Instruction

__all__ = ["dumps", "loads", "QASMError"]


class QASMError(ValueError):
    """Raised on malformed or unsupported QASM input."""


_TO_QASM = {
    "cnot": "cx",
    "cphase": "rzz",
}
_FROM_QASM = {v: k for k, v in _TO_QASM.items()}

#: QASM gate name -> (our gate name, num params, num qubits)
_SUPPORTED: Dict[str, Tuple[str, int, int]] = {
    "id": ("id", 0, 1),
    "x": ("x", 0, 1),
    "y": ("y", 0, 1),
    "z": ("z", 0, 1),
    "h": ("h", 0, 1),
    "s": ("s", 0, 1),
    "sdg": ("sdg", 0, 1),
    "t": ("t", 0, 1),
    "rx": ("rx", 1, 1),
    "ry": ("ry", 1, 1),
    "rz": ("rz", 1, 1),
    "u1": ("u1", 1, 1),
    "u2": ("u2", 2, 1),
    "u3": ("u3", 3, 1),
    "cx": ("cnot", 0, 2),
    "cz": ("cz", 0, 2),
    "swap": ("swap", 0, 2),
    "rzz": ("cphase", 1, 2),
    "cu1": ("cu1", 1, 2),
}


#: Our gate name -> its QASM name, for every gate :func:`dumps` writes
#: as ``name(params) args`` (barrier and measure have their own forms).
_QASM_NAMES = {
    name: _TO_QASM.get(name, name)
    for name in GATES
    if _TO_QASM.get(name, name) in _SUPPORTED
}


def dumps(circuit: QuantumCircuit) -> str:
    """Serialise a circuit to OpenQASM 2.0 text.

    Barriers and measurements are emitted; measurement results go to a
    classical register of the same size, bit ``i`` from qubit ``i``.
    """
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
        f"creg c[{circuit.num_qubits}];",
    ]
    append = lines.append
    names = _QASM_NAMES
    for inst in circuit:
        qubits = inst.qubits
        head = names.get(inst.name)
        if head is None:
            if inst.name == "barrier":
                append("barrier " + ", ".join(f"q[{q}]" for q in qubits) + ";")
            elif inst.name == "measure":
                q = qubits[0]
                append(f"measure q[{q}] -> c[{q}];")
            else:
                raise QASMError(f"gate {inst.name!r} has no QASM 2.0 mapping")
            continue
        params = inst.params
        if len(params) == 1:
            head = f"{head}({params[0]!r})"
        elif params:
            head = f"{head}({','.join(map(repr, params))})"
        if len(qubits) == 2:
            append(f"{head} q[{qubits[0]}],q[{qubits[1]}];")
        elif len(qubits) == 1:
            append(f"{head} q[{qubits[0]}];")
        else:
            append(head + " " + ",".join(f"q[{q}]" for q in qubits) + ";")
    return "\n".join(lines) + "\n"


_HEADER_RE = re.compile(r"^OPENQASM\s+2(\.\d+)?\s*$")
_QREG_RE = re.compile(r"^qreg\s+(\w+)\[(\d+)\]$")
_CREG_RE = re.compile(r"^creg\s+(\w+)\[(\d+)\]$")
_MEASURE_RE = re.compile(r"^measure\s+(\w+)\[(\d+)\]\s*->\s*(\w+)\[(\d+)\]$")
_GATE_RE = re.compile(r"^(\w+)\s*(\(([^)]*)\))?\s*(.+)$")
_ARG_RE = re.compile(r"^(\w+)\[(\d+)\]$")

_PARAM_RE = re.compile(r"[0-9eE\.\+\-\*/\s\(\)pi]*")

_CONSTANTS = {"pi": math.pi}


def _eval_param(text: str) -> float:
    """Evaluate a numeric QASM parameter expression (numbers, pi, + - * /)."""
    expr = text.strip()
    if not _PARAM_RE.fullmatch(expr):
        raise QASMError(f"unsupported parameter expression {text!r}")
    try:
        # A plain decimal (what dumps writes) parses exactly as the literal.
        return float(expr)
    except ValueError:
        pass
    try:
        return float(eval(expr, {"__builtins__": {}}, _CONSTANTS))  # noqa: S307
    except Exception as exc:  # pragma: no cover - defensive
        raise QASMError(f"cannot evaluate parameter {text!r}: {exc}") from exc


def loads(text: str) -> QuantumCircuit:
    """Parse OpenQASM 2.0 text (the subset :func:`dumps` emits).

    Supports one quantum register, one classical register, the qelib1 gates
    of :data:`_SUPPORTED`, ``barrier`` and ``measure``.
    """
    statements: List[str] = []
    # Strip comments, split on semicolons.
    cleaned = re.sub(r"//[^\n]*", "", text)
    for raw in cleaned.split(";"):
        stmt = raw.strip()
        if stmt:
            statements.append(stmt)

    if not statements or not _HEADER_RE.match(statements[0]):
        raise QASMError("missing OPENQASM 2.0 header")
    num_qubits: Optional[int] = None
    qreg_name = "q"
    instructions: List[Instruction] = []

    for stmt in statements[1:]:
        if stmt.startswith("include"):
            continue
        qreg = _QREG_RE.match(stmt)
        if qreg:
            if num_qubits is not None:
                raise QASMError("multiple qreg declarations are unsupported")
            qreg_name, num_qubits = qreg.group(1), int(qreg.group(2))
            continue
        if _CREG_RE.match(stmt):
            continue
        if num_qubits is None:
            raise QASMError(f"statement {stmt!r} before qreg declaration")
        measure = _MEASURE_RE.match(stmt)
        if measure:
            if measure.group(1) != qreg_name:
                raise QASMError(f"unknown register in {stmt!r}")
            instructions.append(
                Instruction("measure", (int(measure.group(2)),))
            )
            continue
        gate = _GATE_RE.match(stmt)
        if not gate:
            raise QASMError(f"cannot parse statement {stmt!r}")
        name, _, params_text, args_text = gate.groups()
        qubits = []
        for arg in args_text.split(","):
            m = _ARG_RE.match(arg.strip())
            if not m or m.group(1) != qreg_name:
                raise QASMError(f"bad qubit argument {arg!r} in {stmt!r}")
            qubits.append(int(m.group(2)))
        if name == "barrier":
            instructions.append(Instruction("barrier", tuple(qubits)))
            continue
        if name not in _SUPPORTED:
            raise QASMError(f"unsupported gate {name!r}")
        our_name, n_params, n_qubits = _SUPPORTED[name]
        params = (
            tuple(_eval_param(p) for p in params_text.split(","))
            if params_text
            else ()
        )
        if len(params) != n_params:
            raise QASMError(
                f"gate {name!r} takes {n_params} parameter(s), got {stmt!r}"
            )
        if len(qubits) != n_qubits:
            raise QASMError(
                f"gate {name!r} takes {n_qubits} qubit(s), got {stmt!r}"
            )
        instructions.append(Instruction(our_name, tuple(qubits), params))

    if num_qubits is None:
        raise QASMError("no qreg declaration found")
    return QuantumCircuit(num_qubits, instructions, name="from_qasm")
