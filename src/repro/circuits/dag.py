"""Scheduling structure of a circuit: ASAP layers and depth metrics.

The conventional backend compiler (Section III, "SWAP Insertion") partitions
circuits into *layers* of gates that can execute concurrently — gates within a
layer act on disjoint qubits.  This module provides that partition plus the
depth metrics used throughout the evaluation:

* :func:`asap_layers` — as-soon-as-possible greedy layering respecting
  program order per qubit (this is how qiskit-style compilers form layers);
* :func:`circuit_depth` — critical-path length, the paper's "circuit depth";
* :func:`two_qubit_depth` — depth counting only two-qubit gates, a common
  NISQ proxy since two-qubit gates dominate both duration and error.

Barriers act as full synchronisation points across their qubits.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .circuit import QuantumCircuit
from .gates import GATES, Instruction

__all__ = [
    "asap_layers",
    "circuit_depth",
    "two_qubit_depth",
    "layer_qubit_sets",
    "qubit_activity",
]

_DIRECTIVES = frozenset(name for name, spec in GATES.items() if spec.directive)


def asap_layers(circuit: QuantumCircuit) -> List[List[Instruction]]:
    """Partition ``circuit`` into ASAP layers.

    Each instruction is placed in the earliest layer after the last layer
    that used any of its qubits.  Directives (barriers) advance the frontier
    of every qubit they span but are not emitted into any layer.

    Returns:
        A list of layers; each layer is a list of instructions acting on
        pairwise-disjoint qubits, in program order.
    """
    # 1- and 2-qubit gates are specialised; this is also circuit_depth's
    # walk.  A frontier never exceeds len(layers), so a gate opens at most
    # one new layer.
    frontier = [0] * circuit.num_qubits  # qubit -> first layer it is free at
    layers: List[List[Instruction]] = []
    for inst in circuit:
        qubits = inst.qubits
        if inst.name in _DIRECTIVES:
            # Barrier: everything it spans must finish before later gates.
            start = max((frontier[q] for q in qubits), default=0)
            for q in qubits:
                frontier[q] = start
            continue
        if len(qubits) == 1:
            q = qubits[0]
            start = frontier[q]
            frontier[q] = start + 1
        elif len(qubits) == 2:
            a, b = qubits
            fa, fb = frontier[a], frontier[b]
            start = fa if fa > fb else fb
            frontier[a] = frontier[b] = start + 1
        else:
            start = max((frontier[q] for q in qubits), default=0)
            for q in qubits:
                frontier[q] = start + 1
        if start == len(layers):
            layers.append([inst])
        else:
            layers[start].append(inst)
    return layers


def circuit_depth(circuit: QuantumCircuit) -> int:
    """Critical-path depth of ``circuit`` (number of ASAP layers).

    This is the paper's circuit-depth metric: "the length of the critical
    path in a quantum circuit (the path with the highest number of gate
    operations)".  Measurements count as gates; barriers do not.
    """
    return len(asap_layers(circuit))


def two_qubit_depth(circuit: QuantumCircuit) -> int:
    """Depth counting only two-qubit gates along the critical path."""
    frontier: Dict[int, int] = {}
    depth = 0
    for inst in circuit:
        if inst.is_directive:
            start = max((frontier.get(q, 0) for q in inst.qubits), default=0)
            for q in inst.qubits:
                frontier[q] = max(frontier.get(q, 0), start)
            continue
        start = max((frontier.get(q, 0) for q in inst.qubits), default=0)
        advance = 1 if inst.is_two_qubit else 0
        for q in inst.qubits:
            frontier[q] = start + advance
        depth = max(depth, start + advance)
    return depth


def layer_qubit_sets(layers: Sequence[Sequence[Instruction]]) -> List[set]:
    """The set of qubits each layer touches (sanity/validation helper)."""
    return [set(q for inst in layer for q in inst.qubits) for layer in layers]


def qubit_activity(circuit: QuantumCircuit) -> Dict[int, int]:
    """Number of non-directive instructions touching each qubit.

    This is the "program profile" statistic of Figure 3(c) when restricted
    to CPHASE gates; here we count all gate types so the helper is reusable
    for arbitrary circuits.
    """
    counts: Dict[int, int] = {q: 0 for q in range(circuit.num_qubits)}
    for inst in circuit:
        if inst.is_directive:
            continue
        for q in inst.qubits:
            counts[q] += 1
    return counts
