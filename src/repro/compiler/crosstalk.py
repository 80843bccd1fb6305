"""Post-compilation crosstalk sequentialisation (Section VI, "Crosstalk").

Aggressive gate parallelisation can increase crosstalk error.  Following the
paper's discussion of Murali et al. (ASPLOS'20): on real devices only a
small subset of coupling *pairs* is highly crosstalk-prone (5 of 221 on IBM
Poughkeepsie), so it suffices to re-serialise parallel operations on exactly
those pairs after compilation.

:func:`sequentialize_crosstalk` is that optional pass: given the compiled
physical circuit and the set of conflicting coupling pairs, it splits any
layer that schedules two conflicting two-qubit gates simultaneously,
inserting a barrier between the sub-groups so downstream scheduling keeps
them apart.  Everything else is left untouched — depth only grows where a
conflict actually occurs.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set, Tuple

from ..circuits import QuantumCircuit, asap_layers
from ..circuits.gates import Instruction
from ..hardware.target import normalise_conflicts

__all__ = ["ConflictSpec", "sequentialize_crosstalk", "count_conflicts"]

Edge = Tuple[int, int]
ConflictSpec = FrozenSet[Edge]


def _norm_edge(a: int, b: int) -> Edge:
    return (min(a, b), max(a, b))


def count_conflicts(
    circuit: QuantumCircuit, conflicts: Iterable[Tuple[Edge, Edge]]
) -> int:
    """Number of layer-level conflicting co-schedules in ``circuit``."""
    conflict_set = normalise_conflicts(conflicts)
    total = 0
    for layer in asap_layers(circuit):
        edges = [
            _norm_edge(*inst.qubits) for inst in layer if inst.is_two_qubit
        ]
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                if frozenset((edges[i], edges[j])) in conflict_set:
                    total += 1
    return total


def sequentialize_crosstalk(
    circuit: QuantumCircuit,
    conflicts: Iterable[Tuple[Edge, Edge]],
) -> QuantumCircuit:
    """Serialise conflicting parallel two-qubit gates.

    Args:
        circuit: A compiled *physical* circuit.
        conflicts: Pairs of couplings that must not execute simultaneously,
            e.g. ``[((0, 1), (2, 3))]``.

    Returns:
        A new circuit in which no ASAP layer co-schedules a conflicting
        coupling pair; barriers between the split groups pin the order.
    """
    conflict_set = normalise_conflicts(conflicts)
    if not conflict_set:
        return circuit.copy()

    out = QuantumCircuit(circuit.num_qubits, name=f"{circuit.name}_xtalk")
    for layer in asap_layers(circuit):
        groups: List[List[Instruction]] = []
        group_edges: List[Set[Edge]] = []
        for inst in layer:
            edge = _norm_edge(*inst.qubits) if inst.is_two_qubit else None
            placed = False
            for group, edges in zip(groups, group_edges):
                if edge is not None and any(
                    frozenset((edge, other)) in conflict_set for other in edges
                ):
                    continue
                group.append(inst)
                if edge is not None:
                    edges.add(edge)
                placed = True
                break
            if not placed:
                groups.append([inst])
                group_edges.append({edge} if edge is not None else set())
        for i, group in enumerate(groups):
            out.extend(group)
            if i + 1 < len(groups):
                span = sorted(
                    {q for g in groups[i:] for inst in g for q in inst.qubits}
                )
                out.barrier(*span)
    return out
