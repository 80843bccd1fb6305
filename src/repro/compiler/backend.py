"""The conventional backend compiler (Figure 2's "Backend Compiler" box).

This is our stand-in for qiskit's layer-partitioning transpiler, in the
style of Zulehner et al. / qiskit's swap mapper (Section III, "SWAP
Insertion"): the logical circuit is partitioned into layers of concurrently
executable gates, and before each two-qubit gate whose endpoints are not
adjacent on the device, SWAPs are inserted along a shortest path.

All four of the paper's methodologies drive *this same backend* — QAIM only
changes the initial mapping it starts from, IP only changes the order of the
commuting gates in the circuit handed to it, and IC/VIC call it repeatedly
on single-layer partial circuits.  That mirrors the paper's premise that the
techniques "can be integrated into any conventional compiler".
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..circuits import QuantumCircuit, asap_layers, decompose_to_basis
from ..circuits.gates import GATES, Instruction
from ..hardware.coupling import CouplingGraph
from .mapping import Mapping
from .metrics import native_metrics
from .routing import swap_walk

__all__ = ["CompiledCircuit", "ConventionalBackend", "CouplingError"]


#: Gates the coupling constrains when they act on two qubits.
_UNITARY = frozenset(name for name, spec in GATES.items() if spec.is_unitary)


class CouplingError(ValueError):
    """A compiled circuit applies a two-qubit gate to an uncoupled pair of
    physical qubits (raised by ``validate()``, so also by a read-back of a
    tampered document)."""


def _coupling_violation(
    circuit: QuantumCircuit, coupling: CouplingGraph
) -> Optional[Instruction]:
    """The first two-qubit unitary gate of ``circuit`` that is not on a
    coupling of ``coupling``, or ``None`` when the circuit complies."""
    edges = coupling.edges
    for inst in circuit:
        qubits = inst.qubits
        if len(qubits) == 2:
            a, b = qubits
            if ((a, b) if a < b else (b, a)) not in edges and inst.name in _UNITARY:
                return inst
    return None


@dataclasses.dataclass
class CompiledCircuit:
    """A hardware-compliant circuit plus its mapping provenance.

    Attributes:
        circuit: The routed circuit on *physical* qubit indices, still in
            high-level gates (cphase/swap/h/rx/...).  Every two-qubit gate
            is guaranteed coupling-compliant.
        coupling: The device it was compiled for.
        initial_mapping: logical -> physical at circuit start.
        final_mapping: logical -> physical after all SWAPs.
        swap_count: Number of SWAP gates inserted by routing.
        compile_time: Wall-clock seconds spent compiling (set by flows).
        method: Name of the compilation flow that produced it.
    """

    circuit: QuantumCircuit
    coupling: CouplingGraph
    initial_mapping: Dict[int, int]
    final_mapping: Dict[int, int]
    swap_count: int
    compile_time: float = 0.0
    method: str = "backend"

    def native(self) -> QuantumCircuit:
        """The circuit lowered to the IBM basis {u1, u2, u3, cnot}."""
        return decompose_to_basis(self.circuit)

    def depth(self) -> int:
        """Native-basis critical-path depth (the paper's depth metric)."""
        return native_metrics(self.circuit).depth

    def gate_count(self) -> int:
        """Native-basis total gate count (the paper's gate-count metric)."""
        return native_metrics(self.circuit).gate_count

    def validate(self) -> None:
        """Check that every two-qubit gate sits on a device coupling;
        raises :class:`CouplingError` otherwise."""
        inst = _coupling_violation(self.circuit, self.coupling)
        if inst is not None:
            raise CouplingError(
                f"gate {inst} violates coupling constraints of "
                f"{self.coupling.name}"
            )


class ConventionalBackend:
    """Layer-partitioning SWAP-insertion compiler.

    Args:
        coupling: Target device topology.
        distance_matrix: Optional matrix steering SWAP paths; defaults to
            hop distances.  VIC passes the reliability-weighted matrix here.
        path_oracle: Optional ``(pa, pb) -> path`` callable replacing the
            per-call shortest-path reconstruction — routers built via
            :func:`repro.compiler.pipeline.make_router` bind the target's
            memoized path cache here, so repeated routings of the same
            physical pair are dictionary lookups.
    """

    def __init__(
        self,
        coupling: CouplingGraph,
        distance_matrix: Optional[np.ndarray] = None,
        path_oracle=None,
    ) -> None:
        self.coupling = coupling
        self.distance_matrix = distance_matrix
        self.path_oracle = path_oracle

    def compile(
        self,
        circuit: QuantumCircuit,
        mapping: Mapping,
        name: Optional[str] = None,
    ) -> CompiledCircuit:
        """Compile a logical circuit starting from ``mapping``.

        The mapping object is *not* mutated; the evolved copy is returned
        inside the result.  Every logical qubit the circuit touches must be
        placed in ``mapping``.

        Returns:
            A :class:`CompiledCircuit` on physical qubit indices.
        """
        working = mapping.copy()
        initial = working.as_dict()
        out = QuantumCircuit(
            self.coupling.num_qubits, name=name or f"{circuit.name}@{self.coupling.name}"
        )
        swap_count = self.continue_compile(circuit, working, out)
        result = CompiledCircuit(
            circuit=out,
            coupling=self.coupling,
            initial_mapping=initial,
            final_mapping=working.as_dict(),
            swap_count=swap_count,
        )
        result.validate()
        return result

    def continue_compile(
        self,
        circuit: QuantumCircuit,
        mapping: Mapping,
        out: QuantumCircuit,
    ) -> int:
        """Append the compilation of ``circuit`` onto an existing physical
        circuit, mutating ``mapping`` in place.

        This is the primitive IC/VIC use to compile one partial circuit at a
        time and stitch the results (Section IV-C, Step 2-3).  Returns the
        number of SWAPs inserted for this partial circuit.

        ``out`` must hold every device qubit and every home in ``mapping``
        (``ValueError`` otherwise, before anything is emitted); that one
        check stands in for a range check per appended gate.  A gate on an
        unplaced logical qubit raises ``KeyError``.
        """
        coupling = self.coupling
        homes = mapping.homes
        if out.num_qubits < coupling.num_qubits:
            raise ValueError(
                f"cannot route onto a {out.num_qubits}-qubit circuit: "
                f"device {coupling.name} has {coupling.num_qubits} qubits"
            )
        if homes and max(homes.values()) >= out.num_qubits:
            raise ValueError(
                f"mapping home {max(homes.values())} out of range for "
                f"{out.num_qubits}-qubit circuit"
            )
        # One loop over every gate, its lookups hoisted.  Physical copies
        # reuse the validated name and params of each logical instruction
        # and take their qubits from the mapping or the device's paths, so
        # they skip re-validation.  asap_layers drops directives.
        emit = out._unchecked_appender()
        unchecked = Instruction._unchecked
        edges = coupling.edges
        oracle = self.path_oracle
        if oracle is None:
            dist = self.distance_matrix

            def oracle(pa: int, pb: int):
                return coupling.shortest_path(pa, pb, dist=dist)

        swap_count = 0
        try:
            for layer in asap_layers(circuit):
                for inst in layer:
                    qubits = inst.qubits
                    if len(qubits) == 1:
                        emit(unchecked(inst.name, (homes[qubits[0]],), inst.params))
                        continue
                    a, b = qubits
                    pa = homes[a]
                    pb = homes[b]
                    if ((pa, pb) if pa < pb else (pb, pa)) not in edges:
                        path = oracle(pa, pb)
                        swap_count += len(path) - 2
                        pa, pb = swap_walk(path, mapping, emit, edges)
                    emit(unchecked(inst.name, (pa, pb), inst.params))
        except KeyError as exc:
            raise KeyError(f"logical qubit {exc.args[0]} is not placed") from None
        return swap_count
