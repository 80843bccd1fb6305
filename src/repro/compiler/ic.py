"""IC: Incremental Compilation (Section IV-C).

IC exploits a fact IP ignores: every SWAP the backend inserts *changes the
logical-to-physical mapping*, so after compiling one layer, some of the
remaining CPHASE pairs have drifted closer together.  IC therefore forms
layers one at a time:

1. Sort the remaining CPHASE gates ascending by the *current* physical
   distance of their endpoints ("Q. Dist." in Figure 5); ties random.
2. Greedy-fill a single layer from that sorted list (first-fit bins, same
   as IP), compile just that partial circuit with the backend, and record
   the post-SWAP mapping.
3. Repeat from the new mapping until no gates remain; the compiled partial
   circuits are stitched in order.

The distance matrix is pluggable: hop distances give IC, the
reliability-weighted matrix of Figure 6(d) gives VIC (see
:mod:`repro.compiler.vic`).  The ``packing_limit`` knob caps gates per layer
for the Figure 12 study.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..circuits import QuantumCircuit
from ..circuits.gates import Instruction
from ..hardware.coupling import CouplingGraph
from .backend import ConventionalBackend
from .ip import fill_single_layer
from .mapping import Mapping

__all__ = ["IncrementalCompiler", "IncrementalBlockResult"]

ParamPair = Tuple[int, int, float]  # (logical_a, logical_b, gamma)


@dataclasses.dataclass
class IncrementalBlockResult:
    """Bookkeeping for one incrementally compiled CPHASE block.

    Attributes:
        swap_count: SWAPs inserted across all layers of the block.
        layers: The CPHASE pairs chosen for each layer, in order.
    """

    swap_count: int
    layers: List[List[Tuple[int, int]]]

    @property
    def num_layers(self) -> int:
        """Number of layers the block was split into."""
        return len(self.layers)


class IncrementalCompiler:
    """Layer-at-a-time compiler for commuting CPHASE blocks.

    Args:
        coupling: Target device.
        distance_matrix: Matrix used both to sort gates by endpoint distance
            and to steer SWAP paths.  ``None`` means hop distances (IC);
            pass a reliability-weighted matrix for VIC.
        packing_limit: Optional max CPHASE gates per layer (Figure 12).
        rng: Random generator for distance-tie shuffling; ``None`` keeps
            input order on ties (deterministic).
    """

    def __init__(
        self,
        coupling: CouplingGraph,
        distance_matrix: Optional[np.ndarray] = None,
        packing_limit: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        backend=None,
    ) -> None:
        self.coupling = coupling
        self.distance_matrix = (
            distance_matrix
            if distance_matrix is not None
            else coupling.distance_matrix()
        )
        # The matrix as Python lists for the per-layer sort key.
        self._rows = self.distance_matrix.tolist()
        self.packing_limit = packing_limit
        self.rng = rng
        # Any object with ConventionalBackend's ``continue_compile``
        # interface works here — e.g. the SABRE router — reflecting the
        # paper's claim that IC composes with any conventional compiler.
        self.backend = (
            backend
            if backend is not None
            else ConventionalBackend(coupling, distance_matrix=distance_matrix)
        )

    # ------------------------------------------------------------------
    def _sorted_by_distance(
        self, gates: Sequence[ParamPair], mapping: Mapping
    ) -> List[ParamPair]:
        """Step 1: ascending current-physical-distance order, ties random."""
        gates = list(gates)
        if self.rng is not None and len(gates) > 1:
            perm = self.rng.permutation(len(gates))
            gates = [gates[i] for i in perm]
        # The same floats as the matrix entries, so the stable sort keeps
        # the same order.
        rows, homes = self._rows, mapping.homes
        try:
            gates.sort(key=lambda gate: rows[homes[gate[0]]][homes[gate[1]]])
        except KeyError as exc:
            raise KeyError(f"logical qubit {exc.args[0]} is not placed") from None
        return gates

    def compile_block(
        self,
        gates: Sequence[ParamPair],
        mapping: Mapping,
        out: QuantumCircuit,
        max_iterations: int = 100000,
    ) -> IncrementalBlockResult:
        """Incrementally compile one commuting CPHASE block.

        Appends routed gates to ``out`` and mutates ``mapping`` in place
        (the block's final mapping becomes the start of whatever follows —
        this is the "stitching" of Figure 2).

        Args:
            gates: ``(logical_a, logical_b, gamma)`` triples of the block,
                as a validated :class:`~repro.qaoa.problems.QAOAProgram`
                yields them (distinct Python ``int`` endpoints, ``float``
                angles); their CPHASE gates are built without
                re-validation.
            mapping: Current placement; every endpoint must be placed.
            out: Physical circuit under construction.
            max_iterations: Safety bound on layer-formation loops.
        """
        remaining = list(gates)
        swap_count = 0
        layers: List[List[Tuple[int, int]]] = []
        iterations = 0
        while remaining:
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError("IC layer formation failed to converge")
            ordered = self._sorted_by_distance(remaining, mapping)
            pair_list = [(a, b) for a, b, _ in ordered]
            layer_pairs, _ = fill_single_layer(
                pair_list, packing_limit=self.packing_limit
            )
            unchosen = set(layer_pairs)
            layer_gates: List[ParamPair] = []
            for gate in ordered:
                key = (gate[0], gate[1])
                if key in unchosen:
                    layer_gates.append(gate)
                    unchosen.discard(key)
            if not layer_gates:  # packing limit >= 1 guarantees progress
                raise RuntimeError("IC formed an empty layer")
            partial = QuantumCircuit(
                1 + max(max(a, b) for a, b, _ in layer_gates),
                [
                    Instruction._unchecked("cphase", (a, b), (gamma,))
                    for a, b, gamma in layer_gates
                ],
                name="ic_partial",
            )
            swap_count += self.backend.continue_compile(partial, mapping, out)
            layers.append([(a, b) for a, b, _ in layer_gates])
            remaining = _remove_once(remaining, layer_gates)
        return IncrementalBlockResult(swap_count=swap_count, layers=layers)


def _remove_once(
    gates: List[ParamPair], to_remove: Sequence[ParamPair]
) -> List[ParamPair]:
    """Remove each gate in ``to_remove`` exactly once (multiset semantics —
    multi-level or weighted problems can repeat a pair)."""
    pool = list(gates)
    for gate in to_remove:
        pool.remove(gate)
    return pool
