"""SWAP routing: making two-qubit gates coupling-compliant.

The routing primitive the backend compiler uses: given the current
:class:`~repro.compiler.mapping.Mapping` and a two-qubit gate between logical
qubits ``(a, b)``, walk a shortest path between their physical homes and emit
SWAPs until the pair is adjacent.  The path is chosen by a distance matrix —
hop distances for the baseline/IC behaviour, reliability-weighted distances
for the variation-aware behaviour (VIC / VQM-style routing, Section III).

SWAPs are emitted from *both ends toward the middle*, which for a path of
``k`` intermediate hops needs ``k`` SWAPs but splits the movement so neither
qubit travels the whole way — the standard choice in layer-partitioning
compilers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..circuits.gates import Instruction
from ..hardware.coupling import CouplingGraph
from .mapping import Mapping

__all__ = ["route_pair", "RoutingResult", "swap_walk"]


class RoutingResult:
    """Outcome of routing one logical pair.

    Attributes:
        swaps: SWAP instructions on *physical* qubit indices, in order.
        physical_pair: The adjacent physical qubits the gate lands on.
    """

    def __init__(
        self, swaps: List[Instruction], physical_pair: Tuple[int, int]
    ) -> None:
        self.swaps = swaps
        self.physical_pair = physical_pair

    @property
    def num_swaps(self) -> int:
        """Number of SWAP gates inserted."""
        return len(self.swaps)


def swap_walk(path, mapping: Mapping, emit, edges) -> Tuple[int, int]:
    """Move the two ends of ``path`` toward each other with SWAPs until
    they are adjacent; returns the final physical pair.

    The one copy of the walk :func:`route_pair` and
    :class:`~repro.compiler.backend.ConventionalBackend` share.  Each SWAP
    is applied to ``mapping`` (:meth:`Mapping.apply_swap`, which raises
    ``ValueError`` for a qubit outside the mapping's range) and then passed
    to ``emit``.  A path of ``k`` hops takes ``k - 1`` SWAPs.  ``path``
    holds the device's qubits as Python ``int`` (they go into the SWAPs
    without re-validation); ``edges`` is the coupling's normalised edge
    set.
    """
    swap, apply_swap = Instruction._unchecked, mapping.apply_swap
    left, right = 0, len(path) - 1
    move_left = True  # alternate ends so movement is balanced
    while right - left > 1:
        if move_left:
            a = path[left]
            left += 1
            b = path[left]
        else:
            a = path[right]
            right -= 1
            b = path[right]
        move_left = not move_left
        apply_swap(a, b)
        emit(swap("swap", (a, b)))
    pa, pb = path[left], path[right]
    if ((pa, pb) if pa < pb else (pb, pa)) not in edges:
        raise RuntimeError(
            f"routing bug: pair {(pa, pb)} not adjacent after SWAPs"
        )
    return pa, pb


def route_pair(
    coupling: CouplingGraph,
    mapping: Mapping,
    logical_a: int,
    logical_b: int,
    dist: Optional[np.ndarray] = None,
    path_oracle=None,
) -> RoutingResult:
    """Insert SWAPs until ``logical_a`` and ``logical_b`` are adjacent.

    Mutates ``mapping`` in place (each emitted SWAP is applied to it) and
    returns the SWAPs plus the final adjacent physical pair.

    Args:
        coupling: Device topology.
        mapping: Current logical-to-physical mapping (mutated).
        logical_a: First logical endpoint.
        logical_b: Second logical endpoint.
        dist: Optional distance matrix steering path choice (e.g. the
            reliability-weighted matrix for variation-aware routing).
            Defaults to hop distances.
        path_oracle: Optional ``(pa, pb) -> path`` callable used instead
            of reconstructing the path from ``dist`` — e.g. the memoized
            :meth:`repro.hardware.target.Target.path_oracle`.
            Must agree with ``dist`` on the metric it encodes, and return
            the device's qubits as Python ``int`` (they go into the SWAPs
            without re-validation).
    """
    pa, pb = mapping.physical_pair(logical_a, logical_b)
    if coupling.has_edge(pa, pb):
        return RoutingResult([], (pa, pb))

    if path_oracle is not None:
        path = path_oracle(pa, pb)
    else:
        path = coupling.shortest_path(pa, pb, dist=dist)
    swaps: List[Instruction] = []
    final_pair = swap_walk(path, mapping, swaps.append, coupling.edges)
    return RoutingResult(swaps, final_pair)
