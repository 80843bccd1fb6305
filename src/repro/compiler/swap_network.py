"""SWAP-network compilation: depth-O(n) all-to-all ZZ coverage.

The odd/even transposition network (Kivlichan et al.; scored for QAOA by
Montañez-Barrera et al., arXiv:2505.17944) routes a fully general ZZ
interaction layer on a *linear chain* of ``n`` qubits in exactly ``n``
brick layers: layer ``t`` places SWAP bricks on chain positions
``(i, i+1)`` with ``i ≡ t (mod 2)``, every brick swaps unconditionally,
and over ``n`` layers every pair of logical qubits becomes chain-adjacent
("meets") **exactly once** — the network realises a full reversal of the
chain order, any two elements cross exactly once, and elements only
cross where they are adjacent.  This holds from *any* starting
permutation, so consecutive QAOA levels chain networks back to back
without re-placement.

When a brick's meeting pair carries a program ZZ term, the CPHASE is
emitted immediately before the brick's SWAP on the same coupler; at
lowering time the peephole pass cancels the adjacent CNOTs of the
CPHASE/SWAP seam, i.e. the interaction is *fused* into the routing SWAP
(5 CNOTs → 3).  Brick layers after the last program-edge meeting are
dropped, so sparse problems finish early; the layer count per level
never exceeds ``n``.  The emitted circuit passes
:func:`repro.sim.fastpath.fastpath_plan`, the verifier both encodings
share: each wire's GF(2) mask stays one logical qubit, SWAPs move it,
and each CPHASE consumes the ZZ term of its two wires' masks.

Two entry points:

* :func:`linear_placement` — extract a simple path of ``n`` physical
  qubits (a linear-chain embedding) from the device coupling graph and
  place logical qubit ``q`` on the ``q``-th path vertex.  Registered in
  :data:`repro.compiler.flow.PLACEMENTS` as ``"linear"``.
* :class:`SwapNetworkPass` — emit the brick network for the placed
  chain.  Runs after any placement whose image admits a spanning path in
  the coupling graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits import QuantumCircuit
from ..circuits.gates import Instruction
from ..hardware.coupling import CouplingGraph
from .mapping import Mapping

__all__ = [
    "linear_placement",
    "find_linear_chain",
    "chain_for_mapping",
    "network_meetings",
    "SwapNetworkPass",
]

#: DFS budget for chain extraction — far above what the paper devices
#: need, low enough that adversarial graphs fail fast with a clear error.
_SEARCH_LIMIT = 250_000


def _path_search(
    starts: Sequence[int],
    adjacency: Dict[int, Tuple[int, ...]],
    length: int,
) -> Optional[List[int]]:
    """Find a simple path of ``length`` vertices via iterative DFS with
    backtracking.  Neighbour order is (degree, index) so low-degree
    vertices — the natural path interior on ladder/grid devices — are
    consumed first.  Returns ``None`` when the budget is exhausted."""
    budget = _SEARCH_LIMIT
    for start in starts:
        path = [start]
        on_path = {start}
        # Per-depth iterator stack over untried neighbours.
        stack = [iter(adjacency[start])]
        while stack:
            if len(path) == length:
                return path
            budget -= 1
            if budget <= 0:
                return None
            advanced = False
            for candidate in stack[-1]:
                if candidate not in on_path:
                    path.append(candidate)
                    on_path.add(candidate)
                    stack.append(iter(adjacency[candidate]))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())
    return None


def _sorted_adjacency(
    coupling: CouplingGraph, nodes: Optional[set] = None
) -> Dict[int, Tuple[int, ...]]:
    universe = (
        sorted(nodes) if nodes is not None else range(coupling.num_qubits)
    )
    keep = set(universe)

    def degree(q: int) -> int:
        return sum(1 for nb in coupling.neighbours(q) if nb in keep)

    return {
        q: tuple(
            sorted(
                (nb for nb in coupling.neighbours(q) if nb in keep),
                key=lambda nb: (degree(nb), nb),
            )
        )
        for q in universe
    }


def find_linear_chain(coupling: CouplingGraph, length: int) -> List[int]:
    """A simple path of ``length`` physical qubits in the coupling graph
    (consecutive vertices are coupled).  Deterministic for a given
    device; raises ``ValueError`` when no chain is found."""
    if length < 1:
        raise ValueError("chain length must be positive")
    if length > coupling.num_qubits:
        raise ValueError(
            f"cannot embed a {length}-qubit chain on "
            f"{coupling.num_qubits}-qubit device {coupling.name}"
        )
    adjacency = _sorted_adjacency(coupling)
    starts = sorted(
        range(coupling.num_qubits),
        key=lambda q: (len(adjacency[q]), q),
    )
    path = _path_search(starts, adjacency, length)
    if path is None:
        raise ValueError(
            f"no linear chain of {length} qubits found in device "
            f"{coupling.name}"
        )
    return path


def chain_for_mapping(
    mapping: Dict[int, int], coupling: CouplingGraph
) -> List[int]:
    """Order the placed physical qubits into a spanning path of the
    induced subgraph (consecutive vertices coupled).  Raises
    ``ValueError`` when the placement admits no linear chain."""
    placed = sorted(mapping.values())
    if len(placed) == 1:
        return placed
    nodes = set(placed)
    adjacency = _sorted_adjacency(coupling, nodes)
    starts = sorted(placed, key=lambda q: (len(adjacency[q]), q))
    path = _path_search(starts, adjacency, len(placed))
    if path is None:
        raise ValueError(
            "placement does not form a linear chain on device "
            f"{coupling.name}; use placement='linear' with the "
            "swap_network method"
        )
    return path


def linear_placement(
    pairs, num_qubits: int, coupling: CouplingGraph, rng=None
) -> Mapping:
    """Place logical qubit ``q`` on the ``q``-th vertex of a linear-chain
    embedding.  The interaction list and rng are unused — the SWAP
    network covers *every* pair regardless of order, so any chain
    assignment is equivalent (and determinism keeps compilations
    content-addressable)."""
    chain = find_linear_chain(coupling, num_qubits)
    return Mapping(
        {q: chain[q] for q in range(num_qubits)}, coupling.num_qubits
    )


def network_meetings(order: Sequence[int]) -> List[List[Tuple[int, int, int]]]:
    """The full meeting schedule of one ``n``-layer brick network
    starting from ``order``.

    Returns one list per layer of ``(position, elem_a, elem_b)`` bricks,
    where ``elem_a``/``elem_b`` are the elements meeting at chain
    positions ``(position, position + 1)``.  Over the ``n`` layers every
    element pair appears exactly once (the property test asserts this).
    """
    current = list(order)
    n = len(current)
    layers: List[List[Tuple[int, int, int]]] = []
    for t in range(n):
        bricks = []
        for i in range(t % 2, n - 1, 2):
            bricks.append((i, current[i], current[i + 1]))
        layers.append(bricks)
        for i, _, _ in bricks:
            current[i], current[i + 1] = current[i + 1], current[i]
    return layers


class SwapNetworkPass:
    """Emit the odd/even SWAP-network circuit on the placed chain.

    Requires a placement whose physical image forms a linear chain (the
    ``"linear"`` strategy guarantees one).  Per QAOA level the pass
    emits brick layers — CPHASE on meeting program pairs, then the
    unconditional SWAP — up to the last layer containing a program-edge
    meeting, followed by linear-term RZs and the RX mixers at the
    logical qubits' current homes.  The circuit passes
    :func:`repro.sim.fastpath.fastpath_plan`: every program pair's
    CPHASE appears exactly once per level on the wires its SWAP-moved
    masks name.
    """

    name = "route/swap_network"

    def __init__(self) -> None:
        self.info: dict = {}

    def run(self, context) -> None:
        program = context.program
        n = program.num_qubits
        if context.mapping is None:
            raise ValueError("swap network requires a placement (mapping unset)")
        mapping = context.mapping.as_dict()
        chain = chain_for_mapping(mapping, context.coupling)
        owner_of_phys = {p: q for q, p in mapping.items()}
        owners = [owner_of_phys[p] for p in chain]

        # Qubits come from the mapping and the device's chain (Python ints)
        # and angles from the validated program: no gate is re-validated.
        gate = Instruction._unchecked
        gates = [gate("h", (mapping[q],)) for q in range(n)]

        swaps = 0
        fused = 0
        layer_counts: List[int] = []
        for level in range(program.p):
            pair_angles: Dict[Tuple[int, int], List[float]] = {}
            for a, b, angle in program.cphase_gates(level):
                key = (min(a, b), max(a, b))
                pair_angles.setdefault(key, []).append(angle)
            schedule = network_meetings(owners)
            last_used = -1
            for t, bricks in enumerate(schedule):
                if any(
                    (min(qa, qb), max(qa, qb)) in pair_angles
                    for _, qa, qb in bricks
                ):
                    last_used = t
            for t in range(last_used + 1):
                for i, qa, qb in schedule[t]:
                    pa, pb = chain[i], chain[i + 1]
                    angles = pair_angles.get((min(qa, qb), max(qa, qb)))
                    if angles:
                        for angle in angles:
                            gates.append(gate("cphase", (pa, pb), (angle,)))
                        fused += 1
                    gates.append(gate("swap", (pa, pb)))
                    swaps += 1
                    owners[i], owners[i + 1] = owners[i + 1], owners[i]
            layer_counts.append(last_used + 1)
            home = {owners[i]: chain[i] for i in range(n)}
            gates += [gate("rz", (home[q],), (angle,)) for q, angle in program.rz_gates(level)]
            mixer = (program.mixer_angle(level),)
            gates += [gate("rx", (home[q],), mixer) for q in range(n)]

        final_home = {owners[i]: chain[i] for i in range(n)}
        gates += [gate("measure", (final_home[q],)) for q in range(n)]

        context.circuit = QuantumCircuit(
            context.coupling.num_qubits, gates, name="qaoa_swapnet"
        )
        context.final_mapping = final_home
        context.swap_count += swaps
        self.info = {
            "chain": list(chain),
            "brick_layers": layer_counts,
            "swaps": swaps,
            "fused_bricks": fused,
        }
