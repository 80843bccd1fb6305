"""Parity (LHZ) encoding: qubits-for-depth ZZ compilation.

Lechner's parity architecture (arXiv:1802.01157) trades qubits for
locality: every quadratic term ``Z_a Z_b`` of the cost Hamiltonian gets
its **own** physical qubit whose computational basis encodes the parity
``b_e = x_a XOR x_b``.  The cost layer then needs *no* two-qubit
interactions at all — each edge weight becomes a local ``RZ`` field on
its parity qubit — and the ``m`` parity qubits are kept consistent with
an underlying ``n``-spin configuration by ``m - n + c`` cycle
constraints (``c`` connected components): around any cycle of the
problem graph the parities must multiply to ``+1``.

This module derives the constraints as the fundamental cycles of a BFS
spanning forest (3-body for triangles, longer for sparser cycle bases;
the original LHZ layout's 4-body plaquettes are the special case of a
complete graph with its square cycle basis) and decomposes each
``exp(-i θ/2 Z⊗...⊗Z)`` constraint gadget into the native gate set as a
CNOT chain onto the cycle's last parity qubit, an ``RZ``, and the
mirrored chain.  The mixer is a plain ``RX`` per parity qubit.  Sampled
parity bits decode back to a logical assignment by XOR-ing along
spanning-tree paths (the component root is gauge-fixed to 0 — a global
spin flip per component, which ZZ-only costs are invariant under).

Angle conventions match the direct encoding exactly:
``cphase(-γw)`` on a program edge equals ``RZ(-γw)`` on its parity
qubit, so :func:`parity_field_angle` mirrors
:meth:`~repro.qaoa.problems.QAOAProgram.cphase_gates` and the fast-path
verifier (:func:`repro.sim.fastpath.fastpath_plan`), one GF(2)
phase-polynomial walk for both encodings, can require exact float
equality: a field term is the RZ on its slot's mask, a constraint the RZ
on its cycle's mask at the end of the CNOT chain.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..circuits import QuantumCircuit
from .mapping import Mapping

__all__ = [
    "ParityLayout",
    "parity_field_angle",
    "parity_constraint_angle",
    "build_parity_circuit",
    "parity_decode_indices",
    "ParityEncodingPass",
]


def parity_field_angle(gamma: float, weight: float) -> float:
    """RZ angle implementing one edge's cost term on its parity qubit —
    identical to the direct encoding's CPHASE angle for that edge."""
    return -float(gamma) * float(weight)


def parity_constraint_angle(gamma: float, strength: float) -> float:
    """RZ angle of one cycle-constraint gadget (the multi-body
    ``Z⊗...⊗Z`` rotation enforcing parity consistency)."""
    return -float(gamma) * float(strength)


@dataclasses.dataclass(frozen=True)
class ParityLayout:
    """The static structure of one problem's parity encoding.

    Attributes:
        num_logical: Problem (logical) qubit count ``n``.
        slots: One ``(a, b)`` logical pair per parity qubit, sorted;
            parity qubit ``s`` encodes ``x_a XOR x_b`` for
            ``slots[s]``.  Duplicate program edges merge into one slot.
        weights: Summed edge weight per slot.
        constraints: Fundamental cycles of the BFS spanning forest, each
            a sorted tuple of slot indices whose parities must XOR to 0.
        decode_paths: Per logical qubit, the slots on the spanning-tree
            path from its component root; XOR of those parity bits (root
            gauge-fixed to 0) recovers the logical bit.
    """

    num_logical: int
    slots: Tuple[Tuple[int, int], ...]
    weights: Tuple[float, ...]
    constraints: Tuple[Tuple[int, ...], ...]
    decode_paths: Tuple[Tuple[int, ...], ...]

    @property
    def num_slots(self) -> int:
        """Parity qubit count (= number of distinct program edges)."""
        return len(self.slots)

    @classmethod
    def from_program(cls, program) -> "ParityLayout":
        """Derive the layout for a QAOA program (ZZ terms only).

        Raises ``ValueError`` for programs with linear Ising fields —
        a field ``h_q Z_q`` is not expressible on edge-parity qubits
        (it would need the LHZ gauge with ancilla lines), and for edge-
        free programs (nothing to encode).
        """
        if any(h != 0.0 for h in getattr(program, "linear", {}).values()):
            raise ValueError(
                "parity encoding supports quadratic (ZZ) programs only; "
                "this program has linear Ising fields"
            )
        n = program.num_qubits
        accum: Dict[Tuple[int, int], float] = {}
        for a, b, w in program.edges:
            key = (min(int(a), int(b)), max(int(a), int(b)))
            accum[key] = accum.get(key, 0.0) + float(w)
        if not accum:
            raise ValueError("parity encoding requires at least one edge")
        slots = tuple(sorted(accum))
        weights = tuple(accum[pair] for pair in slots)
        slot_of = {pair: s for s, pair in enumerate(slots)}

        adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for s, (a, b) in enumerate(slots):
            adjacency[a].append((b, s))
            adjacency[b].append((a, s))
        for nbrs in adjacency:
            nbrs.sort()

        # BFS spanning forest: tree paths give the decode gauge, every
        # non-tree edge closes exactly one fundamental cycle.
        visited = [False] * n
        tree_slots: set = set()
        paths: List[Optional[Tuple[int, ...]]] = [None] * n
        for root in range(n):
            if visited[root]:
                continue
            visited[root] = True
            paths[root] = ()
            queue = [root]
            while queue:
                node = queue.pop(0)
                for other, s in adjacency[node]:
                    if visited[other]:
                        continue
                    visited[other] = True
                    tree_slots.add(s)
                    paths[other] = paths[node] + (s,)
                    queue.append(other)

        constraints = []
        for s, (a, b) in enumerate(slots):
            if s in tree_slots:
                continue
            cycle = set(paths[a]) ^ set(paths[b])
            cycle.add(s)
            constraints.append(tuple(sorted(cycle)))
        return cls(
            num_logical=n,
            slots=slots,
            weights=weights,
            constraints=tuple(sorted(constraints)),
            decode_paths=tuple(paths),
        )

    def interaction_pairs(self) -> List[Tuple[int, int]]:
        """The parity-qubit pairs the constraint gadgets' CNOT chains
        couple — what placement optimises for."""
        pairs = []
        for cycle in self.constraints:
            for i in range(len(cycle) - 1):
                pairs.append((cycle[i], cycle[i + 1]))
        return pairs

    def decode_masks(self) -> np.ndarray:
        """Per logical qubit, the slot bitmask whose parity decodes it."""
        masks = np.zeros(self.num_logical, dtype=np.int64)
        for q, path in enumerate(self.decode_paths):
            for s in path:
                masks[q] |= np.int64(1) << np.int64(s)
        return masks

    def phase_vector(self, strength: float) -> np.ndarray:
        """Per-unit-gamma diagonal ``D(y)`` over the ``2^K`` parity basis
        such that one cost+constraint block is exactly
        ``exp(-i γ D(y))`` — the parity analogue of
        :attr:`repro.sim.fastpath.CostDiagonal.phase`.

        Field slot ``s`` contributes ``-w_s s_s(y) / 2`` (from
        ``RZ(-γ w_s)``); every constraint cycle contributes
        ``-Ω ∏_{s∈C} s_s(y) / 2``.
        """
        dim = 1 << self.num_slots
        indices = np.arange(dim, dtype=np.int64)
        values = np.zeros(dim)
        signs = 1.0 - 2.0 * (
            (indices[:, None] >> np.arange(self.num_slots)) & 1
        )
        for s, w in enumerate(self.weights):
            values -= (w / 2.0) * signs[:, s]
        for cycle in self.constraints:
            prod = np.ones(dim)
            for s in cycle:
                prod *= signs[:, s]
            values -= (float(strength) / 2.0) * prod
        return values

    def to_info(self, constraint_strength: float) -> dict:
        """JSON-safe encoding metadata persisted on the compiled result."""
        return {
            "num_logical": self.num_logical,
            "num_slots": self.num_slots,
            "slots": [[a, b] for a, b in self.slots],
            "weights": list(self.weights),
            "constraints": [list(c) for c in self.constraints],
            "decode_paths": [list(p) for p in self.decode_paths],
            "constraint_strength": float(constraint_strength),
        }


def build_parity_circuit(
    program,
    layout: ParityLayout,
    constraint_strength: float,
    measure: bool = True,
) -> QuantumCircuit:
    """The abstract (pre-routing) parity-encoded QAOA circuit on
    ``layout.num_slots`` parity qubits.

    ``measure=False`` omits the terminal measurements —
    :class:`ParityEncodingPass` routes the unitary part and then measures
    at the *final* physical homes, since routing a per-qubit measurement
    as an ordinary instruction would pin it to the qubit's home at its
    ASAP layer, which later SWAPs may move.
    """
    K = layout.num_slots
    circuit = QuantumCircuit(K, name="qaoa_parity")
    for s in range(K):
        circuit.h(s)
    for level in range(program.p):
        gamma = program.levels[level].gamma
        for s, w in enumerate(layout.weights):
            circuit.rz(parity_field_angle(gamma, w), s)
        angle = parity_constraint_angle(gamma, constraint_strength)
        for cycle in layout.constraints:
            for i in range(len(cycle) - 1):
                circuit.cnot(cycle[i], cycle[i + 1])
            circuit.rz(angle, cycle[-1])
            for i in reversed(range(len(cycle) - 1)):
                circuit.cnot(cycle[i], cycle[i + 1])
        mixer = program.mixer_angle(level)
        for s in range(K):
            circuit.rx(mixer, s)
    if measure:
        circuit.measure_all()
    return circuit


def parity_decode_indices(
    slot_indices: np.ndarray, layout: ParityLayout
) -> np.ndarray:
    """Parity-basis indices (bit ``s`` = parity qubit ``s``) → logical
    basis indices, XOR-ing each logical qubit's tree path."""
    slot_indices = np.asarray(slot_indices, dtype=np.int64)
    out = np.zeros_like(slot_indices)
    for q, path in enumerate(layout.decode_paths):
        bit = np.zeros_like(slot_indices)
        for s in path:
            bit ^= (slot_indices >> s) & 1
        out |= bit << q
    return out


class ParityEncodingPass:
    """The whole parity flow as one pipeline pass: derive the layout,
    build the abstract parity circuit, place the parity qubits (GreedyE
    over the constraint-gadget interaction graph), and route with the
    configured backend.  Mappings on the resulting context are
    parity-slot→physical; the context is tagged ``encoding="parity"``
    with the decode metadata in ``encoding_info``."""

    name = "encode/parity"

    def __init__(
        self, constraint_strength: float = 2.0, router: str = "layered"
    ) -> None:
        self.constraint_strength = float(constraint_strength)
        self.router = router
        self.info: dict = {}

    def run(self, context) -> None:
        from .pipeline import make_router
        from .placement import greedy_e_placement

        program = context.program
        layout = ParityLayout.from_program(program)
        K = layout.num_slots
        coupling = context.coupling
        if K > coupling.num_qubits:
            raise ValueError(
                f"parity encoding needs {K} physical qubits (one per "
                f"program edge); device {coupling.name} has "
                f"{coupling.num_qubits}"
            )
        abstract = build_parity_circuit(
            program, layout, self.constraint_strength, measure=False
        )
        pairs = layout.interaction_pairs()
        if pairs:
            mapping = greedy_e_placement(pairs, K, coupling, context.rng)
        else:
            mapping = Mapping.trivial(K, coupling.num_qubits)
        backend = make_router(
            self.router, context.target, context.distance_metric
        )
        compiled = backend.compile(abstract, mapping)
        for s in range(K):
            compiled.circuit.measure(compiled.final_mapping[s])
        context.mapping = mapping
        context.circuit = compiled.circuit
        context.initial_mapping = compiled.initial_mapping
        context.final_mapping = compiled.final_mapping
        context.swap_count += compiled.swap_count
        context.encoding = "parity"
        context.encoding_info = layout.to_info(self.constraint_strength)
        self.info = {
            "parity_qubits": K,
            "constraints": len(layout.constraints),
            "constraint_strength": self.constraint_strength,
        }
