"""MaxCut problem instances and the QAOA program description.

Two classes:

* :class:`MaxCutProblem` — a (weighted) MaxCut instance: the classical cost
  function ``C(z) = sum_{(i,j)} w_ij * (1 - z_i z_j) / 2`` evaluated over
  bitstrings, its exact optimum (brute force, vectorised), and conversion
  into QAOA programs.
* :class:`QAOAProgram` — the level structure of a QAOA circuit: one CPHASE
  per edge per level with angle ``-gamma * w`` (so the block implements
  ``exp(-i*gamma*C)`` up to global phase), plus the ``RX(2*beta)`` mixer.

The Ising connection (Section II, "QAOA-circuits"): promoting each binary
variable to a Pauli-Z turns every quadratic term of the Ising model into a
ZZ interaction, realised by one CPHASE gate.  MaxCut is the paper's
evaluation problem, but anything expressible as quadratic Ising terms maps
through the same path, which is why :class:`QAOAProgram` stores generic
weighted edges.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

__all__ = ["MaxCutProblem", "QAOAProgram", "Level"]

Pair = Tuple[int, int]

_MAX_BRUTE_FORCE_QUBITS = 26


def _as_index(value, what: str) -> int:
    """``value`` as a Python ``int``; raises unless it is integral."""
    if type(value) is int:
        return value
    try:
        index = int(value)
        integral = index == value
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError(f"{what} {value!r} is not an integer")
    return index


@dataclasses.dataclass(frozen=True)
class Level:
    """One QAOA level's parameters ``(gamma, beta)``."""

    gamma: float
    beta: float


@dataclasses.dataclass
class QAOAProgram:
    """Structural description of a QAOA circuit before compilation.

    Attributes:
        num_qubits: Number of logical qubits.
        edges: ``(a, b, weight)`` triples — one CPHASE per edge per level.
        levels: The ``p`` levels' ``(gamma, beta)`` parameters.
        linear: Optional per-qubit linear Ising fields ``{i: h_i}`` — they
            become *virtual* RZ rotations in every cost block (general
            Ising problems have them; MaxCut does not).  Single-qubit gates
            never constrain routing, so all compilation flows apply
            unchanged.

    Construction is the trust boundary for every gate the compiler derives
    from a program: qubit indices become Python ``int`` (non-integral
    values are rejected) and weights, angles and fields Python ``float``,
    so those gates are built without re-validation and numpy scalars hash
    like their Python twins.
    """

    num_qubits: int
    edges: List[Tuple[int, int, float]]
    levels: List[Level]
    linear: Dict[int, float] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.num_qubits = _as_index(self.num_qubits, "num_qubits")
        if n < 1:
            raise ValueError("num_qubits must be positive")
        if not self.levels:
            raise ValueError("a QAOA program needs at least one level")
        edges = []
        for a, b, w in self.edges:
            a, b = _as_index(a, "edge endpoint"), _as_index(b, "edge endpoint")
            if a == b:
                raise ValueError(f"self-loop edge ({a}, {b})")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a}, {b}) out of range")
            edges.append((a, b, float(w)))
        self.edges = edges
        self.levels = [Level(float(lv.gamma), float(lv.beta)) for lv in self.levels]
        linear = {}
        for i, h in self.linear.items():
            i = _as_index(i, "linear term index")
            if not 0 <= i < n:
                raise ValueError(f"linear term index {i} out of range")
            linear[i] = float(h)
        self.linear = linear

    @property
    def p(self) -> int:
        """The number of QAOA levels."""
        return len(self.levels)

    def pairs(self) -> List[Pair]:
        """Unweighted logical endpoint pairs (one per edge)."""
        return [(a, b) for a, b, _ in self.edges]

    def cphase_gates(self, level: int) -> List[Tuple[int, int, float]]:
        """``(a, b, angle)`` triples for one level's cost block.

        The angle is ``-gamma * w`` so that applying our ZZ gate
        ``exp(-i*angle/2 * Z(x)Z)`` per edge realises ``exp(-i*gamma*C)``
        up to a global phase.
        """
        gamma = self.levels[level].gamma
        return [(a, b, -gamma * w) for a, b, w in self.edges]

    def rz_gates(self, level: int) -> List[Tuple[int, float]]:
        """``(qubit, angle)`` RZ rotations implementing the linear terms.

        ``exp(-i*gamma*h*Z) = RZ(2*gamma*h)`` under our RZ convention.
        Diagonal, so they commute with every CPHASE in the block.
        """
        gamma = self.levels[level].gamma
        return [(i, 2.0 * gamma * h) for i, h in sorted(self.linear.items())]

    def mixer_angle(self, level: int) -> float:
        """RX angle for the level's mixer: ``exp(-i*beta*X) = RX(2*beta)``."""
        return 2.0 * self.levels[level].beta


class MaxCutProblem:
    """A weighted MaxCut instance over ``num_nodes`` nodes.

    Args:
        num_nodes: Number of graph nodes (= logical qubits).
        edges: Edge list; each entry is ``(a, b)`` or ``(a, b, weight)``.
            Duplicate edges accumulate weight.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[Sequence],
    ) -> None:
        if num_nodes < 2:
            raise ValueError("MaxCut needs at least 2 nodes")
        self.num_nodes = int(num_nodes)
        accum: Dict[Pair, float] = {}
        for edge in edges:
            if len(edge) == 2:
                a, b = edge
                w = 1.0
            elif len(edge) == 3:
                a, b, w = edge
            else:
                raise ValueError(f"edge {edge!r} must be (a, b) or (a, b, w)")
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop edge ({a}, {b})")
            if not (0 <= a < num_nodes and 0 <= b < num_nodes):
                raise ValueError(f"edge ({a}, {b}) out of range")
            key = (min(a, b), max(a, b))
            accum[key] = accum.get(key, 0.0) + float(w)
        if not accum:
            raise ValueError("MaxCut instance has no edges")
        self.edges: List[Tuple[int, int, float]] = [
            (a, b, w) for (a, b), w in sorted(accum.items())
        ]
        self._cut_values: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: nx.Graph) -> "MaxCutProblem":
        """Build from a networkx graph (edge attribute ``weight`` honoured)."""
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [
            (index[a], index[b], float(data.get("weight", 1.0)))
            for a, b, data in graph.edges(data=True)
        ]
        return cls(len(nodes), edges)

    # ------------------------------------------------------------------
    # Problem protocol surface (see repro.qaoa.frontend)
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Logical register width (one qubit per node)."""
        return self.num_nodes

    @property
    def linear(self) -> Dict[int, float]:
        """MaxCut has no linear Ising fields."""
        return {}

    def cost_values(self) -> np.ndarray:
        """Protocol alias of :meth:`cut_values`."""
        return self.cut_values()

    def optimum(self) -> float:
        """Protocol alias of :meth:`max_cut_value`."""
        return self.max_cut_value()

    def content_fingerprint(self) -> str:
        """Canonical content hash (stable under edge reordering)."""
        from .frontend import problem_fingerprint

        return problem_fingerprint(self)

    # ------------------------------------------------------------------
    # classical cost function
    # ------------------------------------------------------------------
    def pairs(self) -> List[Pair]:
        """Unweighted endpoint pairs."""
        return [(a, b) for a, b, _ in self.edges]

    def total_weight(self) -> float:
        """Sum of edge weights (upper bound on any cut)."""
        return sum(w for _, _, w in self.edges)

    def cut_value(self, bits: str) -> float:
        """Cut value of one assignment.

        ``bits`` is a ``q_{n-1}...q_0`` bitstring (qubit 0 rightmost, the
        sampler convention).  An edge contributes its weight when its
        endpoints land on opposite sides.
        """
        if len(bits) != self.num_nodes:
            raise ValueError(
                f"bitstring length {len(bits)} != num_nodes {self.num_nodes}"
            )
        n = self.num_nodes
        value = 0.0
        for a, b, w in self.edges:
            if bits[n - 1 - a] != bits[n - 1 - b]:
                value += w
        return value

    def cut_values(self) -> np.ndarray:
        """Cut value of every basis state, indexed little-endian.

        Vectorised and cached; refuses beyond ``2**26`` states.
        """
        if self._cut_values is not None:
            return self._cut_values
        n = self.num_nodes
        if n > _MAX_BRUTE_FORCE_QUBITS:
            raise ValueError(
                f"brute-force cut table infeasible for {n} nodes "
                f"(limit {_MAX_BRUTE_FORCE_QUBITS})"
            )
        indices = np.arange(2 ** n, dtype=np.int64)
        values = np.zeros(2 ** n)
        for a, b, w in self.edges:
            bit_a = (indices >> a) & 1
            bit_b = (indices >> b) & 1
            values += w * (bit_a ^ bit_b)
        self._cut_values = values
        return values

    def max_cut_value(self) -> float:
        """The exact optimum (brute force)."""
        return float(self.cut_values().max())

    # ------------------------------------------------------------------
    # QAOA conversion
    # ------------------------------------------------------------------
    def to_program(
        self,
        gammas: Sequence[float],
        betas: Sequence[float],
    ) -> QAOAProgram:
        """Build the QAOA program for parameter vectors ``gammas, betas``."""
        if len(gammas) != len(betas):
            raise ValueError(
                f"gammas ({len(gammas)}) and betas ({len(betas)}) differ"
            )
        levels = [Level(float(g), float(b)) for g, b in zip(gammas, betas)]
        return QAOAProgram(
            num_qubits=self.num_nodes,
            edges=list(self.edges),
            levels=levels,
        )

    def degree(self, node: int) -> int:
        """Number of edges touching ``node``."""
        return sum(1 for a, b, _ in self.edges if node in (a, b))

    def common_neighbours(self, a: int, b: int) -> int:
        """Number of triangles through edge ``(a, b)`` (for the p=1
        analytic expectation)."""
        neigh_a = {y for x, y, _ in self.edges if x == a} | {
            x for x, y, _ in self.edges if y == a
        }
        neigh_b = {y for x, y, _ in self.edges if x == b} | {
            x for x, y, _ in self.edges if y == b
        }
        return len((neigh_a & neigh_b) - {a, b})

    def __repr__(self) -> str:
        return (
            f"MaxCutProblem(num_nodes={self.num_nodes}, "
            f"num_edges={len(self.edges)})"
        )
