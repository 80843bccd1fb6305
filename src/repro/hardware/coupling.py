"""Hardware coupling graphs.

A :class:`CouplingGraph` describes which physical-qubit pairs support a
native two-qubit gate.  It precomputes the two distance tables the paper's
methodologies consume:

* **hop distances** — unweighted all-pairs shortest paths (Floyd–Warshall,
  as Section IV-A prescribes), used by QAIM and IC;
* **reliability-weighted distances** — the same algorithm with edge weight
  ``1 / success_rate`` (Figure 6(d)), used by VIC.

Coupling is treated as undirected for routing purposes — on IBM devices a
direction-reversed CNOT costs only single-qubit gates (see
:func:`repro.circuits.decompose.flip_cnot`), so direction never changes
where SWAPs go.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["CouplingGraph", "Edge", "floyd_warshall"]

Edge = Tuple[int, int]

_INF = float("inf")


def floyd_warshall(num_nodes: int, weights: Dict[Edge, float]) -> np.ndarray:
    """All-pairs shortest path distances via Floyd–Warshall.

    Args:
        num_nodes: Number of nodes, labelled ``0 .. num_nodes-1``.
        weights: Undirected edge weights; ``(a, b)`` and ``(b, a)`` are the
            same edge (last writer wins if both appear).

    Returns:
        ``(num_nodes, num_nodes)`` float matrix; unreachable pairs are
        ``inf``, the diagonal is 0.
    """
    dist = np.full((num_nodes, num_nodes), _INF)
    np.fill_diagonal(dist, 0.0)
    for (a, b), w in weights.items():
        if w < 0:
            raise ValueError(f"negative edge weight on {(a, b)}: {w}")
        dist[a, b] = min(dist[a, b], w)
        dist[b, a] = min(dist[b, a], w)
    for k in range(num_nodes):
        # Vectorised relaxation: dist = min(dist, dist[:,k,None]+dist[None,k,:])
        via_k = dist[:, k, None] + dist[None, k, :]
        np.minimum(dist, via_k, out=dist)
    return dist


class CouplingGraph:
    """Undirected physical-qubit connectivity of a device.

    Args:
        num_qubits: Number of physical qubits.
        edges: Iterable of qubit-index pairs with native two-qubit coupling.
        name: Human-readable device/topology name.
    """

    def __init__(
        self, num_qubits: int, edges: Iterable[Edge], name: str = "device"
    ) -> None:
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name
        normalised = set()
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise ValueError(f"self-loop edge ({a}, {b})")
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise ValueError(f"edge ({a}, {b}) out of range")
            normalised.add((min(a, b), max(a, b)))
        self._edges: FrozenSet[Edge] = frozenset(normalised)
        self._adjacency: Dict[int, Tuple[int, ...]] = {
            q: tuple(sorted(self._neighbours_of(q))) for q in range(num_qubits)
        }
        # Hop distances are O(n^3) to compute and O(n^2) to hold, so the
        # table is built on first use.
        self._hop_distances: Optional[np.ndarray] = None

    def _hop_table(self) -> np.ndarray:
        """The hop-distance matrix, computed on first use (read-only)."""
        if self._hop_distances is None:
            dist = floyd_warshall(self.num_qubits, {e: 1.0 for e in self._edges})
            # Served directly by distance_matrix(); read-only so hot-path
            # callers can share it without defensive copies.
            dist.setflags(write=False)
            self._hop_distances = dist
        return self._hop_distances

    def _neighbours_of(self, qubit: int) -> List[int]:
        return [
            b if a == qubit else a
            for a, b in self._edges
            if qubit in (a, b)
        ]

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def edges(self) -> FrozenSet[Edge]:
        """Normalised (min, max) edge set."""
        return self._edges

    def num_edges(self) -> int:
        """Number of couplings."""
        return len(self._edges)

    def neighbours(self, qubit: int) -> Tuple[int, ...]:
        """Directly coupled qubits (the paper's "first neighbours")."""
        return self._adjacency[qubit]

    def degree(self, qubit: int) -> int:
        """Number of direct couplings of ``qubit``."""
        return len(self._adjacency[qubit])

    def has_edge(self, a: int, b: int) -> bool:
        """Whether a native two-qubit gate exists between ``a`` and ``b``."""
        return (min(a, b), max(a, b)) in self._edges

    def is_connected(self) -> bool:
        """Whether every qubit can reach every other qubit."""
        return bool(np.all(np.isfinite(self._hop_table())))

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def distance(self, a: int, b: int) -> int:
        """Hop distance (shortest-path length) between two physical qubits."""
        d = self._hop_table()[a, b]
        if not np.isfinite(d):
            raise ValueError(f"qubits {a} and {b} are disconnected")
        return int(d)

    def distance_matrix(self) -> np.ndarray:
        """The full hop-distance matrix as a cached **read-only** array.

        The same array object is returned on every call (sabre/ic/backend
        consume it on the hot path, so no per-call O(n²) copy).  Callers
        that need to mutate must ``.copy()`` explicitly.
        """
        return self._hop_table()

    def weighted_distance_matrix(
        self, edge_weights: Dict[Edge, float]
    ) -> np.ndarray:
        """Floyd–Warshall distances under custom edge weights.

        This is the VIC distance table of Figure 6(d): pass
        ``{edge: 1/success_rate}`` to make unreliable couplings look far.
        Missing edges default to weight 1.0 so partially calibrated devices
        still route.
        """
        weights = {}
        for e in self._edges:
            a, b = e
            w = edge_weights.get(e, edge_weights.get((b, a), 1.0))
            weights[e] = float(w)
        return floyd_warshall(self.num_qubits, weights)

    def shortest_path(
        self, a: int, b: int, dist: Optional[np.ndarray] = None
    ) -> List[int]:
        """A shortest path from ``a`` to ``b`` as a list of qubits.

        Args:
            a: Source physical qubit.
            b: Destination physical qubit.
            dist: Optional distance matrix to steer by (e.g. a
                reliability-weighted one); defaults to hop distances.

        The path is reconstructed greedily: from the current node, step to
        any neighbour ``n`` with ``w(cur, n) + dist[n, b] == dist[cur, b]``
        (up to floating tolerance).  Ties break toward the smallest qubit
        index so results are deterministic.
        """
        if dist is None:
            dist = self._hop_table()
            weight = {e: 1.0 for e in self._edges}
        else:
            # Recover consistent edge weights from the matrix itself: for a
            # metric produced by Floyd-Warshall, w(a,b) == dist[a,b] on edges.
            weight = {e: float(dist[e[0], e[1]]) for e in self._edges}
        if not np.isfinite(dist[a, b]):
            raise ValueError(f"qubits {a} and {b} are disconnected")
        path = [a]
        current = a
        guard = 0
        while current != b:
            guard += 1
            if guard > self.num_qubits + 1:
                raise RuntimeError("path reconstruction failed to converge")
            candidates = [
                n
                for n in self.neighbours(current)
                if abs(
                    weight[(min(current, n), max(current, n))]
                    + dist[n, b]
                    - dist[current, b]
                )
                < 1e-9
            ]
            if not candidates:
                raise RuntimeError(
                    f"no descent step from {current} toward {b}"
                )
            current = min(candidates)
            path.append(current)
        return path

    # ------------------------------------------------------------------
    # connectivity strength (Figure 3(b))
    # ------------------------------------------------------------------
    def connectivity_strength(self, qubit: int, radius: int = 2) -> int:
        """QAIM's connectivity-strength metric for one qubit.

        The strength is the number of *distinct* qubits within ``radius``
        hops (excluding the qubit itself).  With the paper's default
        ``radius=2`` this is "first neighbours + unique second neighbours":
        qubit 0 of ibmq_20_tokyo has 2 first and 5 second neighbours, giving
        strength 7, matching Figure 3(b).  Larger devices may want
        ``radius=3`` or 4 (the paper suggests including higher-degree
        neighbours as architectures grow).
        """
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        within = self._hop_table()[qubit] <= radius
        return int(np.count_nonzero(within)) - 1  # exclude self

    def connectivity_profile(self, radius: int = 2) -> Dict[int, int]:
        """Connectivity strength of every qubit (Figure 3(b) table)."""
        return {
            q: self.connectivity_strength(q, radius)
            for q in range(self.num_qubits)
        }

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def subgraph_edges(self, qubits: Sequence[int]) -> List[Edge]:
        """Edges of the induced subgraph on ``qubits``."""
        qs = set(qubits)
        return [e for e in self._edges if e[0] in qs and e[1] in qs]

    def __reduce__(self):
        # Pickle as the constructive spec, not the O(n²) distance tables,
        # and re-intern on arrival: a process-pool worker receiving N jobs
        # for the same device rebuilds (and analyses) it once.
        from .target import intern_coupling

        return (
            intern_coupling,
            (self.num_qubits, tuple(sorted(self._edges)), self.name),
        )

    def __repr__(self) -> str:
        return (
            f"CouplingGraph(name={self.name!r}, num_qubits={self.num_qubits},"
            f" num_edges={self.num_edges()})"
        )
