"""Logical-to-physical qubit mapping.

A :class:`Mapping` tracks where each logical (program) qubit currently lives
on the device.  It is the mutable state every routing step updates: inserting
a SWAP on physical qubits ``(p, q)`` exchanges whatever logical qubits sit
there.  The paper's IC/VIC methods hinge on observing exactly these dynamic
changes between layers (Section IV-C).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Optional, Tuple

__all__ = ["Mapping"]


class Mapping:
    """A partial injection from logical qubits onto physical qubits.

    Args:
        logical_to_physical: Initial placement; logical qubits are the keys.
        num_physical: Total physical qubits on the device (placements must
            stay in range).
    """

    def __init__(
        self, logical_to_physical: Dict[int, int], num_physical: int
    ) -> None:
        self.num_physical = int(num_physical)
        self._l2p: Dict[int, int] = {}
        self._p2l: Dict[int, int] = {}
        for logical, physical in logical_to_physical.items():
            self.place(logical, physical)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def trivial(cls, num_logical: int, num_physical: int) -> "Mapping":
        """Identity placement: logical ``i`` on physical ``i``."""
        if num_logical > num_physical:
            raise ValueError(
                f"{num_logical} logical qubits cannot fit on "
                f"{num_physical} physical qubits"
            )
        return cls({i: i for i in range(num_logical)}, num_physical)

    @classmethod
    def random(
        cls, num_logical: int, num_physical: int, rng
    ) -> "Mapping":
        """Uniformly random placement (the NAIVE flow's initial mapping)."""
        if num_logical > num_physical:
            raise ValueError(
                f"{num_logical} logical qubits cannot fit on "
                f"{num_physical} physical qubits"
            )
        physical = rng.permutation(num_physical)[:num_logical]
        return cls(
            {i: int(p) for i, p in enumerate(physical)}, num_physical
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def place(self, logical: int, physical: int) -> None:
        """Assign ``logical`` to ``physical`` (both must be free)."""
        # Stored as Python ints: routers copy physical indices straight
        # into instructions without re-validating them.
        logical, physical = int(logical), int(physical)
        if not 0 <= physical < self.num_physical:
            raise ValueError(f"physical qubit {physical} out of range")
        if logical in self._l2p:
            raise ValueError(f"logical qubit {logical} already placed")
        if physical in self._p2l:
            raise ValueError(f"physical qubit {physical} already occupied")
        self._l2p[logical] = physical
        self._p2l[physical] = logical

    def apply_swap(self, phys_a: int, phys_b: int) -> None:
        """Exchange the logical occupants of two physical qubits.

        Either side may be unoccupied — SWAPs routinely move a logical qubit
        through an empty physical qubit.
        """
        phys_a, phys_b = int(phys_a), int(phys_b)
        for p in (phys_a, phys_b):
            if not 0 <= p < self.num_physical:
                raise ValueError(f"physical qubit {p} out of range")
        la = self._p2l.pop(phys_a, None)
        lb = self._p2l.pop(phys_b, None)
        if la is not None:
            self._p2l[phys_b] = la
            self._l2p[la] = phys_b
        if lb is not None:
            self._p2l[phys_a] = lb
            self._l2p[lb] = phys_a

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def physical(self, logical: int) -> int:
        """Current physical location of a logical qubit."""
        try:
            return self._l2p[logical]
        except KeyError:
            raise KeyError(f"logical qubit {logical} is not placed") from None

    @property
    def homes(self) -> MappingProxyType:
        """Read-only live view of the logical -> physical map, for routers
        that read it once per gate (``homes[q]`` raises ``KeyError(q)``
        for an unplaced qubit)."""
        return MappingProxyType(self._l2p)

    def logical_at(self, physical: int) -> Optional[int]:
        """Logical occupant of a physical qubit, or ``None`` if empty."""
        return self._p2l.get(physical)

    def is_placed(self, logical: int) -> bool:
        """Whether ``logical`` has a physical home."""
        return logical in self._l2p

    def occupied_physical(self) -> Tuple[int, ...]:
        """Sorted tuple of physical qubits hosting a logical qubit."""
        return tuple(sorted(self._p2l))

    def free_physical(self) -> Tuple[int, ...]:
        """Sorted tuple of unoccupied physical qubits."""
        occupied = set(self._p2l)
        return tuple(
            p for p in range(self.num_physical) if p not in occupied
        )

    def logical_qubits(self) -> Tuple[int, ...]:
        """Sorted tuple of placed logical qubits."""
        return tuple(sorted(self._l2p))

    def as_dict(self) -> Dict[int, int]:
        """Snapshot of the logical -> physical map."""
        return dict(self._l2p)

    def copy(self) -> "Mapping":
        """Independent copy."""
        return Mapping(self._l2p, self.num_physical)

    def physical_pair(self, logical_a: int, logical_b: int) -> Tuple[int, int]:
        """Physical endpoints of a logical pair (routing convenience)."""
        return self.physical(logical_a), self.physical(logical_b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return (
            self.num_physical == other.num_physical
            and self._l2p == other._l2p
        )

    def __len__(self) -> int:
        return len(self._l2p)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"q{l}->p{p}" for l, p in sorted(self._l2p.items())
        )
        return f"Mapping({pairs})"
