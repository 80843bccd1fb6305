"""QAIM: integrated Qubit Allocation and Initial Mapping (Section IV-A).

QAIM fuses topology selection and initial placement into one pass driven by
two profiles:

* the **hardware profile** — each physical qubit's *connectivity strength*
  (distinct qubits within ``radius`` hops, Figure 3(b));
* the **program profile** — CPHASE operations per logical qubit
  (Figure 3(c)).

Procedure (Steps 1-4 of the paper):

1. Sort logical qubits by CPHASE count, descending.
2. Place the first on the physical qubit with the highest connectivity
   strength.
3. For each subsequent logical qubit: if none of its logical neighbours is
   placed yet, use the free physical qubit with the highest strength;
   otherwise consider the free physical neighbours of the placed
   neighbours' homes and pick the one maximising
   ``strength / cumulative hop distance to the placed neighbours``.
4. Repeat until every logical qubit is placed.

Ties break randomly when an ``rng`` is supplied (the paper picks qubit-7 vs
qubit-12 "randomly" in Example 1), or toward the lowest physical index for
deterministic runs.

The cost metric is pluggable (``weighted=True`` scales each neighbour's
distance by the number of interactions with it), implementing the paper's
note that the metric "can be modified ... to apply QAIM effectively in any
arbitrary quantum circuit mapping procedure".

**Shared placements.**  A method sweep compiles one program with every
method under one seed, so most of its jobs run the same placement from the
first draws of a fresh generator.  When a
:class:`~repro.hardware.target.Target` is given, results are kept in a
bounded registry (``"placements"`` in :func:`repro.store.store_stats`,
sized by ``REPRO_REGISTRY_CAPACITY``).  The key is every input the
placement reads: the coupling's content fingerprint, the exact ``pairs``
(their order sets the adjacency order), ``num_logical``, the radius, the
weighting, and the generator's full bit-generator state (arrays frozen by
their bytes; ``None`` when unseeded).  The value is the placement plus the
generator state after it, so a hit restores that state and every later
draw is the one a cold placement would have left.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..hardware.coupling import CouplingGraph
from ..hardware.profiling import program_profile
from ..store.registry import FingerprintRegistry
from .mapping import Mapping

__all__ = ["qaim_placement", "QAIMConfig"]

Pair = Tuple[int, int]


class QAIMConfig:
    """Tunables for QAIM.

    Attributes:
        radius: Neighbourhood radius for connectivity strength (paper
            default 2 = first + second neighbours; "for larger qubit
            architectures, we may include higher degree neighbours").
        weighted: Weigh each placed neighbour's distance by the interaction
            multiplicity (off for QAOA, where every pair interacts once per
            level; useful for arbitrary circuits).
    """

    def __init__(self, radius: int = 2, weighted: bool = False) -> None:
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        self.radius = radius
        self.weighted = weighted


def _logical_neighbours(pairs: Sequence[Pair], num_logical: int) -> Dict[int, Dict[int, int]]:
    """Adjacency (with multiplicity) of the logical interaction graph."""
    adj: Dict[int, Dict[int, int]] = {q: {} for q in range(num_logical)}
    for a, b in pairs:
        adj[a][b] = adj[a].get(b, 0) + 1
        adj[b][a] = adj[b].get(a, 0) + 1
    return adj


def _argmax_with_ties(
    candidates: Sequence[int],
    score,
    rng: Optional[np.random.Generator],
) -> int:
    """Max-scoring candidate; ties break via rng (or lowest index)."""
    best_score = None
    best: List[int] = []
    for c in candidates:
        s = score(c)
        if best_score is None or s > best_score + 1e-12:
            best_score, best = s, [c]
        elif abs(s - best_score) <= 1e-12:
            best.append(c)
    if rng is not None and len(best) > 1:
        return int(best[int(rng.integers(len(best)))])
    return min(best)


#: Placements by :func:`_placement_key` (bounded LRU, sized like the
#: Target registry).
_PLACEMENTS = FingerprintRegistry(
    "placements", env_var="REPRO_REGISTRY_CAPACITY", default_capacity=256
)


def _freeze(value):
    """A hashable copy of a bit-generator state: dicts as item tuples,
    arrays by dtype, shape and bytes.  Raises ``TypeError`` for anything
    else that is unhashable."""
    if isinstance(value, dict):
        return tuple((key, _freeze(item)) for key, item in value.items())
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    hash(value)
    return value


def _placement_key(pairs, num_logical, config, rng, target):
    """Every input :func:`qaim_placement` reads, or ``None`` when the
    generator's state cannot be frozen (the placement then runs
    unshared)."""
    state = None
    if rng is not None:
        try:
            state = _freeze(rng.bit_generator.state)
        except (AttributeError, TypeError):  # no bit generator, or an unhashable state
            return None
    return (
        target.coupling_fingerprint,
        tuple(map(tuple, pairs)),
        num_logical,
        config.radius,
        config.weighted,
        state,
    )


def qaim_placement(
    pairs: Sequence[Pair],
    num_logical: int,
    coupling: CouplingGraph,
    rng: Optional[np.random.Generator] = None,
    config: Optional[QAIMConfig] = None,
    target=None,
) -> Mapping:
    """Run the QAIM procedure and return the initial mapping.

    Args:
        pairs: Logical endpoints of every CPHASE gate in the circuit.
        num_logical: Number of logical qubits (>= max index in ``pairs``).
        coupling: Target device.
        rng: Optional generator for random tie-breaks.
        config: Radius / weighting knobs (defaults to the paper's).
        target: Optional :class:`~repro.hardware.target.Target` wrapping
            ``coupling``, whose memoized connectivity profile and hop
            distances are used instead of recomputing them; with one, the
            placement is shared through the placement registry (see the
            module docstring).

    Returns:
        A :class:`~repro.compiler.mapping.Mapping` placing every logical
        qubit.
    """
    if num_logical > coupling.num_qubits:
        raise ValueError(
            f"{num_logical} logical qubits do not fit on "
            f"{coupling.num_qubits}-qubit device {coupling.name}"
        )
    config = config or QAIMConfig()
    key = None
    if target is not None and target.coupling is coupling:
        key = _placement_key(pairs, num_logical, config, rng, target)
    if key is not None:
        cached = _PLACEMENTS.get(key)
        if cached is not None:
            placed, state = cached
            if rng is not None:
                rng.bit_generator.state = state
            return Mapping(dict(placed), coupling.num_qubits)
    mapping = _place(pairs, num_logical, coupling, rng, config, target)
    if key is not None:
        _PLACEMENTS.put(
            key,
            (
                tuple(mapping.as_dict().items()),
                None if rng is None else rng.bit_generator.state,
            ),
        )
    return mapping


def _place(pairs, num_logical, coupling, rng, config, target) -> Mapping:
    """Steps 1-4 of the procedure (no registry)."""
    if target is not None:
        strength = target.connectivity_profile(radius=config.radius)
        rows = target.hop_distances().tolist()
    else:
        strength = coupling.connectivity_profile(radius=config.radius)
        rows = coupling.distance_matrix().tolist()
    profile = program_profile(pairs)
    adjacency = _logical_neighbours(pairs, num_logical)

    # Step 1: heaviest logical qubits first.
    order = sorted(range(num_logical), key=lambda q: (-profile.get(q, 0), q))
    mapping = Mapping({}, coupling.num_qubits)
    homes = mapping.homes
    free = list(range(coupling.num_qubits))  # ascending, kept up to date

    for logical in order:
        anchor_physical = [
            (homes[n], mult) for n, mult in adjacency[logical].items() if n in homes
        ]
        if not anchor_physical:
            # Step 2 / first branch of Step 3: pure connectivity strength.
            choice = _argmax_with_ties(free, lambda p: strength[p], rng)
        else:
            candidates: Set[int] = set()
            for anchor, _ in anchor_physical:
                candidates.update(
                    p
                    for p in coupling.neighbours(anchor)
                    if mapping.logical_at(p) is None
                )
            pool = sorted(candidates) if candidates else free

            def cost(p: int) -> float:
                row = rows[p]
                distance = 0.0
                for anchor, mult in anchor_physical:
                    distance += row[anchor] * (mult if config.weighted else 1.0)
                if distance <= 0.0:  # cannot happen for free p, defensive
                    distance = 1e-9
                return strength[p] / distance

            choice = _argmax_with_ties(pool, cost, rng)
        mapping.place(logical, choice)
        free.remove(choice)

    return mapping
