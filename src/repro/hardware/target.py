"""The Target layer: one memoized bundle of device + calibration + faults.

Every methodology in the paper is parameterised by the same device facts —
hop distances (IC), ``1/success_rate`` weighted distances (VIC),
connectivity strength (QAIM), neighbour sets, shortest paths, crosstalk
conflict pairs.  Before this layer the codebase threaded
:class:`~repro.hardware.coupling.CouplingGraph`,
:class:`~repro.hardware.calibration.Calibration`, and fault-repair state as
three loose objects and recomputed the O(n³) Floyd–Warshall tables per pass
and per batch job.

:class:`Target` consolidates them: an *immutable* view of one device at one
calibration point that lazily computes and memoizes every derived oracle.
Because a target never changes after construction, every oracle is computed
at most once per target, results are served as read-only views, and a batch
of N jobs against the same device shares a single analysis via the interning
registry (:func:`intern_target`).

**Fingerprints.**  :attr:`Target.fingerprint` is a SHA-256 over the
canonical content — coupling (name, size, sorted edges), calibration error
tables (timestamp excluded: provenance labels don't change compilation),
normalised crosstalk conflicts, and degradation warnings.  It is the
interning key, the service-layer device identity (a pickled target ships
content, not O(n²) matrices), and is stamped on serialised results.
Calibrations that don't expose canonical error tables (duck-typed test
stubs) yield ``fingerprint = None`` and are simply never interned.

**Ownership.**  A target *wraps* its coupling and calibration; it never
copies or mutates them.  Degraded state (e.g. a repaired calibration's
pruned coupling plus repair warnings) is expressed by constructing the
target from the repaired objects with ``warnings=...`` — the warnings feed
the fingerprint so degraded and clean targets never alias.
"""

from __future__ import annotations

import hashlib
import json
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .coupling import CouplingGraph, Edge
from ..store.registry import FingerprintRegistry

__all__ = [
    "Target",
    "as_target",
    "clear_target_registry",
    "coupling_fingerprint",
    "intern_coupling",
    "intern_target",
    "normalise_conflicts",
    "set_registry_capacity",
    "target_registry_stats",
]

ConflictPair = FrozenSet[Edge]

_FINGERPRINT_VERSION = 1


def _norm_edge(a: int, b: int) -> Edge:
    return (min(int(a), int(b)), max(int(a), int(b)))


def normalise_conflicts(conflicts) -> FrozenSet[ConflictPair]:
    """Canonicalise crosstalk conflict pairs (Section VI).

    Accepts ``((e1, e2), ...)`` tuples or already-frozen
    ``frozenset({e1, e2})`` pairs; edges are normalised to ``(min, max)``.
    ``None`` means no conflicts.  A coupling cannot conflict with itself.
    """
    out = set()
    if conflicts is None:
        return frozenset()
    for pair in conflicts:
        e1, e2 = tuple(pair)
        n1, n2 = _norm_edge(*e1), _norm_edge(*e2)
        if n1 == n2:
            raise ValueError(f"a coupling cannot conflict with itself: {n1}")
        out.add(frozenset((n1, n2)))
    return frozenset(out)


# ----------------------------------------------------------------------
# canonical content (fingerprint pre-images)
# ----------------------------------------------------------------------
def _coupling_canonical(coupling: CouplingGraph) -> dict:
    return {
        "name": str(coupling.name),
        "num_qubits": int(coupling.num_qubits),
        "edges": [[a, b] for a, b in sorted(coupling.edges)],
    }


def _calibration_canonical(calibration) -> Optional[dict]:
    """Canonical error tables, or ``None`` for duck-typed calibrations.

    ``repr(float)`` round-trips exactly, so two calibrations canonicalise
    equal iff their rates are bit-identical.  The timestamp is *excluded*:
    it is provenance, not content, and must not split the intern registry.
    """
    cnot = getattr(calibration, "cnot_error", None)
    if not isinstance(cnot, dict):
        return None
    try:
        return {
            "cnot_error": [
                [a, b, repr(float(err))]
                for (a, b), err in sorted(
                    (_norm_edge(*e), v) for e, v in cnot.items()
                )
            ],
            "single_qubit_error": [
                [int(q), repr(float(err))]
                for q, err in sorted(
                    getattr(calibration, "single_qubit_error", {}).items()
                )
            ],
            "readout_error": [
                [int(q), repr(float(err))]
                for q, err in sorted(
                    getattr(calibration, "readout_error", {}).items()
                )
            ],
        }
    except (TypeError, ValueError):
        return None


def _conflicts_canonical(conflicts: FrozenSet[ConflictPair]) -> list:
    return sorted(
        [list(e) for e in sorted(pair)] for pair in conflicts
    )


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def coupling_fingerprint(coupling: CouplingGraph) -> str:
    """Content fingerprint of a bare coupling graph.

    This is what the service layer ships and keys on for inline device
    specs — the fingerprint of a :class:`Target` with no calibration is a
    superset of the same content.
    """
    return _digest(
        {
            "fingerprint_version": _FINGERPRINT_VERSION,
            "coupling": _coupling_canonical(coupling),
        }
    )


# ----------------------------------------------------------------------
# the target
# ----------------------------------------------------------------------
class Target:
    """Immutable device view with lazily memoized compilation oracles.

    Args:
        coupling: Device topology.
        calibration: Optional calibration (required for the VIC oracles).
            Must cover ``coupling`` when it exposes a ``coupling``
            attribute.
        crosstalk_conflicts: Optional conflicting coupling pairs
            (Section VI); normalised via :func:`normalise_conflicts`.
        warnings: Degradation provenance attached to this device state
            (e.g. calibration-repair messages).  Part of the fingerprint —
            a repaired device never aliases a clean one.

    Construct directly for throwaway use; prefer :func:`intern_target`
    whenever the same device+calibration may recur (batches, sweeps), so
    the O(n³) analyses run once per distinct device.
    """

    def __init__(
        self,
        coupling: CouplingGraph,
        calibration=None,
        crosstalk_conflicts=None,
        warnings: Sequence[str] = (),
    ) -> None:
        cal_coupling = getattr(calibration, "coupling", None)
        if cal_coupling is not None and cal_coupling is not coupling:
            if (
                getattr(cal_coupling, "name", None) != coupling.name
                or getattr(cal_coupling, "num_qubits", None)
                != coupling.num_qubits
                or getattr(cal_coupling, "edges", None) != coupling.edges
            ):
                raise ValueError(
                    "calibration device does not match target coupling"
                )
        self.coupling = coupling
        self.calibration = calibration
        self.crosstalk_conflicts = normalise_conflicts(crosstalk_conflicts)
        self.warnings: Tuple[str, ...] = tuple(str(w) for w in warnings)
        # Memo slots.  Lazy writes are idempotent (every oracle is a pure
        # function of the immutable inputs), so concurrent first calls are
        # benign — last writer wins with an identical value.
        self._fingerprint: Optional[str] = None
        self._fingerprint_done = False
        self._coupling_fingerprint: Optional[str] = None
        self._vic_resolved: Optional[
            Tuple[Optional[np.ndarray], Tuple[str, ...]]
        ] = None
        self._profiles: Dict[int, Mapping[int, int]] = {}
        self._neighbourhoods: Dict[Tuple[int, int], FrozenSet[int]] = {}
        # metric -> {(a, b): path}; a degraded VIC table shares "hop".
        self._paths: Dict[str, Dict[Tuple[int, int], Tuple[int, ...]]] = {}
        self._weighted: Dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> Optional[str]:
        """SHA-256 content fingerprint, or ``None`` when the calibration
        cannot be canonicalised (duck-typed stubs) — such targets are
        never interned or cache-shared."""
        if not self._fingerprint_done:
            cal = None
            if self.calibration is not None:
                cal = _calibration_canonical(self.calibration)
            if self.calibration is not None and cal is None:
                self._fingerprint = None
            else:
                self._fingerprint = _digest(
                    {
                        "fingerprint_version": _FINGERPRINT_VERSION,
                        "coupling": _coupling_canonical(self.coupling),
                        "calibration": cal,
                        "conflicts": _conflicts_canonical(
                            self.crosstalk_conflicts
                        ),
                        "warnings": list(self.warnings),
                    }
                )
            self._fingerprint_done = True
        return self._fingerprint

    @property
    def coupling_fingerprint(self) -> str:
        """:func:`coupling_fingerprint` of the wrapped coupling, computed
        once per target: the device-content part of the key under which
        QAIM shares placements across targets (a calibrated and a bare
        target of one device place alike)."""
        if self._coupling_fingerprint is None:
            self._coupling_fingerprint = coupling_fingerprint(self.coupling)
        return self._coupling_fingerprint

    @property
    def num_qubits(self) -> int:
        """Physical qubit count of the device."""
        return self.coupling.num_qubits

    @property
    def name(self) -> str:
        """Device name."""
        return self.coupling.name

    # ------------------------------------------------------------------
    # distance oracles
    # ------------------------------------------------------------------
    def hop_distances(self) -> np.ndarray:
        """Read-only hop-distance matrix (shared, never copied)."""
        return self.coupling.distance_matrix()

    def vic_edge_weights(self) -> Mapping[Edge, float]:
        """``1 / cphase_success`` edge weights (memoized on the
        calibration); raises without calibration data."""
        if self.calibration is None:
            raise ValueError("VIC edge weights require calibration data")
        return self.calibration.vic_edge_weights()

    def vic_distance_matrix(self) -> np.ndarray:
        """Reliability-weighted distance matrix (Figure 6(d)), memoized;
        raises without calibration data or on unusable calibrations."""
        if self.calibration is None:
            raise ValueError("VIC distances require calibration data")
        return self.calibration.vic_distance_matrix()

    def vic_distances(self) -> Tuple[Optional[np.ndarray], List[str]]:
        """The degradation-aware VIC resolution, memoized.

        Same contract as :func:`repro.compiler.vic.resolve_vic_distances`
        (which performs the actual resolution): ``(matrix, [])`` for a
        usable table, ``(None, warnings)`` after falling back to hop
        distances.  The warnings list is a fresh copy per call; the matrix
        is the shared memoized table.
        """
        if self.calibration is None:
            raise ValueError("VIC distances require calibration data")
        if self._vic_resolved is None:
            from ..compiler.vic import resolve_vic_distances

            matrix, warnings = resolve_vic_distances(self.calibration)
            self._vic_resolved = (matrix, tuple(warnings))
        matrix, warnings = self._vic_resolved
        return matrix, list(warnings)

    def routing_distances(self, metric: str = "hop") -> Optional[np.ndarray]:
        """The distance-table override routing should steer by.

        ``None`` for the ``"hop"`` metric (routers default to hop
        distances); the memoized VIC table for ``"vic"`` (``None`` again
        if the calibration degraded to hop distances).
        """
        if metric == "hop":
            return None
        if metric == "vic":
            return self.vic_distances()[0]
        raise ValueError(f"unknown distance metric {metric!r}")

    def weighted_distances(self, edge_weights: Dict[Edge, float]) -> np.ndarray:
        """Floyd–Warshall under custom edge weights, memoized per weight
        assignment (read-only view).  This is the seam ablation studies
        use for alternative VIC weight functions."""
        key = tuple(
            sorted(
                (_norm_edge(*e), repr(float(w)))
                for e, w in edge_weights.items()
            )
        )
        cached = self._weighted.get(key)
        if cached is None:
            cached = self.coupling.weighted_distance_matrix(edge_weights)
            cached.setflags(write=False)
            self._weighted[key] = cached
        return cached

    # ------------------------------------------------------------------
    # neighbourhood / connectivity oracles (QAIM, Figure 3(b))
    # ------------------------------------------------------------------
    def neighbours(self, qubit: int) -> Tuple[int, ...]:
        """Directly coupled qubits (first neighbours)."""
        return self.coupling.neighbours(qubit)

    def neighbourhood(self, qubit: int, radius: int = 2) -> FrozenSet[int]:
        """All distinct qubits within ``radius`` hops (self excluded)."""
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        key = (int(qubit), int(radius))
        cached = self._neighbourhoods.get(key)
        if cached is None:
            hop = self.hop_distances()[qubit]
            cached = frozenset(
                int(q)
                for q in np.flatnonzero(hop <= radius)
                if int(q) != qubit
            )
            self._neighbourhoods[key] = cached
        return cached

    def second_neighbours(self, qubit: int) -> FrozenSet[int]:
        """Qubits at hop distance exactly 2."""
        return self.neighbourhood(qubit, 2) - frozenset(
            self.neighbours(qubit)
        )

    def connectivity_strength(self, qubit: int, radius: int = 2) -> int:
        """QAIM connectivity strength — ``len(neighbourhood(radius))``."""
        return self.connectivity_profile(radius)[qubit]

    def connectivity_profile(self, radius: int = 2) -> Mapping[int, int]:
        """Connectivity strength of every qubit (read-only, memoized per
        radius; Figure 3(b) table)."""
        cached = self._profiles.get(radius)
        if cached is None:
            cached = MappingProxyType(
                self.coupling.connectivity_profile(radius=radius)
            )
            self._profiles[radius] = cached
        return cached

    # ------------------------------------------------------------------
    # path oracle
    # ------------------------------------------------------------------
    def shortest_path(self, a: int, b: int, metric: str = "hop") -> List[int]:
        """A shortest path under the metric, memoized per endpoint pair.

        ``"vic"`` steers by the reliability-weighted table, degrading to
        hop distances when the calibration cannot produce one (matching
        the compiler's VIC→IC fallback).  Returns a fresh list per call.
        """
        return list(self.path_oracle(metric)(int(a), int(b)))

    def path_oracle(self, metric: str = "hop") -> Callable[[int, int], Tuple[int, ...]]:
        """A ``(a, b) -> path`` callable over this target's memoized
        shortest paths (what routers consume): a dictionary lookup that
        returns the cached path tuple, computing it on the first request
        for the pair.  Callers pass Python ``int`` qubits."""
        dist = self.routing_distances(metric)
        paths = self._paths.setdefault("hop" if dist is None else metric, {})
        coupling = self.coupling

        def oracle(a: int, b: int) -> Tuple[int, ...]:
            path = paths.get((a, b))
            if path is None:
                path = paths[a, b] = tuple(coupling.shortest_path(a, b, dist=dist))
            return path

        return oracle

    # ------------------------------------------------------------------
    # crosstalk
    # ------------------------------------------------------------------
    def conflict_sets(self) -> FrozenSet[ConflictPair]:
        """Normalised crosstalk conflict pairs bound to this device."""
        return self.crosstalk_conflicts

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def __reduce__(self):
        # Ship content, not matrices: the receiving process re-interns, so
        # it pays one device analysis per distinct target.
        return (
            _rebuild_target,
            (
                self.coupling,
                self.calibration,
                self.crosstalk_conflicts,
                self.warnings,
            ),
        )

    def __repr__(self) -> str:
        fp = self.fingerprint
        return (
            f"Target(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"calibrated={self.calibration is not None}, "
            f"fingerprint={fp[:12] if fp else None})"
        )


def _rebuild_target(coupling, calibration, conflicts, warnings) -> Target:
    return intern_target(
        coupling,
        calibration,
        crosstalk_conflicts=conflicts,
        warnings=warnings,
    )


# ----------------------------------------------------------------------
# interning registries (the store's in-process tier)
# ----------------------------------------------------------------------
# One FingerprintRegistry per artifact kind replaces the two hand-rolled
# OrderedDict LRU loops that used to live here.  Capacity comes from
# REPRO_REGISTRY_CAPACITY (default 256) or set_registry_capacity().
_TARGETS = FingerprintRegistry(
    "targets", env_var="REPRO_REGISTRY_CAPACITY", default_capacity=256
)
_COUPLINGS = FingerprintRegistry(
    "couplings", env_var="REPRO_REGISTRY_CAPACITY", default_capacity=256
)


def set_registry_capacity(capacity: Optional[int]) -> None:
    """Re-bound both intern registries (``None`` = unbounded)."""
    _TARGETS.set_capacity(capacity)
    _COUPLINGS.set_capacity(capacity)


def intern_target(
    coupling: CouplingGraph,
    calibration=None,
    crosstalk_conflicts=None,
    warnings: Sequence[str] = (),
) -> Target:
    """The shared :class:`Target` for this device+calibration content.

    Keyed on :attr:`Target.fingerprint`: two content-equal requests (even
    from distinct ``CouplingGraph``/``Calibration`` instances) return the
    *same* target, so its memoized oracles are computed once.  Targets
    without a fingerprint (duck-typed calibrations) are returned
    un-interned.  The registry is a bounded LRU — long-running services
    with unbounded device churn cannot leak.
    """
    target = Target(
        coupling,
        calibration,
        crosstalk_conflicts=crosstalk_conflicts,
        warnings=warnings,
    )
    fp = target.fingerprint
    if fp is None:
        return target
    interned, _hit = _TARGETS.intern(fp, lambda: target)
    return interned


def intern_coupling(
    num_qubits: int, edges: Iterable[Edge], name: str = "device"
) -> CouplingGraph:
    """The shared :class:`CouplingGraph` for this topology content.

    Interning makes N identical inline device specs (batch job files,
    unpickled jobs) share one graph — and one Floyd–Warshall table.
    This is also ``CouplingGraph.__reduce__``'s constructor, so couplings
    cross process boundaries as edge lists and re-intern on arrival.
    """
    key = (
        str(name),
        int(num_qubits),
        tuple(sorted(_norm_edge(a, b) for a, b in edges)),
    )

    graph, _hit = _COUPLINGS.intern(
        key, lambda: CouplingGraph(key[1], key[2], name=key[0])
    )
    return graph


def as_target(obj) -> Target:
    """Coerce a :class:`Target`, :class:`CouplingGraph`, or calibration
    (anything with a ``coupling`` attribute) into an interned target."""
    if isinstance(obj, Target):
        return obj
    if isinstance(obj, CouplingGraph):
        return intern_target(obj)
    coupling = getattr(obj, "coupling", None)
    if coupling is not None:
        return intern_target(coupling, obj)
    raise TypeError(
        f"cannot build a Target from {type(obj).__name__}; expected a "
        f"Target, CouplingGraph, or calibration"
    )


def clear_target_registry() -> None:
    """Empty both intern registries and reset hit/miss counters (tests and
    cold-start benchmarking)."""
    _TARGETS.clear()
    _COUPLINGS.clear()


def target_registry_stats() -> dict:
    """Registry sizes and hit/miss counters (telemetry).

    Key names predate the store refactor and are kept stable for callers;
    the same counters appear per-registry in
    :func:`repro.store.store_stats` under ``targets``/``couplings``.
    """
    t = _TARGETS.stats()
    c = _COUPLINGS.stats()
    return {
        "target_hits": t["hits"],
        "target_misses": t["misses"],
        "target_evictions": t["evictions"],
        "coupling_hits": c["hits"],
        "coupling_misses": c["misses"],
        "coupling_evictions": c["evictions"],
        "targets": t["size"],
        "couplings": c["size"],
        "capacity": t["capacity"],
    }
