"""Content-addressed artifact store: one substrate for shared immutable data.

Before this package the repo grew three parallel caching mechanisms, each
hand-rolled where it was first needed:

* bounded-LRU intern registries for :class:`~repro.hardware.target.Target`
  and :class:`~repro.hardware.coupling.CouplingGraph` (``hardware/target.py``),
  duplicated again for :class:`~repro.sim.fastpath.CostDiagonal`;
* a ``__reduce__``-based re-intern-in-every-worker pattern, so a process
  pool paid one full device analysis per worker per distinct target;
* a single-directory disk :class:`~repro.service.cache.ResultCache`.

``repro.store`` replaces all three with one content-addressed substrate,
organised as pluggable tiers keyed by SHA-256 content fingerprints:

* :class:`FingerprintRegistry` — the in-process tier: a generic bounded-LRU
  intern registry with hit/miss/eviction telemetry and configurable
  capacity (keyword or environment variable);
* :class:`SharedArrayTier` — the cross-process tier: read-only numpy
  payloads (distance tables, cut/phase vectors, statevectors) published
  once into ``multiprocessing.shared_memory`` blocks and resolved
  zero-copy by every pool worker, so N workers share one copy of each
  O(n²)/O(2^n) table instead of recomputing or re-materialising it;
* :class:`ShardedDiskTier` — the durable tier: a fanout-sharded on-disk
  layout with atomic writes, corrupt-entry quarantine, size-bounded
  eviction, and per-shard hit/miss/eviction/quarantine telemetry
  (:class:`~repro.service.cache.ResultCache` is a thin facade over it).

:func:`store_stats` aggregates every tier's counters into one JSON-safe
snapshot; the batch engine threads it through ``BatchReport`` and
``repro store`` exposes it on the CLI.
"""

from .artifact import (
    ArtifactStore,
    diff_store_stats,
    flatten_store_events,
    get_store,
    reset_store,
    store_stats,
)
from .disk import DiskLookup, ShardStats, ShardedDiskTier, shard_for
from .registry import (
    FingerprintRegistry,
    all_registries,
    registry_capacity,
)
from .shm import SharedArrayTier, shared_tier

__all__ = [
    "ArtifactStore",
    "DiskLookup",
    "FingerprintRegistry",
    "ShardStats",
    "ShardedDiskTier",
    "SharedArrayTier",
    "all_registries",
    "diff_store_stats",
    "flatten_store_events",
    "get_store",
    "registry_capacity",
    "reset_store",
    "shard_for",
    "shared_tier",
    "store_stats",
]
