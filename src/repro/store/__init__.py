"""Content-addressed artifact store: one substrate for shared immutable data.

Before this package the repo grew parallel caching mechanisms, each
hand-rolled where it was first needed: bounded-LRU intern registries for
:class:`~repro.hardware.target.Target` and
:class:`~repro.hardware.coupling.CouplingGraph` (``hardware/target.py``),
duplicated again for :class:`~repro.sim.fastpath.CostDiagonal`, and a
single-directory disk :class:`~repro.service.cache.ResultCache`.

``repro.store`` replaces them with two tiers keyed by SHA-256 content
fingerprints:

* :class:`FingerprintRegistry` — the in-process tier: a generic bounded-LRU
  intern registry with hit/miss/eviction telemetry and configurable
  capacity (keyword or environment variable);
* :class:`ShardedDiskTier` — the durable tier: a fanout-sharded on-disk
  layout with atomic writes, corrupt-entry quarantine, size-bounded
  eviction, and per-shard hit/miss/eviction/quarantine telemetry
  (:class:`~repro.service.cache.ResultCache` is a thin facade over it).

Pool workers get device tables the way pickling gives them:
``CouplingGraph.__reduce__`` and ``Target.__reduce__`` ship content and
re-intern on arrival, and fork-started workers inherit whatever the parent
had already interned.

:func:`store_stats` snapshots every registry's counters; the batch engine
threads per-run deltas through ``BatchReport.store_stats`` and per-job
``store_events``.
"""

from .disk import DiskLookup, ShardStats, ShardedDiskTier, shard_for
from .registry import (
    FingerprintRegistry,
    all_registries,
    diff_store_stats,
    flatten_store_events,
    registry_capacity,
    store_stats,
)

__all__ = [
    "DiskLookup",
    "FingerprintRegistry",
    "ShardStats",
    "ShardedDiskTier",
    "all_registries",
    "diff_store_stats",
    "flatten_store_events",
    "registry_capacity",
    "shard_for",
    "store_stats",
]
