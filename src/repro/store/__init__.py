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
* :class:`SQLiteDiskTier` — the durable tier: every entry of a cache
  directory in one SQLite database in WAL mode, with atomic writes,
  corrupt-entry quarantine, size-bounded eviction and several writer
  processes per directory (:class:`~repro.service.cache.ResultCache` is a
  thin facade over it).

A pickled ``CouplingGraph`` or ``Target`` ships content and re-interns on
arrival (``__reduce__``), so an unpickled copy shares the receiving
process's tables.

:func:`store_stats` snapshots every registry's counters; the batch engine
reports its per-run delta as ``BatchReport.store_stats``.
"""

from .disk import DiskLookup, DiskTierError, SQLiteDiskTier
from .registry import (
    FingerprintRegistry,
    all_registries,
    diff_store_stats,
    registry_capacity,
    store_stats,
)

__all__ = [
    "DiskLookup",
    "DiskTierError",
    "FingerprintRegistry",
    "SQLiteDiskTier",
    "all_registries",
    "diff_store_stats",
    "registry_capacity",
    "store_stats",
]
