"""The facade: one object over the registry / shared-memory / disk tiers.

An :class:`ArtifactStore` is the composition point the rest of the repo
talks to: interning goes to a :class:`~repro.store.registry.FingerprintRegistry`,
large read-only numpy payloads go through the process-global
:class:`~repro.store.shm.SharedArrayTier`, and durable JSON entries go to
an optional :class:`~repro.store.disk.ShardedDiskTier`.  The hardware and
sim layers keep their own named registries (created at import time) and
use the shared tier directly; the store object exists so benchmarks,
tests, the CLI and telemetry have one handle and one stats snapshot.

:func:`store_stats` is the process-wide JSON-safe snapshot (every live
registry + the shared tier); :func:`diff_store_stats` turns two
snapshots into per-run deltas, which is how ``BatchReport.store_stats``
reports what one batch actually did rather than process-lifetime totals.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

from .disk import ShardedDiskTier
from .registry import FingerprintRegistry, all_registries
from .shm import SharedArrayTier, shared_tier, _reset_shared_tier

__all__ = [
    "ArtifactStore",
    "diff_store_stats",
    "flatten_store_events",
    "get_store",
    "reset_store",
    "store_stats",
]

#: Snapshot keys that are gauges (current values), not monotonic
#: counters — a diff reports the *after* value for these.
_GAUGE_KEYS = {
    "size",
    "capacity",
    "segments",
    "owned",
    "bytes",
    "enabled",
    "max_segments",
    "max_bytes",
    "shards",
}


class ArtifactStore:
    """Fingerprint-keyed store over pluggable tiers.

    Args:
        name: Label for the store's own registry tier.
        registry: In-process tier; a fresh bounded registry by default.
        shared: Cross-process tier; the process-global one by default.
        disk: Optional durable tier (a sharded directory).
    """

    def __init__(
        self,
        name: str = "artifacts",
        registry: Optional[FingerprintRegistry] = None,
        shared: Optional[SharedArrayTier] = None,
        disk: Optional[ShardedDiskTier] = None,
    ) -> None:
        self.name = name
        self.registry = registry or FingerprintRegistry(
            name, env_var="REPRO_STORE_CAPACITY", default_capacity=256
        )
        self.shared = shared if shared is not None else shared_tier()
        self.disk = disk

    # -- in-process objects -------------------------------------------
    def intern(self, key, factory: Callable[[], object]) -> Tuple[object, bool]:
        return self.registry.intern(key, factory)

    # -- cross-process arrays -----------------------------------------
    def get_arrays(self, key: str):
        """Resolve a published numpy bundle (registry first, then shm)."""
        cached = self.registry.get(("arrays", key))
        if cached is not None:
            return cached
        arrays = self.shared.resolve(key)
        if arrays is not None:
            self.registry.put(("arrays", key), arrays)
        return arrays

    def put_arrays(self, key: str, arrays) -> bool:
        self.registry.put(("arrays", key), arrays)
        return self.shared.publish(key, arrays)

    # -- durable entries ----------------------------------------------
    def get_entry(self, key: str):
        if self.disk is None:
            return None
        lookup = self.disk.get(key)
        return lookup.payload if lookup.hit else None

    def put_entry(self, key: str, payload: dict) -> int:
        if self.disk is None:
            return 0
        return self.disk.put(key, payload)

    # -- telemetry -----------------------------------------------------
    def stats(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "registry": self.registry.stats(),
            "shm": self.shared.stats(),
        }
        if self.disk is not None:
            out["disk"] = self.disk.stats()
        return out


_STORE: Optional[ArtifactStore] = None
_STORE_LOCK = threading.Lock()


def get_store() -> ArtifactStore:
    """The process-global store (shared tier + a default registry)."""
    global _STORE
    with _STORE_LOCK:
        if _STORE is None:
            _STORE = ArtifactStore()
        return _STORE


def reset_store(clear_registries: bool = False) -> None:
    """Test hook: drop the global store and unlink its shared segments.

    ``clear_registries=True`` additionally empties every live
    :class:`FingerprintRegistry` (targets, couplings, diagonals, ...).
    """
    global _STORE
    with _STORE_LOCK:
        _STORE = None
    _reset_shared_tier()
    if clear_registries:
        for registry in all_registries().values():
            registry.clear()


def store_stats() -> Dict[str, object]:
    """Process-wide JSON-safe snapshot of every tier's counters."""
    return {
        "registries": {
            name: registry.stats() for name, registry in all_registries().items()
        },
        "shm": shared_tier().stats(),
    }


def flatten_store_events(before: Dict, after: Dict) -> Dict[str, int]:
    """Compact counter deltas between two :func:`store_stats` snapshots.

    This is the per-job event record workers stamp into result metrics
    (``store_events``) so the batch engine can see shared-memory and
    registry activity that happened in pool processes.  Registries are
    summed; zero-valued counters are dropped to keep envelopes small.
    """
    delta = diff_store_stats(before, after)
    shm = delta.get("shm", {})
    events = {
        "shm_hits": int(shm.get("hits", 0)) + int(shm.get("attach_hits", 0)),
        "shm_misses": int(shm.get("misses", 0)),
        "shm_publishes": int(shm.get("publishes", 0)),
        "shm_publish_skips": int(shm.get("publish_skips", 0)),
        "shm_torn": int(shm.get("torn", 0)),
    }
    registry_totals = {"registry_hits": 0, "registry_misses": 0, "registry_evictions": 0}
    for stats in delta.get("registries", {}).values():
        registry_totals["registry_hits"] += int(stats.get("hits", 0))
        registry_totals["registry_misses"] += int(stats.get("misses", 0))
        registry_totals["registry_evictions"] += int(stats.get("evictions", 0))
    events.update(registry_totals)
    return {k: v for k, v in events.items() if v}


def diff_store_stats(before: Dict, after: Dict) -> Dict[str, object]:
    """Delta between two :func:`store_stats` snapshots.

    Counters are diffed (clamped at zero, so a registry clear mid-run
    can't go negative); gauge keys report the *after* value; snapshot
    sections present only in ``after`` diff against zero.
    """
    out: Dict[str, object] = {}
    for key, after_value in after.items():
        before_value = before.get(key)
        if isinstance(after_value, dict):
            out[key] = diff_store_stats(
                before_value if isinstance(before_value, dict) else {}, after_value
            )
        elif isinstance(after_value, bool) or not isinstance(
            after_value, (int, float)
        ):
            out[key] = after_value
        elif key in _GAUGE_KEYS:
            out[key] = after_value
        else:
            prior = before_value if isinstance(before_value, (int, float)) else 0
            out[key] = max(0, after_value - prior)
    return out
