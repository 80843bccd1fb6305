"""The in-process tier: a generic fingerprint-keyed bounded-LRU registry.

Extracted from the three hand-rolled ``OrderedDict`` + ``while len(...) >
capacity`` loops that grew in ``hardware/target.py`` (targets, couplings)
and ``sim/fastpath.py`` (cost diagonals).  One implementation, one set of
semantics: thread-safe interning keyed on content fingerprints, LRU
eviction against a configurable capacity, and hit/miss/eviction counters
every registry reports into :func:`repro.store.store_stats`.

Capacity resolution order (first match wins):

1. the ``capacity`` keyword;
2. the registry's environment variable (e.g. ``REPRO_REGISTRY_CAPACITY``),
   read at construction time;
3. the registry's built-in default.

``capacity`` may be ``None`` for an unbounded registry (tests, short-lived
scripts); every long-running-service registry in the repo sets a bound.

:func:`store_stats` is the process-wide JSON-safe snapshot of every live
registry; :func:`diff_store_stats` turns two snapshots into per-run
deltas, which is how ``BatchReport.store_stats`` reports what one batch
actually did rather than process-lifetime totals.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple, TypeVar

__all__ = [
    "FingerprintRegistry",
    "all_registries",
    "diff_store_stats",
    "registry_capacity",
    "store_stats",
]

V = TypeVar("V")

#: Every live registry by name, for aggregate telemetry.  Module-level on
#: purpose: registries are created at import time by the modules that own
#: them and live for the process.
_ALL: "Dict[str, FingerprintRegistry]" = {}
_ALL_LOCK = threading.Lock()


def registry_capacity(
    env_var: Optional[str], default: Optional[int]
) -> Optional[int]:
    """Resolve a registry capacity from the environment.

    ``env_var=None`` skips the environment entirely.  An empty or
    unparseable value falls back to ``default``; a non-positive value is
    rejected loudly (a silent cap of 0 would turn interning off).
    """
    if env_var is None:
        return default
    raw = os.environ.get(env_var, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{env_var}={raw!r} is not an integer registry capacity"
        ) from None
    if value < 1:
        raise ValueError(f"{env_var} must be >= 1, got {value}")
    return value


class FingerprintRegistry:
    """Thread-safe bounded-LRU intern registry keyed on content digests.

    Args:
        name: Telemetry label; registries self-register under it in
            :func:`all_registries` (last construction wins).
        capacity: Explicit entry bound; overrides the environment.
            ``None`` defers to ``env_var``/``default_capacity``.
        env_var: Environment variable consulted when ``capacity`` is not
            given (e.g. ``REPRO_REGISTRY_CAPACITY``).
        default_capacity: Fallback bound; ``None`` = unbounded.
    """

    def __init__(
        self,
        name: str,
        capacity: Optional[int] = None,
        *,
        env_var: Optional[str] = None,
        default_capacity: Optional[int] = 256,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.env_var = env_var
        if capacity is None:
            capacity = registry_capacity(env_var, default_capacity)
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        with _ALL_LOCK:
            _ALL[name] = self

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    def set_capacity(self, capacity: Optional[int]) -> None:
        """Re-bound the registry (evicting LRU entries down to the new
        cap immediately).  ``None`` unbounds it."""
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        with self._lock:
            self._capacity = capacity
            self._evict_locked()

    def get(self, key) -> Optional[object]:
        """Look up and LRU-promote; counts a hit or a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key) -> Optional[object]:
        """Look up without promoting or counting (telemetry-neutral)."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key, value) -> None:
        """Insert (or refresh) an entry, evicting LRU beyond capacity."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            self._evict_locked()

    def intern(
        self, key, factory: Callable[[], V]
    ) -> Tuple[V, bool]:
        """The canonical interning pattern: ``(value, hit)``.

        The factory runs *outside* the lock (it may be expensive — an
        eager Floyd–Warshall, a 2^n table) with a double-checked insert,
        so two racing threads may both build but exactly one value wins
        and is returned to both.
        """
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return existing, True
        value = factory()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return existing, True
            self._entries[key] = value
            self._misses += 1
            self._evict_locked()
        return value, False

    def _evict_locked(self) -> None:
        if self._capacity is None:
            return
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    # ------------------------------------------------------------------
    # maintenance / telemetry
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Empty the registry and reset its counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._entries),
                "capacity": self._capacity,
            }


def all_registries() -> Dict[str, FingerprintRegistry]:
    """Every live registry by name (aggregate telemetry)."""
    with _ALL_LOCK:
        return dict(_ALL)


#: Snapshot keys that are gauges (current values), not monotonic
#: counters — a diff reports the *after* value for these.
_GAUGE_KEYS = {"size", "capacity"}


def store_stats() -> Dict[str, object]:
    """Process-wide JSON-safe snapshot of every registry's counters.

    ``"shm"`` is always ``{}``: the shared-memory tier is gone, but
    ``perfbench/bench_trace.py`` reads ``store["shm"].get("publishes", 0)``.
    """
    return {
        "registries": {
            name: registry.stats() for name, registry in all_registries().items()
        },
        "shm": {},
    }


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
