"""Content-addressed result cache: in-memory LRU plus an optional disk tier.

Keys are :meth:`~repro.service.job.Job.content_hash` digests of any job
kind; values are opaque payload strings (the metric envelopes of
:mod:`repro.service.job`, which embed the :mod:`repro.compiler.serialize`
JSON document, or ``null`` for eval and optimize results).  The cache never interprets
a payload beyond one check: when ``expected_version`` is set, a payload's
top-level ``"format_version"`` must match, and disk entries written by an
older serialisation format are deleted instead of served (format-version
invalidation — a stale cache degrades to a cold cache, never to wrong
results).

The memory tier is a straight LRU over an :class:`~collections.OrderedDict`
with two eviction budgets — entry count and total payload bytes — so a
long-running service bounds both object churn and resident size.  The disk
tier is a :class:`repro.store.disk.SQLiteDiskTier`: every entry of the
directory in one SQLite database, writes are atomic, corrupt entries are
quarantined, several processes may share the directory, and an optional
``max_disk_bytes`` budget evicts oldest-first.  A lookup the tier cannot
serve (a lock held past its busy timeout) counts as a miss and re-raises
the tier's ``OSError``; a write the tier cannot take raises it too.
``repro cache`` manages the tier from the CLI.
"""

from __future__ import annotations

import json
import pathlib
import threading
from collections import OrderedDict
from typing import Dict, Optional

from ..store.disk import SQLiteDiskTier

__all__ = ["CacheStats", "ResultCache"]


class CacheStats:
    """Mutable hit/miss/eviction counters for one cache instance."""

    __slots__ = (
        "hits",
        "memory_hits",
        "disk_hits",
        "misses",
        "evictions",
        "invalidations",
        "quarantines",
        "puts",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.quarantines = 0
        self.puts = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "quarantines": self.quarantines,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """LRU payload cache with entry/byte budgets and a disk tier.

    Args:
        max_entries: Memory-tier entry budget (``None`` = unbounded).
        max_bytes: Memory-tier byte budget over UTF-8 payload sizes
            (``None`` = unbounded).  A payload larger than the whole budget
            is never memory-resident (it still reaches the disk tier).
        directory: Disk-tier directory (created on first write); ``None``
            disables the tier.
        expected_version: When set, payloads must carry this top-level
            ``"format_version"``; mismatching disk entries are deleted.
        max_disk_bytes: Disk-tier byte budget over UTF-8 payload sizes;
            exceeding it evicts the oldest entries (``None`` = unbounded).
    """

    def __init__(
        self,
        max_entries: Optional[int] = 1024,
        max_bytes: Optional[int] = 64 * 1024 * 1024,
        directory: Optional[str] = None,
        expected_version: Optional[int] = None,
        max_disk_bytes: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive or None")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive or None")
        if max_disk_bytes is not None and max_disk_bytes < 1:
            raise ValueError("max_disk_bytes must be positive or None")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.directory = (
            pathlib.Path(directory) if directory is not None else None
        )
        self.expected_version = expected_version
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self._bytes = 0
        self._disk: Optional[SQLiteDiskTier] = (
            SQLiteDiskTier(self.directory, max_bytes=max_disk_bytes)
            if self.directory is not None
            else None
        )

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[str]:
        """Look up a payload; promotes memory hits, faults in disk hits."""
        with self._lock:
            payload = self._entries.get(key)
            if payload is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                self.stats.memory_hits += 1
                return payload
        try:
            payload = self._disk_get(key)
        except OSError:
            with self._lock:
                self.stats.misses += 1
            raise
        with self._lock:
            if payload is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._memory_put(key, payload)
            return payload

    def put(self, key: str, payload: str) -> None:
        """Insert write-through (memory budgets enforced, disk mirrored)."""
        if self._check_version(payload) is False:
            raise ValueError(
                f"payload for {key[:12]} does not carry format_version "
                f"{self.expected_version}"
            )
        with self._lock:
            self.stats.puts += 1
            self._memory_put(key, payload)
        if self._disk is not None:
            self._disk.put_text(key, payload)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        return self._disk is not None and self._disk.contains(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def current_bytes(self) -> int:
        """Bytes resident in the memory tier."""
        with self._lock:
            return self._bytes

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and the disk tier when ``disk=True``)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
        if disk and self._disk is not None:
            self._disk.clear()

    def close(self) -> None:
        """Close the disk tier's database connection; the next disk
        operation reopens it."""
        if self._disk is not None:
            self._disk.close()

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc_info) -> None:
        # A dropped connection would hold its lock on the database until
        # the next cyclic garbage collection.
        self.close()

    # ------------------------------------------------------------------
    # disk-tier maintenance (used by ``repro cache``)
    # ------------------------------------------------------------------
    def disk_entries(self) -> int:
        """Distinct keys stored in the disk tier."""
        if self._disk is None:
            return 0
        return self._disk.entries()

    def disk_bytes(self) -> int:
        """Payload bytes stored in the disk tier."""
        if self._disk is None:
            return 0
        return self._disk.bytes_used()

    def prune_stale(self) -> int:
        """Delete stale and corrupt disk entries and the quarantine; return
        the count.

        Removes entries whose format version is stale, entries that do not
        parse as a JSON object, quarantined rows, and database files set
        aside as unreadable.
        """
        if self._disk is None:
            return 0

        def _stale(payload: dict) -> bool:
            if self.expected_version is None:
                return False
            return payload.get("format_version") != self.expected_version

        pruned = self._disk.prune(_stale) + self._disk.sweep_quarantine()
        self.stats.invalidations += pruned
        return pruned

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _memory_put(self, key: str, payload: str) -> None:
        size = len(payload.encode("utf-8"))
        if self.max_bytes is not None and size > self.max_bytes:
            return  # larger than the whole budget — disk-tier only
        if key in self._entries:
            self._bytes -= len(self._entries[key].encode("utf-8"))
            self._entries.move_to_end(key)
        self._entries[key] = payload
        self._bytes += size
        while self._entries and (
            (self.max_entries is not None and len(self._entries) > self.max_entries)
            or (self.max_bytes is not None and self._bytes > self.max_bytes)
        ):
            evicted_key, evicted = self._entries.popitem(last=False)
            if evicted_key == key:
                self._bytes -= len(evicted.encode("utf-8"))
                break
            self._bytes -= len(evicted.encode("utf-8"))
            self.stats.evictions += 1

    def _disk_get(self, key: str) -> Optional[str]:
        if self._disk is None:
            return None
        lookup = self._disk.get(key)
        if lookup.quarantined:
            # An entry that is not a JSON object (bit rot, manual
            # tampering), or a database file SQLite cannot read: the tier
            # moved it aside; report a miss.
            with self._lock:
                self.stats.quarantines += 1
                self.stats.invalidations += 1
            return None
        if not lookup.hit:
            return None
        if (
            self.expected_version is not None
            and lookup.payload.get("format_version") != self.expected_version
        ):
            # Read off the dict the tier's corruption check already parsed.
            self._disk.delete(key)
            with self._lock:
                self.stats.invalidations += 1
            return None
        return lookup.text

    def _check_version(self, payload: str) -> Optional[bool]:
        """``None`` when unchecked, else whether the version matches."""
        if self.expected_version is None:
            return None
        try:
            version = json.loads(payload).get("format_version")
        except (json.JSONDecodeError, AttributeError):
            return False
        return version == self.expected_version
