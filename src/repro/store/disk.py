"""The durable tier: fanout-sharded on-disk JSON entries.

Replaces the single-directory layout of the original
:class:`~repro.service.cache.ResultCache`, which kept every entry as
``<key>.json`` in one flat directory — so ``disk_entries()`` and
``prune_stale()`` were full-directory scans and every stat touched every
entry.  Here keys fan out over 256 shard directories (two hex characters
of the key's SHA-256, so arbitrary keys shard uniformly and path-safely)::

    cache_dir/
        3f/<key>.json
        a0/<key>.json
        <key>.json          # legacy flat layout, read + migrated on hit

Invariants carried over from the old cache:

* writes are atomic (unique tmp name in the shard + ``os.replace``);
* undecodable entries are quarantined to ``<name>.corrupt`` instead of
  deleted, and quarantines are counted per shard;
* a legacy flat-layout entry is never silently missed — a shard miss
  falls back to the root directory and migrates the file into its shard.

Scans are shard-aware: counting and pruning walk only shard directories
that exist (plus the legacy root), and the cumulative number of shard
directories walked is reported as ``shards_scanned`` so tests can assert
stats stay O(touched shards).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple

__all__ = ["DiskLookup", "ShardStats", "ShardedDiskTier", "shard_for"]

_SHARD_WIDTH = 2  # 256-way fanout


def shard_for(key: str) -> str:
    """Shard label for a key: first two hex chars of its SHA-256.

    Digest-based (not a key prefix) so short or non-hex keys — test keys
    like ``"k"`` — shard uniformly and always yield a path-safe name.
    """
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:_SHARD_WIDTH]


@dataclass
class ShardStats:
    """Per-shard counters (see :meth:`ShardedDiskTier.shard_stats`)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    quarantines: int = 0
    migrations: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "quarantines": self.quarantines,
            "migrations": self.migrations,
        }


@dataclass
class DiskLookup:
    """Outcome of a disk get: payload (when hit) plus what happened.

    ``text`` is the entry's exact on-disk bytes (as str) — callers that
    cached a serialised payload get it back byte-identical; ``payload``
    is the parsed JSON object.
    """

    payload: Optional[dict] = None
    text: Optional[str] = None
    hit: bool = False
    quarantined: bool = False
    migrated: bool = False


class ShardedDiskTier:
    """Sharded, size-bounded, quarantining JSON entry store.

    The byte budget is advisory and enforced at put time by evicting the
    oldest entries (by mtime, across shards) until under budget.  The
    running byte total is maintained incrementally after one lazy scan;
    concurrent writers from other processes make it approximate, which
    is fine for an eviction threshold.
    """

    def __init__(
        self,
        directory,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.directory = Path(directory)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._shard_stats: Dict[str, ShardStats] = {}
        self._bytes: Optional[int] = None  # lazy; None until first scan
        self._shards_scanned = 0

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _shard_dir(self, key: str) -> Path:
        return self.directory / shard_for(key)

    def entry_path(self, key: str) -> Path:
        return self._shard_dir(key) / f"{key}.json"

    def _legacy_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _stats_for(self, key: str) -> ShardStats:
        shard = shard_for(key)
        stats = self._shard_stats.get(shard)
        if stats is None:
            stats = self._shard_stats[shard] = ShardStats()
        return stats

    # ------------------------------------------------------------------
    # get / put / delete
    # ------------------------------------------------------------------
    def get(self, key: str) -> DiskLookup:
        path = self.entry_path(key)
        legacy = False
        if not path.exists():
            # Legacy flat layout at the root: validate in place first and
            # migrate into the shard only on a clean hit, so a corrupt
            # legacy entry is quarantined where it was found.
            path = self._legacy_path(key)
            legacy = True
            if not path.exists():
                with self._lock:
                    self._stats_for(key).misses += 1
                return DiskLookup()
        try:
            text = path.read_text(encoding="utf-8")
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
        except (OSError, ValueError):
            self._quarantine(path)
            with self._lock:
                stats = self._stats_for(key)
                stats.quarantines += 1
                stats.misses += 1
            return DiskLookup(quarantined=True)
        migrated = False
        if legacy:
            shard_path = self.entry_path(key)
            try:
                shard_path.parent.mkdir(parents=True, exist_ok=True)
                os.replace(path, shard_path)
                migrated = True
            except OSError:
                pass
        with self._lock:
            stats = self._stats_for(key)
            stats.hits += 1
            if migrated:
                stats.migrations += 1
        return DiskLookup(payload=payload, text=text, hit=True, migrated=migrated)

    def put(self, key: str, payload: dict) -> int:
        """Atomically write a JSON entry; returns bytes written."""
        return self.put_text(key, json.dumps(payload))

    def put_text(self, key: str, text: str) -> int:
        """Atomically write an entry's exact text (byte-preserving).

        Unique temp name per writer (pid + thread id): two writers racing
        on the same key never interleave into one temp file.  Raises
        ``OSError`` on write failure after removing the temp file.
        """
        path = self.entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f"{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        nbytes = len(text.encode("utf-8"))
        with self._lock:
            self._stats_for(key).puts += 1
            if self._bytes is not None:
                self._bytes += nbytes
        if self.max_bytes is not None:
            self._evict_to_budget()
        return nbytes

    def contains(self, key: str) -> bool:
        """Whether an entry exists (shard or legacy path; stat-free of
        telemetry — no hit/miss is counted)."""
        return self.entry_path(key).exists() or self._legacy_path(key).exists()

    def delete(self, key: str) -> bool:
        removed = False
        for path in (self.entry_path(key), self._legacy_path(key)):
            try:
                size = path.stat().st_size
                path.unlink()
                removed = True
                with self._lock:
                    if self._bytes is not None:
                        self._bytes = max(0, self._bytes - size)
            except (FileNotFoundError, OSError):
                continue
        return removed

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # shard-aware scans
    # ------------------------------------------------------------------
    def _iter_shard_dirs(self) -> Iterator[Tuple[str, Path]]:
        """Yield (shard_label, dir) for shard dirs that exist, plus the
        legacy root — counting each walked dir into ``shards_scanned``."""
        if not self.directory.is_dir():
            return
        for child in sorted(self.directory.iterdir()):
            if (
                child.is_dir()
                and len(child.name) == _SHARD_WIDTH
                and all(c in "0123456789abcdef" for c in child.name)
            ):
                with self._lock:
                    self._shards_scanned += 1
                yield child.name, child
        with self._lock:
            self._shards_scanned += 1
        yield "", self.directory  # legacy flat entries at the root

    def _iter_entries(self) -> Iterator[Path]:
        for _shard, directory in self._iter_shard_dirs():
            for path in sorted(directory.glob("*.json")):
                if path.is_file():
                    yield path

    def entries(self) -> int:
        return sum(1 for _ in self._iter_entries())

    def bytes_used(self, refresh: bool = False) -> int:
        with self._lock:
            if self._bytes is not None and not refresh:
                return self._bytes
        total = sum(p.stat().st_size for p in self._iter_entries())
        with self._lock:
            self._bytes = total
        return total

    def prune(
        self,
        stale: Callable[[dict], bool],
        quarantine_corrupt: bool = True,
    ) -> int:
        """Remove entries whose payload the predicate marks stale.

        Undecodable entries are quarantined (and counted per shard) by
        default, or deleted outright with ``quarantine_corrupt=False``
        (the ``repro cache prune`` semantics).  Returns the number of
        entries removed either way.
        """
        removed = 0
        for path in list(self._iter_entries()):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(payload, dict):
                    raise ValueError("not an object")
            except (OSError, ValueError):
                if quarantine_corrupt:
                    self._quarantine(path)
                    with self._lock:
                        self._shard_stats_for_path(path).quarantines += 1
                else:
                    try:
                        path.unlink()
                    except OSError:
                        continue
                removed += 1
                continue
            if stale(payload):
                try:
                    size = path.stat().st_size
                    path.unlink()
                    removed += 1
                    with self._lock:
                        if self._bytes is not None:
                            self._bytes = max(0, self._bytes - size)
                except OSError:
                    continue
        return removed

    def _shard_stats_for_path(self, path: Path) -> ShardStats:
        shard = path.parent.name if path.parent != self.directory else ""
        stats = self._shard_stats.get(shard)
        if stats is None:
            stats = self._shard_stats[shard] = ShardStats()
        return stats

    def sweep_debris(self) -> int:
        """Remove writer debris (orphaned ``.tmp``) and quarantined
        ``.corrupt`` files across all shard dirs and the legacy root."""
        removed = 0
        for _shard, directory in self._iter_shard_dirs():
            for pattern in ("*.tmp", "*.json.corrupt"):
                for path in directory.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        continue
        return removed

    def clear(self, debris: bool = True) -> int:
        """Delete every entry (and, by default, tmp/corrupt debris)."""
        removed = 0
        for path in list(self._iter_entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        if debris:
            self.sweep_debris()
        with self._lock:
            self._bytes = 0 if self.directory.is_dir() else None
        return removed

    def _evict_to_budget(self) -> None:
        total = self.bytes_used()
        if self.max_bytes is None or total <= self.max_bytes:
            return
        aged = []
        for path in self._iter_entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            aged.append((stat.st_mtime, stat.st_size, path))
        aged.sort()
        for _mtime, size, path in aged:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            shard = path.parent.name if path.parent != self.directory else ""
            with self._lock:
                stats = self._shard_stats.get(shard)
                if stats is None:
                    stats = self._shard_stats[shard] = ShardStats()
                stats.evictions += 1
                self._bytes = max(0, total)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def shard_stats(self) -> Dict[str, ShardStats]:
        with self._lock:
            return {k: ShardStats(**v.as_dict()) for k, v in self._shard_stats.items()}

    def stats(self) -> Dict[str, object]:
        with self._lock:
            totals = ShardStats()
            for s in self._shard_stats.values():
                totals.hits += s.hits
                totals.misses += s.misses
                totals.puts += s.puts
                totals.evictions += s.evictions
                totals.quarantines += s.quarantines
                totals.migrations += s.migrations
            out = totals.as_dict()
            out["shards"] = len(self._shard_stats)
            out["shards_scanned"] = self._shards_scanned
            out["max_bytes"] = self.max_bytes
            return out
