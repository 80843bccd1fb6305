"""The durable tier: every entry of a cache directory in one SQLite file.

::

    cache_dir/
        cache.sqlite        # table ``entries``: key -> the entry's exact text
        cache.sqlite-wal    # write-ahead log
        cache.sqlite-shm    # WAL index

One file per directory, not per entry: creating a new file was most of the
cost of a cold compile's cache write, while a write here is one
``INSERT OR REPLACE`` appended to the write-ahead log.

* **Byte identity.**  ``get`` returns exactly the text ``put_text`` stored.
* **Atomicity.**  Every write is one transaction.
* **Flush policy.**  WAL with ``synchronous=NORMAL``: no fsync per entry;
  SQLite syncs the log only when it checkpoints it into the database.  A committed entry survives a crash of
  the writing process; a power loss may roll back the latest commits, never
  tear one.
* **Corruption.**  A read checks that the entry parses as a JSON object; a
  row that fails moves to the ``quarantine`` table.  A database file SQLite
  cannot read is renamed to ``cache.sqlite.corrupt`` and the tier starts
  empty.  Both count in ``quarantines``.
* **Several writers.**  Processes share a directory through WAL and a busy
  timeout (:data:`BUSY_TIMEOUT_S`).  Readers never wait for a writer.  A
  connection never crosses a fork: a forked child opens its own.
* **Errors.**  Anything SQLite cannot do (a lock held past the timeout, an
  unwritable directory) raises :class:`DiskTierError`, an ``OSError``.
* **Budget.**  With ``max_bytes`` set, a write evicts the oldest entries
  (lowest rowid: ``INSERT OR REPLACE`` gives a rewritten key a new one)
  until the payload bytes fit.

``sqlite3`` is imported on first use, so a process that never reads or
writes a cache directory never loads it.  Directories written by the file
tier (``<key>.json`` at the root or under two-hex-character shard
directories) read as a cold cache; :meth:`SQLiteDiskTier.clear` deletes
their files.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

__all__ = ["BUSY_TIMEOUT_S", "DB_NAME", "DiskLookup", "DiskTierError", "SQLiteDiskTier"]

DB_NAME = "cache.sqlite"

#: Seconds a statement waits for another connection's lock before failing.
BUSY_TIMEOUT_S = 5.0

_SCHEMA = (
    # ``nbytes`` precedes ``text`` so sizing a row never reads its overflow pages.
    "CREATE TABLE IF NOT EXISTS entries"
    " (key TEXT PRIMARY KEY, nbytes INTEGER NOT NULL, text TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS quarantine (key TEXT NOT NULL, text TEXT NOT NULL)",
)


class DiskTierError(OSError):
    """The cache database could not be read or written."""


@dataclass
class DiskLookup:
    """Outcome of a disk get: ``text`` is the entry's exact stored text,
    ``payload`` its parsed JSON object; ``quarantined`` when this lookup
    moved a corrupt row or database file aside."""

    payload: Optional[dict] = None
    text: Optional[str] = None
    hit: bool = False
    quarantined: bool = False


def _parse(text: str) -> Optional[dict]:
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


class SQLiteDiskTier:
    """Size-bounded, quarantining store of JSON entries in one SQLite file.

    ``quarantines`` and ``evictions`` count what this instance moved aside
    or evicted.  The running byte total behind the budget is this
    process's view (one exact scan, then incremental), so other writers
    make it approximate, which is fine for an eviction threshold.
    """

    def __init__(self, directory, max_bytes: Optional[int] = None) -> None:
        self.directory = Path(directory)
        self.path = self.directory / DB_NAME
        self.corrupt_path = self.directory / (DB_NAME + ".corrupt")
        self.max_bytes = max_bytes
        self.quarantines = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._conn = None
        self._pid: Optional[int] = None
        self._bytes: Optional[int] = None
        self._set_aside = False

    # ------------------------------------------------------------------
    # connection
    # ------------------------------------------------------------------
    def _connect(self, create: bool):
        if self._conn is not None and self._pid == os.getpid():
            return self._conn
        # First use, or first use in a forked child, which must not touch
        # its parent's connection.
        self._conn = None
        if not create and not self.path.exists():
            return None
        import sqlite3

        self.directory.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_S, check_same_thread=False)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            for statement in _SCHEMA:
                conn.execute(statement)
        except BaseException:
            conn.close()
            raise
        self._conn, self._pid = conn, os.getpid()
        return conn

    def _run(self, work: Callable, create: bool = False):
        """``work(connection)`` under the lock; ``None`` without running it
        when there is no database yet and ``create`` is false.  A file
        SQLite cannot read is set aside once and the work retried on a
        fresh database."""
        import sqlite3

        with self._lock:
            for retry in (False, True):
                try:
                    conn = self._connect(create)
                    return None if conn is None else work(conn)
                except sqlite3.Error as exc:
                    # Only a corrupt file or not a database at all
                    # (SQLITE_CORRUPT, SQLITE_NOTADB) raises the base class.
                    if type(exc) is not sqlite3.DatabaseError or retry:
                        raise DiskTierError(f"{self.path}: {exc}") from exc
                    self._set_aside_file()

    def _set_aside_file(self) -> None:
        if self._conn is not None:
            self._conn.close()
        self._conn = self._bytes = None
        try:
            os.replace(self.path, self.corrupt_path)
        except FileNotFoundError:
            return  # another process set it aside first
        for suffix in ("-wal", "-shm"):
            self.path.with_name(DB_NAME + suffix).unlink(missing_ok=True)
        self.quarantines += 1
        self._set_aside = True

    # ------------------------------------------------------------------
    # get / put / delete
    # ------------------------------------------------------------------
    def get(self, key: str) -> DiskLookup:
        row = self._run(
            lambda conn: conn.execute(
                "SELECT rowid, text FROM entries WHERE key = ?", (key,)
            ).fetchone()
        )
        set_aside, self._set_aside = self._set_aside, False
        if row is None:
            return DiskLookup(quarantined=set_aside)
        rowid, text = row
        payload = _parse(text)
        if payload is not None:
            return DiskLookup(payload=payload, text=text, hit=True)

        def quarantine(conn) -> bool:
            with conn:
                moved = conn.execute(
                    "INSERT INTO quarantine SELECT key, text FROM entries WHERE rowid = ?",
                    (rowid,),
                ).rowcount
                conn.execute("DELETE FROM entries WHERE rowid = ?", (rowid,))
            self.quarantines += moved
            return moved > 0

        # A second reader racing into the same row finds it gone: a plain miss.
        return DiskLookup(quarantined=bool(self._run(quarantine)))

    def put_text(self, key: str, text: str) -> int:
        """Store an entry's exact text in one transaction; returns its
        UTF-8 size.  Raises ``OSError`` when the write fails."""
        nbytes = len(text.encode("utf-8"))

        def write(conn) -> None:
            with conn:
                conn.execute(
                    "INSERT OR REPLACE INTO entries (key, nbytes, text) VALUES (?, ?, ?)",
                    (key, nbytes, text),
                )
                if self.max_bytes is not None:
                    self._evict_to_budget(conn, nbytes)

        self._run(write, create=True)
        return nbytes

    def put(self, key: str, payload: dict) -> int:
        return self.put_text(key, json.dumps(payload))

    def contains(self, key: str) -> bool:
        return bool(
            self._run(
                lambda conn: conn.execute(
                    "SELECT 1 FROM entries WHERE key = ?", (key,)
                ).fetchone()
            )
        )

    def delete(self, key: str) -> bool:
        def remove(conn) -> int:
            with conn:
                return conn.execute("DELETE FROM entries WHERE key = ?", (key,)).rowcount

        return bool(self._run(remove))

    def _evict_to_budget(self, conn, added: int) -> None:
        if self._bytes is None:
            self._bytes = self._total(conn)
        else:
            self._bytes += added
        if self._bytes <= self.max_bytes:
            return
        rows = conn.execute("SELECT rowid, nbytes FROM entries ORDER BY rowid").fetchall()
        total = sum(nbytes for _, nbytes in rows)
        doomed = []
        for rowid, nbytes in rows:
            if total <= self.max_bytes:
                break
            doomed.append((rowid,))
            total -= nbytes
        conn.executemany("DELETE FROM entries WHERE rowid = ?", doomed)
        self.evictions += len(doomed)
        self._bytes = total

    @staticmethod
    def _total(conn) -> int:
        return int(conn.execute("SELECT total(nbytes) FROM entries").fetchone()[0])

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def entries(self) -> int:
        return self._run(
            lambda conn: conn.execute("SELECT count(*) FROM entries").fetchone()[0]
        ) or 0

    def bytes_used(self) -> int:
        """Exact payload bytes over every entry (resets the running total)."""
        def scan(conn) -> int:
            self._bytes = self._total(conn)
            return self._bytes

        return self._run(scan) or 0

    def prune(self, stale: Callable[[dict], bool]) -> int:
        """Delete entries that do not parse as a JSON object or whose
        payload the predicate marks stale; returns how many."""
        def sweep(conn) -> int:
            doomed = [
                (rowid,)
                for rowid, text in conn.execute("SELECT rowid, text FROM entries")
                if (payload := _parse(text)) is None or stale(payload)
            ]
            with conn:
                conn.executemany("DELETE FROM entries WHERE rowid = ?", doomed)
            self._bytes = None
            return len(doomed)

        return self._run(sweep) or 0

    def sweep_quarantine(self) -> int:
        """Delete quarantined rows and set-aside database files; returns
        how many."""
        def empty(conn) -> int:
            with conn:
                return conn.execute("DELETE FROM quarantine").rowcount

        removed = self._run(empty) or 0
        if self.corrupt_path.exists():
            self.corrupt_path.unlink()
            removed += 1
        return removed

    def clear(self) -> int:
        """Delete every entry, the quarantine and any file-tier leftovers;
        returns the number of entries deleted."""
        def empty(conn) -> int:
            with conn:
                removed = conn.execute("DELETE FROM entries").rowcount
            conn.execute("VACUUM")
            self._bytes = 0
            return removed

        self.sweep_quarantine()
        removed = self._run(empty) or 0
        for path in self._file_tier_leftovers():
            path.unlink(missing_ok=True)
        for shard in self._file_tier_shards():
            try:
                shard.rmdir()
            except OSError:
                pass  # holds something this tier did not write
        return removed

    def _file_tier_shards(self) -> Iterator[Path]:
        return (p for p in self.directory.glob("[0-9a-f][0-9a-f]") if p.is_dir())

    def _file_tier_leftovers(self) -> Iterator[Path]:
        for directory in (self.directory, *self._file_tier_shards()):
            for pattern in ("*.json", "*.json.corrupt", "*.tmp"):
                yield from directory.glob(pattern)

    def close(self) -> None:
        """Close this process's connection (the next call reopens it)."""
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                self._conn.close()
            self._conn = None
