"""Unit tests for the content-addressed result cache."""

import json
import sqlite3

import pytest

from repro.service import ResultCache
from repro.store import SQLiteDiskTier


def _payload(tag: str, size: int = 0, version: int = 1) -> str:
    body = {"format_version": version, "tag": tag, "pad": "x" * size}
    return json.dumps(body)


class TestMemoryLru:
    def test_get_miss_then_hit(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", _payload("a"))
        assert json.loads(cache.get("k"))["tag"] == "a"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_entry_budget_evicts_lru(self):
        cache = ResultCache(max_entries=2, max_bytes=None)
        cache.put("a", _payload("a"))
        cache.put("b", _payload("b"))
        cache.get("a")  # promote a over b
        cache.put("c", _payload("c"))
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.stats.evictions == 1

    def test_byte_budget_evicts(self):
        one = _payload("a", size=400)
        budget = 2 * len(one.encode()) + 10
        cache = ResultCache(max_entries=None, max_bytes=budget)
        cache.put("a", _payload("a", size=400))
        cache.put("b", _payload("b", size=400))
        assert len(cache) == 2
        cache.put("c", _payload("c", size=400))
        assert len(cache) == 2
        assert "a" not in cache
        assert cache.current_bytes <= budget

    def test_oversized_payload_skips_memory(self):
        cache = ResultCache(max_entries=None, max_bytes=64)
        cache.put("big", _payload("big", size=1000))
        assert len(cache) == 0

    def test_overwrite_updates_bytes(self):
        cache = ResultCache()
        cache.put("k", _payload("a", size=100))
        before = cache.current_bytes
        cache.put("k", _payload("a", size=10))
        assert cache.current_bytes < before
        assert len(cache) == 1

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)

    def test_clear(self):
        cache = ResultCache()
        cache.put("k", _payload("a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.current_bytes == 0


def _store(directory, key, text):
    """Write an entry's text straight into the disk tier."""
    tier = SQLiteDiskTier(directory)
    tier.put_text(key, text)
    tier.close()


class TestDiskTier:
    def test_persists_across_instances(self, tmp_path):
        d = str(tmp_path / "cache")
        ResultCache(directory=d).put("k", _payload("a"))
        fresh = ResultCache(directory=d)
        assert json.loads(fresh.get("k"))["tag"] == "a"
        assert fresh.stats.disk_hits == 1

    def test_disk_hit_faults_into_memory(self, tmp_path):
        d = str(tmp_path / "cache")
        ResultCache(directory=d).put("k", _payload("a"))
        fresh = ResultCache(directory=d)
        fresh.get("k")
        fresh.get("k")
        assert fresh.stats.memory_hits == 1
        assert fresh.stats.disk_hits == 1

    def test_version_invalidation_deletes_stale_file(self, tmp_path):
        d = tmp_path / "cache"
        _store(d, "stale", _payload("old", version=99))
        cache = ResultCache(directory=str(d), expected_version=1)
        assert cache.get("stale") is None
        assert "stale" not in cache
        assert cache.stats.invalidations == 1

    def test_corrupt_file_treated_as_stale(self, tmp_path):
        d = tmp_path / "cache"
        _store(d, "junk", "{not json")
        cache = ResultCache(directory=str(d), expected_version=1)
        assert cache.get("junk") is None
        assert "junk" not in cache

    def test_corrupt_file_quarantined_not_lost(self, tmp_path):
        d = tmp_path / "cache"
        _store(d, "junk", '{"truncated": ')
        cache = ResultCache(directory=str(d))
        assert cache.get("junk") is None
        with sqlite3.connect(d / "cache.sqlite") as conn:
            rows = conn.execute("SELECT key, text FROM quarantine").fetchall()
        assert rows == [("junk", '{"truncated": ')]
        assert cache.stats.invalidations == 1
        # The quarantined row no longer counts as a disk entry and a
        # fresh put for the same key works normally.
        assert cache.disk_entries() == 0
        cache.put("junk", _payload("fresh"))
        assert cache.get("junk") == _payload("fresh")

    def test_put_leaves_no_temp_files(self, tmp_path):
        """The directory holds the database and its WAL files only."""
        d = tmp_path / "cache"
        cache = ResultCache(directory=str(d))
        for i in range(5):
            cache.put(f"k{i}", _payload(str(i)))
        assert {p.name for p in d.iterdir()} <= {
            "cache.sqlite", "cache.sqlite-wal", "cache.sqlite-shm",
        }
        assert cache.disk_entries() == 5

    def test_put_overwrites_atomically(self, tmp_path):
        d = tmp_path / "cache"
        cache = ResultCache(directory=str(d), max_entries=1)
        cache.put("k", _payload("first"))
        cache.put("k", _payload("second"))
        assert ResultCache(directory=str(d)).get("k") == _payload("second")
        assert cache.disk_entries() == 1

    def test_put_rejects_wrong_version(self, tmp_path):
        cache = ResultCache(
            directory=str(tmp_path / "cache"), expected_version=1
        )
        with pytest.raises(ValueError, match="format_version"):
            cache.put("k", _payload("bad", version=2))

    def test_prune_stale(self, tmp_path):
        d = tmp_path / "cache"
        _store(d, "good", _payload("good", version=1))
        _store(d, "old1", _payload("old", version=0))
        _store(d, "old2", "garbage")
        cache = ResultCache(directory=str(d), expected_version=1)
        assert cache.prune_stale() == 2
        assert cache.disk_entries() == 1

    def test_prune_stale_sweeps_writer_debris(self, tmp_path):
        """prune also drops quarantined rows and set-aside database files."""
        d = tmp_path / "cache"
        _store(d, "good", _payload("good", version=1))
        _store(d, "bad", "{quarantined")
        cache = ResultCache(directory=str(d), expected_version=1)
        assert cache.get("bad") is None  # moves the row to the quarantine
        (d / "cache.sqlite.corrupt").write_bytes(b"a set-aside database")
        assert cache.prune_stale() == 2
        assert cache.disk_entries() == 1
        assert list(d.glob("*.corrupt")) == []

    def test_clear_disk(self, tmp_path):
        d = str(tmp_path / "cache")
        cache = ResultCache(directory=d)
        cache.put("k", _payload("a"))
        cache.clear(disk=True)
        assert cache.disk_entries() == 0

    def test_stats_snapshot_keys(self):
        snap = ResultCache().stats.snapshot()
        assert {"hits", "misses", "evictions", "hit_rate"} <= set(snap)


class TestShardedFacade:
    """ResultCache as a facade over repro.store.SQLiteDiskTier (the class
    keeps the sharded file tier's name)."""

    def test_file_tier_entries_read_cold(self, tmp_path):
        """A directory the file tier wrote, flat or sharded, is a cold cache."""
        d = tmp_path / "cache"
        (d / "3f").mkdir(parents=True)
        (d / "old.json").write_text(_payload("flat"))
        (d / "3f" / "old.json").write_text(_payload("sharded"))
        cache = ResultCache(directory=str(d), expected_version=1)
        assert cache.get("old") is None
        assert cache.stats.misses == 1 and cache.stats.quarantines == 0
        cache.clear(disk=True)
        assert not (d / "old.json").exists() and not (d / "3f").exists()

    def test_payload_byte_identical_across_instances(self, tmp_path):
        d = str(tmp_path / "cache")
        text = '{"format_version": 1,   "tag":"exact"}'
        ResultCache(directory=d, expected_version=1).put("k", text)
        assert ResultCache(directory=d, expected_version=1).get("k") == text

    def test_max_disk_bytes_evicts(self, tmp_path):
        one = _payload("a", size=400)
        budget = 2 * len(one.encode()) + 10
        cache = ResultCache(
            directory=str(tmp_path / "cache"),
            max_entries=None,
            max_bytes=None,
            max_disk_bytes=budget,
        )
        cache.put("a", _payload("a", size=400))
        cache.put("b", _payload("b", size=400))
        cache.put("c", _payload("c", size=400))
        assert cache.disk_entries() <= 2
        assert cache.disk_bytes() <= budget

    def test_max_disk_bytes_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(directory=str(tmp_path), max_disk_bytes=0)

    def test_unreadable_database_is_a_counted_miss(self, tmp_path, monkeypatch):
        import repro.store.disk as disk

        monkeypatch.setattr(disk, "BUSY_TIMEOUT_S", 0.05)
        d = tmp_path / "cache"
        _store(d, "k", _payload("a"))
        holder = sqlite3.connect(d / "cache.sqlite", isolation_level=None)
        holder.execute("PRAGMA locking_mode=EXCLUSIVE")
        holder.execute("BEGIN EXCLUSIVE")
        try:
            cache = ResultCache(directory=str(d))
            with pytest.raises(OSError):
                cache.get("k")
            assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert cache.get("k") == _payload("a")


class TestQuarantineCounter:
    def test_quarantine_increments_dedicated_counter(self, tmp_path):
        d = tmp_path / "cache"
        _store(d, "bad", '{"truncated": ')
        cache = ResultCache(directory=str(d))
        assert cache.stats.quarantines == 0
        assert cache.get("bad") is None
        assert cache.stats.quarantines == 1
        assert cache.stats.snapshot()["quarantines"] == 1

    def test_garbage_database_counts_once(self, tmp_path):
        d = tmp_path / "cache"
        d.mkdir()
        (d / "cache.sqlite").write_bytes(b"garbage" * 64)
        cache = ResultCache(directory=str(d))
        assert cache.get("k") is None
        assert cache.get("k") is None
        assert cache.stats.quarantines == 1
        assert (d / "cache.sqlite.corrupt").exists()
        cache.put("k", _payload("a"))
        assert ResultCache(directory=str(d)).get("k") == _payload("a")

    def test_plain_miss_does_not_quarantine(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path / "cache"))
        assert cache.get("absent") is None
        assert cache.stats.quarantines == 0
