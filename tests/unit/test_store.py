"""Unit tests for the content-addressed artifact store (repro.store)."""

import json
import sqlite3
import threading

import pytest

from repro.store import (
    DiskTierError,
    FingerprintRegistry,
    SQLiteDiskTier,
    all_registries,
    diff_store_stats,
    registry_capacity,
    store_stats,
)
from repro.store import disk as disk_module


# ----------------------------------------------------------------------
# FingerprintRegistry
# ----------------------------------------------------------------------
class TestFingerprintRegistry:
    def test_intern_builds_once(self):
        reg = FingerprintRegistry("t-intern", capacity=4)
        calls = []

        def factory():
            calls.append(1)
            return object()

        first, hit1 = reg.intern("k", factory)
        second, hit2 = reg.intern("k", factory)
        assert first is second
        assert (hit1, hit2) == (False, True)
        assert len(calls) == 1

    def test_lru_eviction_bound(self):
        """The eviction-bound regression: size never exceeds capacity."""
        reg = FingerprintRegistry("t-bound", capacity=3)
        for i in range(10):
            reg.put(f"k{i}", i)
            assert len(reg) <= 3
        stats = reg.stats()
        assert stats["size"] == 3
        assert stats["evictions"] == 7
        # LRU order: the three most recent survive.
        assert "k9" in reg and "k8" in reg and "k7" in reg
        assert "k0" not in reg

    def test_get_promotes(self):
        reg = FingerprintRegistry("t-promote", capacity=2)
        reg.put("a", 1)
        reg.put("b", 2)
        assert reg.get("a") == 1  # promote a over b
        reg.put("c", 3)
        assert "a" in reg
        assert "b" not in reg

    def test_peek_is_telemetry_neutral(self):
        reg = FingerprintRegistry("t-peek", capacity=2)
        reg.put("a", 1)
        reg.peek("a")
        reg.peek("absent")
        stats = reg.stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0

    def test_set_capacity_evicts_immediately(self):
        reg = FingerprintRegistry("t-recap", capacity=4)
        for i in range(4):
            reg.put(f"k{i}", i)
        reg.set_capacity(2)
        assert len(reg) == 2
        assert reg.capacity == 2

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FingerprintRegistry("t-bad", capacity=0)

    def test_clear_resets_counters(self):
        reg = FingerprintRegistry("t-clear", capacity=2)
        reg.put("a", 1)
        reg.get("a")
        reg.get("absent")
        reg.clear()
        assert len(reg) == 0
        assert reg.stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "size": 0,
            "capacity": 2,
        }

    def test_self_registers_for_aggregate_stats(self):
        reg = FingerprintRegistry("t-registered", capacity=2)
        assert all_registries()["t-registered"] is reg

    def test_env_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CAP", "7")
        reg = FingerprintRegistry(
            "t-env", env_var="REPRO_TEST_CAP", default_capacity=256
        )
        assert reg.capacity == 7

    def test_env_capacity_helper(self, monkeypatch):
        assert registry_capacity(None, 5) == 5
        monkeypatch.setenv("REPRO_TEST_CAP", "")
        assert registry_capacity("REPRO_TEST_CAP", 5) == 5
        monkeypatch.setenv("REPRO_TEST_CAP", "12")
        assert registry_capacity("REPRO_TEST_CAP", 5) == 12
        monkeypatch.setenv("REPRO_TEST_CAP", "junk")
        with pytest.raises(ValueError):
            registry_capacity("REPRO_TEST_CAP", 5)
        monkeypatch.setenv("REPRO_TEST_CAP", "0")
        with pytest.raises(ValueError):
            registry_capacity("REPRO_TEST_CAP", 5)

    def test_explicit_capacity_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CAP", "7")
        reg = FingerprintRegistry(
            "t-explicit", capacity=3, env_var="REPRO_TEST_CAP"
        )
        assert reg.capacity == 3


class TestRegistryCapacityKnobs:
    """The configurable-capacity satellite: the live registries honour
    their environment variables and the runtime setter."""

    def test_target_registry_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_REGISTRY_CAPACITY", "11")
        reg = FingerprintRegistry(
            "t-target-env",
            env_var="REPRO_REGISTRY_CAPACITY",
            default_capacity=256,
        )
        assert reg.capacity == 11

    def test_set_registry_capacity_setter(self):
        from repro.hardware.target import (
            _COUPLINGS,
            _TARGETS,
            set_registry_capacity,
        )

        before_t = _TARGETS.capacity
        before_c = _COUPLINGS.capacity
        try:
            set_registry_capacity(33)
            assert _TARGETS.capacity == 33
            assert _COUPLINGS.capacity == 33
        finally:
            _TARGETS.set_capacity(before_t)
            _COUPLINGS.set_capacity(before_c)


# ----------------------------------------------------------------------
# SQLiteDiskTier
# ----------------------------------------------------------------------
def _quarantined_rows(directory):
    with sqlite3.connect(directory / disk_module.DB_NAME) as conn:
        return conn.execute("SELECT key, text FROM quarantine").fetchall()


class TestShardedDiskTier:
    """The file tier's guarantees, checked on the SQLite tier that replaced
    it; the class keeps the old tier's name."""

    def test_put_get_roundtrip(self, tmp_path):
        tier = SQLiteDiskTier(tmp_path)
        tier.put("k", {"v": 1})
        lookup = tier.get("k")
        assert lookup.hit
        assert lookup.payload == {"v": 1}
        assert (tmp_path / "cache.sqlite").exists()

    def test_text_is_byte_identical(self, tmp_path):
        text = '{"v":1,  "weird":   "spacing", "u": "\\u00e9 é"}'
        SQLiteDiskTier(tmp_path).put_text("k", text)
        assert SQLiteDiskTier(tmp_path).get("k").text == text

    def test_corrupt_legacy_quarantined_in_place(self, tmp_path):
        """A database file SQLite cannot read is renamed aside where it
        lies, counted, and the tier starts cold."""
        (tmp_path / "cache.sqlite").write_bytes(b"not a database" * 100)
        tier = SQLiteDiskTier(tmp_path)
        lookup = tier.get("k")
        assert lookup.quarantined and not lookup.hit
        assert tier.quarantines == 1
        assert (tmp_path / "cache.sqlite.corrupt").read_bytes().startswith(b"not a")
        tier.put("k", {"v": 1})
        assert tier.get("k").payload == {"v": 1}

    def test_corrupt_shard_entry_quarantined_and_counted(self, tmp_path):
        tier = SQLiteDiskTier(tmp_path)
        tier.put_text("k", "{torn")
        lookup = tier.get("k")
        assert lookup.quarantined and not lookup.hit
        assert tier.quarantines == 1
        assert not tier.contains("k")
        assert _quarantined_rows(tmp_path) == [("k", "{torn")]
        # The next lookup is a plain miss.
        assert not tier.get("k").quarantined

    def test_byte_budget_evicts_oldest(self, tmp_path):
        tier = SQLiteDiskTier(tmp_path, max_bytes=150)
        payload = {"pad": "x" * 50}
        for key in ("first", "second", "third"):
            tier.put(key, payload)
        assert tier.bytes_used() <= 150
        assert not tier.contains("first")
        assert tier.contains("second") and tier.contains("third")
        assert tier.evictions == 1

    def test_prune_stale_predicate(self, tmp_path):
        tier = SQLiteDiskTier(tmp_path)
        tier.put("keep", {"version": 2})
        tier.put("drop", {"version": 1})
        removed = tier.prune(lambda p: p.get("version") == 1)
        assert removed == 1
        assert tier.contains("keep")
        assert not tier.contains("drop")

    def test_prune_delete_corrupt_mode(self, tmp_path):
        """prune() deletes a corrupt row outright; it is not quarantined."""
        tier = SQLiteDiskTier(tmp_path)
        tier.put_text("bad", "{torn")
        assert tier.prune(lambda p: False) == 1
        assert not tier.contains("bad")
        assert _quarantined_rows(tmp_path) == []

    def test_sweep_debris(self, tmp_path):
        """The quarantine sweep drops quarantined rows and set-aside
        database files."""
        tier = SQLiteDiskTier(tmp_path)
        tier.put("k", {"v": 1})
        tier.put_text("bad", "{")
        assert tier.get("bad").quarantined
        (tmp_path / "cache.sqlite.corrupt").write_bytes(b"old garbage")
        assert tier.sweep_quarantine() == 2
        assert _quarantined_rows(tmp_path) == []
        assert not (tmp_path / "cache.sqlite.corrupt").exists()
        assert tier.entries() == 1

    def test_clear(self, tmp_path):
        tier = SQLiteDiskTier(tmp_path)
        for k in ("a", "b"):
            tier.put(k, {"k": k})
        assert tier.clear() == 2
        assert tier.entries() == 0
        assert tier.bytes_used() == 0


class TestSQLiteDiskTier:
    def test_miss_creates_no_database(self, tmp_path):
        tier = SQLiteDiskTier(tmp_path / "cache")
        lookup = tier.get("absent")
        assert not lookup.hit and not lookup.quarantined
        assert not (tmp_path / "cache").exists()

    def test_file_tier_directory_reads_cold(self, tmp_path):
        """Entries the file tier wrote (flat or sharded) are not read, and
        clear() deletes them."""
        (tmp_path / "old.json").write_text(json.dumps({"v": "flat"}))
        (tmp_path / "3f").mkdir()
        (tmp_path / "3f" / "old2.json").write_text(json.dumps({"v": "sharded"}))
        (tmp_path / "3f" / "old3.json.corrupt").write_text("{")
        (tmp_path / "old4.1.2.tmp").write_text("partial")
        tier = SQLiteDiskTier(tmp_path)
        assert not tier.get("old").hit and not tier.get("old2").hit
        tier.put("new", {"v": 1})
        assert tier.entries() == 1
        assert tier.clear() == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cache.sqlite", "cache.sqlite-shm", "cache.sqlite-wal",
        ]

    @pytest.mark.parametrize("text", ["[1, 2]", '"a string"', "null"])
    def test_non_object_row_quarantined(self, tmp_path, text):
        tier = SQLiteDiskTier(tmp_path)
        tier.put_text("k", text)
        assert tier.get("k").quarantined
        assert _quarantined_rows(tmp_path) == [("k", text)]

    def test_garbage_database_found_by_a_put(self, tmp_path):
        (tmp_path / "cache.sqlite").write_bytes(b"not a database" * 100)
        tier = SQLiteDiskTier(tmp_path)
        tier.put("k", {"v": 1})
        assert tier.quarantines == 1
        assert tier.get("k").payload == {"v": 1}

    def test_entries_counts_distinct_keys(self, tmp_path):
        tier = SQLiteDiskTier(tmp_path)
        for k in ("a", "b", "a", "c", "a"):
            tier.put(k, {"k": k})
        assert tier.entries() == 3

    def test_rewrite_makes_an_entry_newest(self, tmp_path):
        tier = SQLiteDiskTier(tmp_path, max_bytes=150)
        payload = {"pad": "x" * 50}
        for key in ("first", "second", "first", "third"):
            tier.put(key, payload)
        assert tier.contains("first") and not tier.contains("second")

    def test_delete(self, tmp_path):
        tier = SQLiteDiskTier(tmp_path)
        tier.put("k", {})
        assert tier.delete("k")
        assert not tier.delete("k")
        assert not tier.delete("absent")

    def test_unwritable_directory_raises_oserror(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        tier = SQLiteDiskTier(blocker / "cache")
        assert not tier.get("k").hit
        with pytest.raises(OSError):
            tier.put("k", {})

    def test_threads_share_one_tier(self, tmp_path):
        """Four threads on one connection, switching often: no write is
        lost and every read sees the writer's own entry."""
        import sys

        tier = SQLiteDiskTier(tmp_path)
        seen = []

        def writer(worker):
            for i in range(20):
                tier.put(f"{worker}-{i}", {"i": i})
                seen.append(tier.get(f"{worker}-{i}").payload == {"i": i})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [True] * 80
        assert tier.entries() == 80


class TestLockedDatabase:
    """A lock held past the busy timeout fails the call with a
    ``DiskTierError``, an ``OSError``."""

    @pytest.fixture
    def locked(self, tmp_path, monkeypatch):
        monkeypatch.setattr(disk_module, "BUSY_TIMEOUT_S", 0.05)
        tier = SQLiteDiskTier(tmp_path)
        tier.put("k", {"v": 1})
        tier.close()
        holder = sqlite3.connect(tmp_path / "cache.sqlite", isolation_level=None)
        holder.execute("PRAGMA locking_mode=EXCLUSIVE")
        holder.execute("BEGIN EXCLUSIVE")
        yield tmp_path
        holder.execute("ROLLBACK")
        holder.close()

    def test_get_and_put_raise(self, locked):
        tier = SQLiteDiskTier(locked)
        with pytest.raises(DiskTierError, match="locked"):
            tier.get("k")
        with pytest.raises(OSError, match="locked"):
            tier.put("k2", {"v": 2})
        # Nothing was set aside: a lock is not corruption.
        assert tier.quarantines == 0
        assert not (locked / "cache.sqlite.corrupt").exists()

    def test_a_writer_lock_leaves_reads_working(self, tmp_path, monkeypatch):
        monkeypatch.setattr(disk_module, "BUSY_TIMEOUT_S", 0.05)
        tier = SQLiteDiskTier(tmp_path)
        tier.put("k", {"v": 1})
        holder = sqlite3.connect(tmp_path / "cache.sqlite", isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        try:
            assert tier.get("k").payload == {"v": 1}
            with pytest.raises(DiskTierError):
                tier.put("k2", {"v": 2})
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        tier.put("k2", {"v": 2})
        assert tier.entries() == 2


# ----------------------------------------------------------------------
# Stats plumbing
# ----------------------------------------------------------------------
class TestStoreStats:
    def test_store_stats_shape(self):
        snap = store_stats()
        assert "registries" in snap
        assert snap["shm"] == {}  # kept, always empty
        for stats in snap["registries"].values():
            assert {"hits", "misses", "evictions", "size"} <= set(stats)


class TestStatsDiffing:
    def test_counters_diff_and_gauges_take_after(self):
        before = {"registries": {"r": {"hits": 2, "size": 100, "capacity": 1}}}
        after = {"registries": {"r": {"hits": 5, "size": 50, "capacity": 3}}}
        delta = diff_store_stats(before, after)["registries"]["r"]
        assert delta["hits"] == 3
        assert delta["size"] == 50  # gauge: after-value
        assert delta["capacity"] == 3

    def test_counter_reset_clamps_at_zero(self):
        delta = diff_store_stats(
            {"registries": {"r": {"hits": 10}}}, {"registries": {"r": {"hits": 2}}}
        )
        assert delta["registries"]["r"]["hits"] == 0

    def test_new_sections_diff_against_zero(self):
        delta = diff_store_stats({}, {"registries": {"r": {"hits": 4}}})
        assert delta["registries"]["r"]["hits"] == 4
