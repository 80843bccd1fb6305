"""Unit tests for the content-addressed artifact store (repro.store)."""

import json
import os

import pytest

from repro.store import (
    FingerprintRegistry,
    ShardedDiskTier,
    all_registries,
    diff_store_stats,
    flatten_store_events,
    registry_capacity,
    shard_for,
    store_stats,
)


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
# ShardedDiskTier
# ----------------------------------------------------------------------
class TestShardedDiskTier:
    def test_shard_for_is_stable_and_path_safe(self):
        assert shard_for("k") == shard_for("k")
        assert len(shard_for("any/key with spaces")) == 2
        assert all(c in "0123456789abcdef" for c in shard_for("k"))

    def test_put_get_roundtrip(self, tmp_path):
        tier = ShardedDiskTier(tmp_path)
        tier.put("k", {"v": 1})
        lookup = tier.get("k")
        assert lookup.hit
        assert lookup.payload == {"v": 1}
        assert (tmp_path / shard_for("k") / "k.json").exists()

    def test_text_is_byte_identical(self, tmp_path):
        tier = ShardedDiskTier(tmp_path)
        text = '{"v":1,  "weird":   "spacing"}'
        tier.put_text("k", text)
        assert tier.get("k").text == text

    def test_legacy_flat_entry_migrates_on_hit(self, tmp_path):
        (tmp_path / "old.json").write_text(json.dumps({"v": "legacy"}))
        tier = ShardedDiskTier(tmp_path)
        lookup = tier.get("old")
        assert lookup.hit and lookup.migrated
        assert not (tmp_path / "old.json").exists()
        assert (tmp_path / shard_for("old") / "old.json").exists()
        assert tier.stats()["migrations"] == 1
        # Second read comes straight from the shard.
        assert tier.get("old").payload == {"v": "legacy"}

    def test_corrupt_legacy_quarantined_in_place(self, tmp_path):
        (tmp_path / "bad.json").write_text("{torn")
        tier = ShardedDiskTier(tmp_path)
        lookup = tier.get("bad")
        assert lookup.quarantined and not lookup.hit
        assert (tmp_path / "bad.json.corrupt").exists()
        assert not (tmp_path / shard_for("bad")).exists()

    def test_corrupt_shard_entry_quarantined_and_counted(self, tmp_path):
        tier = ShardedDiskTier(tmp_path)
        tier.put("k", {"v": 1})
        tier.entry_path("k").write_text("{torn")
        assert tier.get("k").quarantined
        shard = shard_for("k")
        assert tier.shard_stats()[shard].quarantines == 1
        assert (tmp_path / shard / "k.json.corrupt").exists()

    def test_scans_are_o_touched_shards(self, tmp_path):
        """entries() walks only shard dirs that exist (plus the legacy
        root), not all 256 — the shard-aware-scan satellite."""
        tier = ShardedDiskTier(tmp_path)
        keys = ["a", "b", "c"]
        for k in keys:
            tier.put(k, {"k": k})
        distinct = len({shard_for(k) for k in keys})
        before = tier.stats()["shards_scanned"]
        assert tier.entries() == 3
        walked = tier.stats()["shards_scanned"] - before
        assert walked == distinct + 1  # + the legacy root

    def test_byte_budget_evicts_oldest(self, tmp_path):
        tier = ShardedDiskTier(tmp_path, max_bytes=150)
        payload = {"pad": "x" * 50}
        tier.put("first", payload)
        os.utime(
            tier.entry_path("first"), (1, 1)
        )  # make "first" unambiguously oldest
        tier.put("second", payload)
        tier.put("third", payload)
        assert tier.bytes_used(refresh=True) <= 150
        assert not tier.contains("first")
        assert sum(s.evictions for s in tier.shard_stats().values()) >= 1

    def test_prune_stale_predicate(self, tmp_path):
        tier = ShardedDiskTier(tmp_path)
        tier.put("keep", {"version": 2})
        tier.put("drop", {"version": 1})
        removed = tier.prune(lambda p: p.get("version") == 1)
        assert removed == 1
        assert tier.contains("keep")
        assert not tier.contains("drop")

    def test_prune_delete_corrupt_mode(self, tmp_path):
        tier = ShardedDiskTier(tmp_path)
        tier.put("bad", {"v": 1})
        tier.entry_path("bad").write_text("{torn")
        removed = tier.prune(lambda p: False, quarantine_corrupt=False)
        assert removed == 1
        assert not tier.entry_path("bad").exists()
        assert not tier.entry_path("bad").with_suffix(
            ".json.corrupt"
        ).exists()

    def test_sweep_debris(self, tmp_path):
        tier = ShardedDiskTier(tmp_path)
        tier.put("k", {"v": 1})
        (tmp_path / "orphan.1.2.tmp").write_text("partial")
        (tmp_path / shard_for("k") / "x.json.corrupt").write_text("{")
        assert tier.sweep_debris() == 2
        assert tier.entries() == 1

    def test_clear(self, tmp_path):
        tier = ShardedDiskTier(tmp_path)
        for k in ("a", "b"):
            tier.put(k, {"k": k})
        assert tier.clear() == 2
        assert tier.entries() == 0
        assert tier.bytes_used() == 0

    def test_delete_covers_both_layouts(self, tmp_path):
        (tmp_path / "legacy.json").write_text("{}")
        tier = ShardedDiskTier(tmp_path)
        tier.put("sharded", {})
        assert tier.delete("legacy")
        assert tier.delete("sharded")
        assert not tier.delete("absent")


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

    def test_flatten_store_events_sums_and_drops_zeros(self):
        before = {
            "registries": {
                "a": {"hits": 1, "misses": 0, "evictions": 0},
                "b": {"hits": 2, "misses": 1, "evictions": 0},
            },
            "shm": {},
        }
        after = {
            "registries": {
                "a": {"hits": 4, "misses": 0, "evictions": 0},
                "b": {"hits": 2, "misses": 3, "evictions": 0},
            },
            "shm": {},
        }
        events = flatten_store_events(before, after)
        assert events == {"registry_hits": 3, "registry_misses": 2}
