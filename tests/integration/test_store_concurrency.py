"""Concurrency and process-lifecycle tests for the artifact store.

The store's claims are cross-process claims: shard directories survive
concurrent writers from several processes, shared-memory segments are
visible to children and owned (unlinked) only by their creator, and a
process full of attachments exits without leaking ``/dev/shm`` entries.
These tests spawn real processes to check each one.
"""

import json
import multiprocessing as mp
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.store import ShardedDiskTier, SharedArrayTier, shard_for
from repro.store.shm import segment_name, shared_tier


def _disk_worker(directory, worker_id, keys, out_queue):
    tier = ShardedDiskTier(directory)
    results = {}
    for key in keys:
        tier.put(key, {"worker": worker_id, "key": key})
        lookup = tier.get(key)
        results[key] = lookup.hit and isinstance(lookup.payload, dict)
    out_queue.put((worker_id, results))


def _shm_child_resolve(key, shape, out_queue):
    tier = SharedArrayTier()
    arrays = tier.resolve(key)
    if arrays is None:
        out_queue.put(None)
        return
    matrix = arrays["m"]
    out_queue.put(
        {
            "shape": list(matrix.shape),
            "sum": float(matrix.sum()),
            "writeable": bool(matrix.flags.writeable),
        }
    )
    tier.cleanup()


def _run_python(script):
    """Run ``script`` in a fresh interpreter with this checkout's ``src``."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestMultiProcessDisk:
    def test_concurrent_put_get_same_shard(self, tmp_path):
        """Several processes hammering keys that share shard dirs never
        corrupt an entry or drop a write (atomic tmp + os.replace)."""
        keys = [f"key-{i}" for i in range(16)]
        queue = mp.Queue()
        workers = [
            mp.Process(
                target=_disk_worker, args=(str(tmp_path), w, keys, queue)
            )
            for w in range(4)
        ]
        for p in workers:
            p.start()
        outcomes = [queue.get(timeout=60) for _ in workers]
        for p in workers:
            p.join(timeout=60)
            assert p.exitcode == 0
        for _worker_id, results in outcomes:
            assert all(results.values())

        tier = ShardedDiskTier(tmp_path)
        assert tier.entries() == len(keys)
        for key in keys:
            lookup = tier.get(key)
            assert lookup.hit
            assert lookup.payload["key"] == key
        # No writer debris left behind.
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_entries_land_in_expected_shards(self, tmp_path):
        tier = ShardedDiskTier(tmp_path)
        for i in range(8):
            tier.put(f"k{i}", {"i": i})
        for i in range(8):
            assert (tmp_path / shard_for(f"k{i}") / f"k{i}.json").exists()


class TestSharedMemoryLifecycle:
    def test_child_process_resolves_parent_segment(self):
        tier = SharedArrayTier()
        matrix = np.arange(64, dtype=np.float64).reshape(8, 8)
        key = "it-parent-child"
        try:
            assert tier.publish(key, {"m": matrix})
            queue = mp.Queue()
            child = mp.Process(
                target=_shm_child_resolve, args=(key, (8, 8), queue)
            )
            child.start()
            out = queue.get(timeout=60)
            child.join(timeout=60)
            assert child.exitcode == 0
            assert out is not None
            assert out["shape"] == [8, 8]
            assert out["sum"] == float(matrix.sum())
            assert not out["writeable"]
            # The attaching child's exit must not unlink the parent's
            # segment (bpo-39959 tracker-on-attach hazard).
            assert os.path.exists(f"/dev/shm/{segment_name(key)}")
        finally:
            tier.cleanup()
        assert not os.path.exists(f"/dev/shm/{segment_name(key)}")

    def test_process_exit_leaves_no_leaked_segments(self, tmp_path):
        """A subprocess that publishes and resolves segments exits clean:
        its own segments are unlinked at exit, and nothing it merely
        attached to is removed."""
        script = tmp_path / "shm_exercise.py"
        script.write_text(
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.store import SharedArrayTier\n"
            "from repro.store.shm import segment_name\n"
            "tier = SharedArrayTier()\n"
            "keys = [f'leak-check-{i}' for i in range(4)]\n"
            "for i, key in enumerate(keys):\n"
            "    assert tier.publish(key, {'m': np.full((16, 16), i)})\n"
            "    assert tier.resolve(key) is not None\n"
            "print(json.dumps([segment_name(k) for k in keys]))\n"
        )
        proc = _run_python(script)
        assert proc.returncode == 0, proc.stderr
        names = json.loads(proc.stdout.strip().splitlines()[-1])
        assert len(names) == 4
        leaked = [n for n in names if os.path.exists(f"/dev/shm/{n}")]
        assert leaked == [], f"leaked shm segments: {leaked}"

    def test_fork_inherited_segments_not_unlinked_by_child(self):
        """A forked child that calls cleanup() must not unlink segments
        the parent owns (pid-guarded ownership)."""
        tier = SharedArrayTier()
        key = "it-fork-guard"
        try:
            assert tier.publish(key, {"m": np.zeros((4, 4))})

            def _child_cleanup():
                tier.cleanup()  # inherited _owned map, different pid

            child = mp.Process(target=_child_cleanup)
            child.start()
            child.join(timeout=60)
            assert child.exitcode == 0
            assert os.path.exists(f"/dev/shm/{segment_name(key)}")
        finally:
            tier.cleanup()

    def test_exit_with_views_of_own_segment_is_quiet(self, tmp_path):
        """Re-interning a diagonal adopts views of the process's own
        segment; exiting while they are alive must not print an
        ``Exception ignored`` from ``SharedMemory.__del__``."""
        script = tmp_path / "shm_own_views.py"
        script.write_text(
            "from repro.qaoa import MaxCutProblem\n"
            "from repro.sim.fastpath import clear_diagonal_registry, cost_diagonal\n"
            "problem = MaxCutProblem(4, [(0, 1), (1, 2), (2, 3), (0, 3)])\n"
            "cost_diagonal(problem)\n"
            "clear_diagonal_registry()\n"
            "cost_diagonal(problem)\n"
        )
        proc = _run_python(script)
        assert proc.returncode == 0, proc.stderr
        assert "Exception ignored" not in proc.stderr, proc.stderr

    def test_adopted_views_survive_cleanup(self):
        """Views resolved from a segment keep their values after
        ``shared_tier().cleanup()`` unlinks and closes it."""
        tier = shared_tier()
        matrix = np.arange(32, dtype=np.float64).reshape(4, 8)
        key = "it-views-survive-cleanup"
        assert tier.publish(key, {"m": matrix})
        view = tier.resolve(key)["m"]
        tier.cleanup()
        assert not os.path.exists(f"/dev/shm/{segment_name(key)}")
        np.testing.assert_array_equal(view, matrix)


class TestCorruptShardQuarantineAcrossProcesses:
    def test_quarantine_counted_once_per_corrupt_entry(self, tmp_path):
        """Two tier instances (stand-ins for two processes) racing into a
        corrupt entry: the file is quarantined exactly once, both report
        a miss, and quarantine counters reflect what each one saw."""
        writer = ShardedDiskTier(tmp_path)
        writer.put("poisoned", {"v": 1})
        writer.entry_path("poisoned").write_text("{torn mid-write")

        first = ShardedDiskTier(tmp_path)
        second = ShardedDiskTier(tmp_path)
        lookup_a = first.get("poisoned")
        lookup_b = second.get("poisoned")
        assert lookup_a.quarantined and not lookup_a.hit
        # Second reader finds the entry already moved aside: plain miss.
        assert not lookup_b.hit and not lookup_b.quarantined
        shard = shard_for("poisoned")
        assert first.shard_stats()[shard].quarantines == 1
        assert second.shard_stats()[shard].misses == 1
        corrupt = list((tmp_path / shard).glob("*.corrupt"))
        assert len(corrupt) == 1


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
