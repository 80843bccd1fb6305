"""Cross-process tests for the artifact store.

Shard directories must survive concurrent writers from several
processes, a corrupt entry must be quarantined once however many
readers race into it, and serial jobs must leave no cross-process state
behind.  These tests spawn real processes.
"""

import multiprocessing as mp
import os
import subprocess
import sys
import textwrap

import pytest

from repro.store import ShardedDiskTier, shard_for


def _disk_worker(directory, worker_id, keys, out_queue):
    tier = ShardedDiskTier(directory)
    results = {}
    for key in keys:
        tier.put(key, {"worker": worker_id, "key": key})
        lookup = tier.get(key)
        results[key] = lookup.hit and isinstance(lookup.payload, dict)
    out_queue.put((worker_id, results))


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


class TestSerialJobsStayInProcess:
    def test_no_shared_memory_or_resource_tracker(self, tmp_path):
        """A serial VIC compile, eval job and optimize job in a fresh
        interpreter import no shared-memory module and start no
        multiprocessing resource tracker."""
        script = tmp_path / "serial_jobs.py"
        script.write_text(
            textwrap.dedent(
                """
                import sys
                from multiprocessing import resource_tracker

                from repro.qaoa import MaxCutProblem
                from repro.service import (
                    CompileJob, EvalJob, OptimizeJob,
                    execute_eval_job, execute_job, execute_optimize_job,
                )

                problem = MaxCutProblem(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
                program = problem.to_program([0.7], [0.35])
                results = [
                    execute_job(CompileJob(
                        program=program, device="ibmq_20_tokyo", method="vic",
                        calibration="auto",
                    )),
                    execute_eval_job(EvalJob(
                        CompileJob(
                            program=program, device="ibmq_16_melbourne",
                            method="vic", calibration="auto",
                        ),
                        shots=64, trajectories=2,
                    )),
                    execute_optimize_job(
                        OptimizeJob(problem=problem, maxiter=10, restarts=2)
                    ),
                ]
                assert all(r.ok for r in results), [r.error for r in results]
                assert "multiprocessing.shared_memory" not in sys.modules
                assert resource_tracker._resource_tracker._pid is None
                """
            )
        )
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
