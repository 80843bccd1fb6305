"""Cross-process tests for the artifact store.

Several writer processes must share one disk tier without losing a
write, an acknowledged write must survive its writer being killed, a
corrupt entry must be quarantined once however many readers race into
it, a forked child must open its own database connection, and serial
jobs must leave no cross-process state behind.  These tests spawn real
processes.
"""

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.service import ResultCache
from repro.store import SQLiteDiskTier

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _disk_worker(directory, worker_id, keys, out_queue):
    tier = SQLiteDiskTier(directory)
    results = {}
    for key in keys:
        tier.put(key, {"worker": worker_id, "key": key})
        lookup = tier.get(key)
        results[key] = lookup.hit and isinstance(lookup.payload, dict)
    out_queue.put((worker_id, results))


def _run_workers(directory, keys_for):
    queue = mp.Queue()
    workers = [
        mp.Process(target=_disk_worker, args=(str(directory), w, keys_for(w), queue))
        for w in range(4)
    ]
    for p in workers:
        p.start()
    outcomes = [queue.get(timeout=60) for _ in workers]
    for p in workers:
        p.join(timeout=60)
        assert p.exitcode == 0
    return outcomes


class TestMultiProcessDisk:
    def test_concurrent_put_get_same_shard(self, tmp_path):
        """Four processes hammering the same keys never corrupt an entry:
        every read sees a whole entry from one of the writers."""
        keys = [f"key-{i}" for i in range(16)]
        for _worker_id, results in _run_workers(tmp_path, lambda w: keys):
            assert all(results.values())

        tier = SQLiteDiskTier(tmp_path)
        assert tier.entries() == len(keys)
        for key in keys:
            lookup = tier.get(key)
            assert lookup.hit
            assert lookup.payload["key"] == key
        assert tier.quarantines == 0

    def test_four_writers_lose_no_write(self, tmp_path):
        def keys_for(worker):
            return [f"w{worker}-{i}" for i in range(50)]

        _run_workers(tmp_path, keys_for)
        tier = SQLiteDiskTier(tmp_path)
        assert tier.entries() == 200
        for worker in range(4):
            for key in keys_for(worker):
                assert tier.get(key).payload == {"worker": worker, "key": key}


class TestCrashSafety:
    def test_sigkill_after_acknowledged_puts_loses_none(self, tmp_path):
        """A writer killed with SIGKILL mid-stream loses no put it had
        acknowledged: a fresh cache reads every one back byte-identical."""
        acknowledged = 40
        script = textwrap.dedent(
            """
            import json, sys
            from repro.service import ResultCache
            cache = ResultCache(directory=sys.argv[1])
            i = 0
            while True:
                cache.put(f"k{i}", json.dumps({"i": i, "pad": "x" * (i % 97)}))
                print(i, flush=True)
                i += 1
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            for _ in range(acknowledged):
                assert proc.stdout.readline(), "writer exited early"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
            proc.stdout.close()
        assert proc.returncode == -signal.SIGKILL

        fresh = ResultCache(directory=str(tmp_path))
        for i in range(acknowledged):
            assert fresh.get(f"k{i}") == json.dumps({"i": i, "pad": "x" * (i % 97)})
        assert fresh.stats.quarantines == 0


def _forked_child(tier, parent_conn_id, out_queue):
    tier.put("child", {"from": "child"})
    out_queue.put(
        (id(tier._conn) != parent_conn_id, tier.get("parent").payload, tier._pid == os.getpid())
    )


class TestFork:
    def test_forked_child_reconnects(self, tmp_path):
        ctx = mp.get_context("fork")
        tier = SQLiteDiskTier(tmp_path)
        tier.put("parent", {"from": "parent"})
        queue = ctx.Queue()
        child = ctx.Process(target=_forked_child, args=(tier, id(tier._conn), queue))
        child.start()
        fresh_connection, seen, owns = queue.get(timeout=60)
        child.join(timeout=60)
        assert child.exitcode == 0
        assert fresh_connection and owns
        assert seen == {"from": "parent"}
        # The parent's own connection is unharmed and sees the child's write.
        assert tier.get("child").payload == {"from": "child"}
        tier.put("after", {})
        assert tier.entries() == 3


class TestCorruptShardQuarantineAcrossProcesses:
    def test_quarantine_counted_once_per_corrupt_entry(self, tmp_path):
        """Two tier instances (stand-ins for two processes) racing into a
        corrupt row: it is quarantined exactly once, both report a miss,
        and each counts what it saw."""
        writer = SQLiteDiskTier(tmp_path)
        writer.put_text("poisoned", "{torn mid-write")

        first = SQLiteDiskTier(tmp_path)
        second = SQLiteDiskTier(tmp_path)
        lookup_a = first.get("poisoned")
        lookup_b = second.get("poisoned")
        assert lookup_a.quarantined and not lookup_a.hit
        # Second reader finds the row already moved aside: plain miss.
        assert not lookup_b.hit and not lookup_b.quarantined
        assert (first.quarantines, second.quarantines) == (1, 0)
        import sqlite3

        with sqlite3.connect(tmp_path / "cache.sqlite") as conn:
            assert conn.execute("SELECT count(*) FROM quarantine").fetchone() == (1,)


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
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr

    def test_memory_only_cache_never_loads_sqlite3(self, tmp_path):
        """``import repro``, a memory-only cache, and a cache constructed
        on a directory it never reads leave ``sqlite3`` unloaded."""
        script = textwrap.dedent(
            """
            import sys
            from repro.qaoa import MaxCutProblem
            from repro.service import BatchEngine, CompileJob, OptimizeJob, ResultCache

            problem = MaxCutProblem(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
            jobs = [
                CompileJob(program=problem.to_program([0.7], [0.35]),
                           device="ibmq_20_tokyo", method="ic"),
                OptimizeJob(problem=problem, maxiter=5, restarts=1),
            ]
            report = BatchEngine(cache=ResultCache()).run(jobs)
            assert all(r.ok for r in report.results)
            ResultCache(directory=sys.argv[1])
            assert "sqlite3" not in sys.modules
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "cache")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
