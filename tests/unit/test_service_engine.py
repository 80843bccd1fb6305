"""Unit tests for the batch engine: caching, retries, failures as data."""

import inspect
import json
import time

import pytest

from repro.circuits.qasm import dumps as qasm_dumps
from repro.compiler.serialize import FORMAT_VERSION
from repro.hardware import clear_target_registry
from repro.qaoa import MaxCutProblem
from repro.service import (
    BatchEngine,
    CompileJob,
    EvalJob,
    OptimizeJob,
    ResultCache,
    execute_job,
    run_batch,
)
from repro.service import job as job_module
from repro.service.job import decode_envelope, encode_envelope
from repro.sim.fastpath import clear_diagonal_registry


def _program(n=5):
    edges = [(i, (i + 1) % n) for i in range(n)]
    return MaxCutProblem(n, edges).to_program([0.7], [0.35])


def _jobs(count=3, **kwargs):
    program = _program()
    defaults = dict(program=program, device="ibmq_20_tokyo", method="ic")
    defaults.update(kwargs)
    return [CompileJob(seed=i, **defaults) for i in range(count)]


class _FlakyExecute:
    """Fails the first ``failures`` calls, then delegates."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self, job):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("transient fault")
        return execute_job(job)


class TestSerial:
    def test_results_in_input_order(self):
        jobs = _jobs(4)
        report = run_batch(jobs)
        assert [r.job.seed for r in report.results] == [0, 1, 2, 3]
        assert all(r.ok for r in report.results)

    def test_failed_job_does_not_kill_batch(self):
        jobs = _jobs(2)
        bad = CompileJob(program=_program(), device="no_such_device")
        report = run_batch([jobs[0], bad, jobs[1]])
        assert [r.ok for r in report.results] == [True, False, True]
        failed = report.results[1]
        assert failed.error_kind == "invalid"
        assert "no_such_device" in failed.error

    def test_invalid_jobs_never_retry(self):
        bad = CompileJob(program=_program(), device="no_such_device")
        report = run_batch([bad], retries=3)
        assert report.results[0].attempts == 1

    def test_retry_recovers_from_transient_fault(self):
        flaky = _FlakyExecute(failures=1)
        engine = BatchEngine(
            retries=2, retry_base_delay=0.001, execute_fn=flaky
        )
        report = engine.run(_jobs(1))
        result = report.results[0]
        assert result.ok
        assert result.attempts == 2
        assert report.telemetry.counter("jobs.retries") == 1

    def test_retries_exhausted_yields_structured_error(self):
        flaky = _FlakyExecute(failures=10)
        engine = BatchEngine(
            retries=2, retry_base_delay=0.001, execute_fn=flaky
        )
        report = engine.run(_jobs(1))
        result = report.results[0]
        assert not result.ok
        assert result.error_kind == "exception"
        assert result.attempts == 3
        assert "transient fault" in result.error

    def test_cache_warm_second_run_is_all_hits(self):
        cache = ResultCache(expected_version=FORMAT_VERSION)
        jobs = _jobs(3)
        cold = run_batch(jobs, cache=cache)
        assert all(not r.cached for r in cold.results)
        warm = run_batch(jobs, cache=cache)
        assert all(r.cached for r in warm.results)
        assert warm.summary()["cached"] == 3
        assert warm.telemetry.counter("jobs.cached") == 3

    def test_cached_result_matches_computed(self):
        cache = ResultCache()
        jobs = _jobs(1)
        cold = run_batch(jobs, cache=cache)
        warm = run_batch(jobs, cache=cache)
        assert warm.results[0].metrics == cold.results[0].metrics
        assert (
            warm.results[0].compiled().circuit.instructions
            == cold.results[0].compiled().circuit.instructions
        )

    def test_duplicate_jobs_hit_cache_within_batch(self):
        cache = ResultCache()
        job = _jobs(1)[0]
        report = run_batch([job, job], cache=cache)
        assert [r.cached for r in report.results] == [False, True]

    def test_summary_counts(self):
        jobs = _jobs(2)
        bad = CompileJob(program=_program(), device="no_such_device")
        report = run_batch(jobs + [bad])
        summary = report.summary()
        assert summary["jobs"] == 3
        assert summary["ok"] == 2
        assert summary["failed"] == 1
        assert summary["latency_p95_ms"] >= summary["latency_p50_ms"]

    def test_render_mentions_throughput_and_hit_rate(self):
        report = run_batch(_jobs(1), cache=ResultCache())
        text = report.render()
        assert "jobs/s" in text
        assert "cache hit rate" in text

    def test_degraded_jobs_surface_in_summary(self):
        from repro.hardware.devices import melbourne_calibration

        dirty = {
            f"{a}-{b}": err
            for (a, b), err in melbourne_calibration().cnot_error.items()
        }
        dirty["0-1"] = float("nan")
        degraded_job = CompileJob(
            program=_program(),
            device="ibmq_16_melbourne",
            method="vic",
            calibration={"cnot_error": dirty},
        )
        report = run_batch(_jobs(1) + [degraded_job])
        summary = report.summary()
        assert summary["degraded"] == 1
        assert summary["warnings_total"] >= 1
        assert len(report.degraded) == 1
        assert "degraded" in report.render()

    def test_degraded_status_survives_cache_hit(self):
        from repro.hardware.devices import melbourne_calibration

        dirty = {
            f"{a}-{b}": err
            for (a, b), err in melbourne_calibration().cnot_error.items()
        }
        dirty["0-1"] = float("nan")
        job = CompileJob(
            program=_program(),
            device="ibmq_16_melbourne",
            method="vic",
            calibration={"cnot_error": dirty},
        )
        cache = ResultCache()
        cold = run_batch([job], cache=cache).results[0]
        warm = run_batch([job], cache=cache).results[0]
        assert warm.cached
        assert warm.warnings == cold.warnings

    def test_engine_validates_config(self):
        with pytest.raises(ValueError):
            BatchEngine(retries=-1)

    def test_engine_settings(self):
        """The engine is serial: no pool size, timeout or jitter seed."""
        params = list(inspect.signature(BatchEngine).parameters)
        assert params == [
            "retries", "retry_base_delay", "cache", "telemetry",
            "execute_fn", "sleep",
        ]

    def test_backoff_doubles_per_attempt(self):
        delays = []
        engine = BatchEngine(
            retries=3,
            retry_base_delay=0.25,
            execute_fn=_FlakyExecute(failures=3),
            sleep=delays.append,
        )
        assert engine.run(_jobs(1)).results[0].ok
        assert delays == [0.25, 0.5, 1.0]


class TestSleepHook:
    def test_injected_sleep_replaces_wall_clock_backoff(self):
        delays = []
        engine = BatchEngine(
            retries=2,
            retry_base_delay=0.5,
            execute_fn=_FlakyExecute(failures=1),
            sleep=delays.append,
        )
        start = time.perf_counter()
        report = engine.run(_jobs(1))
        elapsed = time.perf_counter() - start
        assert report.results[0].ok
        assert delays and all(d > 0 for d in delays)
        # The 0.5s base backoff went through the hook, not time.sleep.
        assert elapsed < 0.4

    def test_default_sleep_still_backs_off(self):
        engine = BatchEngine(
            retries=1, retry_base_delay=0.001,
            execute_fn=_FlakyExecute(failures=1),
        )
        assert engine.run(_jobs(1)).results[0].ok


class TestCacheQuarantineTelemetry:
    def test_truncated_entry_counts_as_quarantined(self, tmp_path):
        import pathlib

        directory = str(tmp_path / "cache")
        jobs = _jobs(1)
        run_batch(
            jobs,
            cache=ResultCache(
                directory=directory, expected_version=FORMAT_VERSION
            ),
        )
        entries = list(pathlib.Path(directory).glob("**/*.json"))
        assert entries
        for entry in entries:
            entry.write_text('{"truncated": ')  # the crash mid-write

        cache = ResultCache(
            directory=directory, expected_version=FORMAT_VERSION
        )
        engine = BatchEngine(cache=cache)
        report = engine.run(jobs)
        assert report.results[0].ok
        assert not report.results[0].cached
        assert engine.telemetry.counter("cache_quarantined") == 1
        assert report.summary()["cache_quarantined"] == 1
        # the poisoned file was moved aside, not silently deleted
        assert list(pathlib.Path(directory).glob("**/*.json.corrupt"))


class TestCacheLookupCounts:
    """Each job is looked up once.  A twin of a job that missed earlier in
    the batch is looked up after that job ran, so it is still a hit."""

    def test_distinct_keys_one_lookup_each(self):
        cache = ResultCache()
        jobs = _jobs(4)
        run_batch(jobs[:2], cache=cache)
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)
        report = run_batch(jobs, cache=cache)
        assert [r.cached for r in report.results] == [True, True, False, False]
        assert (cache.stats.hits, cache.stats.misses) == (2, 4)
        assert report.cache_stats["hit_rate"] == pytest.approx(2 / 6)

    def test_in_batch_duplicate_is_one_miss_then_a_hit(self):
        cache = ResultCache()
        job = _jobs(1)[0]
        report = run_batch([job, job], cache=cache)
        assert [r.cached for r in report.results] == [False, True]
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)


class TestStaleFormatVersion:
    def test_v4_envelope_is_a_miss_and_recompiles_at_v5(self, tmp_path):
        """Entries cached before measures moved to the final homes carry
        format version 4: the engine must recompile them, not serve
        them, and the fresh result measures every qubit last."""
        import json
        import pathlib

        directory = str(tmp_path / "cache")
        jobs = _jobs(1, method="naive", device="ibmq_16_melbourne")
        run_batch(
            jobs,
            cache=ResultCache(
                directory=directory, expected_version=FORMAT_VERSION
            ),
        )
        (entry,) = pathlib.Path(directory).glob("**/*.json")
        envelope = json.loads(entry.read_text())
        assert envelope["format_version"] == FORMAT_VERSION == 5
        # Rewrite it as a version-4 entry whose measures come first, so
        # serving it instead of recompiling would show.
        lines = envelope["compiled"]["qasm"].splitlines()
        measures = [line for line in lines if line.startswith("measure")]
        rest = [line for line in lines if not line.startswith("measure")]
        head = next(i for i, line in enumerate(rest) if line.startswith("creg"))
        envelope["compiled"]["qasm"] = "\n".join(
            rest[: head + 1] + measures + rest[head + 1:]
        )
        envelope["format_version"] = envelope["compiled"]["format_version"] = 4
        entry.write_text(json.dumps(envelope))

        cache = ResultCache(directory=directory, expected_version=FORMAT_VERSION)
        report = BatchEngine(cache=cache).run(jobs)
        result = report.results[0]
        assert result.ok and not result.cached
        assert json.loads(result.payload)["format_version"] == 5
        compiled = result.compiled()
        n = compiled.program.num_qubits
        tail = compiled.circuit.instructions[-n:]
        assert [inst.qubits[0] for inst in tail] == [
            compiled.final_mapping[q] for q in range(n)
        ]
        assert all(inst.name == "measure" for inst in tail)
        assert json.loads(entry.read_text())["format_version"] == 5


class TestPre2Envelopes:
    def test_placement_envelope_reads_back(self, tmp_path):
        """Scheduled runs before 2.0.0 stamped a ``placement`` dict into
        the envelope metrics at the same format version, and runs before
        3.0.0 stamped ``shm_*`` keys into ``store_events``.  Such an entry
        is still a cache hit: the engine passes its metrics through, and
        the record carries no top-level ``placement`` key."""
        (job,) = _jobs(1)
        fresh = execute_job(job)
        metrics, compiled_json = decode_envelope(fresh.payload)
        metrics["placement"] = {
            "device_label": "tokyo",
            "policy": "greedy",
            "wait_ms": 0.0,
            "promised_latency_ms": 12.5,
        }
        metrics["store_events"] = {"shm_hits": 2, "shm_publishes": 1}
        directory = str(tmp_path / "cache")
        ResultCache(directory=directory, expected_version=FORMAT_VERSION).put(
            job.content_hash(), encode_envelope(compiled_json, metrics)
        )

        cache = ResultCache(directory=directory, expected_version=FORMAT_VERSION)
        report = BatchEngine(cache=cache).run([job])
        result = report.results[0]
        assert result.ok and result.cached
        assert result.metrics["store_events"] == metrics["store_events"]
        # The old envelope's events are passed through, not counted.
        assert report.summary()["store_registry_hits"] == 0
        assert "store registry hits" in report.render()
        assert qasm_dumps(result.compiled().circuit) == qasm_dumps(
            fresh.compiled().circuit
        )
        assert result.metrics["placement"]["device_label"] == "tokyo"
        record = result.to_record(include_payload=True)
        assert "placement" not in record
        assert json.loads(record["payload"])["metrics"]["placement"] == (
            metrics["placement"]
        )


def _eval_job(**knobs):
    return EvalJob(
        CompileJob(
            program=_program(),
            device="ibmq_16_melbourne",
            method="vic",
            calibration="auto",
        ),
        shots=256,
        trajectories=2,
        **knobs,
    )


class TestMixedKinds:
    def test_one_batch_runs_every_kind(self):
        """The default engine runs compile, eval and optimize jobs side by
        side through the one executor."""
        jobs = [
            CompileJob(program=_program(), device="ibmq_20_tokyo", job_id="c"),
            _eval_job(job_id="e"),
            OptimizeJob(
                problem=MaxCutProblem(4, [(0, 1), (1, 2), (2, 3)]),
                maxiter=30,
                restarts=2,
                job_id="o",
            ),
        ]
        report = run_batch(jobs)
        assert [r.ok for r in report.results] == [True] * 3, [
            r.error for r in report.results
        ]
        compiled, evaluated, optimized = report.results
        assert json.loads(compiled.payload)["compiled"] is not None
        assert json.loads(evaluated.payload)["compiled"] is None
        assert "arg" in evaluated.metrics
        assert "expectation" in optimized.metrics
        assert [r.key for r in report.results] == [
            job.content_hash() for job in jobs
        ]
        for family in ("pass", "eval", "optimize"):
            assert report.stage_summary(family)


class TestUnhashableJobs:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: CompileJob(program=None, device="ibmq_20_tokyo"),
            lambda: _eval_job(noise_scale="x"),
            lambda: _eval_job(t2_ns="x"),
        ],
        ids=["compile-no-program", "eval-noise-scale", "eval-t2"],
    )
    def test_unhashable_job_is_an_invalid_result(self, build):
        """A job whose canonical form raises fails as data: no cache
        lookup, no execution, no retry — and its batch-mates still run."""
        (good,) = _jobs(1)
        cache = ResultCache()
        executed = []

        def execute(job):
            executed.append(job)
            return execute_job(job)

        engine = BatchEngine(retries=3, cache=cache, execute_fn=execute)
        report = engine.run([good, build()])
        ok, failed = report.results
        assert ok.ok
        assert (failed.ok, failed.key, failed.error_kind, failed.attempts) == (
            False, "", "invalid", 0,
        )
        assert failed.error
        assert executed == [good]
        assert cache.stats.misses == 1
        assert report.telemetry.counter("jobs.failed.invalid") == 1
        # A record writer (``repro batch -o``) can emit the failure.
        assert json.loads(json.dumps(failed.to_record()))["error_kind"] == "invalid"

    @pytest.mark.parametrize("compile_job", [None, "ibmq_20_tokyo"])
    def test_eval_job_needs_a_compile_job(self, compile_job):
        """Rejected where the job is built, naming what it got."""
        with pytest.raises(ValueError, match=type(compile_job).__name__):
            EvalJob(compile_job)


class TestCachePutFailure:
    def test_failed_disk_write_keeps_every_result(self, tmp_path):
        """A cache directory that cannot be created (here: beneath a
        regular file) fails each write; the batch still returns every
        result, and the memory tier still serves the warm re-run."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        cache = ResultCache(
            directory=str(blocker / "cache"), expected_version=FORMAT_VERSION
        )
        jobs = _jobs(2)
        report = BatchEngine(cache=cache).run(jobs)
        assert [r.ok for r in report.results] == [True, True]
        assert report.telemetry.counter("cache_put_failed") == 2
        warm = BatchEngine(cache=cache).run(jobs)
        assert [r.cached for r in warm.results] == [True, True]


class TestStoreStats:
    def test_cold_two_job_batch_registry_hits(self):
        """Two jobs on one environment: the second reuses the first's
        resolved environment, one registry hit in all (the value per-job
        registry events summed to before the engine diffed the process)."""
        clear_target_registry()
        clear_diagonal_registry()
        job_module._ENVIRONMENTS.clear()
        report = run_batch(_jobs(2))
        assert report.summary()["store_registry_hits"] == 1
        assert report.store_stats["registries"]["job_environments"]["hits"] == 1
