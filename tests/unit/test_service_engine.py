"""Unit tests for the batch engine: caching, retries, timeouts, pooling."""

import json
import time

import pytest

from repro.circuits.qasm import dumps as qasm_dumps
from repro.compiler.serialize import FORMAT_VERSION
from repro.hardware import clear_target_registry, ring_device
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


# Module-level so they pickle into worker processes.
def _sleepy_execute(job):
    time.sleep(2.0)
    return execute_job(job)


def _crashy_execute(job):
    raise RuntimeError("worker exploded")


class _FlakyExecute:
    """Fails the first ``failures`` calls, then delegates (serial only)."""

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
            BatchEngine(workers=-1)
        with pytest.raises(ValueError):
            BatchEngine(retries=-1)
        with pytest.raises(ValueError):
            BatchEngine(timeout=0)


def _timing_free(payload):
    """An envelope without its wall-clock fields and registry events."""
    envelope = json.loads(payload)
    for part in (envelope["metrics"], envelope["compiled"] or {}):
        for name in ("compile_time", "eval_trace", "store_events"):
            part.pop(name, None)
        for record in part.get("pass_trace") or []:
            del record["seconds"]
    return envelope


class TestPooled:
    def test_pooled_matches_serial(self):
        """Workers resolve their own tables: a tokyo VIC job draws and
        analyses its calibration, an inline coupling re-interns through
        ``intern_coupling`` on unpickle, and eval jobs run pooled too."""
        program = _program()
        jobs = _jobs(4) + [
            CompileJob(
                program=program,
                device="ibmq_20_tokyo",
                method="vic",
                calibration="auto",
                seed=5,
            ),
            CompileJob(program=program, device=ring_device(8), method="ic"),
        ]
        eval_jobs = [
            EvalJob(
                CompileJob(
                    program=program,
                    device="ibmq_16_melbourne",
                    method=method,
                    calibration="auto",
                ),
                shots=256,
                trajectories=2,
            )
            for method in ("ic", "vic")
        ]
        # Forked workers would inherit whatever the parent interned.
        clear_target_registry()
        clear_diagonal_registry()
        job_module._ENVIRONMENTS.clear()
        pooled = run_batch(jobs, workers=2).results
        pooled += run_batch(eval_jobs, workers=2).results
        serial = run_batch(jobs).results + run_batch(eval_jobs).results
        assert [r.ok for r in pooled] == [True] * 8
        for a, b in zip(serial, pooled):
            assert a.key == b.key
            assert _timing_free(a.payload) == _timing_free(b.payload)

    def test_pooled_failure_degrades_gracefully(self):
        jobs = _jobs(1)
        bad = CompileJob(program=_program(), device="no_such_device")
        report = run_batch([jobs[0], bad], workers=2)
        assert [r.ok for r in report.results] == [True, False]
        assert report.results[1].error_kind == "invalid"

    def test_pooled_worker_exception_is_structured(self):
        engine = BatchEngine(
            workers=1, retries=0, execute_fn=_crashy_execute
        )
        report = engine.run(_jobs(1))
        result = report.results[0]
        assert not result.ok
        assert result.error_kind == "exception"
        assert "worker exploded" in result.error

    def test_timeout_produces_timeout_error(self):
        engine = BatchEngine(
            workers=1, timeout=0.3, retries=0, execute_fn=_sleepy_execute
        )
        start = time.monotonic()
        report = engine.run(_jobs(1))
        result = report.results[0]
        assert not result.ok
        assert result.error_kind == "timeout"
        assert report.telemetry.counter("jobs.timeouts") == 1
        # The engine must not wait for the abandoned 2 s worker.
        assert time.monotonic() - start < 1.9

    def test_timeout_retries_are_bounded(self):
        engine = BatchEngine(
            workers=1,
            timeout=0.2,
            retries=1,
            retry_base_delay=0.01,
            execute_fn=_sleepy_execute,
        )
        report = engine.run(_jobs(1))
        result = report.results[0]
        assert not result.ok
        assert result.attempts == 2
        assert report.telemetry.counter("jobs.timeouts") == 2

    def test_pooled_cache_populated(self):
        cache = ResultCache()
        jobs = _jobs(2)
        run_batch(jobs, workers=2, cache=cache)
        warm = run_batch(jobs, cache=cache)
        assert all(r.cached for r in warm.results)


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


@pytest.mark.parametrize("workers", [0, 1], ids=["serial", "pooled"])
class TestCacheLookupCounts:
    """Each job is looked up once.  A twin of a job that missed earlier in
    the batch is looked up after that job ran, so it is still a hit."""

    def test_distinct_keys_one_lookup_each(self, workers):
        cache = ResultCache()
        jobs = _jobs(4)
        run_batch(jobs[:2], cache=cache, workers=workers)
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)
        report = run_batch(jobs, cache=cache, workers=workers)
        assert [r.cached for r in report.results] == [True, True, False, False]
        assert (cache.stats.hits, cache.stats.misses) == (2, 4)
        assert report.cache_stats["hit_rate"] == pytest.approx(2 / 6)

    def test_in_batch_duplicate_is_one_miss_then_a_hit(self, workers):
        cache = ResultCache()
        job = _jobs(1)[0]
        report = run_batch([job, job], cache=cache, workers=workers)
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
        assert report.store_stats["jobs"] == {}  # cached: not counted
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


@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "pooled"])
class TestMixedKinds:
    def test_one_batch_runs_every_kind(self, workers):
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
        report = run_batch(jobs, workers=workers)
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
            lambda: EvalJob(None),
        ],
        ids=["compile-no-program", "eval-noise-scale", "eval-t2", "eval-no-compile"],
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
