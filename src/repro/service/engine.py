"""Batch engine: run jobs one at a time, degrade gracefully.

:class:`BatchEngine` turns a list of :class:`~repro.service.job.Job` of
any kind — compile, eval and optimize jobs, mixed freely — into one
:class:`JobResult` per job, always, in input order.  A job can fail (bad
device name, a crashing pass, a canonical form that cannot hash); its
result is then a structured error entry, and the rest of the batch is
unaffected.

Jobs run serially in the calling process, in input order, and each is
looked up in the cache once, at its turn: a twin of a job earlier in the
same batch finds that job's result.

The engine consults a :class:`~repro.service.cache.ResultCache` before
executing anything and write-through-populates it with every success, and
it feeds a :class:`~repro.service.telemetry.Telemetry` instance throughout:
``jobs.*`` counters, end-to-end ``job_latency_ms`` / execution-only
``execute_ms`` / pure ``compile_ms`` histograms, and one histogram per
stage of each executed job's stage traces — ``pass_ms.<pass>`` per
compiler-pipeline pass, ``eval_ms.<stage>`` per fast-path evaluation
stage, ``optimize_ms.<stage>`` per variational stage.  That telemetry
lives as long as the engine; a :class:`BatchReport`'s latency
percentiles and :meth:`BatchReport.stage_summary` are computed from the
run's own results.

``execute_fn`` defaults to :func:`~repro.service.job.execute_job`, which
runs any kind.

Retries apply to transient faults (``error_kind="exception"``, whether
``execute_fn`` returned it or raised), with exponential backoff: attempt
``n`` waits
``retry_base_delay * 2 ** (n - 1)`` seconds before the next one.
Deterministic rejections (``error_kind="invalid"`` — unknown device,
malformed program, a job that cannot hash) never retry: they would fail
identically again.  The cache never fails a job.  A lookup the disk
tier cannot serve (its database locked past the busy timeout) is a miss,
counted as ``cache_get_failed``; a cache write that fails (a full disk, a
bad cache directory, a lock) loses only the cached copy: the job keeps
its result and the ``cache_put_failed`` counter records the loss.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, List, Optional, Sequence

from ..store import diff_store_stats, store_stats
from .cache import ResultCache
from .job import Job, JobResult, envelope_metrics, execute_job
# Not called here (a cache hit reads only the envelope's metrics); kept because
# perfbench/bench_trace.py wraps ``decode_envelope`` by this module's name.
from .job import decode_envelope  # noqa: F401
from .telemetry import Histogram, Telemetry

__all__ = ["BatchEngine", "BatchReport", "run_batch"]

#: Stage traces in a result's metrics, and the histogram family each
#: stage's milliseconds feed.
_STAGE_TRACES = (
    ("pass_trace", "pass_ms"),
    ("eval_trace", "eval_ms"),
    ("optimize_trace", "optimize_ms"),
)


@dataclasses.dataclass
class BatchReport:
    """Everything a batch run produced.

    Attributes:
        results: One :class:`JobResult` per submitted job, input order.
        telemetry: The telemetry sink the run recorded into.
        elapsed: Wall-clock seconds for the whole batch.
        cache_stats: Lifetime snapshot of the cache's counters at the end
            of the run, including earlier runs over the same cache (empty
            dict when the run was uncached).
        store_stats: Intern-registry activity for this run: the
            :func:`repro.store.diff_store_stats` delta of this process's
            registries across the run.
        run_cache_stats: This run's share of the cache counters: the same
            keys as ``cache_stats``, counted over the run alone, with
            ``hit_rate`` over its own lookups (empty dict when uncached).
    """

    results: List[JobResult]
    telemetry: Telemetry
    elapsed: float
    cache_stats: dict
    store_stats: dict = dataclasses.field(default_factory=dict)
    run_cache_stats: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> List[JobResult]:
        return [r for r in self.results if r.ok]

    @property
    def failed(self) -> List[JobResult]:
        return [r for r in self.results if not r.ok]

    @property
    def degraded(self) -> List[JobResult]:
        """Jobs that succeeded but only via repairs/fallbacks."""
        return [r for r in self.results if r.ok and r.warnings]

    def stage_summary(self, family: str) -> dict:
        """Per-stage latency aggregation across this run for one stage
        family: ``"pass"`` (compiler-pipeline passes), ``"eval"``
        (``diagonal``/``ideal``/``noisy``) or ``"optimize"``
        (``population``/``search``).

        Returns ``{stage: {count, mean, min, max, p50, p95, p99}}`` in
        milliseconds, over the ``<family>_trace`` of every job this run
        executed.  Cache hits contribute no samples (nothing ran).
        """
        samples: dict = {}
        for result in self.ok:
            if result.cached or not result.metrics:
                continue
            for record in result.metrics.get(f"{family}_trace") or []:
                samples.setdefault(record["name"], []).append(
                    float(record["seconds"]) * 1e3
                )
        return {name: _summarize(values) for name, values in sorted(samples.items())}

    def distinct_targets(self) -> int:
        """Distinct device+calibration fingerprints among the successful
        results — how many Target-layer analyses the batch actually paid
        for (the rest were intern-registry shares)."""
        return len(
            {
                (r.metrics or {}).get("target_fingerprint")
                for r in self.ok
                if (r.metrics or {}).get("target_fingerprint")
            }
        )

    def summary(self) -> dict:
        """Headline numbers of this run: throughput, hit rate, latency
        percentiles.  The cache figures count this run's lookups only, and
        the latencies are this run's jobs'; :attr:`cache_stats` keeps the
        cache's lifetime counters."""
        latency = _summarize([r.latency * 1e3 for r in self.results])
        registries = self.store_stats.get("registries", {})
        return {
            "jobs": len(self.results),
            "ok": len(self.ok),
            "failed": len(self.failed),
            "degraded": len(self.degraded),
            "warnings_total": sum(len(r.warnings) for r in self.results),
            "cached": sum(1 for r in self.results if r.cached),
            "distinct_targets": self.distinct_targets(),
            "elapsed_s": self.elapsed,
            "jobs_per_s": (
                len(self.results) / self.elapsed if self.elapsed > 0 else 0.0
            ),
            "cache_hit_rate": self.run_cache_stats.get("hit_rate", 0.0),
            "cache_quarantined": int(self.run_cache_stats.get("quarantines", 0)),
            "store_registry_hits": sum(
                int(stats.get("hits", 0)) for stats in registries.values()
            ),
            "latency_p50_ms": latency["p50"],
            "latency_p95_ms": latency["p95"],
            "latency_p99_ms": latency["p99"],
        }

    def render(self) -> str:
        """Terminal summary: headline table + full telemetry tables."""
        from ..experiments.reporting import format_table

        s = self.summary()
        rows = [
            ["jobs", s["jobs"]],
            ["ok", s["ok"]],
            ["failed", s["failed"]],
            ["degraded", f"{s['degraded']} ({s['warnings_total']} warnings)"],
            ["cached", s["cached"]],
            ["distinct targets", s["distinct_targets"]],
            ["elapsed", f"{s['elapsed_s']:.3f} s"],
            ["throughput", f"{s['jobs_per_s']:.1f} jobs/s"],
            ["cache hit rate", f"{100 * s['cache_hit_rate']:.1f}%"],
            ["store registry hits", s["store_registry_hits"]],
            ["latency p50", f"{s['latency_p50_ms']:.2f} ms"],
            ["latency p95", f"{s['latency_p95_ms']:.2f} ms"],
            ["latency p99", f"{s['latency_p99_ms']:.2f} ms"],
        ]
        return (
            format_table(["batch", "value"], rows)
            + "\n\n"
            + self.telemetry.render()
        )


@dataclasses.dataclass
class _JobState:
    index: int
    job: Job
    key: str
    attempts: int = 0
    enqueued_at: float = 0.0


class BatchEngine:
    """Run jobs of any kind serially, with caching and retries.

    Args:
        retries: Extra attempts after a transient failure (so a job runs
            at most ``retries + 1`` times).
        retry_base_delay: First backoff delay in seconds; doubles per
            attempt.
        cache: Optional result cache consulted before execution.
        telemetry: Optional sink; one is created when omitted.
        execute_fn: Job executor; defaults to
            :func:`repro.service.job.execute_job`.
        sleep: Hook for the retry backoff wait; defaults to
            :func:`time.sleep`.  Tests inject a no-op so retry-heavy runs
            are fast.
    """

    def __init__(
        self,
        retries: int = 1,
        retry_base_delay: float = 0.05,
        cache: Optional[ResultCache] = None,
        telemetry: Optional[Telemetry] = None,
        execute_fn: Callable[[Job], JobResult] = execute_job,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.retries = retries
        self.retry_base_delay = retry_base_delay
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._execute_fn = execute_fn
        self._sleep = sleep if sleep is not None else time.sleep

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> BatchReport:
        """Run a batch; returns one result per job, input order."""
        start = time.perf_counter()
        store_before = store_stats()
        cache_before = self._cache_snapshot()
        results: List[Optional[JobResult]] = [None] * len(jobs)
        now = time.monotonic()
        for index, job in enumerate(jobs):
            self.telemetry.incr("jobs.submitted")
            state = _JobState(index=index, job=job, key="", enqueued_at=now)
            try:
                state.key = job.content_hash()
            except Exception as exc:  # noqa: BLE001 — one bad job, not the batch
                # Unhashable means uncacheable and deterministic: no
                # lookup, no execution, no retry.
                failure = JobResult(
                    job=job,
                    key="",
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    error_kind="invalid",
                )
                self._finish(state, failure, results)
                continue
            hit = self._try_cache(state)
            if hit is not None:
                results[index] = hit
            else:
                self._execute(state, results)
        elapsed = time.perf_counter() - start
        final = [r for r in results if r is not None]
        assert len(final) == len(jobs), "every job must yield a result"
        cache_after = self._cache_snapshot()
        return BatchReport(
            results=final,
            telemetry=self.telemetry,
            elapsed=elapsed,
            cache_stats=cache_after,
            store_stats=diff_store_stats(store_before, store_stats()),
            run_cache_stats=_cache_delta(cache_before, cache_after),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _cache_snapshot(self) -> dict:
        return self.cache.stats.snapshot() if self.cache is not None else {}

    def _try_cache(self, state: _JobState) -> Optional[JobResult]:
        if self.cache is None:
            return None
        quarantines_before = self.cache.stats.quarantines
        try:
            payload = self.cache.get(state.key)
        except OSError:
            # The disk tier could not be read: the cache counted a miss.
            self.telemetry.incr("cache_get_failed")
            payload = None
        quarantined = self.cache.stats.quarantines - quarantines_before
        if quarantined > 0:
            # The lookup tripped over a corrupt disk entry; the cache
            # already moved it aside — surface the event so operators see
            # quarantines in batch telemetry, not just cache stats.
            self.telemetry.incr("cache_quarantined", quarantined)
        if payload is None:
            return None
        try:
            metrics = envelope_metrics(payload)
        except ValueError:
            return None  # stale envelope in the memory tier — recompile
        latency = time.monotonic() - state.enqueued_at
        warnings = list(metrics.get("warnings") or []) if metrics else []
        self.telemetry.incr("jobs.ok")
        self.telemetry.incr("jobs.cached")
        if warnings:
            self.telemetry.incr("jobs.degraded")
        self.telemetry.observe("job_latency_ms", latency * 1e3)
        return JobResult(
            job=state.job,
            key=state.key,
            ok=True,
            cached=True,
            attempts=0,
            latency=latency,
            metrics=metrics,
            payload=payload,
            warnings=warnings,
        )

    def _finish(
        self,
        state: _JobState,
        result: JobResult,
        results: List[Optional[JobResult]],
    ) -> None:
        result.attempts = state.attempts
        result.latency = time.monotonic() - state.enqueued_at
        if result.ok:
            self.telemetry.incr("jobs.ok")
            if result.warnings:
                self.telemetry.incr("jobs.degraded")
                self.telemetry.observe(
                    "job_warnings", float(len(result.warnings))
                )
            if result.metrics and result.metrics.get("compile_time"):
                self.telemetry.observe(
                    "compile_ms", result.metrics["compile_time"] * 1e3
                )
            if result.metrics:
                for trace, family in _STAGE_TRACES:
                    for record in result.metrics.get(trace) or []:
                        self.telemetry.observe(
                            f"{family}.{record['name']}",
                            float(record["seconds"]) * 1e3,
                        )
            if self.cache is not None and result.payload is not None:
                try:
                    self.cache.put(state.key, result.payload)
                except OSError:
                    # The disk tier could not take the entry: the result
                    # stands, only its cached copy is lost.
                    self.telemetry.incr("cache_put_failed")
        else:
            self.telemetry.incr("jobs.failed")
            self.telemetry.incr(f"jobs.failed.{result.error_kind}")
        self.telemetry.observe("job_latency_ms", result.latency * 1e3)
        results[state.index] = result

    def _execute(
        self, state: _JobState, results: List[Optional[JobResult]]
    ) -> None:
        """Run one job, retrying transient failures with backoff."""
        while True:
            state.attempts += 1
            exec_start = time.perf_counter()
            try:
                result = self._execute_fn(state.job)
            except Exception as exc:  # noqa: BLE001 — degrade, don't die
                result = JobResult(
                    job=state.job,
                    key=state.key,
                    ok=False,
                    error=f"{type(exc).__name__}: {exc}",
                    error_kind="exception",
                )
            self.telemetry.observe(
                "execute_ms", (time.perf_counter() - exec_start) * 1e3
            )
            if (
                result.ok
                or result.error_kind != "exception"
                or state.attempts > self.retries
            ):
                self._finish(state, result, results)
                return
            self.telemetry.incr("jobs.retries")
            self._sleep(self.retry_base_delay * 2 ** (state.attempts - 1))


def _summarize(values: List[float]) -> dict:
    """A telemetry histogram summary of all of ``values``."""
    histogram = Histogram(reservoir_size=max(len(values), 1))
    for value in values:
        histogram.record(value)
    return histogram.summary()


def _cache_delta(before: dict, after: dict) -> dict:
    """The counters of cache snapshot ``after`` minus ``before``, with the
    hit rate of the lookups in between (``{}`` for an uncached run)."""
    if not after:
        return {}
    delta = {name: after[name] - before[name] for name in after if name != "hit_rate"}
    lookups = delta["hits"] + delta["misses"]
    delta["hit_rate"] = delta["hits"] / lookups if lookups else 0.0
    return delta


def run_batch(jobs: Sequence[Job], **engine_kwargs) -> BatchReport:
    """One-shot convenience: ``BatchEngine(**engine_kwargs).run(jobs)``
    for jobs of any kind."""
    return BatchEngine(**engine_kwargs).run(jobs)
