"""Batch engine: fan jobs across processes, degrade gracefully.

:class:`BatchEngine` turns a list of :class:`~repro.service.job.Job` of
any kind — compile, eval and optimize jobs, mixed freely — into one
:class:`JobResult` per job, always, in input order.  A job can fail (bad
device name, a crashing pass, a timeout, a canonical form that cannot
hash); its result is then a structured error entry, and the rest of the
batch is unaffected.

Execution modes:

* ``workers=0`` — serial, in-process.  Deterministic and overhead-free;
  what :func:`repro.compiler.portfolio.compile_portfolio` uses by default.
* ``workers>=1`` — a ``ProcessPoolExecutor`` fan-out with at most
  ``workers`` jobs in flight, a per-job wall-clock ``timeout``, and bounded
  retry with exponential backoff and jitter.  A timed-out job's worker
  process cannot be interrupted mid-pass; the engine abandons the future
  (its eventual result is discarded) and shuts the pool down without
  waiting on stragglers.

The engine consults a :class:`~repro.service.cache.ResultCache` before
executing anything and write-through-populates it with every success, and
it feeds a :class:`~repro.service.telemetry.Telemetry` instance throughout:
``jobs.*`` counters, end-to-end ``job_latency_ms`` / execution-only
``execute_ms`` / pure ``compile_ms`` histograms, and one histogram per
stage of each executed job's stage traces — ``pass_ms.<pass>`` per
compiler-pipeline pass, ``eval_ms.<stage>`` per fast-path evaluation
stage, ``optimize_ms.<stage>`` per variational stage — so batch telemetry
reports where the time goes (:meth:`BatchReport.stage_summary`).

``execute_fn`` defaults to :func:`~repro.service.job.execute_job`, which
runs any kind.

Retries apply to transient faults (worker exceptions, broken pools,
timeouts).  Deterministic rejections (``error_kind="invalid"`` — unknown
device, malformed program, a job that cannot hash) never retry: they
would fail identically again.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..store import diff_store_stats, store_stats
from .cache import ResultCache
from .job import Job, JobResult, decode_envelope, execute_job
from .telemetry import Telemetry

__all__ = ["BatchEngine", "BatchReport", "run_batch"]

_RETRYABLE = ("exception", "timeout", "pool")

#: Stage traces in a result's metrics, and the histogram family each
#: stage's milliseconds feed.
_STAGE_TRACES = (
    ("pass_trace", "pass_ms"),
    ("eval_trace", "eval_ms"),
    ("optimize_trace", "optimize_ms"),
)


def _sum_store_events(results: Sequence[JobResult]) -> dict:
    """Total per-job ``store_events`` over the *executed* results.

    Cache hits are excluded: their envelopes carry the store events of
    whichever run originally produced them, so counting those would
    double-report work no process did this run.
    """
    totals: dict = {}
    for result in results:
        if result.cached or not result.metrics:
            continue
        for name, value in (result.metrics.get("store_events") or {}).items():
            totals[name] = totals.get(name, 0) + int(value)
    return totals


@dataclasses.dataclass
class BatchReport:
    """Everything a batch run produced.

    Attributes:
        results: One :class:`JobResult` per submitted job, input order.
        telemetry: The telemetry sink the run recorded into.
        elapsed: Wall-clock seconds for the whole batch.
        cache_stats: Snapshot of the cache counters (empty dict when the
            run was uncached).
        store_stats: Intern-registry activity for this run, two sections:
            ``"process"`` — :func:`repro.store.diff_store_stats` delta of
            this process's registries across the run; ``"jobs"`` — summed
            per-job ``store_events`` from the executed (non-cached)
            results, which is the only view that sees activity inside
            pool worker processes.
    """

    results: List[JobResult]
    telemetry: Telemetry
    elapsed: float
    cache_stats: dict
    store_stats: dict = dataclasses.field(default_factory=dict)

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
        """Per-stage latency aggregation across the batch for one stage
        family: ``"pass"`` (compiler-pipeline passes), ``"eval"``
        (``diagonal``/``ideal``/``noisy``) or ``"optimize"``
        (``population``/``search``).

        Returns ``{stage: {count, mean, min, max, p50, p95, p99}}`` in
        milliseconds, built from the ``<family>_ms.*`` histograms the
        engine feeds from every executed job's stage trace.  Cache hits
        contribute no samples (nothing ran).
        """
        prefix = f"{family}_ms."
        return {
            name[len(prefix):]: summary
            for name, summary in self.telemetry.snapshot()["histograms"].items()
            if name.startswith(prefix)
        }

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
        """Headline numbers: throughput, hit rate, latency percentiles."""
        snap = self.telemetry.snapshot()
        latency = snap["histograms"].get("job_latency_ms", {})
        job_events = self.store_stats.get("jobs", {})
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
            "cache_hit_rate": self.cache_stats.get("hit_rate", 0.0),
            "cache_quarantined": int(self.cache_stats.get("quarantines", 0)),
            "store_registry_hits": int(job_events.get("registry_hits", 0)),
            "latency_p50_ms": latency.get("p50", 0.0),
            "latency_p95_ms": latency.get("p95", 0.0),
            "latency_p99_ms": latency.get("p99", 0.0),
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
    ready_at: float = 0.0
    deferred: bool = False  # cache lookup waits for an in-batch twin


class BatchEngine:
    """Schedule jobs of any kind with caching, retries and timeouts.

    Args:
        workers: Process-pool size; ``0`` runs serially in-process.
        timeout: Per-attempt wall-clock seconds (pooled mode only — a
            serial attempt cannot be preempted).
        retries: Extra attempts after a transient failure (so a job runs
            at most ``retries + 1`` times).
        retry_base_delay: First backoff delay in seconds; doubles per
            attempt.
        retry_jitter: Relative jitter on each backoff delay (0.5 = ±50%),
            decorrelating retry bursts.
        cache: Optional result cache consulted before execution.
        telemetry: Optional sink; one is created when omitted.
        seed: Seed for the jitter rng (determinism in tests).
        execute_fn: Job executor (pooled mode requires it picklable);
            defaults to :func:`repro.service.job.execute_job`.
        sleep: Hook for every wall-clock wait the engine takes (retry
            backoff, pooled backoff coalescing); defaults to
            :func:`time.sleep`.  Tests and simulation harnesses inject
            a no-op so retry-heavy runs are deterministic and fast.
    """

    def __init__(
        self,
        workers: int = 0,
        timeout: Optional[float] = None,
        retries: int = 1,
        retry_base_delay: float = 0.05,
        retry_jitter: float = 0.5,
        cache: Optional[ResultCache] = None,
        telemetry: Optional[Telemetry] = None,
        seed: int = 0,
        execute_fn: Callable[[Job], JobResult] = execute_job,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive or None")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.retry_base_delay = retry_base_delay
        self.retry_jitter = retry_jitter
        self.cache = cache
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self._rng = np.random.default_rng(seed)
        self._execute_fn = execute_fn
        self._sleep = sleep if sleep is not None else time.sleep

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> BatchReport:
        """Run a batch; returns one result per job, input order."""
        start = time.perf_counter()
        store_before = store_stats()
        results: List[Optional[JobResult]] = [None] * len(jobs)
        states = deque()
        missed = set()  # keys looked up and missed earlier in this batch
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
            if state.key in missed:
                # An earlier twin will run first and may cache this key:
                # look it up once, when its turn comes.
                state.deferred = True
                states.append(state)
                continue
            hit = self._try_cache(state)
            if hit is not None:
                results[index] = hit
            else:
                missed.add(state.key)
                states.append(state)
        if states:
            if self.workers == 0:
                self._run_serial(states, results)
            else:
                self._run_pooled(states, results)
        elapsed = time.perf_counter() - start
        final = [r for r in results if r is not None]
        assert len(final) == len(jobs), "every job must yield a result"
        return BatchReport(
            results=final,
            telemetry=self.telemetry,
            elapsed=elapsed,
            cache_stats=(
                self.cache.stats.snapshot() if self.cache is not None else {}
            ),
            store_stats={
                "process": diff_store_stats(store_before, store_stats()),
                "jobs": _sum_store_events(final),
            },
        )

    # ------------------------------------------------------------------
    # shared bookkeeping
    # ------------------------------------------------------------------
    def _try_cache(self, state: _JobState) -> Optional[JobResult]:
        if self.cache is None:
            return None
        quarantines_before = self.cache.stats.quarantines
        payload = self.cache.get(state.key)
        quarantined = self.cache.stats.quarantines - quarantines_before
        if quarantined > 0:
            # The lookup tripped over a corrupt disk entry; the cache
            # already moved it aside — surface the event so operators see
            # quarantines in batch telemetry, not just cache stats.
            self.telemetry.incr("cache_quarantined", quarantined)
        if payload is None:
            return None
        try:
            metrics, _ = decode_envelope(payload)
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
                # Registry activity from inside the worker — only executed
                # results reach _finish, so cached envelopes never
                # double-count.
                for name, value in (
                    result.metrics.get("store_events") or {}
                ).items():
                    self.telemetry.incr(f"store.{name}", int(value))
            if self.cache is not None and result.payload is not None:
                self.cache.put(state.key, result.payload)
        else:
            self.telemetry.incr("jobs.failed")
            self.telemetry.incr(f"jobs.failed.{result.error_kind}")
        self.telemetry.observe("job_latency_ms", result.latency * 1e3)
        results[state.index] = result

    def _should_retry(self, state: _JobState, result: JobResult) -> bool:
        return (
            result.error_kind in _RETRYABLE
            and state.attempts < self.retries + 1
        )

    def _backoff(self, attempt: int) -> float:
        base = self.retry_base_delay * (2.0 ** (attempt - 1))
        jitter = 1.0 + self.retry_jitter * float(self._rng.uniform(-1.0, 1.0))
        return max(0.0, base * jitter)

    # ------------------------------------------------------------------
    # serial mode
    # ------------------------------------------------------------------
    def _run_serial(self, states, results) -> None:
        for state in states:
            if state.deferred:
                hit = self._try_cache(state)
                if hit is not None:
                    results[state.index] = hit
                    continue
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
                if result.ok or not self._should_retry(state, result):
                    self._finish(state, result, results)
                    break
                self.telemetry.incr("jobs.retries")
                self._sleep(self._backoff(state.attempts))

    # ------------------------------------------------------------------
    # pooled mode
    # ------------------------------------------------------------------
    def _run_pooled(self, states, results) -> None:
        pool = ProcessPoolExecutor(max_workers=self.workers)
        ready = deque(states)
        waiting: List[_JobState] = []  # backoff not elapsed yet
        inflight = {}  # future -> (state, deadline, exec_start)
        abandoned = False
        try:
            while ready or waiting or inflight:
                now = time.monotonic()
                still_waiting = []
                for state in waiting:
                    if state.ready_at <= now:
                        ready.append(state)
                    else:
                        still_waiting.append(state)
                waiting = still_waiting

                while ready and len(inflight) < self.workers:
                    state = ready.popleft()
                    if state.attempts == 0 and state.deferred:
                        # A completed twin may have cached this key.
                        hit = self._try_cache(state)
                        if hit is not None:
                            results[state.index] = hit
                            continue
                    state.attempts += 1
                    exec_start = time.monotonic()
                    future = pool.submit(self._execute_fn, state.job)
                    deadline = (
                        exec_start + self.timeout
                        if self.timeout is not None
                        else None
                    )
                    inflight[future] = (state, deadline, exec_start)

                if not inflight:
                    if waiting:
                        next_ready = min(s.ready_at for s in waiting)
                        self._sleep(max(0.0, next_ready - time.monotonic()))
                    continue

                wait_for = 0.1
                deadlines = [
                    d for _, d, _ in inflight.values() if d is not None
                ]
                if waiting:
                    deadlines.append(min(s.ready_at for s in waiting))
                if deadlines:
                    wait_for = max(0.0, min(deadlines) - time.monotonic())
                done, _ = wait(
                    set(inflight),
                    timeout=min(wait_for, 0.5),
                    return_when=FIRST_COMPLETED,
                )

                now = time.monotonic()
                for future in done:
                    state, _, exec_start = inflight.pop(future)
                    self.telemetry.observe(
                        "execute_ms", (now - exec_start) * 1e3
                    )
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        result = JobResult(
                            job=state.job,
                            key=state.key,
                            ok=False,
                            error="worker pool broke during execution",
                            error_kind="pool",
                        )
                        pool = ProcessPoolExecutor(max_workers=self.workers)
                    except Exception as exc:  # noqa: BLE001
                        result = JobResult(
                            job=state.job,
                            key=state.key,
                            ok=False,
                            error=f"{type(exc).__name__}: {exc}",
                            error_kind="exception",
                        )
                    self._settle(state, result, results, waiting)

                # Expired deadlines: abandon the future, fail/retry the job.
                for future, (state, deadline, _) in list(inflight.items()):
                    if deadline is not None and now >= deadline:
                        inflight.pop(future)
                        future.cancel()
                        abandoned = True
                        self.telemetry.incr("jobs.timeouts")
                        result = JobResult(
                            job=state.job,
                            key=state.key,
                            ok=False,
                            error=(
                                f"timed out after {self.timeout:.3f}s "
                                f"(attempt {state.attempts})"
                            ),
                            error_kind="timeout",
                        )
                        self._settle(state, result, results, waiting)
        finally:
            # Abandoned workers may still be running; don't wait on them.
            pool.shutdown(wait=not abandoned, cancel_futures=True)

    def _settle(self, state, result, results, waiting) -> None:
        if result.ok or not self._should_retry(state, result):
            self._finish(state, result, results)
            return
        self.telemetry.incr("jobs.retries")
        state.ready_at = time.monotonic() + self._backoff(state.attempts)
        waiting.append(state)


def run_batch(jobs: Sequence[Job], **engine_kwargs) -> BatchReport:
    """One-shot convenience: ``BatchEngine(**engine_kwargs).run(jobs)``
    for jobs of any kind."""
    return BatchEngine(**engine_kwargs).run(jobs)
