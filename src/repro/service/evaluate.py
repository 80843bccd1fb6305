"""Evaluation jobs: the ARG workload served by the batch engine.

PR 1–4 built a serving layer that only compiles.  The slowest stage of
every figure sweep, though, is *evaluation* — simulating each compiled
circuit noiselessly and noisily for ``r0``/``rh``/ARG.  An
:class:`EvalJob` makes that a first-class service workload: it wraps a
:class:`~repro.service.job.CompileJob` (what to compile) with the
evaluation knobs (shots, trajectories, noise scaling, T2, mode, seed),
executes through :func:`repro.sim.fastpath.evaluate_fast`, and flows
through the same :class:`~repro.service.engine.BatchEngine` —
content-addressed caching (keyed on the compile content × noise model ×
shots), retries, and telemetry (``eval_ms.*`` per-stage histograms next
to the compiler's ``pass_ms.*``).

Results reuse the :func:`~repro.service.job.encode_envelope` format with
``compiled: null`` — evaluations carry numbers, not circuits — so the
existing cache tiers, format-version invalidation, and corrupt-entry
quarantine apply unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Optional, Sequence

import numpy as np

from .engine import BatchEngine, BatchReport
from .job import CompileJob, JobResult, _job_environment, encode_envelope
# Not called here: perfbench/bench_trace.py patches this module attribute.
from .job import resolve_job_environment  # noqa: F401

__all__ = [
    "EVAL_HASH_VERSION",
    "EvalJob",
    "execute_eval_job",
    "run_eval_batch",
]

#: Bumped whenever the evaluation canonical form changes.
EVAL_HASH_VERSION = 1


@dataclasses.dataclass
class EvalJob:
    """One ARG-evaluation request.

    Attributes:
        compile_job: What to compile (program, device, method, seed,
            calibration — see :class:`~repro.service.job.CompileJob`).
            The compile seed also seeds any ``"auto"``/random calibration,
            exactly as in a plain compile job.
        shots: Samples per side in ``sampled`` mode.
        trajectories: Noise realisations averaged into ``rh``.
        noise_scale: Multiplier on every error probability (noise
            sensitivity sweeps; 1.0 = calibrated rates).
        t2_ns: Optional T2 dephasing time for the noise model.
        mode: ``"sampled"`` (paper procedure) or ``"exact"``
            (expectation values).
        eval_seed: Seed for sampling and noise draws.
        job_id: Free-form correlation label; excluded from the content
            hash.
    """

    compile_job: CompileJob
    shots: int = 4096
    trajectories: int = 32
    noise_scale: float = 1.0
    t2_ns: Optional[float] = None
    mode: str = "sampled"
    eval_seed: int = 0
    job_id: Optional[str] = None

    # Proxies so JobResult.to_record / _device_label work on either job
    # flavour without caring which one they hold.
    @property
    def device(self):
        return self.compile_job.device

    @property
    def method(self) -> str:
        return self.compile_job.method

    @property
    def packing_limit(self) -> Optional[int]:
        return self.compile_job.packing_limit

    @property
    def seed(self) -> int:
        return self.compile_job.seed

    @property
    def program(self):
        return self.compile_job.program

    def canonical(self) -> dict:
        """The hash pre-image: the wrapped compile job's canonical form
        plus every evaluation knob that changes the numbers."""
        return {
            "eval_hash_version": EVAL_HASH_VERSION,
            "compile": self.compile_job.canonical(),
            "shots": self.shots,
            "trajectories": self.trajectories,
            "noise_scale": repr(float(self.noise_scale)),
            "t2_ns": None if self.t2_ns is None else repr(float(self.t2_ns)),
            "mode": self.mode,
            "eval_seed": self.eval_seed,
        }

    def content_hash(self) -> str:
        """Hex SHA-256 of the canonical form (the cache key)."""
        text = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def execute_eval_job(job: EvalJob) -> JobResult:
    """Compile and evaluate one job synchronously; never raises for
    job-level faults (mirrors :func:`~repro.service.job.execute_job`)."""
    from ..compiler.flow import compile_with_method
    from ..compiler.metrics import success_probability
    from ..sim.fastpath import cost_diagonal, evaluate_fast
    from ..sim.noise import NoiseModel
    from ..store import flatten_store_events, store_stats

    key = ""
    start = time.perf_counter()
    store_before = store_stats()
    try:
        key = job.content_hash()
        cjob = job.compile_job
        calibration, warnings, target = _job_environment(cjob)
        compiled = compile_with_method(
            cjob.program,
            target,
            cjob.method,
            packing_limit=cjob.packing_limit,
            rng=np.random.default_rng(cjob.seed),
            router=cjob.router,
        )
        compiled.warnings = list(warnings) + compiled.warnings

        if calibration is not None:
            noise = NoiseModel.from_calibration(calibration, t2_ns=job.t2_ns)
        else:
            noise = NoiseModel.ideal(target.num_qubits)
            if job.t2_ns is not None:
                noise = dataclasses.replace(noise, t2_ns=float(job.t2_ns))
        if job.noise_scale != 1.0:
            noise = noise.scaled(job.noise_scale)

        outcome = evaluate_fast(
            compiled,
            noise=noise,
            shots=job.shots,
            trajectories=job.trajectories,
            rng=np.random.default_rng(job.eval_seed),
            mode=job.mode,
        )
        metrics = {
            "r0": outcome.r0,
            "rh": outcome.rh,
            "arg": outcome.arg,
            "shots": outcome.shots,
            "trajectories": outcome.trajectories,
            "mode": outcome.mode,
            "fastpath": outcome.fastpath,
            "fastpath_reason": outcome.reason,
            "noise_scale": job.noise_scale,
            "t2_ns": job.t2_ns,
            "swap_count": compiled.swap_count,
            "compile_time": compiled.compile_time,
            "success_probability": (
                success_probability(compiled.circuit, calibration)
                if calibration is not None
                else None
            ),
            "eval_trace": [
                {"name": name, "seconds": seconds}
                for name, seconds in outcome.timings.items()
            ],
            "pass_trace": [r.to_dict() for r in compiled.pass_trace],
            "warnings": list(compiled.warnings),
            "target_fingerprint": compiled.target_fingerprint,
            "diagonal_fingerprint": cost_diagonal(cjob.program).fingerprint,
        }
        events = flatten_store_events(store_before, store_stats())
        if events:
            metrics["store_events"] = events
        payload = encode_envelope("null", metrics)
    except (KeyError, ValueError) as exc:
        return JobResult(
            job=job,
            key=key,
            ok=False,
            attempts=1,
            latency=time.perf_counter() - start,
            error=str(exc),
            error_kind="invalid",
        )
    except Exception as exc:  # noqa: BLE001 — jobs degrade, batches survive
        return JobResult(
            job=job,
            key=key,
            ok=False,
            attempts=1,
            latency=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
            error_kind="exception",
        )
    return JobResult(
        job=job,
        key=key,
        ok=True,
        attempts=1,
        latency=time.perf_counter() - start,
        metrics=metrics,
        payload=payload,
        warnings=list(compiled.warnings),
    )


def run_eval_batch(jobs: Sequence[EvalJob], **engine_kwargs) -> BatchReport:
    """One-shot convenience: a :class:`BatchEngine` wired to
    :func:`execute_eval_job` (cache, retries, telemetry all apply)."""
    return BatchEngine(execute_fn=execute_eval_job, **engine_kwargs).run(jobs)
