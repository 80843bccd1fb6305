"""Evaluation jobs: the ARG workload served by the batch engine.

The slowest stage of every figure sweep is *evaluation* — simulating each
compiled circuit noiselessly and noisily for ``r0``/``rh``/ARG.  An
:class:`EvalJob` makes that a service workload: a
:class:`~repro.service.job.Job` kind that wraps a
:class:`~repro.service.job.CompileJob` (what to compile) with the
evaluation knobs (shots, trajectories, noise scaling, T2, mode, seed).
:func:`~repro.service.job.execute_job` runs it — the compile job's own
compile step, then :func:`repro.sim.fastpath.evaluate_fast` — and it
flows through the same :class:`~repro.service.engine.BatchEngine` as
every other kind: content-addressed caching (keyed on the compile content
× noise model × shots), retries, and telemetry (``eval_ms.*`` per-stage
histograms next to the compiler's ``pass_ms.*``).

Results use the envelope format with ``compiled: null`` — evaluations
carry numbers, not circuits — so the cache tiers, format-version
invalidation, and corrupt-entry quarantine apply unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from .job import CompileJob, Job, execute_job

# Not called here: perfbench/bench_trace.py patches these module attributes.
from .job import encode_envelope, resolve_job_environment  # noqa: F401

__all__ = [
    "EVAL_HASH_VERSION",
    "EvalJob",
    "execute_eval_job",
]

#: Bumped whenever the evaluation canonical form changes.
EVAL_HASH_VERSION = 1

execute_eval_job = execute_job  # perfbench passes this name as execute_fn


@dataclasses.dataclass
class EvalJob(Job):
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

    # Proxies so JobResult.to_record works on any job kind without
    # caring which one it holds.
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

    def _run(self):
        from ..compiler.metrics import success_probability
        from ..sim.fastpath import cost_diagonal, evaluate_fast
        from ..sim.noise import NoiseModel

        compiled, calibration = self.compile_job._compile()
        if calibration is not None:
            noise = NoiseModel.from_calibration(calibration, t2_ns=self.t2_ns)
        else:
            noise = NoiseModel.ideal(compiled.coupling.num_qubits)
            if self.t2_ns is not None:
                noise = dataclasses.replace(noise, t2_ns=float(self.t2_ns))
        if self.noise_scale != 1.0:
            noise = noise.scaled(self.noise_scale)

        outcome = evaluate_fast(
            compiled,
            noise=noise,
            shots=self.shots,
            trajectories=self.trajectories,
            rng=np.random.default_rng(self.eval_seed),
            mode=self.mode,
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
            "noise_scale": self.noise_scale,
            "t2_ns": self.t2_ns,
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
            "diagonal_fingerprint": cost_diagonal(self.program).fingerprint,
        }
        return None, metrics, list(compiled.warnings)
