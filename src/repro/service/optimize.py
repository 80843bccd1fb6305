"""Optimization jobs: the full variational loop as a service workload.

Compile jobs ship circuits, eval jobs ship ARG numbers — but a real
QAOA deployment runs the *classical loop*: pick angles, score them on
the quantum side, iterate.  An :class:`OptimizeJob` makes that loop a
first-class, content-addressed workload: a problem (any
:class:`~repro.qaoa.frontend.Problem` — MaxCut, Ising, or QUBO) crossed
with the optimizer knobs (levels, COBYLA / Nelder-Mead, iteration bound,
restart-population size, seed), executed through
:func:`repro.qaoa.optimizer.optimize_problem` — whose restart population
is scored in one pass of the batched angle-grid fast path
(:func:`repro.sim.fastpath.expectation_batch`) — and flowed through the
same :class:`~repro.service.engine.BatchEngine` for caching, retries and
telemetry (``optimize_ms.*`` per-stage histograms next to the compiler's
``pass_ms.*`` and the evaluator's ``eval_ms.*``).

The cache key is :data:`OPTIMIZE_HASH_VERSION` over the canonical
problem form (:func:`~repro.qaoa.frontend.problem_canonical` — stable
under term reordering) × every optimizer knob; results reuse the
``compiled: null`` envelope, so format-version invalidation and the
sharded cache tiers apply unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import List, Optional, Sequence

from ..qaoa.frontend import Problem, problem_canonical, problem_from_spec
from .engine import BatchEngine, BatchReport
from .job import JobResult, encode_envelope

__all__ = [
    "OPTIMIZE_HASH_VERSION",
    "OptimizeJob",
    "execute_optimize_job",
    "load_optimize_jobs_jsonl",
    "optimize_job_from_dict",
    "run_optimize_batch",
]

#: Bumped whenever the optimize canonical form changes.
OPTIMIZE_HASH_VERSION = 1


@dataclasses.dataclass
class OptimizeJob:
    """One bounded variational-search request.

    Attributes:
        problem: Any :class:`~repro.qaoa.frontend.Problem`.
        p: Number of QAOA levels to optimise over.
        optimizer: Key of
            :data:`repro.qaoa.optimizer.OPTIMIZER_METHODS`
            (``"cobyla"`` or ``"nelder-mead"``).
        maxiter: Iteration bound for the local search.
        restarts: Random-population size scored through the batched fast
            path before the single local search starts.
        opt_seed: Population RNG seed.
        job_id: Free-form correlation label; excluded from the content
            hash.
    """

    problem: object
    p: int = 1
    optimizer: str = "cobyla"
    maxiter: int = 200
    restarts: int = 8
    opt_seed: int = 0
    job_id: Optional[str] = None

    def __post_init__(self) -> None:
        # Rejected where the job is built: a problem that cannot hash would
        # otherwise raise out of BatchEngine.run and lose the whole batch.
        if not isinstance(self.problem, Problem):
            raise ValueError(
                f"problem must be a repro.qaoa.frontend.Problem, got "
                f"{type(self.problem).__name__}"
            )

    # Proxies so JobResult.to_record works on any job flavour without
    # caring which one it holds.  Optimization runs on
    # the exact logical fast path — there is no physical device.
    @property
    def device(self) -> str:
        return "statevector"

    @property
    def method(self) -> str:
        return self.optimizer

    @property
    def packing_limit(self) -> Optional[int]:
        return None

    @property
    def seed(self) -> int:
        return self.opt_seed

    @property
    def num_qubits(self) -> int:
        return int(self.problem.num_qubits)

    def canonical(self) -> dict:
        """The hash pre-image: the canonical problem form plus every
        optimizer knob that changes the answer."""
        return {
            "optimize_hash_version": OPTIMIZE_HASH_VERSION,
            "problem": problem_canonical(self.problem),
            "p": int(self.p),
            "optimizer": str(self.optimizer),
            "maxiter": int(self.maxiter),
            "restarts": int(self.restarts),
            "seed": int(self.opt_seed),
        }

    def content_hash(self) -> str:
        """Hex SHA-256 of the canonical form (the cache key)."""
        text = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def execute_optimize_job(job: OptimizeJob) -> JobResult:
    """Run one bounded variational loop synchronously; never raises for
    job-level faults (mirrors :func:`~repro.service.job.execute_job`)."""
    from ..qaoa.optimizer import optimize_problem
    from ..sim.fastpath import cost_diagonal
    from ..store import flatten_store_events, store_stats

    key = ""
    start = time.perf_counter()
    store_before = store_stats()
    try:
        key = job.content_hash()
        diagonal = cost_diagonal(job.problem)
        result = optimize_problem(
            job.problem,
            p=job.p,
            optimizer=job.optimizer,
            maxiter=job.maxiter,
            restarts=job.restarts,
            seed=job.opt_seed,
            diagonal=diagonal,
        )
        metrics = {
            "gammas": result.gammas,
            "betas": result.betas,
            "expectation": result.expectation,
            "optimum": result.optimum,
            "approximation_ratio": result.approximation_ratio,
            "evaluations": result.evaluations,
            "optimizer": result.optimizer,
            "p": job.p,
            "maxiter": job.maxiter,
            "restarts": job.restarts,
            "num_qubits": job.num_qubits,
            "optimize_trace": [
                {"name": name, "seconds": seconds}
                for name, seconds in result.timings.items()
            ],
            "problem_fingerprint": job.problem.content_fingerprint(),
            "diagonal_fingerprint": diagonal.fingerprint,
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
    )


def run_optimize_batch(
    jobs: Sequence[OptimizeJob], **engine_kwargs
) -> BatchReport:
    """One-shot convenience: a :class:`BatchEngine` wired to
    :func:`execute_optimize_job` (cache, retries, telemetry all apply)."""
    return BatchEngine(
        execute_fn=execute_optimize_job, **engine_kwargs
    ).run(jobs)


# ----------------------------------------------------------------------
# JSONL job files
# ----------------------------------------------------------------------
def optimize_job_from_dict(spec: dict) -> OptimizeJob:
    """Build an optimize job from one JSONL line.

    The problem comes from any unified-frontend form (``"qubo"``,
    ``"ising"``, ``"maxcut"`` — see
    :func:`repro.qaoa.frontend.problem_from_spec`) or a generated
    ``"problem"`` family; the knobs from an optional ``"optimize"``
    object::

        {"id": "mis-ring5",
         "qubo": {"matrix": [[1, -1], [-1, 1]]},
         "optimize": {"p": 1, "optimizer": "cobyla", "maxiter": 150,
                      "restarts": 8, "seed": 7}}
    """
    if "problem" in spec:
        import numpy as np

        from ..experiments.harness import make_problem

        prob = spec["problem"]
        problem = make_problem(
            prob["family"],
            int(prob["nodes"]),
            float(prob["param"]),
            np.random.default_rng(int(prob.get("seed", 0))),
        )
    else:
        problem = problem_from_spec(spec)
    knobs = spec.get("optimize", {})
    if not isinstance(knobs, dict):
        raise ValueError(
            f"'optimize' must be an object, got {type(knobs).__name__}"
        )
    return OptimizeJob(
        problem=problem,
        p=int(knobs.get("p", 1)),
        optimizer=str(knobs.get("optimizer", "cobyla")),
        maxiter=int(knobs.get("maxiter", 200)),
        restarts=int(knobs.get("restarts", 8)),
        opt_seed=int(knobs.get("seed", 0)),
        job_id=spec.get("id"),
    )


def load_optimize_jobs_jsonl(lines: Sequence[str]) -> List[OptimizeJob]:
    """Parse a JSONL optimize-job file (blank lines and ``#`` comments
    skipped)."""
    jobs = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            jobs.append(optimize_job_from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"bad job on line {lineno}: {exc}") from exc
    return jobs
