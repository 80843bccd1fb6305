"""Optimization jobs: the full variational loop as a service workload.

Compile jobs ship circuits, eval jobs ship ARG numbers — but a real
QAOA deployment runs the *classical loop*: pick angles, score them on
the quantum side, iterate.  An :class:`OptimizeJob` makes that loop a
content-addressed :class:`~repro.service.job.Job` kind: a problem (any
:class:`~repro.qaoa.frontend.Problem` — MaxCut, Ising, or QUBO) crossed
with the optimizer knobs (levels, COBYLA / Nelder-Mead, iteration bound,
restart-population size, seed), run by
:func:`~repro.service.job.execute_job` through
:func:`repro.qaoa.optimizer.optimize_problem` — whose restart population
is scored in one pass of the batched angle-grid fast path
(:func:`repro.sim.fastpath.expectation_batch`) — and flowed through the
same :class:`~repro.service.engine.BatchEngine` for caching, retries and
telemetry (``optimize_ms.*`` per-stage histograms next to the compiler's
``pass_ms.*`` and the evaluator's ``eval_ms.*``).

The cache key is :data:`OPTIMIZE_HASH_VERSION` over the canonical
problem form (:func:`~repro.qaoa.frontend.problem_canonical` — stable
under term reordering) × every optimizer knob; results use the
``compiled: null`` envelope, so format-version invalidation and the
sharded cache tiers apply unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from ..qaoa.frontend import Problem, problem_canonical, problem_from_spec
from .job import Job, _load_jsonl, execute_job

# Not called here: perfbench/bench_trace.py patches this module attribute.
from .job import encode_envelope  # noqa: F401

__all__ = [
    "OPTIMIZE_HASH_VERSION",
    "OptimizeJob",
    "execute_optimize_job",
    "load_optimize_jobs_jsonl",
    "optimize_job_from_dict",
]

#: Bumped whenever the optimize canonical form changes, or the same job
#: would return a different answer (2: the grouped batched mixer).
OPTIMIZE_HASH_VERSION = 2

execute_optimize_job = execute_job  # perfbench passes this name as execute_fn


@dataclasses.dataclass
class OptimizeJob(Job):
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
        # Rejected where the job is built, so the bad JSONL line is named.
        if not isinstance(self.problem, Problem):
            raise ValueError(
                f"problem must be a repro.qaoa.frontend.Problem, got "
                f"{type(self.problem).__name__}"
            )

    # Proxies so JobResult.to_record works on any job kind without
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

    def _run(self):
        from ..qaoa.optimizer import optimize_problem
        from ..sim.fastpath import cost_diagonal

        diagonal = cost_diagonal(self.problem)
        result = optimize_problem(
            self.problem,
            p=self.p,
            optimizer=self.optimizer,
            maxiter=self.maxiter,
            restarts=self.restarts,
            seed=self.opt_seed,
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
            "p": self.p,
            "maxiter": self.maxiter,
            "restarts": self.restarts,
            "num_qubits": self.num_qubits,
            "optimize_trace": [
                {"name": name, "seconds": seconds}
                for name, seconds in result.timings.items()
            ],
            "problem_fingerprint": self.problem.content_fingerprint(),
            "diagonal_fingerprint": diagonal.fingerprint,
        }
        return None, metrics, []


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
    return _load_jsonl(lines, optimize_job_from_dict)
