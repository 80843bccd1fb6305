"""Compilation service layer: batch engine, result cache, telemetry.

The compiler packages under :mod:`repro.compiler` answer "compile this one
program"; this package is the serving layer that makes that cheap at scale
(the ROADMAP's production-traffic north star, and the paper's Section V-H
advice to recompile with many configurations and keep per-workload
winners):

* :mod:`repro.service.job` — the :class:`Job` model: its content hash,
  the one executor :func:`execute_job`, and the :class:`CompileJob` kind
  (canonical hash stable under commuting-term reorderings);
* :mod:`repro.service.evaluate` — the :class:`EvalJob` kind, the
  ARG-evaluation workload (compile + fast-path ``r0``/``rh``/ARG);
* :mod:`repro.service.optimize` — the :class:`OptimizeJob` kind, the
  variational workload (bounded COBYLA / Nelder-Mead over any
  unified-frontend problem, restart population scored through the
  batched fast path);
* :mod:`repro.service.cache` — content-addressed LRU result cache with
  entry/byte budgets and an optional disk tier;
* :mod:`repro.service.engine` — process-pool batch execution of any mix
  of kinds with per-job timeout, jittered retry, and structured per-job
  failure;
* :mod:`repro.service.telemetry` — counters and p50/p95/p99 latency
  histograms for observing all of the above.
"""

from .cache import CacheStats, ResultCache
from .engine import BatchEngine, BatchReport, run_batch
from .evaluate import EVAL_HASH_VERSION, EvalJob, execute_eval_job
from .job import (
    HASH_VERSION,
    CompileJob,
    Job,
    JobResult,
    decode_envelope,
    encode_envelope,
    execute_job,
    job_from_dict,
    job_to_dict,
    load_jobs_jsonl,
    resolve_job_environment,
)
from .optimize import (
    OPTIMIZE_HASH_VERSION,
    OptimizeJob,
    execute_optimize_job,
    load_optimize_jobs_jsonl,
    optimize_job_from_dict,
)
from .telemetry import Histogram, Telemetry, percentile

__all__ = [
    "HASH_VERSION",
    "EVAL_HASH_VERSION",
    "OPTIMIZE_HASH_VERSION",
    "Job",
    "CompileJob",
    "EvalJob",
    "OptimizeJob",
    "JobResult",
    "execute_eval_job",
    "execute_optimize_job",
    "optimize_job_from_dict",
    "load_optimize_jobs_jsonl",
    "execute_job",
    "resolve_job_environment",
    "job_from_dict",
    "job_to_dict",
    "load_jobs_jsonl",
    "encode_envelope",
    "decode_envelope",
    "ResultCache",
    "CacheStats",
    "BatchEngine",
    "BatchReport",
    "run_batch",
    "Histogram",
    "Telemetry",
    "percentile",
]
