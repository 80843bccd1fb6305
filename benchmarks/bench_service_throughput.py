"""Batch-service throughput bench: cold vs warm cache.

The service layer exists so the paper's Section V-H / Section VI guidance —
recompile with many packing limits and methods, keep per-workload winners —
stays cheap at production scale.  This bench drives a 200-job grid
(ER instances × {IP, IC, VIC} × packing limits) through the batch engine
twice and reports jobs/sec:

* serial, cold cache — the baseline;
* serial, warm cache — immediate re-run, must be 100% cache hits and
  more than twice as fast.
"""

import numpy as np

from repro.compiler.serialize import FORMAT_VERSION
from repro.experiments.figures.common import FigureResult
from repro.experiments.harness import make_problem
from repro.experiments.reporting import format_table
from repro.service import BatchEngine, CompileJob, ResultCache

GRID_JOBS = 200


def _build_grid(num_jobs=GRID_JOBS):
    """ER instances x {ip, ic, vic} x packing limits, trimmed to size."""
    rng = np.random.default_rng(417)
    jobs = []
    instance = 0
    while len(jobs) < num_jobs:
        problem = make_problem("er", 16, 0.4, rng)
        program = problem.to_program([0.7], [0.35])
        for method in ("ip", "ic", "vic"):
            for limit in (None, 4, 8, 12):
                jobs.append(
                    CompileJob(
                        program=program,
                        device="ibmq_20_tokyo",
                        method=method,
                        packing_limit=limit,
                        seed=instance,
                        calibration="auto" if method == "vic" else None,
                        job_id=f"er16-{instance}-{method}-{limit}",
                    )
                )
        instance += 1
    return jobs[:num_jobs]


def _measure(jobs, cache):
    report = BatchEngine(cache=cache).run(jobs)
    assert not report.failed, [r.error for r in report.failed]
    summary = report.summary()
    return summary


def _run():
    jobs = _build_grid()
    cache = ResultCache(expected_version=FORMAT_VERSION)
    cold = _measure(jobs, cache=cache)
    warm = _measure(jobs, cache=cache)

    base = cold["jobs_per_s"]
    rows = []
    for label, summary in (("serial / cold", cold), ("serial / warm", warm)):
        rows.append(
            [
                label,
                summary["jobs_per_s"],
                summary["jobs_per_s"] / base,
                summary["cached"],
                summary["latency_p50_ms"],
                summary["latency_p95_ms"],
            ]
        )
    table = format_table(
        ["mode", "jobs/s", "vs serial cold", "hits", "p50 ms", "p95 ms"],
        rows,
    )
    headline = {
        "jobs": float(len(jobs)),
        "serial_cold_jobs_per_s": base,
        "warm_speedup": warm["jobs_per_s"] / base,
        "warm_hit_fraction": warm["cached"] / len(jobs),
    }
    return FigureResult(
        figure="service_throughput",
        description=(
            f"Batch service throughput on a {len(jobs)}-job grid "
            "(16-node ER x {IP, IC, VIC} x packing limits, tokyo)"
        ),
        table=table,
        headline=headline,
    )


def test_service_throughput(benchmark, record_figure):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    record_figure(result)
    h = result.headline
    # An immediate re-run must be pure cache hits and much faster.
    assert h["warm_hit_fraction"] == 1.0
    assert h["warm_speedup"] > 2.0
