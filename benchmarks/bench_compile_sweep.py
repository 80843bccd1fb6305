"""Compile-sweep bench: per-pass cost of cold method sweeps, and one output hash.

The paper compiles one program with every method and packing limit and keeps
the best (Sections V-H and VI).  This bench compiles ``N`` such sweeps cold,
through :func:`repro.service.execute_job` with no cache: each sweep is one
random MaxCut program (Erdos-Renyi or regular, on ibmq_20_tokyo or
ibmq_16_melbourne, in turn, drawn by
:func:`repro.experiments.harness.make_problem`) compiled by 12 methods --
naive, qaim, swap_network, and ip/ic/vic at packing limits none, 4 and 8,
vic with the ``"auto"`` calibration -- with one compile seed per sweep, as
the service benchmark's cold workload sends them.

It prints

* the mean milliseconds per pass for each method, read from every result's
  ``pass_trace``;
* the hit ratio of the shared QAIM placement registry (``"placements"`` in
  :func:`repro.store.store_stats`; ``n/a`` where the registry does not
  exist);
* one SHA-256 over every result envelope in job order, with each
  ``compile_time`` and each pass's ``seconds`` blanked.  The hash is a pure
  function of the compiled outputs, so two checkouts that compile the same
  sweeps gate-for-gate print the same hash.

To compare two checkouts, run this file from one of them against each
checkout's sources, with the same arguments::

    PYTHONPATH=<checkout>/src python benchmarks/bench_compile_sweep.py --sweeps 180 --seed 1

Quick mode (``--quick``, 4 sweeps) is the CI smoke step.  Every job must
succeed; the timings carry no gate.
"""

import argparse
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

from repro.experiments.figures.common import FigureResult
from repro.experiments.harness import make_problem
from repro.experiments.reporting import format_table
from repro.service import CompileJob, execute_job
from repro.store import store_stats

TOKYO = "ibmq_20_tokyo"
MELBOURNE = "ibmq_16_melbourne"
#: Program kinds, served round-robin: (family, nodes, parameter, device).
KINDS = (
    ("er", 16, 0.4, TOKYO),
    ("regular", 16, 3, TOKYO),
    ("er", 12, 0.5, MELBOURNE),
    ("regular", 12, 4, MELBOURNE),
)
METHODS = [("naive", None), ("qaim", None), ("swap_network", None)] + [
    (m, limit) for m in ("ip", "ic", "vic") for limit in (None, 4, 8)
]
SWEEPS = 180  # 2160 jobs
QUICK_SWEEPS = 4
#: Envelope keys that hold wall-clock time, blanked before hashing.
TIMING_KEYS = ("compile_time", "seconds")


def sweep_jobs(seed, index):
    """The 12 jobs of sweep ``index``: one program, every method and
    packing limit, one compile seed."""
    rng = np.random.default_rng([seed, index])
    family, n, param, device = KINDS[index % len(KINDS)]
    problem = make_problem(family, n, param, rng)
    program = problem.to_program(
        [float(rng.uniform(0.2, 1.2))], [float(rng.uniform(0.1, 0.7))]
    )
    return [
        CompileJob(
            program=program,
            device=device,
            method=method,
            packing_limit=limit,
            seed=int(seed % 100_000) * 10_000 + index,
            calibration="auto" if method == "vic" else None,
            job_id=method + (f"/{limit}" if limit else ""),
        )
        for method, limit in METHODS
    ]


def _blank_timing(value):
    if isinstance(value, dict):
        return {
            k: (None if k in TIMING_KEYS else _blank_timing(v)) for k, v in value.items()
        }
    if isinstance(value, list):
        return [_blank_timing(v) for v in value]
    return value


def envelope_digest_line(payload):
    """The timing-free canonical form of one result envelope."""
    return json.dumps(_blank_timing(json.loads(payload)), sort_keys=True, separators=(",", ":"))


def _placement_counts():
    registry = store_stats()["registries"].get("placements")
    if registry is None:
        return None
    return registry["hits"], registry["misses"]


def run_bench(sweeps=SWEEPS, seed=1):
    before = _placement_counts()
    digest = hashlib.sha256()
    pass_s = defaultdict(float)  # (method label, pass name) -> seconds
    method_jobs = defaultdict(int)
    jobs = 0
    start = time.perf_counter()
    for index in range(sweeps):
        for job in sweep_jobs(seed, index):
            result = execute_job(job)
            label = job.job_id
            assert result.ok, f"sweep {index} {label}: {result.error}"
            method_jobs[label] += 1
            for record in result.metrics["pass_trace"]:
                pass_s[(label, record["name"])] += record["seconds"]
            digest.update(envelope_digest_line(result.payload).encode("utf-8"))
            digest.update(b"\n")
            jobs += 1
    wall_s = time.perf_counter() - start
    after = _placement_counts()

    rows = [
        [label, name, seconds * 1e3 / method_jobs[label]]
        for (label, name), seconds in pass_s.items()
    ]
    headline = {
        "sweeps": float(sweeps),
        "jobs": float(jobs),
        "wall_ms_per_job": wall_s * 1e3 / jobs,
    }
    hit_ratio = "n/a"
    if before is not None and after is not None:
        hits, misses = after[0] - before[0], after[1] - before[1]
        headline["placement_hits"] = float(hits)
        headline["placement_misses"] = float(misses)
        if hits + misses:
            headline["placement_hit_ratio"] = hits / (hits + misses)
            hit_ratio = f"{hits / (hits + misses):.3f} ({hits} hits, {misses} misses)"
    result = FigureResult(
        figure="compile_sweep",
        description=(
            f"Cold compile sweeps: {sweeps} programs x {len(METHODS)} methods "
            f"(seed {seed}), mean ms per pass per method"
        ),
        table=format_table(["method", "pass", "ms / job"], rows, float_fmt="{:.4f}"),
        headline=headline,
    )
    return result, digest.hexdigest(), hit_ratio


def test_compile_sweep(benchmark, record_figure):
    result, _, _ = benchmark.pedantic(
        run_bench, kwargs={"sweeps": QUICK_SWEEPS}, rounds=1, iterations=1
    )
    record_figure(result)
    assert result.headline["jobs"] == QUICK_SWEEPS * len(METHODS)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sweeps", type=int, default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    sweeps = args.sweeps or (QUICK_SWEEPS if args.quick else SWEEPS)
    result, digest, hit_ratio = run_bench(sweeps=sweeps, seed=args.seed)
    print(result.render())
    h = result.headline
    print(f"jobs {h['jobs']:.0f}, {h['wall_ms_per_job']:.3f} ms per job")
    print(f"placement hit ratio {hit_ratio}")
    print(f"output sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
