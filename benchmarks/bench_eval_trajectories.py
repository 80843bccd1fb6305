"""Eval-trajectory bench: per-stage cost of seeded ARG evaluations, and one output hash.

ARG (Section V-A) needs every compiled circuit sampled noiselessly and under
noise; the noisy side averages Monte-Carlo trajectories.  This bench runs
seeded :class:`repro.service.EvalJob` evaluations through
:func:`repro.service.execute_job` with no cache, in two shapes:

* jobs shaped like the service benchmark's variational requests: a random
  10-node 3-regular MaxCut program on ibmq_16_melbourne (its paper
  calibration), compiled by qaim, ip, ic and vic, each evaluated with 4096
  shots and 8 trajectories in sampled mode;
* a few wider ones: a 16-node 3-regular program compiled by vic on
  ibmq_20_tokyo with a calibration drawn from the compile seed, evaluated
  in exact mode with T2 dephasing and 32 trajectories;
* parity-encoded ones: an 8-node ring with 4 random chords (12 edges, so
  its 12 parity qubits fit ibmq_16_melbourne) compiled by parity on
  melbourne with its paper calibration, evaluated once in sampled mode
  (4096 shots, 8 trajectories) and once in exact mode with T2 dephasing
  (8 trajectories).  Their noisy side replays in the 12-slot register,
  as the direct jobs' does in the logical one.

It prints

* the mean milliseconds per evaluation of each ``eval_trace`` stage
  (``diagonal``, ``ideal``, ``noisy``) for each shape;
* one SHA-256 over every result's key, ``r0``, ``rh`` and ``arg`` (floats
  as hex), in job order.  The numbers are a pure function of the jobs, so
  two checkouts that evaluate them bit for bit print the same hash.

To compare two checkouts, run this file from one of them against each
checkout's sources, with the same arguments::

    PYTHONPATH=<checkout>/src python benchmarks/bench_eval_trajectories.py --seed 1

A run takes 60 variational-shaped rounds, 4 wide jobs and 2 parity jobs;
quick mode (``--quick``: 3 rounds, 1 wide job, the sampled parity job) is
the CI smoke step, so it evaluates both encodings.  Every job must
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
from repro.qaoa import MaxCutProblem
from repro.service import CompileJob, EvalJob, execute_job

MELBOURNE = "ibmq_16_melbourne"
TOKYO = "ibmq_20_tokyo"
METHODS = ("qaim", "ip", "ic", "vic")
ROUNDS = 60  # 240 variational-shaped evaluations
WIDE = 4
PARITY = 2  # one sampled, one exact with T2; a run takes min(wide, PARITY)
QUICK_ROUNDS = 3
QUICK_WIDE = 1
T2_NS = 40_000.0


def _program(rng, nodes):
    problem = make_problem("regular", nodes, 3, rng)
    return problem.to_program(
        [float(rng.uniform(0.2, 1.2))], [float(rng.uniform(0.1, 0.7))]
    )


def variational_jobs(seed, index):
    """Round ``index``: one 10-node program evaluated after each of the
    four methods, as a variational request's ARG sweep does."""
    rng = np.random.default_rng([seed, index])
    program = _program(rng, 10)
    eval_seed = int(rng.integers(1 << 30))
    return [
        EvalJob(
            CompileJob(
                program=program,
                device=MELBOURNE,
                method=method,
                seed=7919 * index + k,
                calibration="auto",
                job_id=method,
            ),
            shots=4096,
            trajectories=8,
            eval_seed=eval_seed,
        )
        for k, method in enumerate(METHODS)
    ]


def wide_job(seed, index):
    """Wide job ``index``: 16 nodes, calibrated tokyo, vic, exact mode with
    T2 and 32 trajectories."""
    rng = np.random.default_rng([seed, index, 16])
    program = _program(rng, 16)
    return EvalJob(
        CompileJob(
            program=program,
            device=TOKYO,
            method="vic",
            seed=int(seed % 100_000) * 10_000 + index,
            calibration="auto",
            job_id="wide",
        ),
        trajectories=32,
        t2_ns=T2_NS,
        mode="exact",
        eval_seed=int(rng.integers(1 << 30)),
    )


def parity_job(seed, index):
    """Parity job ``index``: an 8-node ring with 4 chords on calibrated
    melbourne; sampled for index 0, exact mode with T2 for index 1."""
    rng = np.random.default_rng([seed, index, 8])
    edges = {(i, i + 1) for i in range(7)} | {(0, 7)}
    while len(edges) < 12:
        edges.add(tuple(sorted(int(v) for v in rng.choice(8, 2, replace=False))))
    program = MaxCutProblem(8, sorted(edges)).to_program(
        [float(rng.uniform(0.2, 1.2))], [float(rng.uniform(0.1, 0.7))]
    )
    exact = index % 2 == 1
    return EvalJob(
        CompileJob(
            program=program,
            device=MELBOURNE,
            method="parity",
            seed=int(seed % 100_000) * 10_000 + index,
            calibration="auto",
            job_id="parity",
        ),
        shots=4096,
        trajectories=8,
        t2_ns=T2_NS if exact else None,
        mode="exact" if exact else "sampled",
        eval_seed=int(rng.integers(1 << 30)),
    )


def run_bench(rounds=ROUNDS, wide=WIDE, seed=1):
    parity = min(wide, PARITY)
    jobs = (
        [
            ("variational", job)
            for index in range(rounds)
            for job in variational_jobs(seed, index)
        ]
        + [("wide", wide_job(seed, index)) for index in range(wide)]
        + [("parity", parity_job(seed, index)) for index in range(parity)]
    )
    digest = hashlib.sha256()
    stage_s = defaultdict(float)  # (shape, stage) -> seconds
    shape_jobs = defaultdict(int)
    shape_s = defaultdict(float)
    for shape, job in jobs:
        start = time.perf_counter()
        result = execute_job(job)
        shape_s[shape] += time.perf_counter() - start
        assert result.ok, f"{shape} {job.job_id}: {result.error}"
        metrics = result.metrics
        shape_jobs[shape] += 1
        for record in metrics["eval_trace"]:
            stage_s[(shape, record["name"])] += record["seconds"]
        line = [result.key] + [float(metrics[k]).hex() for k in ("r0", "rh", "arg")]
        digest.update(json.dumps(line).encode("utf-8"))
        digest.update(b"\n")

    rows = [
        [shape, stage, seconds * 1e3 / shape_jobs[shape]]
        for (shape, stage), seconds in stage_s.items()
    ]
    rows += [
        [shape, "job (compile + eval)", seconds * 1e3 / shape_jobs[shape]]
        for shape, seconds in shape_s.items()
    ]
    headline = {"evals": float(len(jobs))}
    for shape, count in shape_jobs.items():
        headline[f"{shape}_evals"] = float(count)
        headline[f"{shape}_noisy_ms"] = stage_s[(shape, "noisy")] * 1e3 / count
    result = FigureResult(
        figure="eval_trajectories",
        description=(
            f"Seeded ARG evaluations (seed {seed}): {rounds} variational-shaped "
            f"rounds x {len(METHODS)} methods, {wide} wide jobs and {parity} "
            f"parity jobs, mean ms per evaluation"
        ),
        table=format_table(["shape", "stage", "ms / eval"], rows, float_fmt="{:.3f}"),
        headline=headline,
    )
    return result, digest.hexdigest()


def test_eval_trajectories(benchmark, record_figure):
    result, _ = benchmark.pedantic(
        run_bench,
        kwargs={"rounds": QUICK_ROUNDS, "wide": QUICK_WIDE},
        rounds=1,
        iterations=1,
    )
    record_figure(result)
    assert result.headline["evals"] == (
        QUICK_ROUNDS * len(METHODS) + QUICK_WIDE + min(QUICK_WIDE, PARITY)
    )


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.quick:
        result, digest = run_bench(QUICK_ROUNDS, QUICK_WIDE, args.seed)
    else:
        result, digest = run_bench(ROUNDS, WIDE, args.seed)
    print(result.render())
    print(f"evals {result.headline['evals']:.0f}")
    print(f"output sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
