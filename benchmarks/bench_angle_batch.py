"""Angle-grid bench: batched fast path vs looped exact evaluation.

A variational outer loop (or a Figure-4-style landscape sweep) scores
the *same* problem at many ``(gamma, beta)`` points.  The looped
baseline pays per-point overhead — one statevector build, one gate walk,
one diagonal lookup per call — while
:func:`repro.sim.fastpath.expectation_batch` applies the diagonal phase
and the grouped Kronecker RX mixer (one ``matmul`` per group of up to
five adjacent qubits) to the whole angle batch in a handful of
vectorised numpy operations.

CI runs ``python benchmarks/bench_angle_batch.py --quick`` and holds the
batched path to its contract: at least 5x faster than looping
``evaluate_fast(mode="exact", noise=None)`` over the grid, with every
per-point expectation agreeing to 1e-9.
"""

import argparse
import time

import numpy as np

from repro.compiler import compile_with_method
from repro.experiments.harness import make_problem
from repro.hardware import ibmq_20_tokyo
from repro.sim.fastpath import evaluate_fast, expectation_batch


def angle_batch_speedup(nodes=12, points=32, seed=7):
    """Time a ``points``-long angle grid both ways on one ER instance.

    Compilation happens outside the timed region — both sides evaluate
    the same already-compiled circuits/problem, so the measured ratio is
    pure evaluation cost.  Returns ``(speedup, max_delta, looped_s,
    batched_s)`` where ``max_delta`` is the worst per-point expectation
    disagreement.
    """
    rng = np.random.default_rng(seed)
    problem = make_problem("er", nodes, 0.5, rng)
    max_cut = problem.max_cut_value()
    gammas = np.linspace(-np.pi, np.pi, points)
    betas = np.linspace(-np.pi / 2, np.pi / 2, points)

    coupling = ibmq_20_tokyo()
    compiled = [
        compile_with_method(
            problem.to_program([g], [b]), coupling, "ic", rng=rng
        )
        for g, b in zip(gammas, betas)
    ]

    # Warm both paths (interning, registries) before timing, then take
    # the best of a few runs each so one allocator hiccup cannot decide
    # the gate.
    evaluate_fast(compiled[0], noise=None, mode="exact")
    expectation_batch(problem, gammas[:1], betas[:1])

    looped_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        looped = np.array(
            [
                evaluate_fast(c, noise=None, mode="exact").r0 * max_cut
                for c in compiled
            ]
        )
        looped_s = min(looped_s, time.perf_counter() - start)

    batched_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batched = expectation_batch(problem, gammas, betas)
        batched_s = min(batched_s, time.perf_counter() - start)

    max_delta = float(np.max(np.abs(looped - batched)))
    return looped_s / batched_s, max_delta, looped_s, batched_s


def test_angle_batch_speedup_quick():
    speedup, max_delta, _, _ = angle_batch_speedup(nodes=10, points=32)
    assert max_delta < 1e-9, f"batched/looped disagree by {max_delta:.2e}"
    assert speedup >= 5.0, f"batched path only {speedup:.1f}x faster"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: smaller instance, same >=5x / 1e-9 gates",
    )
    args = parser.parse_args()
    nodes, points = (10, 32) if args.quick else (10, 64)
    speedup, max_delta, looped_s, batched_s = angle_batch_speedup(
        nodes=nodes, points=points
    )
    print(
        f"{points}-point grid on {nodes} nodes: looped {looped_s * 1e3:.1f}ms,"
        f" batched {batched_s * 1e3:.1f}ms -> {speedup:.1f}x"
        f" (max |delta| = {max_delta:.2e})"
    )
    assert max_delta < 1e-9, f"batched/looped disagree by {max_delta:.2e}"
    assert speedup >= 5.0, f"batched path only {speedup:.1f}x faster"
    print("angle batch smoke OK")


if __name__ == "__main__":
    main()
