"""Quickstart: compile one QAOA-MaxCut instance with every methodology.

Walks the full pipeline of the paper on the Figure 1 problem (MaxCut of the
4-node 3-regular graph = K4):

1. find optimal p=1 parameters with the hybrid loop (analytic fast path),
2. compile the circuit with NAIVE / GreedyV / QAIM / IP / IC / VIC for
   ibmq_20_tokyo,
3. report depth, gate count, SWAP count and compile time per method,
4. draw the best compiled circuit.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    MaxCutProblem,
    draw_circuit,
    ibmq_20_tokyo,
    optimize_qaoa,
    random_calibration,
)
from repro.compiler import compile_with_method
from repro.experiments.reporting import format_table


def main():
    rng = np.random.default_rng(2020)

    # The Figure 1(a) problem graph: 4 nodes, 3-regular (K4).
    problem = MaxCutProblem(
        4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    )
    print(f"problem: {problem}, max cut = {problem.max_cut_value():.0f}")

    # Hybrid optimisation loop (p = 1; closed-form objective).
    opt = optimize_qaoa(problem, p=1)
    print(
        f"optimal parameters: gamma={opt.gammas[0]:+.4f} "
        f"beta={opt.betas[0]:+.4f}  <C>={opt.expectation:.4f} "
        f"(approximation ratio {opt.approximation_ratio:.3f})"
    )

    # Compile with every methodology for the 20-qubit tokyo device.
    device = ibmq_20_tokyo()
    calibration = random_calibration(device, rng=rng)
    program = problem.to_program(opt.gammas, opt.betas)

    rows = []
    best = None
    for method in ("naive", "greedy_v", "qaim", "ip", "ic", "vic"):
        compiled = compile_with_method(
            program, device, method, calibration=calibration, rng=rng
        )
        rows.append(
            [
                method.upper(),
                compiled.depth(),
                compiled.gate_count(),
                compiled.swap_count,
                f"{compiled.compile_time * 1e3:.2f} ms",
                f"{compiled.success_probability(calibration):.4f}",
            ]
        )
        if best is None or compiled.depth() < best.depth():
            best = compiled

    print()
    print(
        format_table(
            ["method", "depth", "gates", "swaps", "compile", "success prob"],
            rows,
        )
    )

    # Draw only the physical qubits the best circuit actually uses.
    active = best.circuit.active_qubits()
    compact = best.circuit.remap(
        {q: i for i, q in enumerate(active)}, num_qubits=len(active)
    )
    print(
        f"\nbest compiled circuit ({best.method}), physical qubits "
        f"{list(active)} relabelled 0..{len(active) - 1}:\n"
    )
    print(draw_circuit(compact))


if __name__ == "__main__":
    main()
