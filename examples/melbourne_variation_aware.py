"""Variation-aware compilation on ibmq_16_melbourne (Sections IV-D, V-E, V-G).

Demonstrates VIC on the real device model the paper validated on:

1. load the melbourne coupling graph and the 4/8/2020 CNOT-error
   calibration printed in Figure 10(a),
2. compile a 12-node QAOA-MaxCut instance with IC (variation-unaware) and
   VIC (variation-aware),
3. compare the product-of-gate-success metric and then the actual
   Approximation Ratio Gap under the Monte-Carlo hardware noise model —
   showing that routing around unreliable couplings pays off end to end.

Run:  python examples/melbourne_variation_aware.py
"""

import numpy as np

from repro import (
    MaxCutProblem,
    NoiseModel,
    evaluate,
    ibmq_16_melbourne,
    melbourne_calibration,
    optimize_qaoa,
)
from repro.compiler import compile_with_method
from repro.experiments.reporting import format_table
from repro.qaoa import erdos_renyi_graph


def main():
    rng = np.random.default_rng(48)
    device = ibmq_16_melbourne()
    calibration = melbourne_calibration()
    print(f"device: {device}")
    print(
        f"calibration {calibration.timestamp}: mean CNOT error "
        f"{calibration.mean_cnot_error():.4f}, best edge "
        f"{calibration.best_edge()}, worst edge {calibration.worst_edge()}"
    )

    noise = NoiseModel.from_calibration(calibration)

    # Average over several instances — per-instance ARG is noisy (VIC's
    # reliable-path detours cost a few gates, which may or may not pay off
    # on one particular graph), but on average reliability wins.
    num_instances = 4
    rows = []
    means = {"ic": [], "vic": []}
    sps = {"ic": [], "vic": []}
    for i in range(num_instances):
        graph = erdos_renyi_graph(10, 0.5, rng)
        problem = MaxCutProblem.from_graph(graph)
        opt = optimize_qaoa(problem, p=1)
        program = problem.to_program(opt.gammas, opt.betas)
        for method in ("ic", "vic"):
            compiled = compile_with_method(
                program, device, method, calibration=calibration, rng=rng
            )
            arg = evaluate(
                compiled, noise=noise, shots=8192, trajectories=32, rng=rng
            )
            sp = compiled.success_probability(calibration)
            means[method].append(arg.arg)
            sps[method].append(sp)
            rows.append(
                [
                    i,
                    method.upper(),
                    compiled.depth(),
                    compiled.gate_count(),
                    f"{sp:.2e}",
                    f"{arg.r0:.3f}",
                    f"{arg.rh:.3f}",
                    f"{arg.arg:.2f}%",
                ]
            )

    print()
    print(
        format_table(
            ["inst", "method", "depth", "gates", "success prob", "r0", "rh", "ARG"],
            rows,
        )
    )
    sp_ratio = float(np.mean(sps["vic"])) / float(np.mean(sps["ic"]))
    print(
        f"\nmean ARG:  IC {np.mean(means['ic']):.2f}%   "
        f"VIC {np.mean(means['vic']):.2f}%"
    )
    print(
        f"mean success-probability ratio VIC/IC = {sp_ratio:.2f} "
        "(Figure 10 reports 1.4-2.6x on this device)"
    )


if __name__ == "__main__":
    main()
