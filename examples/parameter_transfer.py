"""Parameter transfer: skip the hybrid loop on new instances (Section I).

The paper points out that QAOA parameters "can be found (without the
optimization routines) by exploiting their relationship among similar
instances [44] or analytically [45]".  This example demonstrates the
instance-transfer route and quantifies what it costs:

1. optimise a few small 3-regular donor instances (p = 1),
2. aggregate their angles into family-level parameters,
3. apply the family angles to larger unseen 3-regular instances with NO
   optimisation, and compare against each instance's own optimum,
4. compile the transferred circuit — showing a full QAOA deployment without
   a single recipient-side optimisation step.

Run:  python examples/parameter_transfer.py
"""

import numpy as np

from repro import MaxCutProblem, ibmq_20_tokyo
from repro.compiler import compile_with_method
from repro.experiments.reporting import format_table
from repro.qaoa import (
    learn_parameters,
    optimize_qaoa,
    random_regular_graph,
    transfer_quality,
)


def main():
    rng = np.random.default_rng(1234)

    # 1. donors: small 3-regular instances.
    donors = [
        MaxCutProblem.from_graph(random_regular_graph(10, 3, rng))
        for _ in range(5)
    ]
    params = learn_parameters(donors, p=1, rng=rng)
    print(
        f"learned family angles from {len(donors)} donors: "
        f"gamma={params.gammas[0]:+.4f} beta={params.betas[0]:+.4f}"
    )
    print(
        "donor self-optimised ratios: "
        + ", ".join(f"{r:.3f}" for r in params.donor_ratios)
    )

    # 2-3. recipients: larger instances, no optimisation.
    rows = []
    qualities = []
    for n in (12, 14, 16):
        problem = MaxCutProblem.from_graph(random_regular_graph(n, 3, rng))
        quality = transfer_quality(problem, params, rng=rng)
        own = optimize_qaoa(problem, p=1)
        qualities.append(quality)
        rows.append(
            [
                n,
                f"{own.expectation * quality:.3f}",
                f"{own.expectation:.3f}",
                f"{quality:.4f}",
            ]
        )
    print()
    print(
        format_table(
            ["nodes", "transferred <C>", "own-optimum <C>", "quality"],
            rows,
        )
    )
    print(
        f"\nmean transfer quality {np.mean(qualities):.4f} — the family "
        "angles recover almost all of the per-instance optimum."
    )

    # 4. deploy: compile the largest recipient with transferred angles.
    problem = MaxCutProblem.from_graph(random_regular_graph(16, 3, rng))
    program = problem.to_program(params.gammas, params.betas)
    compiled = compile_with_method(program, ibmq_20_tokyo(), "ic", rng=rng)
    print(
        f"\ncompiled 16-node instance with transferred angles via IC: "
        f"depth {compiled.depth()}, gates {compiled.gate_count()}, "
        f"{compiled.compile_time * 1e3:.1f} ms — zero optimisation calls."
    )


if __name__ == "__main__":
    main()
