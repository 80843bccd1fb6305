"""Beyond unweighted MaxCut: a weighted Ising workload (Section VI).

The paper notes that "the cost Hamiltonian of any arbitrary NP-hard problem
can be formulated in the Ising format consisting of ZZ-interactions", so the
methodologies apply beyond QAOA-MaxCut.  This example exercises that path
with a *weighted* MaxCut instance modelling a toy portfolio-diversification
task: assets are nodes, edge weights are return correlations, and splitting
the assets into two books so that strongly correlated pairs are separated is
exactly weighted MaxCut.

The weighted edges flow through the whole stack: CPHASE angles become
``-gamma * w_ij``, the hybrid loop optimises over the simulator (the
closed-form p=1 expectation only covers unit weights), and IC compiles the
circuit for the melbourne device.

Run:  python examples/weighted_ising_portfolio.py
"""

import numpy as np

from repro import (
    MaxCutProblem,
    StatevectorSimulator,
    decode_physical_counts,
    ibmq_16_melbourne,
    optimize_qaoa,
)
from repro.compiler import compile_with_method
from repro.experiments.reporting import format_table
from repro.sim.sampler import expectation_from_counts


def correlation_graph(num_assets: int, rng: np.random.Generator):
    """Random symmetric correlation weights in (0, 1] between assets."""
    edges = []
    for a in range(num_assets):
        for b in range(a + 1, num_assets):
            corr = float(rng.uniform(0.05, 1.0))
            if corr > 0.35:  # keep only meaningful correlations
                edges.append((a, b, round(corr, 2)))
    return edges


def main():
    rng = np.random.default_rng(13)
    num_assets = 10
    edges = correlation_graph(num_assets, rng)
    problem = MaxCutProblem(num_assets, edges)
    print(
        f"portfolio of {num_assets} assets, {len(edges)} correlated pairs, "
        f"total correlation weight {problem.total_weight():.2f}"
    )
    print(f"optimal diversification score (max cut) = {problem.max_cut_value():.2f}")

    # p = 2 hybrid loop on the simulator (weighted problem -> no closed form).
    opt = optimize_qaoa(problem, p=2, rng=rng, restarts=4)
    print(
        f"\nQAOA p=2: <C> = {opt.expectation:.3f}, approximation ratio = "
        f"{opt.approximation_ratio:.3f} ({opt.evaluations} objective evals)"
    )

    program = problem.to_program(opt.gammas, opt.betas)
    compiled = compile_with_method(
        program, ibmq_16_melbourne(), "ic", rng=rng
    )
    print(
        f"compiled with IC(+QAIM) for {compiled.coupling.name}: depth "
        f"{compiled.depth()}, gates {compiled.gate_count()}, swaps "
        f"{compiled.swap_count}"
    )

    # Sample the compiled circuit, decode, and read off the best split.
    sim = StatevectorSimulator()
    counts = decode_physical_counts(
        sim.sample_counts(compiled.circuit, 8192, rng),
        compiled.final_mapping,
        problem.num_nodes,
    )
    sampled_score = expectation_from_counts(counts, problem.cut_value)
    best_bits = max(counts, key=lambda b: problem.cut_value(b))
    book_a = [i for i in range(num_assets) if best_bits[num_assets - 1 - i] == "0"]
    book_b = [i for i in range(num_assets) if best_bits[num_assets - 1 - i] == "1"]

    print(f"\nsampled mean diversification score: {sampled_score:.3f}")
    print(
        format_table(
            ["book", "assets", "best-sample score"],
            [
                ["A", str(book_a), f"{problem.cut_value(best_bits):.2f}"],
                ["B", str(book_b), ""],
            ],
        )
    )
    ratio = problem.cut_value(best_bits) / problem.max_cut_value()
    print(f"best sampled split reaches {100 * ratio:.1f}% of the optimum")


if __name__ == "__main__":
    main()
