"""Maximum Independent Set through the QUBO -> Ising -> QAOA path.

Section VI: "the cost Hamiltonian of any arbitrary NP-hard problem can be
formulated in the Ising format consisting of ZZ-interactions" — this example
takes a problem that is *not* MaxCut and runs it through the full stack:

1. encode Max Independent Set as a QUBO:
   maximise ``sum_i x_i - P * sum_{(i,j) in E} x_i x_j`` (penalty P > 1
   forbids picking both endpoints of an edge),
2. convert to an :class:`IsingProblem` (linear Z terms appear — handled as
   virtual RZ gates in the cost block),
3. optimise p=2 QAOA parameters on the simulator,
4. compile with IC(+QAIM) for ibmq_20_tokyo and sample the solution.

Run:  python examples/max_independent_set.py
"""

import numpy as np
from scipy import optimize

from repro import (
    StatevectorSimulator,
    build_qaoa_circuit,
    decode_physical_counts,
    ibmq_20_tokyo,
)
from repro.compiler import compile_with_method
from repro.experiments.reporting import format_table
from repro.qaoa import IsingProblem, erdos_renyi_graph


def mis_qubo(graph, penalty=2.0):
    """QUBO matrix for Max Independent Set (maximisation form)."""
    n = graph.number_of_nodes()
    q = np.zeros((n, n))
    for i in range(n):
        q[i, i] = 1.0
    for a, b in graph.edges():
        q[a, b] -= penalty / 2.0
        q[b, a] -= penalty / 2.0
    return q


def independent_set_from_bits(bits, n):
    return [i for i in range(n) if bits[n - 1 - i] == "1"]


def is_independent(graph, nodes):
    chosen = set(nodes)
    return not any(a in chosen and b in chosen for a, b in graph.edges())


def main():
    rng = np.random.default_rng(31)
    n = 9
    graph = erdos_renyi_graph(n, 0.35, rng)
    print(f"graph: {n} nodes, {graph.number_of_edges()} edges")

    problem = IsingProblem.from_qubo(mis_qubo(graph))
    print(
        f"Ising form: {len(problem.quadratic)} couplings, "
        f"{len(problem.linear)} local fields, offset {problem.offset:.2f}"
    )
    best_bits = problem.best_bitstring()
    optimum = independent_set_from_bits(best_bits, n)
    print(
        f"exact optimum (brute force): {sorted(optimum)} "
        f"(size {len(optimum)}, independent: {is_independent(graph, optimum)})"
    )

    # Optimise p=2 QAOA angles against the exact expectation.
    sim = StatevectorSimulator()
    values = problem.values()

    def objective(params):
        program = problem.to_program(list(params[:2]), list(params[2:]))
        circuit = build_qaoa_circuit(program, measure=False)
        return -sim.expectation_diagonal(circuit, values)

    best = min(
        (
            optimize.minimize(
                objective, x0=rng.uniform(-1, 1, size=4), method="L-BFGS-B",
                tol=1e-6,
            )
            for _ in range(6)
        ),
        key=lambda r: r.fun,
    )
    gammas, betas = list(best.x[:2]), list(best.x[2:])
    print(
        f"\nQAOA p=2 expectation {-best.fun:.3f} "
        f"(optimum value {problem.max_value():.3f})"
    )

    # Compile and sample.
    program = problem.to_program(gammas, betas)
    compiled = compile_with_method(program, ibmq_20_tokyo(), "ic", rng=rng)
    print(
        f"compiled via IC(+QAIM) on {compiled.coupling.name}: depth "
        f"{compiled.depth()}, gates {compiled.gate_count()}, swaps "
        f"{compiled.swap_count}"
    )
    counts = decode_physical_counts(
        sim.sample_counts(compiled.circuit, 8192, rng),
        compiled.final_mapping,
        n,
    )
    # Best feasible sample.
    feasible = [
        (problem.value_of_bits(bits), bits, c)
        for bits, c in counts.items()
        if is_independent(graph, independent_set_from_bits(bits, n))
    ]
    feasible.sort(reverse=True)
    rows = [
        [bits, f"{val:.2f}", c, str(sorted(independent_set_from_bits(bits, n)))]
        for val, bits, c in feasible[:5]
    ]
    print()
    print(
        format_table(["bitstring", "value", "shots", "independent set"], rows)
    )
    top_size = len(independent_set_from_bits(feasible[0][1], n))
    print(
        f"\nbest sampled independent set has size {top_size} "
        f"(optimal size {len(optimum)})"
    )


if __name__ == "__main__":
    main()
