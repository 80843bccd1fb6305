"""QAOA: problems, workload generators, circuits, optimisation, evaluation."""

from .analytic import (
    analytic_edge_expectation,
    analytic_expectation,
    analytic_optimal_parameters,
)
from .circuit_builder import build_qaoa_circuit, order_edges
from .evaluation import (
    approximation_ratio,
    approximation_ratio_gap,
    decode_physical_counts,
)
from .graphs import (
    ensure_no_isolated_qubits,
    erdos_renyi_fixed_edges,
    erdos_renyi_graph,
    graph_edges,
    random_regular_graph,
)
from .frontend import (
    PROBLEM_CANONICAL_VERSION,
    Problem,
    cost_values,
    problem_canonical,
    problem_fingerprint,
    problem_from_spec,
)
from .ising import IsingProblem, maxcut_to_ising, qubo_to_ising
from .landscape import (
    LandscapeGrid,
    LandscapeStats,
    expectation_grid,
    landscape_statistics,
    noisy_expectation_grid,
)
from .optimizer import (
    OPTIMIZER_METHODS,
    QAOAOptimizationResult,
    VariationalResult,
    optimize_problem,
    optimize_qaoa,
    qaoa_expectation,
)
from .problems import Level, MaxCutProblem, QAOAProgram
from .transfer import TransferredParameters, learn_parameters, transfer_quality

__all__ = [
    "MaxCutProblem",
    "QAOAProgram",
    "Level",
    "build_qaoa_circuit",
    "order_edges",
    "erdos_renyi_graph",
    "erdos_renyi_fixed_edges",
    "random_regular_graph",
    "graph_edges",
    "ensure_no_isolated_qubits",
    "analytic_expectation",
    "analytic_edge_expectation",
    "analytic_optimal_parameters",
    "optimize_qaoa",
    "qaoa_expectation",
    "QAOAOptimizationResult",
    "approximation_ratio",
    "approximation_ratio_gap",
    "decode_physical_counts",
    "learn_parameters",
    "transfer_quality",
    "TransferredParameters",
    "IsingProblem",
    "qubo_to_ising",
    "maxcut_to_ising",
    "Problem",
    "PROBLEM_CANONICAL_VERSION",
    "cost_values",
    "problem_canonical",
    "problem_fingerprint",
    "problem_from_spec",
    "OPTIMIZER_METHODS",
    "VariationalResult",
    "optimize_problem",
    "expectation_grid",
    "noisy_expectation_grid",
    "landscape_statistics",
    "LandscapeGrid",
    "LandscapeStats",
]
