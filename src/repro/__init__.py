"""repro — reproduction of "Circuit Compilation Methodologies for QAOA"
(Alam, Ash-Saki, Ghosh; MICRO 2020).

The package implements, from scratch on numpy/scipy/networkx:

* a quantum-circuit IR with IBM-basis lowering (:mod:`repro.circuits`),
* device models with calibration data (:mod:`repro.hardware`),
* ideal and noisy simulators (:mod:`repro.sim`),
* a conventional layer-partitioning SWAP-insertion backend plus the paper's
  four methodologies — QAIM, IP, IC, VIC (:mod:`repro.compiler`),
* QAOA-MaxCut problems, the hybrid optimisation loop, and the ARG metric
  (:mod:`repro.qaoa`),
* the experiment harness regenerating every figure/table
  (:mod:`repro.experiments`).

Quickstart (the :mod:`repro.api` facade is the front door)::

    import repro

    problem = repro.MaxCutProblem(
        4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (1, 2)]
    )
    result = repro.compile(
        problem, target="ibmq_16_melbourne", method="vic", calibration="auto"
    )
    scores = repro.evaluate(result, shots=4096, seed=7)
    print(result.swap_count, scores.r0, scores.rh, scores.arg)

:func:`repro.compile` runs on
:func:`repro.compiler.compile_with_method`, the one compile path, which
also takes a :class:`~repro.compiler.pipeline.PipelineSpec` for any
placement × ordering combination.
"""

from .api import (
    CompileResult,
    EvalResult,
    compile,
    evaluate,
)
from .circuits import (
    IBM_BASIS,
    QAOA_BASIS,
    Instruction,
    QuantumCircuit,
    circuit_depth,
    decompose_to_basis,
    draw_circuit,
)
from .compiler import (
    METHOD_PRESETS,
    CircuitMetrics,
    CompiledCircuit,
    CompiledQAOA,
    ConventionalBackend,
    IncrementalCompiler,
    Mapping,
    PassContext,
    PassRecord,
    Pipeline,
    PipelineSpec,
    VariationAwareCompiler,
    build_pipeline,
    greedy_e_placement,
    greedy_v_placement,
    measure_compiled,
    parallelize,
    qaim_placement,
    random_placement,
    sequentialize_crosstalk,
    success_probability,
    trivial_placement,
)
from .hardware import (
    Calibration,
    CouplingGraph,
    get_device,
    grid_device,
    ibmq_16_melbourne,
    ibmq_20_tokyo,
    linear_device,
    melbourne_calibration,
    random_calibration,
    ring_device,
    uniform_calibration,
)
from .qaoa import (
    IsingProblem,
    MaxCutProblem,
    Problem,
    QAOAProgram,
    VariationalResult,
    analytic_expectation,
    analytic_optimal_parameters,
    approximation_ratio,
    approximation_ratio_gap,
    build_qaoa_circuit,
    decode_physical_counts,
    erdos_renyi_graph,
    maxcut_to_ising,
    optimize_problem,
    optimize_qaoa,
    problem_from_spec,
    qaoa_expectation,
    qubo_to_ising,
    random_regular_graph,
)
from .sim import (
    EvalOutcome,
    NoiseModel,
    NoisySimulator,
    StatevectorSimulator,
    evaluate_fast,
)

__version__ = "9.1.0"

__all__ = [
    "__version__",
    # api facade
    "compile",
    "evaluate",
    "CompileResult",
    "EvalResult",
    # circuits
    "QuantumCircuit",
    "Instruction",
    "IBM_BASIS",
    "QAOA_BASIS",
    "circuit_depth",
    "decompose_to_basis",
    "draw_circuit",
    # hardware
    "CouplingGraph",
    "Calibration",
    "ibmq_20_tokyo",
    "ibmq_16_melbourne",
    "melbourne_calibration",
    "grid_device",
    "linear_device",
    "ring_device",
    "get_device",
    "random_calibration",
    "uniform_calibration",
    # sim
    "StatevectorSimulator",
    "NoisySimulator",
    "NoiseModel",
    "evaluate_fast",
    "EvalOutcome",
    # compiler
    "Mapping",
    "ConventionalBackend",
    "CompiledCircuit",
    "CompiledQAOA",
    "METHOD_PRESETS",
    "PassContext",
    "PassRecord",
    "Pipeline",
    "PipelineSpec",
    "build_pipeline",
    "qaim_placement",
    "greedy_v_placement",
    "greedy_e_placement",
    "random_placement",
    "trivial_placement",
    "parallelize",
    "IncrementalCompiler",
    "VariationAwareCompiler",
    "CircuitMetrics",
    "measure_compiled",
    "success_probability",
    "sequentialize_crosstalk",
    # qaoa
    "MaxCutProblem",
    "IsingProblem",
    "Problem",
    "QAOAProgram",
    "VariationalResult",
    "build_qaoa_circuit",
    "maxcut_to_ising",
    "optimize_problem",
    "optimize_qaoa",
    "problem_from_spec",
    "qubo_to_ising",
    "qaoa_expectation",
    "analytic_expectation",
    "analytic_optimal_parameters",
    "approximation_ratio",
    "approximation_ratio_gap",
    "decode_physical_counts",
    "erdos_renyi_graph",
    "random_regular_graph",
]
