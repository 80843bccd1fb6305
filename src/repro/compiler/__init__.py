"""Compilation: placements, orderings, backend, flows, metrics."""

from .analysis import CompilationAnalysis, analyze_compiled
from .backend import CompiledCircuit, ConventionalBackend, CouplingError
from .crosstalk import count_conflicts, sequentialize_crosstalk
from .exhaustive import ExhaustiveResult, exhaustive_best_order
from .flow import (
    METHOD_PRESETS,
    ORDERINGS,
    PLACEMENTS,
    ROUTERS,
    CompiledQAOA,
    compile_with_method,
)
from .ic import IncrementalBlockResult, IncrementalCompiler
from .ip import IPResult, fill_single_layer, parallelize
from .mapping import Mapping
from .metrics import CircuitMetrics, measure_compiled, success_probability
from .portfolio import (
    PortfolioEntry,
    PortfolioResult,
    compile_portfolio,
    depth_objective,
    gate_count_objective,
    reliability_objective,
)
from .parity import (
    ParityEncodingPass,
    ParityLayout,
    build_parity_circuit,
    parity_constraint_angle,
    parity_decode_indices,
    parity_field_angle,
)
from .pipeline import (
    Pass,
    PassContext,
    PassRecord,
    Pipeline,
    PipelineSpec,
    build_pipeline,
)
from .registry import (
    available_methods,
    get_method,
    register_method,
    unregister_method,
)
from .placement import (
    greedy_e_placement,
    greedy_v_placement,
    random_placement,
    trivial_placement,
)
from .qaim import QAIMConfig, qaim_placement
from .routing import RoutingResult, route_pair
from .sabre import SabreBackend
from .serialize import from_json, to_json
from .swap_network import (
    SwapNetworkPass,
    chain_for_mapping,
    find_linear_chain,
    linear_placement,
    network_meetings,
)
from .vic import VariationAwareCompiler, vic_compiler

__all__ = [
    "Mapping",
    "ConventionalBackend",
    "SabreBackend",
    "CompiledCircuit",
    "CouplingError",
    "route_pair",
    "RoutingResult",
    "trivial_placement",
    "random_placement",
    "greedy_v_placement",
    "greedy_e_placement",
    "qaim_placement",
    "QAIMConfig",
    "parallelize",
    "fill_single_layer",
    "IPResult",
    "IncrementalCompiler",
    "IncrementalBlockResult",
    "VariationAwareCompiler",
    "vic_compiler",
    "compile_with_method",
    "CompiledQAOA",
    "METHOD_PRESETS",
    "PLACEMENTS",
    "ORDERINGS",
    "ROUTERS",
    "register_method",
    "unregister_method",
    "available_methods",
    "get_method",
    "SwapNetworkPass",
    "linear_placement",
    "find_linear_chain",
    "chain_for_mapping",
    "network_meetings",
    "ParityEncodingPass",
    "ParityLayout",
    "build_parity_circuit",
    "parity_field_angle",
    "parity_constraint_angle",
    "parity_decode_indices",
    "Pass",
    "PassContext",
    "PassRecord",
    "Pipeline",
    "PipelineSpec",
    "build_pipeline",
    "CircuitMetrics",
    "measure_compiled",
    "success_probability",
    "sequentialize_crosstalk",
    "count_conflicts",
    "exhaustive_best_order",
    "ExhaustiveResult",
    "to_json",
    "from_json",
    "compile_portfolio",
    "PortfolioResult",
    "PortfolioEntry",
    "depth_objective",
    "gate_count_objective",
    "reliability_objective",
    "analyze_compiled",
    "CompilationAnalysis",
]
