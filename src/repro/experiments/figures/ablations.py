"""Ablation studies for the design choices DESIGN.md calls out.

Three ablations, each isolating one ingredient of the paper's methods:

* :func:`qaim_radius_ablation` — QAIM's connectivity-strength radius
  (1 = first neighbours only, 2 = paper default, 3 = deeper lookahead).
  The paper suggests larger radii for larger architectures.
* :func:`ic_dynamic_ablation` — IC's defining feature: re-sorting remaining
  CPHASEs by the *current* mapping's distances after every layer.  The
  ablated variant freezes gate ordering to the block's initial distances
  (routing still updates the mapping), quantifying how much of IC's win
  comes from observing mapping drift.
* :func:`vic_weight_ablation` — VIC's ``1/R`` edge weighting vs the
  information-theoretically cleaner ``-log R`` (which makes path weight =
  -log of path success, i.e. shortest path == most reliable path).  The
  paper uses ``1/R``; this checks how sensitive the result is.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ...compiler.flow import compile_with_method
from ...compiler.ic import IncrementalCompiler
from ...compiler.metrics import success_probability
from ...compiler.pipeline import PipelineSpec, run_incremental_flow
from ...compiler.qaim import qaim_placement
from ...hardware.devices import (
    grid_device,
    ibmq_16_melbourne,
    ibmq_20_tokyo,
    melbourne_calibration,
)
from ...hardware.target import intern_target
from ..harness import make_problem, scaled_instances
from ..reporting import format_table
from .common import FigureResult

__all__ = [
    "qaim_radius_ablation",
    "ic_dynamic_ablation",
    "vic_weight_ablation",
]

_GAMMA, _BETA = 0.7, 0.35


def qaim_radius_ablation(
    instances: Optional[int] = None,
    seed: int = 3001,
    radii: Sequence[int] = (1, 2, 3),
) -> FigureResult:
    """Sweep QAIM's connectivity-strength radius on tokyo and a 6x6 grid."""
    instances = instances or scaled_instances(reduced=6, paper=25)
    rows = []
    headline = {}
    for coupling, num_nodes in ((ibmq_20_tokyo(), 16), (grid_device(6, 6), 28)):
        per_radius = {}
        problem_rng = np.random.default_rng((seed, coupling.num_qubits))
        problems = [
            make_problem("er", num_nodes, 0.3, problem_rng)
            for _ in range(instances)
        ]
        for radius in radii:
            depths, gates = [], []
            for i, problem in enumerate(problems):
                rng = np.random.default_rng((seed, radius, i))
                program = problem.to_program([_GAMMA], [_BETA])
                compiled = compile_with_method(
                    program,
                    coupling,
                    PipelineSpec(
                        placement="qaim", ordering="random", qaim_radius=radius
                    ),
                    rng=rng,
                )
                depths.append(compiled.depth())
                gates.append(compiled.gate_count())
            per_radius[radius] = (
                float(np.mean(depths)),
                float(np.mean(gates)),
            )
            rows.append(
                [coupling.name, radius, per_radius[radius][0], per_radius[radius][1]]
            )
        base = per_radius[2]
        for radius in radii:
            headline[f"{coupling.name}_r{radius}_depth_vs_r2"] = (
                per_radius[radius][0] / base[0]
            )
    return FigureResult(
        figure="ablation_qaim_radius",
        description="QAIM connectivity-strength radius ablation",
        table=format_table(
            ["device", "radius", "mean depth", "mean gates"],
            rows,
            float_fmt="{:.4g}",
        ),
        headline=headline,
    )


class _FrozenOrderIncrementalCompiler(IncrementalCompiler):
    """IC variant that sorts by the block's *initial* mapping distances.

    Routing still mutates the mapping (SWAPs must), but layer formation
    ignores the drift — exactly the knowledge IC adds over IP-style static
    ordering.
    """

    def compile_block(self, gates, mapping, out, max_iterations: int = 100000):
        self._frozen = mapping.copy()
        return super().compile_block(
            gates, mapping, out, max_iterations=max_iterations
        )

    def _sorted_by_distance(self, gates, mapping):
        return super()._sorted_by_distance(gates, self._frozen)


def ic_dynamic_ablation(
    instances: Optional[int] = None,
    seed: int = 3002,
    num_nodes: int = 20,
) -> FigureResult:
    """IC with dynamic re-sorting vs frozen initial-distance ordering."""
    instances = instances or scaled_instances(reduced=8, paper=50)
    coupling = ibmq_20_tokyo()
    rows = []
    headline = {}
    for family, param in (("er", 0.4), ("regular", 5)):
        problem_rng = np.random.default_rng((seed, family == "er"))
        problems = [
            make_problem(family, num_nodes, param, problem_rng)
            for _ in range(instances)
        ]
        results = {}
        for variant in ("dynamic", "frozen"):
            depths, gates, swaps = [], [], []
            for i, problem in enumerate(problems):
                rng = np.random.default_rng((seed, i, variant == "dynamic"))
                program = problem.to_program([_GAMMA], [_BETA])
                mapping = qaim_placement(
                    program.pairs(), program.num_qubits, coupling, rng=rng
                )
                cls = (
                    IncrementalCompiler
                    if variant == "dynamic"
                    else _FrozenOrderIncrementalCompiler
                )
                compiler = cls(coupling, rng=rng)
                circuit, _, swap_count = run_incremental_flow(
                    program, mapping, compiler
                )
                from ...circuits import decompose_to_basis

                native = decompose_to_basis(circuit)
                depths.append(native.depth())
                gates.append(native.gate_count())
                swaps.append(swap_count)
            results[variant] = (
                float(np.mean(depths)),
                float(np.mean(gates)),
                float(np.mean(swaps)),
            )
            rows.append([family, variant] + list(results[variant]))
        headline[f"{family}_frozen_over_dynamic_gates"] = (
            results["frozen"][1] / results["dynamic"][1]
        )
        headline[f"{family}_frozen_over_dynamic_swaps"] = (
            results["frozen"][2] / max(results["dynamic"][2], 1e-9)
        )
    return FigureResult(
        figure="ablation_ic_dynamic",
        description="IC dynamic-distance re-sorting vs frozen ordering",
        table=format_table(
            ["family", "variant", "mean depth", "mean gates", "mean swaps"],
            rows,
            float_fmt="{:.4g}",
        ),
        headline=headline,
    )


def vic_weight_ablation(
    instances: Optional[int] = None,
    seed: int = 3003,
    num_nodes: int = 14,
) -> FigureResult:
    """VIC edge weighting: the paper's ``1/R`` vs ``-log R``."""
    instances = instances or scaled_instances(reduced=8, paper=25)
    coupling = ibmq_16_melbourne()
    calibration = melbourne_calibration()
    target = intern_target(coupling, calibration)
    inv_matrix = target.vic_distance_matrix()
    log_weights = {
        e: -math.log(calibration.cphase_success(*e))
        for e in coupling.edges
    }
    log_matrix = target.weighted_distances(log_weights)

    rows = []
    headline = {}
    for family, param in (("er", 0.5), ("regular", 4)):
        problem_rng = np.random.default_rng((seed, family == "er"))
        problems = [
            make_problem(family, num_nodes, param, problem_rng)
            for _ in range(instances)
        ]
        results = {}
        for scheme, matrix in (("inv", inv_matrix), ("neglog", log_matrix)):
            sps, depths = [], []
            for i, problem in enumerate(problems):
                rng = np.random.default_rng((seed, i, scheme == "inv"))
                program = problem.to_program([_GAMMA], [_BETA])
                mapping = qaim_placement(
                    program.pairs(), program.num_qubits, coupling, rng=rng
                )
                compiler = IncrementalCompiler(
                    coupling, distance_matrix=matrix, rng=rng
                )
                circuit, _, _ = run_incremental_flow(program, mapping, compiler)
                sps.append(success_probability(circuit, calibration))
                from ...circuits import decompose_to_basis

                depths.append(decompose_to_basis(circuit).depth())
            results[scheme] = (float(np.mean(sps)), float(np.mean(depths)))
            rows.append([family, scheme] + list(results[scheme]))
        headline[f"{family}_neglog_over_inv_sp"] = (
            results["neglog"][0] / results["inv"][0]
        )
    return FigureResult(
        figure="ablation_vic_weight",
        description="VIC edge-weight scheme: 1/R vs -log R",
        table=format_table(
            ["family", "scheme", "mean success prob", "mean depth"],
            rows,
            float_fmt="{:.4g}",
        ),
        headline=headline,
    )
