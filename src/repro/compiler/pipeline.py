"""Composable compilation pipeline: passes, pass context, pass traces.

The paper's methodologies are compositions of orthogonal stages —
placement (QAIM/greedy/random), ordering (IP/IC/VIC), routing
(layered/SABRE), then optional crosstalk sequentialisation and peephole
lowering.  This module makes that composition explicit:

* :class:`PassContext` — the mutable state a compilation accumulates: the
  program, device, calibration, rng, live mapping, circuit under
  construction, warnings, and the structured **pass trace**;
* :class:`Pass` — the protocol every stage implements (a ``name`` and a
  ``run(context)``);
* :class:`PassRecord` — one trace entry: per-pass wall time, SWAPs
  inserted, depth/gate-count deltas, and pass-specific extras;
* :class:`PipelineSpec` — a declarative description of a full flow
  (placement, ordering, router, knobs); the paper's named methods are
  :data:`repro.compiler.flow.METHOD_PRESETS` entries of this type;
* :func:`build_pipeline` — spec → concrete :class:`Pipeline`;
* :class:`Pipeline` — runs the passes in order, timing each one and
  appending a :class:`PassRecord` per pass to ``context.trace``.

Every stochastic tie-break draws from ``context.rng`` in the same order
the monolithic flow did, so a pipeline built from a preset spec produces
the *gate-for-gate identical* circuit for a fixed seed (the equivalence
suite asserts this for every preset on both paper devices).

New stages plug in without touching :mod:`repro.compiler.flow`: implement
the :class:`Pass` protocol and insert the instance anywhere in a
:class:`Pipeline`'s pass list.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from ..circuits import QuantumCircuit, decompose_to_basis
from ..circuits.gates import Instruction
from ..hardware.coupling import CouplingGraph
from ..hardware.target import Target, as_target
from ..qaoa.problems import QAOAProgram
from .backend import ConventionalBackend
from .ic import IncrementalCompiler
from .mapping import Mapping

__all__ = [
    "PassRecord",
    "PassContext",
    "Pass",
    "PipelineSpec",
    "Pipeline",
    "build_pipeline",
    "PlacementPass",
    "RandomOrderingPass",
    "IPOrderingPass",
    "VICDistancePass",
    "RoutingPass",
    "IncrementalRoutingPass",
    "run_incremental_flow",
    "CrosstalkPass",
    "PeepholePass",
    "make_router",
]

ParamPair = Tuple[int, int, float]


# ----------------------------------------------------------------------
# trace records
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PassRecord:
    """One pass's contribution to a compilation.

    Attributes:
        name: Pass identifier, e.g. ``"place/qaim"`` or ``"route/ic"``.
        seconds: Wall-clock time the pass spent (instrumentation included).
        swaps: SWAP gates this pass inserted.
        depth_delta: Change in the working circuit's high-level depth.
        gate_delta: Change in the working circuit's instruction count.
        info: Pass-specific extras (layer counts, fallbacks taken, ...).
    """

    name: str
    seconds: float
    swaps: int = 0
    depth_delta: int = 0
    gate_delta: int = 0
    info: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-safe form (what serialisation and telemetry consume)."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "swaps": self.swaps,
            "depth_delta": self.depth_delta,
            "gate_delta": self.gate_delta,
            "info": dict(self.info),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PassRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=str(payload["name"]),
            seconds=float(payload["seconds"]),
            swaps=int(payload.get("swaps", 0)),
            depth_delta=int(payload.get("depth_delta", 0)),
            gate_delta=int(payload.get("gate_delta", 0)),
            info=dict(payload.get("info", {})),
        )


@dataclasses.dataclass
class PassContext:
    """Everything a pass may read or evolve.

    A context is created once per compilation and threaded through every
    pass; passes communicate exclusively through it.

    Attributes:
        program: The logical QAOA program being compiled.
        target: The memoized device view
            (:class:`~repro.hardware.target.Target`): coupling,
            calibration, and every derived oracle (distance tables,
            connectivity profiles, shortest paths, conflict sets) in one
            shared, immutable bundle.
        rng: Generator driving every stochastic tie-break.  Passes must
            draw from it in pipeline order — rng discipline is what makes
            a pipeline reproducible and seed-equivalent to the old flow.
        mapping: Live logical→physical mapping (set by placement, evolved
            by routing).
        initial_mapping: Snapshot of ``mapping`` right after placement.
        circuit: The physical circuit under construction.
        swap_count: SWAPs inserted so far.
        level_gates: Ordered CPHASE triples per QAOA level (set by ordering
            passes for the monolithic route; incremental routing ignores
            it and orders gates layer-at-a-time itself).
        distance_metric: Which of the target's distance tables routing
            steers by — ``"hop"`` (default) or ``"vic"`` after a
            :class:`VICDistancePass` resolved a usable reliability table.
        encoding: How the circuit's register relates to the program's
            logical qubits — ``"direct"`` (mappings are logical→physical)
            or ``"parity"`` (mappings are parity-slot→physical; see
            :mod:`repro.compiler.parity`).
        encoding_info: Encoding-specific decode metadata (empty for the
            direct encoding).
        warnings: Degradation provenance accumulated across passes.
        trace: One :class:`PassRecord` per completed pass.
    """

    program: QAOAProgram
    target: Target
    rng: np.random.Generator
    mapping: Optional[Mapping] = None
    initial_mapping: Optional[Dict[int, int]] = None
    circuit: Optional[QuantumCircuit] = None
    final_mapping: Optional[Dict[int, int]] = None
    swap_count: int = 0
    level_gates: Optional[List[List[ParamPair]]] = None
    distance_metric: str = "hop"
    encoding: str = "direct"
    encoding_info: dict = dataclasses.field(default_factory=dict)
    warnings: List[str] = dataclasses.field(default_factory=list)
    trace: List[PassRecord] = dataclasses.field(default_factory=list)

    @property
    def coupling(self) -> CouplingGraph:
        """The target's device topology (delegate)."""
        return self.target.coupling

    @property
    def calibration(self):
        """The target's calibration (delegate; ``None`` when absent)."""
        return self.target.calibration

    def routing_distances(self) -> Optional[np.ndarray]:
        """The distance-table override for the active metric (``None``
        means hop distances, served by the target's read-only view)."""
        return self.target.routing_distances(self.distance_metric)

    # Pre-Target name kept for external passes that read the override.
    @property
    def distance_matrix(self) -> Optional[np.ndarray]:
        return self.routing_distances()


@runtime_checkable
class Pass(Protocol):
    """The stage protocol: a ``name`` plus a ``run`` that evolves the
    context in place.  Implementations must confine *all* communication to
    the :class:`PassContext` (and draw randomness only from its rng)."""

    name: str

    def run(self, context: PassContext) -> None:
        """Execute the pass, mutating ``context``."""
        ...


# ----------------------------------------------------------------------
# declarative specs
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class PipelineSpec:
    """Declarative description of a full compilation flow.

    The paper's named methods are preset instances of this spec (see
    :data:`repro.compiler.flow.METHOD_PRESETS`); arbitrary combinations —
    e.g. ``greedy_e`` placement with ``vic`` ordering, or a SABRE-routed
    ``ip`` — are expressed the same way.
    """

    placement: str = "qaim"
    ordering: str = "random"
    router: str = "layered"
    qaim_radius: int = 2
    packing_limit: Optional[int] = None
    lower: bool = False
    constraint_strength: float = 2.0

    @property
    def method(self) -> str:
        """The flow label, e.g. ``"qaim+ic"``."""
        return f"{self.placement}+{self.ordering}"

    def replace(self, **changes) -> "PipelineSpec":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    def fingerprint(self) -> str:
        """Content hash of the spec — what cache keys use when a spec is
        passed directly instead of a registered method name.  Field-order
        independent; two content-equal specs always fingerprint the same."""
        payload = {
            k: (repr(v) if isinstance(v, float) else v)
            for k, v in dataclasses.asdict(self).items()
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the pipeline runner
# ----------------------------------------------------------------------
class Pipeline:
    """An ordered pass list with per-pass instrumentation.

    Running a pipeline executes each pass against the shared context and
    appends one :class:`PassRecord` per pass to ``context.trace``: wall
    time, SWAPs inserted, and the depth/gate-count deltas of the working
    circuit.  Depth is only recomputed when a pass changed the circuit's
    length, keeping instrumentation off the hot path for passes that don't
    touch the circuit.
    """

    def __init__(self, passes: Sequence[Pass], name: str = "pipeline") -> None:
        self.passes = list(passes)
        self.name = name

    def run(self, context: PassContext) -> PassContext:
        """Execute every pass in order; returns the same context."""
        depth_before = 0
        gates_before = 0
        for step in self.passes:
            start = time.perf_counter()
            swaps_before = context.swap_count
            step.run(context)
            if context.circuit is not None:
                gates_after = len(context.circuit)
                depth_after = (
                    context.circuit.depth()
                    if gates_after != gates_before
                    else depth_before
                )
            else:
                gates_after = depth_after = 0
            elapsed = time.perf_counter() - start
            context.trace.append(
                PassRecord(
                    name=step.name,
                    seconds=elapsed,
                    swaps=context.swap_count - swaps_before,
                    depth_delta=depth_after - depth_before,
                    gate_delta=gates_after - gates_before,
                    info=dict(getattr(step, "info", {}) or {}),
                )
            )
            depth_before, gates_before = depth_after, gates_after
        return context


def make_router(router: str, target, metric: str = "hop"):
    """Instantiate a backend router by name (``"layered"``/``"sabre"``).

    Args:
        router: ``"layered"`` or ``"sabre"``.
        target: A :class:`~repro.hardware.target.Target` (or anything
            :func:`~repro.hardware.target.as_target` coerces — a bare
            coupling graph works).
        metric: Distance metric the router steers by (``"hop"``/``"vic"``).

    Routers share the target's memoized tables: ``metric="hop"`` leaves the
    distance override unset (both backends default to the target's cached
    hop view), and the layered backend routes through the target's
    shortest-path cache.
    """
    target = as_target(target)
    distance_matrix = target.routing_distances(metric)
    if router == "sabre":
        from .sabre import SabreBackend

        return SabreBackend(target.coupling, distance_matrix=distance_matrix)
    return ConventionalBackend(
        target.coupling,
        distance_matrix=distance_matrix,
        path_oracle=target.path_oracle(metric),
    )


# ----------------------------------------------------------------------
# concrete passes
# ----------------------------------------------------------------------
class PlacementPass:
    """Choose the initial logical→physical mapping.

    Wraps one strategy from :data:`repro.compiler.flow.PLACEMENTS`; QAIM
    additionally takes its connectivity-strength ``radius``.
    """

    def __init__(self, strategy: str, qaim_radius: int = 2) -> None:
        self.strategy = strategy
        self.qaim_radius = qaim_radius
        self.name = f"place/{strategy}"
        self.info = {"strategy": strategy}
        if strategy == "qaim":
            self.info["radius"] = qaim_radius

    def run(self, context: PassContext) -> None:
        pairs = context.program.pairs()
        if self.strategy == "qaim":
            from .qaim import QAIMConfig, qaim_placement

            mapping = qaim_placement(
                pairs,
                context.program.num_qubits,
                context.coupling,
                rng=context.rng,
                config=QAIMConfig(radius=self.qaim_radius),
                target=context.target,
            )
        else:
            from .flow import PLACEMENTS

            mapping = PLACEMENTS[self.strategy](
                pairs, context.program.num_qubits, context.coupling, context.rng
            )
        context.mapping = mapping
        context.initial_mapping = mapping.as_dict()


class RandomOrderingPass:
    """NAIVE ordering: an independent random CPHASE order per level.

    Draws exactly one permutation per level from the context rng —
    the same stream :func:`repro.qaoa.circuit_builder.order_edges`
    consumed in the monolithic flow.
    """

    name = "order/random"

    def run(self, context: PassContext) -> None:
        level_gates: List[List[ParamPair]] = []
        for level in range(context.program.p):
            gates = list(context.program.cphase_gates(level))
            if context.rng is not None:
                perm = context.rng.permutation(len(gates))
                gates = [gates[i] for i in perm]
            level_gates.append(gates)
        context.level_gates = level_gates


class IPOrderingPass:
    """IP ordering: one bin-packed parallel order reused for every level."""

    def __init__(self, packing_limit: Optional[int] = None) -> None:
        self.packing_limit = packing_limit
        self.name = "order/ip"
        self.info: dict = {}

    def run(self, context: PassContext) -> None:
        from ..qaoa.circuit_builder import order_edges
        from .ip import parallelize

        ip_result = parallelize(
            context.program.pairs(),
            rng=context.rng,
            packing_limit=self.packing_limit,
        )
        self.info = {"layers": len(ip_result.layers)}
        context.level_gates = [
            order_edges(
                context.program.cphase_gates(level),
                order=ip_result.ordered_pairs,
            )
            for level in range(context.program.p)
        ]


class VICDistancePass:
    """Install the reliability-weighted distance table (VIC), degrading
    to hop distances with a recorded warning when the calibration cannot
    produce a usable table."""

    name = "distance/vic"

    def __init__(self) -> None:
        self.info: dict = {}

    def run(self, context: PassContext) -> None:
        if context.calibration is None:
            raise ValueError("VIC ordering requires calibration data")
        distance_matrix, warnings = context.target.vic_distances()
        context.distance_metric = "vic" if distance_matrix is not None else "hop"
        context.warnings.extend(warnings)
        self.info = {"fallback": distance_matrix is None}


class RoutingPass:
    """Monolithic routing: build the full logical circuit from the ordered
    level gates, compile it once with the chosen backend router, then
    measure every logical qubit at its final home.

    The measures are appended after routing, not routed: both routers
    schedule a measure right after its qubit's last mixer and would then
    SWAP through that wire while routing other qubits, leaving
    ``c[final_mapping[q]]`` holding another qubit's outcome.  Measures are
    sinks in both routers' dependency order, so leaving them out does not
    change one routed gate."""

    def __init__(self, router: str = "layered") -> None:
        self.router = router
        self.name = f"route/{router}"
        self.info = {"router": router}

    def run(self, context: PassContext) -> None:
        program = context.program
        if context.mapping is None:
            raise ValueError("routing requires a placement (mapping unset)")
        level_gates = context.level_gates
        if level_gates is None:
            level_gates = [
                list(program.cphase_gates(level)) for level in range(program.p)
            ]
        # Every gate comes from the validated program (Python int qubits,
        # float angles), so none is re-validated.
        gate = Instruction._unchecked
        qubits = range(program.num_qubits)
        gates = [gate("h", (q,)) for q in qubits]
        for level in range(program.p):
            gates += [gate("cphase", (a, b), (angle,)) for a, b, angle in level_gates[level]]
            gates += [gate("rz", (q,), (angle,)) for q, angle in program.rz_gates(level)]
            mixer = (program.mixer_angle(level),)
            gates += [gate("rx", (q,), mixer) for q in qubits]
        logical = QuantumCircuit(program.num_qubits, gates, name="qaoa")
        backend = make_router(
            self.router, context.target, context.distance_metric
        )
        compiled = backend.compile(logical, context.mapping)
        final = compiled.final_mapping
        compiled.circuit.extend([gate("measure", (final[q],)) for q in qubits])
        context.circuit = compiled.circuit
        context.final_mapping = final
        context.swap_count += compiled.swap_count


def run_incremental_flow(
    program: QAOAProgram,
    mapping: Mapping,
    compiler: IncrementalCompiler,
):
    """Drive a (possibly custom) incremental compiler through a full QAOA
    program: H prefix, per-level CPHASE blocks and mixers, measurements.

    :class:`IncrementalRoutingPass` routes IC/VIC through it, and ablation
    studies plug in IncrementalCompiler variants (frozen-distance
    ordering, alternative edge weights, ...) to still get a complete
    circuit.  Mutates ``mapping``; returns
    ``(circuit, final_mapping_dict, swap_count)``.
    """
    coupling = compiler.coupling
    out = QuantumCircuit(coupling.num_qubits, name="qaoa_ic")
    # Angles come from the validated program and qubits from the mapping
    # (Python ints), so these gates are not re-validated.
    gate = Instruction._unchecked
    home = mapping.physical
    qubits = range(program.num_qubits)
    out.extend([gate("h", (home(q),)) for q in qubits])
    swap_count = 0
    for level in range(program.p):
        block = compiler.compile_block(
            program.cphase_gates(level), mapping, out
        )
        swap_count += block.swap_count
        # Linear Ising terms: virtual RZs, diagonal, commute with the block.
        out.extend([gate("rz", (home(q),), (angle,)) for q, angle in program.rz_gates(level)])
        mixer = (program.mixer_angle(level),)
        out.extend([gate("rx", (home(q),), mixer) for q in qubits])
    out.extend([gate("measure", (home(q),)) for q in qubits])
    return out, mapping.as_dict(), swap_count


class IncrementalRoutingPass:
    """IC/VIC routing: form layers one at a time against the *current*
    mapping and stitch the partial compilations (Section IV-C).

    The distance table steering both layer formation and SWAP paths comes
    from the context (hop distances when unset, the VIC table when a
    :class:`VICDistancePass` ran earlier).
    """

    def __init__(
        self,
        router: str = "layered",
        packing_limit: Optional[int] = None,
        label: str = "ic",
    ) -> None:
        self.router = router
        self.packing_limit = packing_limit
        self.name = f"route/{label}"
        self.info = {"router": router}

    def run(self, context: PassContext) -> None:
        if context.mapping is None:
            raise ValueError("routing requires a placement (mapping unset)")
        compiler = IncrementalCompiler(
            context.coupling,
            distance_matrix=context.routing_distances(),
            packing_limit=self.packing_limit,
            rng=context.rng,
            backend=make_router(
                self.router, context.target, context.distance_metric
            ),
        )
        circuit, final_mapping, swap_count = run_incremental_flow(
            context.program, context.mapping, compiler
        )
        context.circuit = circuit
        context.final_mapping = final_mapping
        context.swap_count += swap_count


class CrosstalkPass:
    """Section VI crosstalk sequentialisation: split any layer that
    co-schedules a conflicting coupling pair."""

    name = "crosstalk/sequentialize"

    def __init__(self, conflicts) -> None:
        self.conflicts = list(conflicts)
        self.info = {"conflict_pairs": len(self.conflicts)}

    def run(self, context: PassContext) -> None:
        from .crosstalk import sequentialize_crosstalk

        if context.circuit is None:
            raise ValueError("crosstalk pass requires a compiled circuit")
        context.circuit = sequentialize_crosstalk(
            context.circuit, self.conflicts
        )


class PeepholePass:
    """Optional lowering stage: decompose to the IBM basis and run the
    peephole optimizer (CNOT cancellation at CPHASE/SWAP seams, phase
    merging).  Not part of any paper preset — presets keep the circuit in
    high-level gates; enable via ``PipelineSpec(lower=True)``."""

    name = "lower/peephole"

    def run(self, context: PassContext) -> None:
        from ..circuits.optimize import peephole_optimize

        if context.circuit is None:
            raise ValueError("peephole pass requires a compiled circuit")
        context.circuit = peephole_optimize(
            decompose_to_basis(context.circuit)
        )


# ----------------------------------------------------------------------
# spec -> pipeline
# ----------------------------------------------------------------------
def build_pipeline(
    spec: PipelineSpec,
    crosstalk_conflicts=None,
) -> Pipeline:
    """Assemble the concrete pass list for a declarative spec.

    Stage order mirrors Figure 2: placement, then ordering+routing (a
    single incremental pass for IC/VIC, separate ordering and routing
    passes otherwise), then the optional crosstalk sequentialisation and
    peephole lowering.  The structural methods deviate: ``swap_network``
    replaces routing with the odd/even brick network on the placed
    chain, and ``parity`` is a single pass that re-encodes, places and
    routes the problem itself (there is no logical→physical placement to
    run first).
    """
    if spec.ordering == "parity":
        from .parity import ParityEncodingPass

        passes: List[Pass] = [
            ParityEncodingPass(
                constraint_strength=spec.constraint_strength,
                router=spec.router,
            )
        ]
        if crosstalk_conflicts is not None:
            passes.append(CrosstalkPass(crosstalk_conflicts))
        if spec.lower:
            passes.append(PeepholePass())
        return Pipeline(passes, name=spec.method)
    passes = [
        PlacementPass(spec.placement, qaim_radius=spec.qaim_radius)
    ]
    if spec.ordering == "random":
        passes.append(RandomOrderingPass())
        passes.append(RoutingPass(spec.router))
    elif spec.ordering == "ip":
        passes.append(IPOrderingPass(packing_limit=spec.packing_limit))
        passes.append(RoutingPass(spec.router))
    elif spec.ordering in ("ic", "vic"):
        if spec.ordering == "vic":
            passes.append(VICDistancePass())
        passes.append(
            IncrementalRoutingPass(
                router=spec.router,
                packing_limit=spec.packing_limit,
                label=spec.ordering,
            )
        )
    elif spec.ordering == "swap_network":
        from .swap_network import SwapNetworkPass

        passes.append(SwapNetworkPass())
    else:
        raise ValueError(f"unknown ordering {spec.ordering!r} in spec")
    if crosstalk_conflicts is not None:
        passes.append(CrosstalkPass(crosstalk_conflicts))
    if spec.lower:
        passes.append(PeepholePass())
    return Pipeline(passes, name=spec.method)
