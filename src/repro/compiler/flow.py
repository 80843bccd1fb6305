"""Compilation flows: NAIVE, GreedyV/E, QAIM, IP, IC, VIC (Figure 2).

A flow is the combination of two orthogonal choices:

* **placement** — how the initial logical-to-physical mapping is chosen
  (``random`` for NAIVE, ``greedy_v``/``greedy_e`` baselines, ``qaim``);
* **ordering** — how the commuting CPHASE gates are scheduled
  (``random``, ``ip`` bin-packing, ``ic`` incremental, ``vic``
  variation-aware incremental).

The paper's named methods are presets over these knobs
(:data:`METHOD_PRESETS`): NAIVE = random+random, QAIM = qaim+random,
IP = qaim+ip, IC = qaim+ic, VIC = qaim+vic.

Since the pass-pipeline refactor this module is a thin wrapper: a preset
is a declarative :class:`~repro.compiler.pipeline.PipelineSpec`,
:func:`compile_qaoa`/:func:`compile_spec` assemble the concrete pass list
via :func:`~repro.compiler.pipeline.build_pipeline` and run it, and the
per-pass instrumentation lands on the result as
:attr:`CompiledQAOA.pass_trace`.

Every flow produces a :class:`CompiledQAOA`: a coupling-compliant physical
circuit (H prefix, routed CPHASE blocks, RX mixers at the logical qubits'
*current* physical homes, measurements at their final homes) plus the
mapping provenance needed to decode samples and the wall-clock compile time.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Union

import numpy as np

from ..circuits import QuantumCircuit, decompose_to_basis
from ..circuits.gates import Instruction
from ..hardware.calibration import Calibration
from ..hardware.coupling import CouplingGraph
from ..hardware.target import Target, intern_target
from ..qaoa.problems import QAOAProgram
from .backend import _coupling_violation
from .ic import IncrementalCompiler
from .mapping import Mapping
from .metrics import native_metrics, success_probability
from .pipeline import PassContext, PassRecord, PipelineSpec, build_pipeline
from .placement import (
    greedy_e_placement,
    greedy_v_placement,
    random_placement,
    trivial_placement,
)
from .qaim import qaim_placement
from .registry import get_method, method_presets_view
from .swap_network import linear_placement

__all__ = [
    "CompiledQAOA",
    "compile_qaoa",
    "compile_spec",
    "compile_with_method",
    "run_incremental_flow",
    "METHOD_PRESETS",
    "PLACEMENTS",
    "ORDERINGS",
    "ROUTERS",
]

PLACEMENTS = {
    "trivial": trivial_placement,
    "random": random_placement,
    "greedy_v": greedy_v_placement,
    "greedy_e": greedy_e_placement,
    "qaim": qaim_placement,
    "linear": linear_placement,
}

ORDERINGS = ("random", "ip", "ic", "vic", "swap_network", "parity")

ROUTERS = ("layered", "sabre")

#: Named methodologies as declarative pipeline specs: a live, read-only
#: view over :mod:`repro.compiler.registry`.  Register new methods with
#: :func:`~repro.compiler.registry.register_method`.
METHOD_PRESETS = method_presets_view()


@dataclasses.dataclass
class CompiledQAOA:
    """A hardware-compliant QAOA circuit with full provenance.

    Attributes:
        circuit: Routed circuit on physical qubits, high-level gates
            (h/cphase/rx/swap/measure); every two-qubit gate is
            coupling-compliant.
        coupling: Target device.
        program: The QAOA program that was compiled.
        initial_mapping: logical -> physical at circuit start.
        final_mapping: logical -> physical at measurement time.
        swap_count: SWAP gates inserted by routing.
        compile_time: Wall-clock seconds for the whole flow (placement
            included), the paper's compilation-time metric.
        method: Flow description, e.g. ``"qaim+ic"``.
        warnings: Degradation provenance: every repair or fallback taken
            on the way to this circuit (e.g. a VIC→IC distance fallback,
            calibration repairs applied upstream).  Empty for a clean
            compilation.
        pass_trace: Per-pass instrumentation (one
            :class:`~repro.compiler.pipeline.PassRecord` per pipeline
            stage: wall time, SWAPs inserted, depth/gate deltas).  Empty
            for results built outside the pipeline (e.g. deserialised
            pre-pipeline payloads).
        target_fingerprint: Content fingerprint of the
            :class:`~repro.hardware.target.Target` compiled against
            (``None`` for un-fingerprintable calibrations or legacy
            payloads) — the device+calibration identity downstream caches
            and telemetry key on.
        encoding: How the circuit's register relates to the program —
            ``"direct"`` (mappings are logical→physical; every paper
            method and the SWAP network) or ``"parity"`` (mappings are
            parity-slot→physical; see :mod:`repro.compiler.parity`).
        encoding_info: Encoding-specific decode metadata (slot pairs,
            constraints, decode paths for ``"parity"``; empty for
            ``"direct"``).
    """

    circuit: QuantumCircuit
    coupling: CouplingGraph
    program: QAOAProgram
    initial_mapping: Dict[int, int]
    final_mapping: Dict[int, int]
    swap_count: int
    compile_time: float
    method: str
    warnings: List[str] = dataclasses.field(default_factory=list)
    pass_trace: List[PassRecord] = dataclasses.field(default_factory=list)
    target_fingerprint: Optional[str] = None
    encoding: str = "direct"
    encoding_info: dict = dataclasses.field(default_factory=dict)
    _native_cache: Dict[bool, QuantumCircuit] = dataclasses.field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def num_logical(self) -> int:
        """Number of logical (program) qubits."""
        return self.program.num_qubits

    def native(self, optimize: bool = False) -> QuantumCircuit:
        """The circuit lowered to the IBM basis.

        The lowering is memoized per ``optimize`` flag — a compiled result
        is effectively frozen, so the basis decomposition runs at most once
        per flag.  ``depth()``/``gate_count()``/``success_probability()``
        do not need it (see :func:`repro.compiler.metrics.native_metrics`).

        Args:
            optimize: Run the peephole pass (CNOT cancellation at
                CPHASE/SWAP seams, phase merging) on the lowered circuit.
        """
        key = bool(optimize)
        cached = self._native_cache.get(key)
        if cached is not None:
            return cached
        lowered = decompose_to_basis(self.circuit)
        if optimize:
            from ..circuits.optimize import peephole_optimize

            lowered = peephole_optimize(lowered)
        self._native_cache[key] = lowered
        return lowered

    def depth(self) -> int:
        """Native-basis critical-path depth."""
        return native_metrics(self.circuit).depth

    def gate_count(self) -> int:
        """Native-basis total gate count (measurements included)."""
        return native_metrics(self.circuit).gate_count

    def validate(self) -> None:
        """Assert coupling compliance of every two-qubit gate."""
        inst = _coupling_violation(self.circuit, self.coupling)
        if inst is not None:
            raise AssertionError(
                f"gate {inst} violates coupling of {self.coupling.name}"
            )

    def success_probability(self, calibration: Calibration, **kwargs) -> float:
        """Product-of-gate-success-rates metric (see
        :func:`repro.compiler.metrics.success_probability`)."""
        return success_probability(self.circuit, calibration, **kwargs)


def _validate_spec(
    spec: PipelineSpec,
    coupling: CouplingGraph,
    calibration: Optional[Calibration],
) -> None:
    """Reject bad knob combinations with the historical error messages."""
    if spec.ordering == "parity":
        # The parity pass re-encodes the problem and places the parity
        # qubits itself; "lhz" marks that there is no logical placement.
        if spec.placement != "lhz":
            raise ValueError(
                "parity ordering requires placement 'lhz' (the pass "
                "places its own parity qubits)"
            )
    elif spec.placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {spec.placement!r}; "
            f"options: {sorted(PLACEMENTS)}"
        )
    if spec.ordering not in ORDERINGS:
        raise ValueError(
            f"unknown ordering {spec.ordering!r}; options: {ORDERINGS}"
        )
    if spec.ordering == "vic":
        if calibration is None:
            raise ValueError("VIC ordering requires calibration data")
        if calibration.coupling.name != coupling.name:
            raise ValueError(
                "calibration device does not match target coupling"
            )
    if spec.router not in ROUTERS:
        raise ValueError(
            f"unknown router {spec.router!r}; options: {ROUTERS}"
        )


def _resolve_target(
    coupling,
    calibration: Optional[Calibration],
    target: Optional[Target],
) -> Target:
    """Normalise the (coupling, calibration, target) entry-point triple.

    Callers either pass the loose objects (interned into a shared
    :class:`~repro.hardware.target.Target` here) or a prebuilt target —
    possibly *as* the ``coupling`` argument, so call sites read
    ``compile_with_method(program, target, method)``.
    """
    if isinstance(coupling, Target):
        if target is not None and target is not coupling:
            raise ValueError("got two different targets")
        target = coupling
    if target is None:
        if coupling is None:
            raise ValueError("a coupling graph or Target is required")
        return intern_target(coupling, calibration)
    if calibration is not None and calibration is not target.calibration:
        raise ValueError(
            "calibration argument conflicts with the target's calibration; "
            "build the target from the calibration you want"
        )
    return target


def compile_spec(
    program: QAOAProgram,
    coupling=None,
    spec: PipelineSpec = None,
    calibration: Optional[Calibration] = None,
    rng: Optional[np.random.Generator] = None,
    crosstalk_conflicts=None,
    target: Optional[Target] = None,
) -> CompiledQAOA:
    """Compile a QAOA program through the pipeline a spec describes.

    This is the single seam every compilation takes: it resolves the
    device view into a shared :class:`~repro.hardware.target.Target`,
    validates the spec, assembles the pass list with
    :func:`~repro.compiler.pipeline.build_pipeline`, runs it, and wraps
    the evolved context into a :class:`CompiledQAOA` (pass trace and
    target fingerprint included).

    Args:
        program: Logical QAOA program (edges + per-level angles).
        coupling: Target device topology, or a prebuilt
            :class:`~repro.hardware.target.Target`.
        spec: Declarative flow description (placement, ordering, router,
            knobs).
        calibration: Required for ``ordering="vic"``; must cover
            ``coupling``.  Ignored in favour of ``target.calibration``
            when a target is passed (passing both is an error unless they
            are the same object).
        rng: Random generator driving every stochastic tie-break.
        crosstalk_conflicts: Optional iterable of conflicting coupling
            pairs; when given, a crosstalk sequentialisation pass runs
            post-routing.  Defaults to the target's own conflict sets.
    target: Prebuilt device view; batches/sweeps pass one interned
            target so the O(n³) device analyses run once per device.
    """
    if spec is None:
        raise ValueError("compile_spec requires a PipelineSpec")
    resolved = _resolve_target(coupling, calibration, target)
    _validate_spec(spec, resolved.coupling, resolved.calibration)
    rng = rng if rng is not None else np.random.default_rng()

    if crosstalk_conflicts is None and resolved.conflict_sets():
        crosstalk_conflicts = resolved.conflict_sets()
    pipeline = build_pipeline(spec, crosstalk_conflicts=crosstalk_conflicts)
    context = PassContext(
        program=program,
        target=resolved,
        rng=rng,
    )
    start = time.perf_counter()
    pipeline.run(context)
    elapsed = time.perf_counter() - start

    result = CompiledQAOA(
        circuit=context.circuit,
        # Preserve the caller's coupling instance when one was passed
        # loose (interning may have matched a content-equal device).
        coupling=coupling if isinstance(coupling, CouplingGraph) else resolved.coupling,
        program=program,
        initial_mapping=context.initial_mapping,
        final_mapping=context.final_mapping,
        swap_count=context.swap_count,
        compile_time=elapsed,
        method=spec.method,
        warnings=context.warnings,
        pass_trace=context.trace,
        target_fingerprint=resolved.fingerprint,
        encoding=context.encoding,
        encoding_info=context.encoding_info,
    )
    result.validate()
    return result


def compile_qaoa(
    program: QAOAProgram,
    coupling=None,
    placement: str = "qaim",
    ordering: str = "random",
    calibration: Optional[Calibration] = None,
    packing_limit: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    qaim_radius: int = 2,
    router: str = "layered",
    crosstalk_conflicts=None,
    target: Optional[Target] = None,
) -> CompiledQAOA:
    """Compile a QAOA program with the chosen placement and ordering.

    Thin wrapper over :func:`compile_spec` — the knobs are packed into a
    :class:`~repro.compiler.pipeline.PipelineSpec` and run through the
    pass pipeline.

    Args:
        program: Logical QAOA program (edges + per-level angles).
        coupling: Target device topology (or a prebuilt
            :class:`~repro.hardware.target.Target`).
        placement: One of :data:`PLACEMENTS`.
        ordering: One of :data:`ORDERINGS`.
        calibration: Required for ``ordering="vic"``; must cover
            ``coupling``.
        packing_limit: Optional max CPHASE gates per formed layer
            (applies to ``ip``/``ic``/``vic``; Figure 12's knob).
        rng: Random generator driving every stochastic tie-break.
        qaim_radius: Connectivity-strength radius when placement is QAIM.
        router: Backend SWAP router — ``"layered"`` (the qiskit-style
            layer-partitioning backend) or ``"sabre"`` (lookahead search).
            The paper's methodologies are front-ends to either.
        crosstalk_conflicts: Optional iterable of conflicting coupling
            pairs; when given, the Section VI crosstalk sequentialisation
            pass runs post-compilation (see
            :func:`repro.compiler.crosstalk.sequentialize_crosstalk`).
        target: Prebuilt :class:`~repro.hardware.target.Target` carrying
            coupling + calibration + memoized oracles.

    Returns:
        A :class:`CompiledQAOA`.
    """
    spec = PipelineSpec(
        placement=placement,
        ordering=ordering,
        router=router,
        qaim_radius=qaim_radius,
        packing_limit=packing_limit,
    )
    return compile_spec(
        program,
        coupling,
        spec,
        calibration=calibration,
        rng=rng,
        crosstalk_conflicts=crosstalk_conflicts,
        target=target,
    )


def run_incremental_flow(
    program: QAOAProgram,
    mapping: Mapping,
    compiler: IncrementalCompiler,
):
    """Drive a (possibly custom) incremental compiler through a full QAOA
    program: H prefix, per-level CPHASE blocks and mixers, measurements.

    Exposed so ablation studies can plug in IncrementalCompiler variants
    (frozen-distance ordering, alternative edge weights, ...) and still get
    a complete circuit.  Mutates ``mapping``; returns
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


def compile_with_method(
    program: QAOAProgram,
    coupling=None,
    method: Union[str, PipelineSpec] = "ic",
    calibration: Optional[Calibration] = None,
    packing_limit: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    router: str = "layered",
    qaim_radius: int = 2,
    crosstalk_conflicts=None,
    target: Optional[Target] = None,
) -> CompiledQAOA:
    """Compile using a named method or an explicit pipeline spec.

    ``method`` is either a name in the method registry (the paper's
    ``naive``, ``greedy_v``, ``greedy_e``, ``qaim``, ``ip``, ``ic``,
    ``vic``, the structural ``swap_network``/``parity``, plus anything
    added via :func:`repro.compiler.register_method`) or a
    :class:`~repro.compiler.pipeline.PipelineSpec` instance used as-is.
    ``coupling`` accepts either a device topology or a prebuilt
    :class:`~repro.hardware.target.Target` (equivalently pass ``target=``).
    ``router`` selects the backend (``"layered"``/``"sabre"``),
    ``qaim_radius`` tunes QAIM's connectivity-strength radius, and
    ``crosstalk_conflicts`` appends the Section VI sequentialisation pass
    — all forwarded to :func:`compile_spec`.  When ``method`` is a spec,
    those knobs live *inside* the spec; passing them here too raises.
    """
    if isinstance(method, PipelineSpec):
        if (
            router != "layered"
            or qaim_radius != 2
            or packing_limit is not None
        ):
            raise ValueError(
                "router/qaim_radius/packing_limit are fields of the "
                "PipelineSpec when compiling from a spec; set them there"
            )
        spec = method
    else:
        preset = get_method(method)
        spec = preset.replace(
            router=router,
            qaim_radius=qaim_radius,
            packing_limit=packing_limit,
        )
    return compile_spec(
        program,
        coupling,
        spec,
        calibration=calibration,
        rng=rng,
        crosstalk_conflicts=crosstalk_conflicts,
        target=target,
    )
