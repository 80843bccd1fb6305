"""Circuit-quality metrics (Section V-A).

The four metrics the paper reports for every compiled circuit:

* **depth** — native-basis critical-path length;
* **gate count** — native-basis total gates;
* **compilation time** — captured by the flows themselves;
* **success probability** — the product of per-gate success rates under a
  calibration (Section II: "the product of the success probabilities of
  individual gates").

Plus the derived counters useful in analysis: CNOT count and SWAP count.

Depth, gate count, CNOT count and success probability are all read off
the IBM-basis lowering of the routed circuit, but the lowered circuit is
never built for them: :func:`native_metrics` replays each gate's lowering
(derived once per gate name from
:func:`~repro.circuits.decompose.expand_instruction`) in one pass over the
high-level circuit.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import NamedTuple, Optional, Tuple

from ..circuits import IBM_BASIS, QuantumCircuit, decompose_to_basis
from ..circuits.decompose import expand_instruction
from ..circuits.gates import GATES, Instruction, gate_spec
from ..hardware.calibration import Calibration

__all__ = [
    "CircuitMetrics",
    "NativeCounts",
    "native_metrics",
    "success_probability",
    "measure_compiled",
]


@dataclasses.dataclass
class CircuitMetrics:
    """Bundle of the paper's circuit-quality numbers for one compilation.

    Attributes:
        method: Compilation flow name.
        depth: Native circuit depth.
        gate_count: Native total gate count.
        cnot_count: Native CNOT count.
        swap_count: SWAPs inserted by routing.
        compile_time: Wall-clock compile seconds.
        success_probability: Product-of-gate-success metric, when a
            calibration was supplied.
        execution_time_ns: Estimated wall-clock circuit duration under the
            default gate-duration model (when requested).
        decoherence_factor: Estimated T2 survival factor (when requested).
    """

    method: str
    depth: int
    gate_count: int
    cnot_count: int
    swap_count: int
    compile_time: float
    success_probability: Optional[float] = None
    execution_time_ns: Optional[float] = None
    decoherence_factor: Optional[float] = None


class NativeCounts(NamedTuple):
    """The native-basis numbers :func:`native_metrics` computes in one pass.

    ``success_probability`` is ``None`` when no calibration was given.
    """

    depth: int
    gate_count: int
    cnot_count: int
    success_probability: Optional[float]


# Kinds of native gate, by how they enter the metrics.
_CNOT, _MEASURE, _VIRTUAL, _SINGLE, _DIRECTIVE = range(5)


def _native_kind(name: str) -> int:
    if name == "cnot":
        return _CNOT
    if name == "measure":
        return _MEASURE
    if name == "u1":
        return _VIRTUAL
    if GATES[name].directive:
        return _DIRECTIVE
    return _SINGLE


@functools.lru_cache(maxsize=len(GATES))
def _lowering(name: str) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """``(kind, qubit positions)`` of each native gate that gate ``name``
    lowers to, in order: ``expand_instruction`` run to the native basis on
    a prototype acting on qubits ``0..k-1``, so its qubits are positions."""
    spec = gate_spec(name)
    pending = [
        Instruction(name, tuple(range(spec.num_qubits)), (0.0,) * spec.num_params)
    ]
    steps = []
    while pending:
        inst = pending.pop(0)
        if inst.name in IBM_BASIS:
            steps.append((_native_kind(inst.name), inst.qubits))
        else:
            pending[:0] = expand_instruction(inst)
    return tuple(steps)


def native_metrics(
    circuit: QuantumCircuit,
    calibration: Optional[Calibration] = None,
    include_readout: bool = False,
    include_single_qubit: bool = True,
) -> NativeCounts:
    """Depth, gate count, CNOT count and success probability of
    ``circuit`` lowered to the IBM basis, in one pass without lowering it.

    Each instruction replays its gate's native lowering: depth follows
    :func:`repro.circuits.dag.circuit_depth`, the counts follow
    :meth:`QuantumCircuit.gate_count` and ``count_ops()["cnot"]``, and the
    success-probability factors multiply in the lowered circuit's gate
    order, so every number equals the one computed on
    :func:`~repro.circuits.decompose.decompose_to_basis` output, bit for
    bit.  The success rules are :func:`success_probability`'s.
    """
    frontier = [0] * circuit.num_qubits
    depth = gates = cnots = 0
    prob = 1.0
    readout = calibration is not None and include_readout
    single = calibration is not None and include_single_qubit
    for inst in circuit:
        qubits = inst.qubits
        for kind, positions in _lowering(inst.name):
            if kind == _CNOT:
                a, b = qubits[positions[0]], qubits[positions[1]]
                t = max(frontier[a], frontier[b]) + 1
                frontier[a] = frontier[b] = t
                cnots += 1
                if calibration is not None:
                    prob *= calibration.cnot_success(a, b)
            elif kind == _DIRECTIVE:
                # A barrier (native, any width) syncs all of its qubits.
                start = max((frontier[q] for q in qubits), default=0)
                for q in qubits:
                    frontier[q] = start
                continue
            else:
                q = qubits[positions[0]]
                t = frontier[q] + 1
                frontier[q] = t
                if kind == _SINGLE:
                    if single:
                        prob *= calibration.single_qubit_success(q)
                elif kind == _MEASURE and readout:
                    prob *= calibration.readout_fidelity(q)
            gates += 1
            if t > depth:
                depth = t
    return NativeCounts(
        depth, gates, cnots, prob if calibration is not None else None
    )


def success_probability(
    circuit: QuantumCircuit,
    calibration: Calibration,
    include_readout: bool = False,
    include_single_qubit: bool = True,
) -> float:
    """Product of per-gate success rates of the circuit's native lowering.

    Rules:

    * ``cnot`` gates multiply in the calibrated coupling success rate —
      the dominant term, and the one the paper's VIC targets;
    * ``u1`` gates are free: on IBM hardware phase gates are implemented
      *virtually* (frame update), with no physical pulse — this is also why
      the CPHASE success model is just two CNOTs (Section IV-D);
    * other single-qubit gates multiply in the per-qubit single-qubit
      success rate when ``include_single_qubit``;
    * measurements multiply in readout fidelity when ``include_readout``.

    High-level gates count as their IBM-basis lowering (see
    :func:`native_metrics`); the circuit must be coupling-compliant for the
    calibration's device.
    """
    return native_metrics(
        circuit,
        calibration,
        include_readout=include_readout,
        include_single_qubit=include_single_qubit,
    ).success_probability


def measure_compiled(
    compiled,
    calibration: Optional[Calibration] = None,
    include_timing: bool = False,
    t2_ns: float = 70_000.0,
    **success_kwargs,
) -> CircuitMetrics:
    """Collect all metrics for a compiled result.

    Args:
        compiled: :class:`~repro.compiler.flow.CompiledQAOA` or
            :class:`~repro.compiler.backend.CompiledCircuit` (anything with
            ``circuit``, ``swap_count``, ``compile_time``, ``method``).
        calibration: When given, also compute success probability.
        include_timing: Also estimate execution time and the T2 survival
            factor under the default gate-duration model.
        t2_ns: Dephasing constant for the survival estimate.
        **success_kwargs: Forwarded to :func:`success_probability`.
    """
    counts = native_metrics(compiled.circuit, calibration, **success_kwargs)
    exec_ns = None
    survival = None
    if include_timing:
        from ..circuits.timing import decoherence_factor, execution_time

        native = decompose_to_basis(compiled.circuit)
        exec_ns = execution_time(native)
        survival = decoherence_factor(native, t2_ns=t2_ns)
    return CircuitMetrics(
        method=compiled.method,
        depth=counts.depth,
        gate_count=counts.gate_count,
        cnot_count=counts.cnot_count,
        swap_count=compiled.swap_count,
        compile_time=compiled.compile_time,
        success_probability=counts.success_probability,
        execution_time_ns=exec_ns,
        decoherence_factor=survival,
    )
