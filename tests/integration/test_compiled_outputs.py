"""Contracts every registered method's compiled circuit keeps.

* The one-pass native metrics (depth, gate count, CNOT count, success
  probability) equal the numbers read off the ``decompose_to_basis``
  lowering — success probability bit for bit, against the gate-by-gate
  product below.
* Instructions the router copies without re-validation are exactly what
  the validating constructor builds, with ``int`` qubits and ``float``
  params.
* OpenQASM round-trips the compiled circuit, and ``qasm.dumps`` writes
  the same bytes as its pre-rewrite reference kept below.
* A program built from numpy scalars compiles to the instructions of its
  Python-scalar twin.

Both paper devices, with and without a calibration whose per-edge and
per-qubit rates all differ (so multiplication order shows in the bits);
the metrics are also checked on hand-built circuits that use every gate.
"""

import numpy as np
import pytest

from repro.circuits import GATES, Instruction, QuantumCircuit, decompose_to_basis, qasm
from repro.compiler import available_methods, compile_with_method
from repro.compiler.metrics import measure_compiled, native_metrics, success_probability
from repro.hardware import Calibration, ibmq_16_melbourne, ibmq_20_tokyo, linear_device
from repro.qaoa import Level, MaxCutProblem, QAOAProgram

PROGRAM = MaxCutProblem(
    8,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7),
     (0, 4), (1, 6), (2, 5), (3, 7)],
).to_program([0.7, 0.4], [0.35, 0.2])

DEVICES = (ibmq_20_tokyo, ibmq_16_melbourne)

FLAGS = [
    dict(include_readout=readout, include_single_qubit=single)
    for readout in (False, True)
    for single in (False, True)
]

CASES = [
    pytest.param(
        device,
        method,
        calibrated,
        id=f"{device.__name__}-{method}-{'cal' if calibrated else 'nocal'}",
    )
    for device in DEVICES
    for method in available_methods()
    for calibrated in (False, True)
    if calibrated or method != "vic"  # VIC needs a calibration
]


def _calibration(device):
    rng = np.random.default_rng(7)
    qubits = range(device.num_qubits)
    return Calibration(
        device,
        cnot_error={e: float(rng.uniform(0.005, 0.05)) for e in sorted(device.edges)},
        single_qubit_error={q: float(rng.uniform(1e-4, 1e-2)) for q in qubits},
        readout_error={q: float(rng.uniform(0.01, 0.08)) for q in qubits},
    )


def _compile(device_fn, method, calibrated):
    device = device_fn()
    calibration = _calibration(device) if calibrated else None
    compiled = compile_with_method(
        PROGRAM,
        device,
        method,
        calibration=calibration,
        rng=np.random.default_rng(3),
    )
    return compiled, calibration


def reference_success(native, calibration, include_readout, include_single_qubit):
    """The success product over the lowered circuit, gate by gate."""
    prob = 1.0
    for inst in native:
        if inst.name == "cnot":
            prob *= calibration.cnot_success(*inst.qubits)
        elif inst.name == "measure":
            if include_readout:
                prob *= calibration.readout_fidelity(inst.qubits[0])
        elif inst.name in ("barrier", "u1"):
            continue
        elif include_single_qubit:
            prob *= calibration.single_qubit_success(inst.qubits[0])
    return prob


@pytest.mark.parametrize("device_fn, method, calibrated", CASES)
def test_native_metrics_equal_lowered_reference(device_fn, method, calibrated):
    compiled, calibration = _compile(device_fn, method, calibrated)
    native = decompose_to_basis(compiled.circuit)
    expected = (native.depth(), native.gate_count(), native.count_ops().get("cnot", 0))
    assert (compiled.depth(), compiled.gate_count()) == expected[:2]
    for flags in FLAGS:
        measured = measure_compiled(compiled, calibration=calibration, **flags)
        assert (measured.depth, measured.gate_count, measured.cnot_count) == expected
        if calibration is None:
            assert measured.success_probability is None
            continue
        reference = reference_success(native, calibration, **flags)
        assert measured.success_probability == reference
        assert compiled.success_probability(calibration, **flags) == reference
        assert success_probability(native, calibration, **flags) == reference


def _every_gate_circuit():
    """Every gate of ``GATES`` twice: single-qubit gates on qubit 1 then 2,
    two-qubit gates on (0, 1) then reversed on (3, 2), a partial then a
    full-width barrier."""
    qc = QuantumCircuit(4)
    rounds = (((1,), (0, 1), (1, 2)), ((2,), (3, 2), (0, 1, 2, 3)))
    for k, (one, two, span) in enumerate(rounds):
        for name, spec in sorted(GATES.items()):
            qubits = {1: one, 2: two}.get(spec.num_qubits, span)
            params = tuple(0.1 * (i + 1 + k) for i in range(spec.num_params))
            qc.append(Instruction(name, qubits, params))
    return qc


def test_every_gate_circuit_metrics_equal_lowered_reference():
    circuit = _every_gate_circuit()
    assert set(circuit.count_ops()) == set(GATES)
    native = decompose_to_basis(circuit)
    expected = (native.depth(), native.gate_count(), native.count_ops().get("cnot", 0))
    assert native_metrics(circuit)[:3] == expected
    assert native_metrics(circuit).success_probability is None
    calibration = _calibration(linear_device(4))
    for flags in FLAGS:
        counts = native_metrics(circuit, calibration, **flags)
        assert counts[:3] == expected
        reference = reference_success(native, calibration, **flags)
        assert counts.success_probability == reference
        assert success_probability(native, calibration, **flags) == reference


@pytest.mark.parametrize("device_fn", DEVICES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("method", available_methods())
def test_emitted_instructions_revalidate_and_round_trip(device_fn, method):
    compiled, _ = _compile(device_fn, method, calibrated=True)
    for inst in compiled.circuit:
        assert Instruction(inst.name, inst.qubits, inst.params) == inst
        assert type(inst.qubits) is tuple and type(inst.params) is tuple
        assert all(type(q) is int for q in inst.qubits), inst
        assert all(type(p) is float for p in inst.params), inst
    assert qasm.loads(qasm.dumps(compiled.circuit)) == compiled.circuit


def reference_qasm_dumps(circuit):
    """``qasm.dumps`` as it was written before its one-loop rewrite (the
    byte-for-byte reference the rewrite must reproduce)."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.num_qubits}];",
        f"creg c[{circuit.num_qubits}];",
    ]
    for inst in circuit:
        if inst.name == "barrier":
            args = ", ".join(f"q[{q}]" for q in inst.qubits)
            lines.append(f"barrier {args};")
            continue
        if inst.name == "measure":
            q = inst.qubits[0]
            lines.append(f"measure q[{q}] -> c[{q}];")
            continue
        name = qasm._TO_QASM.get(inst.name, inst.name)
        if name not in qasm._SUPPORTED:
            raise qasm.QASMError(f"gate {inst.name!r} has no QASM 2.0 mapping")
        params = (
            "(" + ",".join(repr(p) for p in inst.params) + ")"
            if inst.params
            else ""
        )
        args = ",".join(f"q[{q}]" for q in inst.qubits)
        lines.append(f"{name}{params} {args};")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("device_fn", DEVICES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("method", available_methods())
def test_qasm_dumps_equals_reference(device_fn, method):
    compiled, _ = _compile(device_fn, method, calibrated=True)
    assert qasm.dumps(compiled.circuit) == reference_qasm_dumps(compiled.circuit)


def test_qasm_dumps_equals_reference_on_every_gate():
    circuit = _every_gate_circuit()
    # Signed zeros, a subnormal and an empty barrier on top of every gate.
    circuit.append(Instruction("barrier", ()))
    circuit.append(Instruction("u3", (0,), (-0.0, 0.0, 5e-324)))
    circuit.append(Instruction("cphase", (2, 3), (-0.0,)))
    circuit.append(Instruction("cphase", (3, 2), (0.0,)))
    assert qasm.dumps(circuit) == reference_qasm_dumps(circuit)


def test_numpy_scalar_program_compiles_like_its_python_twin():
    twin = QAOAProgram(
        num_qubits=np.int64(PROGRAM.num_qubits),
        edges=[(np.int64(a), np.int32(b), np.float64(w)) for a, b, w in PROGRAM.edges],
        levels=[Level(np.float64(lv.gamma), np.float64(lv.beta)) for lv in PROGRAM.levels],
    )
    python = PROGRAM
    assert twin == python
    for device_fn in DEVICES:
        for method in available_methods():
            a = compile_with_method(
                twin, device_fn(), method, calibration=_calibration(device_fn()),
                rng=np.random.default_rng(3),
            )
            b = compile_with_method(
                python, device_fn(), method, calibration=_calibration(device_fn()),
                rng=np.random.default_rng(3),
            )
            assert a.circuit.instructions == b.circuit.instructions, method
            for inst in a.circuit:
                assert all(type(q) is int for q in inst.qubits), inst
                assert all(type(p) is float for p in inst.params), inst
