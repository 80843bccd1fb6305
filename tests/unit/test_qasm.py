"""Unit tests for OpenQASM 2.0 export/import."""

import math
import struct

import numpy as np
import pytest

from repro.circuits import QuantumCircuit, decompose_to_basis
from repro.circuits.qasm import QASMError, _eval_param, dumps, loads
from repro.sim import StatevectorSimulator


def _full_circuit():
    qc = QuantumCircuit(3)
    qc.h(0).x(1).y(2).z(0).s(1).sdg(2).t(0)
    qc.rx(0.3, 0).ry(-0.4, 1).rz(1.2, 2)
    qc.u1(0.1, 0).u2(0.2, 0.3, 1).u3(0.4, 0.5, 0.6, 2)
    qc.cnot(0, 1).cz(1, 2).swap(0, 2).cphase(0.7, 0, 1).cu1(0.8, 1, 2)
    qc.barrier().measure_all()
    return qc


class TestDumps:
    def test_header_and_registers(self):
        text = dumps(QuantumCircuit(4).h(0))
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[4];" in text
        assert "creg c[4];" in text

    def test_gate_name_mapping(self):
        text = dumps(QuantumCircuit(2).cnot(0, 1).cphase(0.5, 0, 1))
        assert "cx q[0],q[1];" in text
        assert "rzz(0.5) q[0],q[1];" in text

    def test_measure_syntax(self):
        text = dumps(QuantumCircuit(2).measure(1))
        assert "measure q[1] -> c[1];" in text

    def test_barrier(self):
        text = dumps(QuantumCircuit(2).barrier())
        assert "barrier q[0], q[1];" in text

    def test_params_are_full_precision(self):
        theta = 0.12345678901234567
        text = dumps(QuantumCircuit(1).rx(theta, 0))
        assert repr(theta) in text


class TestLoads:
    def test_round_trip_instructions(self):
        qc = _full_circuit()
        parsed = loads(dumps(qc))
        assert parsed.num_qubits == qc.num_qubits
        assert parsed.instructions == qc.instructions

    def test_round_trip_preserves_state(self):
        qc = _full_circuit().only_unitary()
        sim = StatevectorSimulator()
        np.testing.assert_allclose(
            sim.run(qc), sim.run(loads(dumps(qc))), atol=1e-12
        )

    def test_pi_expressions(self):
        text = (
            "OPENQASM 2.0; include \"qelib1.inc\";\n"
            "qreg q[1]; creg c[1];\n"
            "rx(pi/2) q[0]; u1(-pi) q[0];"
        )
        parsed = loads(text)
        assert parsed[0].params[0] == pytest.approx(math.pi / 2)
        assert parsed[1].params[0] == pytest.approx(-math.pi)

    def test_decimal_parameters_parse_bit_exact(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64)
        values = [float(v) for v in bits.view(np.float64) if np.isfinite(v)]
        values += [float(v) for v in rng.normal(scale=3.0, size=500)]
        values += [
            0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
            -1.5e-310, 1e-05, -1e22, 1e300, 1.7976931348623157e308,
            0.1, -0.7, 123456789.0,
        ]
        for value in values:
            parsed = _eval_param(repr(value))
            assert struct.pack("<d", parsed) == struct.pack("<d", value), value

    def test_comments_stripped(self):
        text = (
            "OPENQASM 2.0; // header\n"
            "qreg q[1];\n"
            "h q[0]; // a hadamard\n"
        )
        parsed = loads(text)
        assert parsed[0].name == "h"

    def test_missing_header_rejected(self):
        with pytest.raises(QASMError, match="header"):
            loads("qreg q[2]; h q[0];")

    def test_unsupported_gate_rejected(self):
        with pytest.raises(QASMError, match="unsupported gate"):
            loads("OPENQASM 2.0; qreg q[3]; ccx q[0],q[1],q[2];")

    def test_bad_parameter_count(self):
        with pytest.raises(QASMError, match="parameter"):
            loads("OPENQASM 2.0; qreg q[1]; rx q[0];")

    def test_statement_before_qreg(self):
        with pytest.raises(QASMError, match="before qreg"):
            loads("OPENQASM 2.0; h q[0];")

    def test_unknown_register(self):
        with pytest.raises(QASMError, match="bad qubit argument"):
            loads("OPENQASM 2.0; qreg q[2]; h r[0];")

    def test_evil_parameter_expression_rejected(self):
        with pytest.raises(QASMError, match="unsupported parameter"):
            loads('OPENQASM 2.0; qreg q[1]; rx(__import__) q[0];')

    def test_no_qreg(self):
        with pytest.raises(QASMError, match="qreg"):
            loads("OPENQASM 2.0;")


class TestMeasureTargets:
    """The IR keeps no classical operand, so a measure must write its own
    qubit's bit of the declared creg; anything else is refused, not
    dropped."""

    HEAD = 'OPENQASM 2.0; include "qelib1.inc"; qreg q[3]; '

    def test_dumps_measures_read_back(self):
        qc = QuantumCircuit(3).h(0).measure_all()
        assert loads(dumps(qc)).instructions == qc.instructions

    def test_other_bit_rejected(self):
        with pytest.raises(QASMError, match="must write bit 0"):
            loads(self.HEAD + "creg c[3]; measure q[0] -> c[2];")

    def test_undeclared_register_rejected(self):
        with pytest.raises(QASMError, match="unknown classical register"):
            loads(self.HEAD + "creg c[3]; measure q[0] -> zz[0];")

    def test_measure_without_creg_rejected(self):
        with pytest.raises(QASMError, match="before any creg"):
            loads(self.HEAD + "measure q[0] -> c[0];")

    def test_bit_outside_creg_rejected(self):
        with pytest.raises(QASMError, match=r"c\[2\]"):
            loads(self.HEAD + "creg c[2]; measure q[2] -> c[2];")

    def test_second_creg_rejected(self):
        with pytest.raises(QASMError, match="multiple creg"):
            loads(self.HEAD + "creg c[3]; creg d[3];")


class TestCompiledCircuitExport:
    def test_compiled_qaoa_round_trips(self, rng):
        from repro.compiler import compile_with_method
        from repro.hardware import ring_device
        from repro.qaoa import MaxCutProblem

        problem = MaxCutProblem(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        program = problem.to_program([0.5], [0.3])
        compiled = compile_with_method(
            program, ring_device(6), "ic", rng=rng
        )
        parsed = loads(dumps(compiled.circuit))
        assert parsed.instructions == compiled.circuit.instructions

    def test_native_circuit_round_trips(self, rng):
        qc = decompose_to_basis(
            QuantumCircuit(3).h(0).cphase(0.4, 0, 1).swap(1, 2)
        )
        parsed = loads(dumps(qc))
        assert parsed.instructions == qc.instructions
