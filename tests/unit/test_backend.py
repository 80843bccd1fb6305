"""Unit tests for the conventional layer-partitioning backend compiler."""

import pytest

from repro.circuits import QuantumCircuit
from repro.compiler.backend import ConventionalBackend, CouplingError
from repro.compiler.mapping import Mapping
from repro.hardware import linear_device, ring_device


class TestBasicCompilation:
    def test_adjacent_gates_pass_through(self):
        g = linear_device(3)
        backend = ConventionalBackend(g)
        qc = QuantumCircuit(3).cnot(0, 1).cnot(1, 2)
        result = backend.compile(qc, Mapping.trivial(3, 3))
        assert result.swap_count == 0
        assert [i.name for i in result.circuit] == ["cnot", "cnot"]

    def test_distant_gate_gets_swaps(self):
        g = linear_device(4)
        backend = ConventionalBackend(g)
        qc = QuantumCircuit(4).cnot(0, 3)
        result = backend.compile(qc, Mapping.trivial(4, 4))
        assert result.swap_count == 2
        result.validate()

    def test_single_qubit_gates_remap(self):
        g = linear_device(3)
        backend = ConventionalBackend(g)
        mapping = Mapping({0: 2, 1: 0, 2: 1}, 3)
        qc = QuantumCircuit(3).h(0).rx(0.5, 1)
        result = backend.compile(qc, mapping)
        assert result.circuit[0].qubits == (2,)
        assert result.circuit[1].qubits == (0,)

    def test_measure_remaps_to_final_position(self):
        g = linear_device(4)
        backend = ConventionalBackend(g)
        qc = QuantumCircuit(4).cnot(0, 3).measure(0).measure(3)
        result = backend.compile(qc, Mapping.trivial(4, 4))
        measures = [i for i in result.circuit if i.name == "measure"]
        assert {m.qubits[0] for m in measures} == {
            result.final_mapping[0],
            result.final_mapping[3],
        }

    def test_input_mapping_not_mutated(self):
        g = linear_device(4)
        backend = ConventionalBackend(g)
        mapping = Mapping.trivial(4, 4)
        backend.compile(QuantumCircuit(4).cnot(0, 3), mapping)
        assert mapping.as_dict() == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_initial_and_final_mappings_recorded(self):
        g = linear_device(4)
        backend = ConventionalBackend(g)
        result = backend.compile(
            QuantumCircuit(4).cnot(0, 3), Mapping.trivial(4, 4)
        )
        assert result.initial_mapping == {0: 0, 1: 1, 2: 2, 3: 3}
        assert result.initial_mapping != result.final_mapping

    def test_directives_dropped(self):
        g = linear_device(2)
        backend = ConventionalBackend(g)
        result = backend.compile(
            QuantumCircuit(2).h(0).barrier().cnot(0, 1), Mapping.trivial(2, 2)
        )
        assert all(i.name != "barrier" for i in result.circuit)


class TestCompiledCircuitMetrics:
    def test_native_lowering(self):
        g = linear_device(2)
        backend = ConventionalBackend(g)
        qc = QuantumCircuit(2).h(0).cphase(0.3, 0, 1)
        result = backend.compile(qc, Mapping.trivial(2, 2))
        native = result.native()
        assert native.count_ops() == {"u2": 1, "cnot": 2, "u1": 1}
        assert result.gate_count() == 4
        assert result.depth() == native.depth()

    def test_validate_catches_violations(self):
        g = linear_device(3)
        backend = ConventionalBackend(g)
        result = backend.compile(
            QuantumCircuit(3).cnot(0, 1), Mapping.trivial(3, 3)
        )
        # Corrupt the circuit to check validate() actually fires.
        result.circuit.cnot(0, 2)
        with pytest.raises(CouplingError, match="violates"):
            result.validate()


class TestContinueCompile:
    def test_stitching_matches_monolithic(self):
        """Compiling two halves with continue_compile equals compiling the
        concatenation in one shot (same layer structure)."""
        g = ring_device(6)
        backend = ConventionalBackend(g)
        first = QuantumCircuit(6).cphase(0.2, 0, 3)
        second = QuantumCircuit(6).cphase(0.2, 1, 4)
        whole = QuantumCircuit(6).cphase(0.2, 0, 3).cphase(0.2, 1, 4)

        mono = backend.compile(whole, Mapping.trivial(6, 6))

        mapping = Mapping.trivial(6, 6)
        out = QuantumCircuit(6)
        swaps = backend.continue_compile(first, mapping, out)
        swaps += backend.continue_compile(second, mapping, out)
        assert swaps == mono.swap_count
        assert out.instructions == mono.circuit.instructions
        assert mapping.as_dict() == mono.final_mapping

    def test_continue_compile_mutates_mapping(self):
        g = linear_device(4)
        backend = ConventionalBackend(g)
        mapping = Mapping.trivial(4, 4)
        out = QuantumCircuit(4)
        backend.continue_compile(QuantumCircuit(4).cnot(0, 3), mapping, out)
        assert mapping.as_dict() != {0: 0, 1: 1, 2: 2, 3: 3}


class TestWeightedBackend:
    def test_distance_matrix_steers_backend_routing(self):
        from repro.hardware import CouplingGraph

        g = CouplingGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        dist = g.weighted_distance_matrix(
            {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 50.0}
        )
        backend = ConventionalBackend(g, distance_matrix=dist)
        result = backend.compile(
            QuantumCircuit(4).cnot(0, 2), Mapping.trivial(4, 4)
        )
        swap_edges = {
            tuple(sorted(i.qubits)) for i in result.circuit if i.name == "swap"
        }
        assert (0, 3) not in swap_edges
