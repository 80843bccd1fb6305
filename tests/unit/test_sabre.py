"""Unit tests for the SABRE-style lookahead backend."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.compiler.backend import ConventionalBackend
from repro.compiler.mapping import Mapping
from repro.compiler.sabre import SabreBackend
from repro.hardware import (
    CouplingGraph,
    ibmq_20_tokyo,
    linear_device,
    ring_device,
)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def _cphase_circuit(pairs, n):
    qc = QuantumCircuit(n)
    for a, b in pairs:
        qc.cphase(0.5, a, b)
    return qc


class TestBasicRouting:
    def test_adjacent_gates_need_no_swaps(self):
        backend = SabreBackend(linear_device(3))
        result = backend.compile(
            QuantumCircuit(3).cnot(0, 1).cnot(1, 2), Mapping.trivial(3, 3)
        )
        assert result.swap_count == 0

    def test_distant_gate_routed(self):
        backend = SabreBackend(linear_device(5))
        result = backend.compile(
            QuantumCircuit(5).cnot(0, 4), Mapping.trivial(5, 5)
        )
        result.validate()
        assert result.swap_count >= 1
        # The CNOT itself must be present and compliant.
        assert result.circuit.count_ops()["cnot"] == 1

    def test_single_qubit_gates_and_measures_remap(self):
        backend = SabreBackend(linear_device(3))
        mapping = Mapping({0: 2, 1: 0}, 3)
        result = backend.compile(
            QuantumCircuit(2).h(0).measure(1), mapping
        )
        assert result.circuit[0].qubits == (2,)
        assert result.circuit[1].qubits == (0,)

    def test_k4_on_line_compiles(self):
        backend = SabreBackend(linear_device(4))
        result = backend.compile(
            _cphase_circuit(K4_EDGES, 4), Mapping.trivial(4, 4)
        )
        result.validate()
        assert result.circuit.count_ops()["cphase"] == 6

    def test_dependency_order_preserved_per_qubit(self):
        # Two gates on the same pair must come out in program order.
        qc = QuantumCircuit(2).cphase(0.1, 0, 1).cphase(0.9, 0, 1)
        backend = SabreBackend(linear_device(2))
        result = backend.compile(qc, Mapping.trivial(2, 2))
        angles = [i.params[0] for i in result.circuit if i.name == "cphase"]
        assert angles == [0.1, 0.9]

    def test_mapping_not_mutated_by_compile(self):
        backend = SabreBackend(linear_device(4))
        mapping = Mapping.trivial(4, 4)
        backend.compile(QuantumCircuit(4).cnot(0, 3), mapping)
        assert mapping.as_dict() == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_continue_compile_mutates_mapping(self):
        backend = SabreBackend(linear_device(4))
        mapping = Mapping.trivial(4, 4)
        out = QuantumCircuit(4)
        swaps = backend.continue_compile(
            QuantumCircuit(4).cnot(0, 3), mapping, out
        )
        assert swaps >= 1
        assert mapping.as_dict() != {0: 0, 1: 1, 2: 2, 3: 3}


class TestHeuristicQuality:
    def test_no_worse_than_2x_layered_on_dense_workload(self):
        """SABRE's lookahead should be in the same league as the greedy
        per-gate router on a routing-heavy workload."""
        device = linear_device(6)
        pairs = [(0, 5), (1, 4), (2, 5), (0, 3), (1, 5), (2, 4)]
        circuit = _cphase_circuit(pairs, 6)
        layered = ConventionalBackend(device).compile(
            circuit, Mapping.trivial(6, 6)
        )
        sabre = SabreBackend(device).compile(circuit, Mapping.trivial(6, 6))
        assert sabre.swap_count <= 2 * max(layered.swap_count, 1)

    def test_lookahead_helps_on_a_crafted_case(self):
        """With (0,3) followed by many (3,x) gates on a line, lookahead
        should not move qubit 3 pointlessly far."""
        device = linear_device(6)
        pairs = [(0, 3), (3, 4), (3, 5)]
        sabre = SabreBackend(device).compile(
            _cphase_circuit(pairs, 6), Mapping.trivial(6, 6)
        )
        sabre.validate()
        assert sabre.swap_count <= 5

    def test_weighted_distance_matrix_steers_routing(self):
        g = CouplingGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        dist = g.weighted_distance_matrix(
            {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0, (0, 3): 50.0}
        )
        backend = SabreBackend(g, distance_matrix=dist)
        result = backend.compile(
            QuantumCircuit(4).cnot(0, 2), Mapping.trivial(4, 4)
        )
        swap_edges = {
            tuple(sorted(i.qubits)) for i in result.circuit if i.name == "swap"
        }
        assert (0, 3) not in swap_edges


class TestAsIncrementalBackend:
    def test_ic_runs_on_sabre(self):
        from repro.compiler.ic import IncrementalCompiler

        device = ring_device(8)
        compiler = IncrementalCompiler(
            device, backend=SabreBackend(device), rng=np.random.default_rng(0)
        )
        mapping = Mapping.trivial(6, 8)
        out = QuantumCircuit(8)
        gates = [(0, 3, 0.5), (1, 4, 0.5), (2, 5, 0.5), (0, 5, 0.5)]
        compiler.compile_block(gates, mapping, out)
        assert out.count_ops()["cphase"] == 4
        for inst in out:
            if inst.is_two_qubit:
                assert device.has_edge(*inst.qubits)

    def test_flow_router_option(self):
        from repro.compiler import compile_with_method
        from repro.qaoa import MaxCutProblem

        problem = MaxCutProblem(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        program = problem.to_program([0.5], [0.3])
        compiled = compile_with_method(
            program,
            ibmq_20_tokyo(),
            "ic",
            rng=np.random.default_rng(1),
            router="sabre",
        )
        compiled.validate()
        assert compiled.circuit.count_ops()["cphase"] == 5

    def test_unknown_router_rejected(self):
        from repro.compiler import PipelineSpec, compile_with_method
        from repro.qaoa import MaxCutProblem

        problem = MaxCutProblem(3, [(0, 1), (1, 2)])
        program = problem.to_program([0.5], [0.3])
        with pytest.raises(ValueError, match="unknown router"):
            compile_with_method(
                program, ring_device(4), PipelineSpec(router="magic")
            )
