"""Unit tests for the conventional layer-partitioning backend compiler."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.compiler.backend import ConventionalBackend, CouplingError
from repro.compiler.mapping import Mapping
from repro.hardware import CouplingGraph, linear_device, ring_device


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


class TestRegisterCheck:
    def test_register_smaller_than_device_raises_before_emitting(self):
        backend = ConventionalBackend(linear_device(5))
        mapping = Mapping.trivial(3, 5)
        out = QuantumCircuit(3)
        with pytest.raises(ValueError, match="5 qubits"):
            backend.continue_compile(QuantumCircuit(3).cnot(0, 2), mapping, out)
        assert len(out) == 0
        assert mapping.as_dict() == {0: 0, 1: 1, 2: 2}

    def test_mapping_over_fewer_qubits_than_the_device(self):
        # Routes that stay inside the mapping's range compile; a SWAP
        # outside it raises, as Mapping.apply_swap does.
        backend = ConventionalBackend(linear_device(5))
        mapping = Mapping.trivial(4, 4)
        out = QuantumCircuit(5)
        assert backend.continue_compile(QuantumCircuit(4).cnot(0, 3), mapping, out) == 2
        assert mapping.as_dict() == {0: 1, 1: 0, 2: 3, 3: 2}
        assert [i.qubits for i in out] == [(0, 1), (3, 2), (1, 2)]
        backend = ConventionalBackend(CouplingGraph(3, [(0, 2), (2, 1)]))
        with pytest.raises(ValueError, match="physical qubit 2 out of range"):
            backend.continue_compile(
                QuantumCircuit(2).cnot(0, 1), Mapping.trivial(2, 2), QuantumCircuit(3)
            )

    def test_mapping_home_outside_the_register_raises(self):
        backend = ConventionalBackend(linear_device(3))
        mapping = Mapping({0: 0, 1: 4}, 5)
        with pytest.raises(ValueError, match="mapping home 4"):
            backend.continue_compile(QuantumCircuit(2).h(1), mapping, QuantumCircuit(3))

    def test_unplaced_qubit_raises_key_error(self):
        backend = ConventionalBackend(linear_device(3))
        for circuit in (QuantumCircuit(3).h(2), QuantumCircuit(3).cnot(0, 2)):
            with pytest.raises(KeyError, match="logical qubit 2 is not placed"):
                backend.compile(circuit, Mapping({0: 0, 1: 1}, 3))


def _reference_compile(coupling, circuit, mapping, dist=None):
    """The per-gate router the one-loop backend replaced: route_pair per
    two-qubit gate, Mapping.physical per qubit, QuantumCircuit.append per
    gate."""
    from repro.circuits import asap_layers
    from repro.circuits.gates import Instruction
    from repro.compiler.routing import route_pair

    out = QuantumCircuit(coupling.num_qubits)
    swaps = 0
    for layer in asap_layers(circuit):
        for inst in layer:
            if len(inst.qubits) == 1:
                out.append(Instruction(inst.name, (mapping.physical(inst.qubits[0]),), inst.params))
                continue
            a, b = inst.qubits
            routed = route_pair(coupling, mapping, a, b, dist=dist)
            out.extend(routed.swaps)
            out.append(
                Instruction(inst.name, (mapping.physical(a), mapping.physical(b)), inst.params)
            )
            swaps += routed.num_swaps
    return out, swaps


class TestOneLoopMatchesPerGateRouting:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", range(12))
    def test_random_circuits(self, seed, weighted):
        from repro.hardware import ibmq_16_melbourne, ibmq_20_tokyo
        from repro.hardware.target import Target

        rng = np.random.default_rng(seed)
        coupling = (ibmq_20_tokyo, ibmq_16_melbourne)[seed % 2]()
        n = coupling.num_qubits
        k = int(rng.integers(2, n + 1))
        circuit = QuantumCircuit(k)
        for _ in range(int(rng.integers(1, 60))):
            roll = rng.random()
            if roll < 0.6 and k > 1:
                a, b = (int(q) for q in rng.choice(k, 2, replace=False))
                circuit.cphase(float(rng.uniform(-1, 1)), a, b)
            elif roll < 0.9:
                circuit.rx(float(rng.uniform(-1, 1)), int(rng.integers(k)))
            else:
                circuit.barrier()
        placement = {q: int(p) for q, p in enumerate(rng.permutation(n)[:k])}
        dist = None
        if weighted:
            dist = coupling.weighted_distance_matrix(
                {e: float(rng.uniform(1, 3)) for e in coupling.edges}
            )
        expected, expected_swaps = _reference_compile(
            coupling, circuit, Mapping(placement, n), dist=dist
        )
        backends = [ConventionalBackend(coupling, distance_matrix=dist)]
        if not weighted:
            backends.append(
                ConventionalBackend(coupling, path_oracle=Target(coupling).path_oracle("hop"))
            )
        for backend in backends:
            result = backend.compile(circuit, Mapping(placement, n))
            assert result.circuit.instructions == expected.instructions
            assert result.swap_count == expected_swaps
