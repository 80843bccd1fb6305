"""Unit tests for ASAP layering and depth metrics — including the paper's
Figure 1(b)/(c) motivating example."""

import numpy as np

from repro.circuits import (
    Instruction,
    QuantumCircuit,
    asap_layers,
    circuit_depth,
    layer_qubit_sets,
    qubit_activity,
    two_qubit_depth,
)


def _qaoa_k4(edge_order, gamma=0.5, beta=0.3, measure=True):
    """Figure 1-style QAOA circuit for the 4-node 3-regular graph (K4)."""
    qc = QuantumCircuit(4)
    for q in range(4):
        qc.h(q)
    for a, b in edge_order:
        qc.cphase(gamma, a, b)
    for q in range(4):
        qc.rx(2 * beta, q)
    if measure:
        qc.measure_all()
    return qc


class TestFigure1Motivation:
    """Figure 1(b) vs 1(c): gate re-ordering shrinks depth from 9 to 6
    time steps (including measurement) on fully connected hardware."""

    # circ-1 in Figure 1(b): a "random" order where consecutive CPHASEs
    # share qubits, so every gate serialises into its own layer.
    CIRC1_ORDER = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)]
    # circ-2 in Figure 1(c): three perfectly packed layers.
    CIRC2_ORDER = [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]

    def test_random_order_takes_9_time_steps(self):
        assert circuit_depth(_qaoa_k4(self.CIRC1_ORDER)) == 9

    def test_intelligent_order_takes_6_time_steps(self):
        assert circuit_depth(_qaoa_k4(self.CIRC2_ORDER)) == 6

    def test_reordering_gives_50_percent_speedup(self):
        d1 = circuit_depth(_qaoa_k4(self.CIRC1_ORDER))
        d2 = circuit_depth(_qaoa_k4(self.CIRC2_ORDER))
        assert d1 / d2 == 1.5  # "circ-2 will be 50% faster"

    def test_6_is_the_best_and_9_the_worst_order(self):
        # Exhaustive over all 720 CPHASE orders: the best possible depth is
        # 6 (circ-2) and the worst 9 (circ-1) — the exact span Figure 1
        # illustrates.
        from itertools import permutations

        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        depths = {
            circuit_depth(_qaoa_k4(order)) for order in permutations(edges)
        }
        assert min(depths) == 6
        assert max(depths) == 9

    def test_cphase_layers_of_circ2_are_three(self):
        # Strip the H/RX/measure shell: 6 CPHASEs pack into 3 layers.
        qc = QuantumCircuit(4)
        for a, b in self.CIRC2_ORDER:
            qc.cphase(0.5, a, b)
        assert circuit_depth(qc) == 3


class TestAsapLayers:
    def test_disjoint_gates_share_a_layer(self):
        qc = QuantumCircuit(4).cnot(0, 1).cnot(2, 3)
        layers = asap_layers(qc)
        assert len(layers) == 1
        assert len(layers[0]) == 2

    def test_dependent_gates_serialise(self):
        qc = QuantumCircuit(3).cnot(0, 1).cnot(1, 2)
        assert len(asap_layers(qc)) == 2

    def test_gate_falls_back_to_earliest_layer(self):
        # h(2) can run in layer 0 even though it appears last.
        qc = QuantumCircuit(3).cnot(0, 1).cnot(0, 1).h(2)
        layers = asap_layers(qc)
        assert any(inst.name == "h" for inst in layers[0])

    def test_layers_have_disjoint_qubits(self):
        qc = QuantumCircuit(5)
        for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]:
            qc.cphase(0.2, a, b)
        for qubits in layer_qubit_sets(asap_layers(qc)):
            assert len(qubits) == len(set(qubits))

    def test_barrier_not_emitted_but_blocks(self):
        qc = QuantumCircuit(2).h(0).barrier().h(1)
        layers = asap_layers(qc)
        # h(1) is forced after the barrier even though qubit 1 was free.
        assert len(layers) == 2
        assert layers[1][0].qubits == (1,)

    def test_empty_circuit(self):
        assert asap_layers(QuantumCircuit(2)) == []


class TestDepth:
    def test_empty_depth_zero(self):
        assert circuit_depth(QuantumCircuit(3)) == 0

    def test_single_gate(self):
        assert circuit_depth(QuantumCircuit(1).h(0)) == 1

    def test_measurements_count_as_time_steps(self):
        qc = QuantumCircuit(1).h(0).measure(0)
        assert circuit_depth(qc) == 2

    def test_barriers_do_not_count(self):
        qc = QuantumCircuit(2).h(0).barrier().h(0)
        assert circuit_depth(qc) == 2

    def test_depth_equals_layer_count(self):
        qc = QuantumCircuit(4)
        for a, b in [(0, 1), (2, 3), (1, 2), (0, 3), (0, 2)]:
            qc.cphase(0.1, a, b)
        assert circuit_depth(qc) == len(asap_layers(qc))

    def test_circuit_method_delegates(self):
        qc = QuantumCircuit(2).h(0).cnot(0, 1)
        assert qc.depth() == circuit_depth(qc) == 2


class TestTwoQubitDepth:
    def test_single_qubit_gates_free(self):
        qc = QuantumCircuit(2).h(0).h(0).h(0)
        assert two_qubit_depth(qc) == 0

    def test_counts_only_two_qubit_critical_path(self):
        qc = QuantumCircuit(3).h(0).cnot(0, 1).rx(0.3, 1).cnot(1, 2)
        assert two_qubit_depth(qc) == 2

    def test_parallel_two_qubit_gates(self):
        qc = QuantumCircuit(4).cnot(0, 1).cnot(2, 3)
        assert two_qubit_depth(qc) == 1

    def test_never_exceeds_full_depth(self):
        qc = QuantumCircuit(3).h(0).cnot(0, 1).cnot(1, 2).measure_all()
        assert two_qubit_depth(qc) <= circuit_depth(qc)


class TestQubitActivity:
    def test_counts_per_qubit(self):
        qc = QuantumCircuit(3).h(0).cnot(0, 1).cphase(0.3, 0, 2)
        activity = qubit_activity(qc)
        assert activity == {0: 3, 1: 1, 2: 1}

    def test_directives_ignored(self):
        qc = QuantumCircuit(2).barrier().h(0)
        assert qubit_activity(qc) == {0: 1, 1: 0}


class TestDepthMatchesLayering:
    """``circuit_depth`` is the number of ASAP layers, barriers included."""

    NAMES = ("h", "rx", "measure", "cnot", "cphase", "swap", "barrier")

    def _random_circuit(self, rng, num_qubits, length):
        qc = QuantumCircuit(num_qubits)
        for _ in range(length):
            name = self.NAMES[int(rng.integers(len(self.NAMES)))]
            if name == "barrier":
                arity = int(rng.integers(0, num_qubits + 1))
            else:
                arity = 2 if name in ("cnot", "cphase", "swap") else 1
            if arity > num_qubits:
                continue
            qubits = tuple(int(q) for q in rng.choice(num_qubits, size=arity, replace=False))
            params = (float(rng.uniform(-3, 3)),) if name in ("rx", "cphase") else ()
            qc.append(Instruction(name, qubits, params))
        return qc

    def test_random_circuits_with_barriers(self):
        rng = np.random.default_rng(2024)
        for trial in range(300):
            qc = self._random_circuit(
                rng, int(rng.integers(1, 7)), int(rng.integers(0, 40))
            )
            assert circuit_depth(qc) == len(asap_layers(qc)), trial

    def test_barrier_only_and_empty(self):
        assert circuit_depth(QuantumCircuit(3)) == 0
        assert circuit_depth(QuantumCircuit(3).barrier()) == 0
        qc = QuantumCircuit(3).h(0).barrier(0, 1).h(1).barrier().h(2)
        assert circuit_depth(qc) == len(asap_layers(qc)) == 3
