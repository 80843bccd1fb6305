"""Unit tests for Incremental Compilation — including a Figure 5-style run."""

import numpy as np

from repro.circuits import QuantumCircuit
from repro.compiler.ic import IncrementalCompiler
from repro.compiler.mapping import Mapping
from repro.hardware import ibmq_20_tokyo, linear_device, ring_device

# Figure 5 starts from the Figure 3(e) mapping on tokyo.
FIG5_MAPPING = {0: 7, 1: 12, 2: 13, 3: 2, 4: 8}
FIG5_GATES = [
    (0, 1, 0.5), (0, 2, 0.5), (0, 3, 0.5), (0, 4, 0.5),
    (1, 2, 0.5), (1, 4, 0.5), (3, 4, 0.5),
]


def _compile_block(compiler, gates, mapping_dict, num_physical):
    mapping = Mapping(mapping_dict, num_physical)
    out = QuantumCircuit(num_physical)
    result = compiler.compile_block(gates, mapping, out)
    return result, out, mapping


class TestFigure5Walkthrough:
    def test_all_cphases_compiled(self):
        compiler = IncrementalCompiler(ibmq_20_tokyo())
        result, out, _ = _compile_block(
            compiler, FIG5_GATES, FIG5_MAPPING, 20
        )
        assert out.count_ops().get("cphase", 0) == len(FIG5_GATES)

    def test_coupling_compliance(self):
        g = ibmq_20_tokyo()
        compiler = IncrementalCompiler(g)
        _, out, _ = _compile_block(compiler, FIG5_GATES, FIG5_MAPPING, 20)
        for inst in out:
            if inst.is_two_qubit:
                assert g.has_edge(*inst.qubits)

    def test_four_layers_and_two_swaps_as_in_figure5(self):
        """Figure 5's outcome: "4 layers are formed and 2 SWAP operations
        are added".  Our deterministic tie-breaking reproduces both numbers
        exactly (the specific layer contents differ because the paper
        breaks distance ties randomly)."""
        compiler = IncrementalCompiler(ibmq_20_tokyo())
        result, _, _ = _compile_block(compiler, FIG5_GATES, FIG5_MAPPING, 20)
        assert result.num_layers == 4
        assert result.swap_count == 2

    def test_first_chosen_gate_is_at_distance_one(self):
        """Layer formation sorts by current physical distance ascending, so
        the first gate of layer 1 must be one of the distance-1 pairs."""
        g = ibmq_20_tokyo()
        compiler = IncrementalCompiler(g)
        result, _, _ = _compile_block(compiler, FIG5_GATES, FIG5_MAPPING, 20)
        mapping = Mapping(FIG5_MAPPING, 20)
        a, b = result.layers[0][0]
        assert g.distance(mapping.physical(a), mapping.physical(b)) == 1


class TestBlockCompilation:
    def test_mapping_mutated_to_final(self):
        compiler = IncrementalCompiler(linear_device(4))
        mapping = Mapping.trivial(4, 4)
        out = QuantumCircuit(4)
        compiler.compile_block([(0, 3, 0.4)], mapping, out)
        # Routing must have moved someone.
        assert mapping.as_dict() != {0: 0, 1: 1, 2: 2, 3: 3}

    def test_dynamic_resorting_uses_updated_distances(self):
        """After routing brings qubits together, the next layer prefers the
        now-close pair: on a line 0-1-2-3-4 with gates (0,4) then (0,3),
        compiling (0,4) drags q0 and q4 to the middle, leaving (0,3)
        adjacent, so the whole block needs no extra SWAPs."""
        g = linear_device(5)
        compiler = IncrementalCompiler(g)
        mapping = Mapping.trivial(5, 5)
        out = QuantumCircuit(5)
        result = compiler.compile_block(
            [(0, 4, 0.3), (0, 3, 0.3)], mapping, out
        )
        # (0,4) at distance 4 costs 3 swaps; a naive second routing of
        # (0,3) from the *initial* mapping would cost 2 more.  Dynamic IC
        # should do much better than 5.
        assert result.swap_count <= 4

    def test_duplicate_gates_handled(self):
        compiler = IncrementalCompiler(linear_device(3))
        mapping = Mapping.trivial(3, 3)
        out = QuantumCircuit(3)
        result = compiler.compile_block(
            [(0, 1, 0.2), (0, 1, 0.7)], mapping, out
        )
        assert out.count_ops()["cphase"] == 2
        assert result.num_layers == 2

    def test_gate_angles_preserved(self):
        compiler = IncrementalCompiler(linear_device(3))
        mapping = Mapping.trivial(3, 3)
        out = QuantumCircuit(3)
        compiler.compile_block([(0, 1, 0.777)], mapping, out)
        cphases = [i for i in out if i.name == "cphase"]
        assert cphases[0].params == (0.777,)

    def test_empty_block(self):
        compiler = IncrementalCompiler(linear_device(3))
        mapping = Mapping.trivial(3, 3)
        out = QuantumCircuit(3)
        result = compiler.compile_block([], mapping, out)
        assert result.num_layers == 0
        assert len(out) == 0

    def test_packing_limit_respected(self):
        compiler = IncrementalCompiler(ring_device(8), packing_limit=1)
        mapping = Mapping.trivial(8, 8)
        out = QuantumCircuit(8)
        result = compiler.compile_block(
            [(0, 1, 0.1), (2, 3, 0.1), (4, 5, 0.1)], mapping, out
        )
        assert result.num_layers == 3
        assert all(len(layer) == 1 for layer in result.layers)

    def test_rng_reproducibility(self):
        g = ring_device(8)
        gates = [(0, 4, 0.1), (1, 5, 0.1), (2, 6, 0.1), (3, 7, 0.1)]

        def run(seed):
            compiler = IncrementalCompiler(g, rng=np.random.default_rng(seed))
            mapping = Mapping.trivial(8, 8)
            out = QuantumCircuit(8)
            compiler.compile_block(gates, mapping, out)
            return out.instructions

        assert run(3) == run(3)

    def test_default_distance_matrix_is_hops(self):
        g = linear_device(4)
        compiler = IncrementalCompiler(g)
        assert compiler.distance_matrix[0, 3] == 3.0


def test_frozen_distance_ablation_output_is_pinned():
    """The ablation that sorts on the block's initial mapping overrides
    ``_sorted_by_distance(gates, mapping)``; its outputs are pinned to the
    ones the per-lookup numpy sort produced."""
    import hashlib

    from repro.compiler.pipeline import run_incremental_flow
    from repro.compiler.qaim import qaim_placement
    from repro.experiments.figures.ablations import _FrozenOrderIncrementalCompiler
    from repro.experiments.harness import make_problem

    coupling = ibmq_20_tokyo()
    digest = hashlib.sha256()
    for i, (family, param) in enumerate([("er", 0.4), ("regular", 5), ("er", 0.6)]):
        problem = make_problem(family, 14, param, np.random.default_rng((3002, i)))
        program = problem.to_program([0.7], [0.35])
        rng = np.random.default_rng((3002, i, 0))
        mapping = qaim_placement(program.pairs(), program.num_qubits, coupling, rng=rng)
        circuit, final, swaps = run_incremental_flow(
            program, mapping, _FrozenOrderIncrementalCompiler(coupling, rng=rng)
        )
        digest.update(repr((list(circuit), sorted(final.items()), swaps)).encode())
    assert digest.hexdigest() == (
        "cfc7bf99f142e3d9817c08a64e176a5894a9b65912f5400ac53c86ce1fae6211"
    )
