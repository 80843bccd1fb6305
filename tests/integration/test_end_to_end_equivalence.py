"""Integration: every compilation flow preserves the QAOA output state.

The strongest correctness check in the suite: take a logical QAOA circuit,
compile it with each method (placement + ordering + SWAP routing + stitching
+ native lowering), simulate the *compiled physical* circuit, fold the
physical distribution back to logical qubits through the final mapping, and
compare against the distribution of the uncompiled logical circuit.  Any bug
in routing, mapping bookkeeping, gate decomposition, CPHASE commutation
assumptions or measurement placement breaks this.
"""

import numpy as np
import pytest

from repro.circuits import decompose_to_basis
from repro.compiler import METHOD_PRESETS, compile_with_method
from repro.hardware import (
    ibmq_16_melbourne,
    linear_device,
    melbourne_calibration,
    ring_device,
)
from repro.qaoa import MaxCutProblem, build_qaoa_circuit
from repro.sim import StatevectorSimulator


def _logical_distribution(problem, program):
    sim = StatevectorSimulator()
    circuit = build_qaoa_circuit(program, measure=False)
    return sim.probabilities(circuit)


def _compiled_logical_distribution(compiled, num_logical):
    """Marginalise the compiled physical distribution onto logical qubits."""
    sim = StatevectorSimulator()
    probs = sim.probabilities(compiled.circuit.only_unitary())
    n_phys = compiled.coupling.num_qubits
    out = np.zeros(2 ** num_logical)
    mapping = compiled.final_mapping
    for idx in range(2 ** n_phys):
        logical_idx = 0
        for q in range(num_logical):
            if (idx >> mapping[q]) & 1:
                logical_idx |= 1 << q
        out[logical_idx] += probs[idx]
    return out


@pytest.fixture
def problem():
    return MaxCutProblem(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])


@pytest.fixture
def program(problem):
    return problem.to_program([0.73], [0.21])


class TestDistributionPreservation:
    @pytest.mark.parametrize("method", sorted(METHOD_PRESETS))
    def test_method_preserves_distribution_on_ring(
        self, method, problem, program
    ):
        coupling = ring_device(8)
        if METHOD_PRESETS[method].ordering == "parity":
            # Parity-encoded circuits compute in the slot basis; their
            # equivalence check decodes first (TestParityEquivalence).
            pytest.skip("parity encoding is not distribution-identical")
        calibration = None
        if method == "vic":
            from repro.hardware import uniform_calibration

            calibration = uniform_calibration(coupling, cnot_error=0.02)
        compiled = compile_with_method(
            program,
            coupling,
            method,
            calibration=calibration,
            rng=np.random.default_rng(5),
        )
        reference = _logical_distribution(problem, program)
        observed = _compiled_logical_distribution(compiled, problem.num_nodes)
        np.testing.assert_allclose(observed, reference, atol=1e-9)

    def test_native_lowering_preserves_distribution(self, problem, program):
        compiled = compile_with_method(
            program, ring_device(8), "ic", rng=np.random.default_rng(6)
        )
        sim = StatevectorSimulator()
        high = sim.probabilities(compiled.circuit.only_unitary())
        low = sim.probabilities(
            decompose_to_basis(compiled.circuit).only_unitary()
        )
        np.testing.assert_allclose(high, low, atol=1e-9)

    def test_multi_level_program_preserved(self, problem):
        program = problem.to_program([0.6, -0.4], [0.2, 0.35])
        compiled = compile_with_method(
            program, ring_device(8), "ic", rng=np.random.default_rng(7)
        )
        reference = _logical_distribution(problem, program)
        observed = _compiled_logical_distribution(compiled, problem.num_nodes)
        np.testing.assert_allclose(observed, reference, atol=1e-9)

    def test_line_device_heavy_routing(self, problem, program):
        """A linear device forces many SWAPs — routing bookkeeping under
        stress must still preserve the state."""
        compiled = compile_with_method(
            program, linear_device(6), "naive", rng=np.random.default_rng(8)
        )
        assert compiled.swap_count > 0  # routing actually exercised
        reference = _logical_distribution(problem, program)
        observed = _compiled_logical_distribution(compiled, problem.num_nodes)
        np.testing.assert_allclose(observed, reference, atol=1e-9)

    def test_melbourne_with_real_calibration(self, problem, program):
        compiled = compile_with_method(
            program,
            ibmq_16_melbourne(),
            "vic",
            calibration=melbourne_calibration(),
            rng=np.random.default_rng(9),
        )
        reference = _logical_distribution(problem, program)
        observed = _compiled_logical_distribution(compiled, problem.num_nodes)
        np.testing.assert_allclose(observed, reference, atol=1e-9)


class TestSabreRouterEquivalence:
    @pytest.mark.parametrize("method", ["naive", "qaim", "ip", "ic"])
    def test_sabre_router_preserves_distribution(
        self, method, problem, program
    ):
        """The same front-ends over the SABRE backend must also preserve
        the computed state — the 'any conventional compiler' claim."""
        compiled = compile_with_method(
            program,
            ring_device(8),
            method,
            rng=np.random.default_rng(21),
            router="sabre",
        )
        reference = _logical_distribution(problem, program)
        observed = _compiled_logical_distribution(compiled, problem.num_nodes)
        np.testing.assert_allclose(observed, reference, atol=1e-9)

    def test_sabre_on_linear_heavy_routing(self, problem, program):
        compiled = compile_with_method(
            program,
            linear_device(6),
            "naive",
            rng=np.random.default_rng(22),
            router="sabre",
        )
        assert compiled.swap_count > 0
        reference = _logical_distribution(problem, program)
        observed = _compiled_logical_distribution(compiled, problem.num_nodes)
        np.testing.assert_allclose(observed, reference, atol=1e-9)


class TestParityEquivalence:
    def test_routed_parity_circuit_matches_abstract(self, problem, program):
        """Routing the parity circuit onto a device must preserve its
        *decoded* logical distribution exactly (slot marginalisation +
        XOR decode against the unrouted parity circuit)."""
        from repro.compiler import ParityLayout, build_parity_circuit
        from repro.compiler.parity import parity_decode_indices

        layout = ParityLayout.from_program(program)
        K = layout.num_slots
        compiled = compile_with_method(
            program, ring_device(8), "parity", rng=np.random.default_rng(5)
        )
        assert compiled.encoding == "parity"
        # decoded distribution of the abstract (unrouted) parity circuit
        sim = StatevectorSimulator()
        abstract = build_parity_circuit(program, layout, 2.0, measure=False)
        slot_probs = sim.probabilities(abstract)
        decode = parity_decode_indices(np.arange(1 << K), layout)
        reference = np.zeros(2 ** problem.num_nodes)
        np.add.at(reference, decode, slot_probs)
        # decoded distribution of the routed physical circuit
        phys_probs = sim.probabilities(compiled.circuit.only_unitary())
        n_phys = compiled.coupling.num_qubits
        mapping = compiled.final_mapping
        observed = np.zeros(2 ** problem.num_nodes)
        for idx in range(2 ** n_phys):
            slot_idx = 0
            for s in range(K):
                if (idx >> mapping[s]) & 1:
                    slot_idx |= 1 << s
            observed[decode[slot_idx]] += phys_probs[idx]
        np.testing.assert_allclose(observed, reference, atol=1e-9)

    def test_parity_fast_and_fallback_agree(self, problem, program):
        from repro.sim.fastpath import evaluate_fast, fastpath_plan

        compiled = compile_with_method(
            program, ring_device(8), "parity", rng=np.random.default_rng(5)
        )
        assert fastpath_plan(compiled).ok
        fast = evaluate_fast(compiled, mode="exact")
        slow = evaluate_fast(compiled, mode="exact", use_fastpath=False)
        assert fast.fastpath and not slow.fastpath
        assert fast.r0 == pytest.approx(slow.r0, abs=1e-10)


class TestExpectationPreservation:
    def test_sampled_expectation_matches_logical(self, problem, program):
        """Sampling the compiled circuit and decoding must reproduce the
        logical expectation value within shot noise."""
        from repro.qaoa.evaluation import decode_physical_counts
        from repro.sim.sampler import expectation_from_counts

        compiled = compile_with_method(
            program, ring_device(8), "ip", rng=np.random.default_rng(10)
        )
        sim = StatevectorSimulator()
        counts = sim.sample_counts(
            compiled.circuit, 20000, np.random.default_rng(11)
        )
        logical = decode_physical_counts(
            counts, compiled.final_mapping, problem.num_nodes
        )
        sampled = expectation_from_counts(logical, problem.cut_value)
        exact = float(
            np.dot(
                _logical_distribution(problem, program), problem.cut_values()
            )
        )
        assert sampled == pytest.approx(exact, abs=0.1)
