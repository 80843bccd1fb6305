"""Property tests for the LHZ parity encoding.

Three independent witnesses pin the encoding down on random small
problems (n <= 6, so everything brute-forces):

* the *decode* is cut-faithful — encoding a classical assignment into
  edge parities and XOR-decoding it back preserves every cut value;
* the analytic ``phase_vector`` evolution reproduces the gate-by-gate
  simulation of the abstract parity circuit exactly;
* the compiled physical circuit's expectation, brute-forced from the
  raw statevector with explicit decode, matches the fast-path ``r0``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import (
    ParityLayout,
    build_parity_circuit,
    compile_with_method,
)
from repro.compiler.parity import (
    parity_constraint_angle,
    parity_decode_indices,
    parity_field_angle,
)
from repro.hardware import get_device
from repro.qaoa.problems import Level, MaxCutProblem, QAOAProgram
from repro.sim import StatevectorSimulator
from repro.sim.fastpath import evaluate_fast, fastpath_plan

ATOL = 1e-9


@st.composite
def small_problems(draw):
    """MaxCut problems with at most 6 nodes and 7 edges (K <= 7)."""
    n = draw(st.integers(3, 6))
    edge_pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(edge_pool), min_size=2, max_size=7, unique=True
        )
    )
    return MaxCutProblem(n, chosen)


@st.composite
def small_programs(draw):
    problem = draw(small_problems())
    p = draw(st.integers(1, 2))
    gammas = [draw(st.floats(-2.0, 2.0, allow_nan=False)) for _ in range(p)]
    betas = [draw(st.floats(-1.0, 1.0, allow_nan=False)) for _ in range(p)]
    return problem, problem.to_program(gammas, betas)


def _fast_parity_state(program, layout, strength):
    """Analytic parity-basis evolution: |+>^K, then per level the exact
    diagonal block followed by the RX mixers."""
    K = layout.num_slots
    state = np.full(1 << K, 1.0 / np.sqrt(1 << K), dtype=complex)
    phase = layout.phase_vector(strength)
    indices = np.arange(1 << K)
    for level in program.levels:
        state = state * np.exp(-1j * level.gamma * phase)
        half = level.beta  # mixer RX(2*beta) => cos(beta), -i sin(beta)
        for s in range(K):
            flipped = indices ^ (1 << s)
            state = np.cos(half) * state - 1j * np.sin(half) * state[flipped]
    return state


class TestDecodeFaithfulness:
    @given(small_problems())
    @settings(max_examples=80, deadline=None)
    def test_encode_decode_preserves_cut_values(self, problem):
        program = problem.to_program([0.5], [0.3])
        layout = ParityLayout.from_program(program)
        cuts = problem.cut_values()
        slots = {edge: s for s, edge in enumerate(layout.slots)}
        for x in range(1 << problem.num_nodes):
            slot_idx = 0
            for (a, b), s in slots.items():
                if ((x >> a) & 1) ^ ((x >> b) & 1):
                    slot_idx |= 1 << s
            decoded = int(
                parity_decode_indices(np.array([slot_idx]), layout)[0]
            )
            assert cuts[decoded] == cuts[x]


class TestPhaseVectorExactness:
    @given(small_programs())
    @settings(max_examples=40, deadline=None)
    def test_analytic_evolution_matches_gate_simulation(self, case):
        problem, program = case
        layout = ParityLayout.from_program(program)
        strength = 2.0
        circuit = build_parity_circuit(program, layout, strength, measure=False)
        gate_state = StatevectorSimulator().run(circuit)
        fast_state = _fast_parity_state(program, layout, strength)
        assert np.max(np.abs(gate_state - fast_state)) < ATOL

    @given(small_problems())
    @settings(max_examples=40, deadline=None)
    def test_phase_vector_brute_force(self, problem):
        """phase_vector against its defining sum, term by term."""
        program = problem.to_program([0.7], [0.35])
        layout = ParityLayout.from_program(program)
        strength = 1.7
        K = layout.num_slots
        expected = np.zeros(1 << K)
        for y in range(1 << K):
            total = 0.0
            for s, weight in enumerate(layout.weights):
                sign = 1.0 - 2.0 * ((y >> s) & 1)
                # RZ(-γ w) on slot s is exp(-iγ · (-w/2)·s_s(y)) up to
                # global phase — the angle helpers pin the convention
                total += (parity_field_angle(1.0, weight) / 2.0) * sign
            for cycle in layout.constraints:
                prod = 1.0
                for s in cycle:
                    prod *= 1.0 - 2.0 * ((y >> s) & 1)
                total += (
                    parity_constraint_angle(1.0, strength) / 2.0
                ) * prod
            expected[y] = total
        np.testing.assert_allclose(
            layout.phase_vector(strength), expected, atol=ATOL
        )


class TestCompiledExpectation:
    @given(small_programs())
    @settings(max_examples=12, deadline=None)
    def test_brute_force_expectation_matches_fastpath(self, case):
        problem, program = case
        layout = ParityLayout.from_program(program)
        coupling = get_device("ibmq_16_melbourne")
        compiled = compile_with_method(
            program, coupling, "parity", rng=np.random.default_rng(0)
        )
        assert fastpath_plan(compiled).ok
        # brute force: simulate the physical circuit, marginalise onto
        # the slot qubits, decode, take the expectation directly
        probs = StatevectorSimulator().probabilities(
            compiled.circuit.only_unitary()
        )
        K = layout.num_slots
        mapping = compiled.final_mapping
        slot_probs = np.zeros(1 << K)
        for idx in range(1 << coupling.num_qubits):
            slot_idx = 0
            for s in range(K):
                if (idx >> mapping[s]) & 1:
                    slot_idx |= 1 << s
            slot_probs[slot_idx] += probs[idx]
        decode = parity_decode_indices(np.arange(1 << K), layout)
        cut_values = problem.cut_values()
        expectation = float(np.dot(slot_probs, cut_values[decode]))
        r0_brute = expectation / max(cut_values.max(), 1e-12)
        fast = evaluate_fast(compiled, mode="exact")
        assert fast.fastpath
        assert abs(fast.r0 - r0_brute) < 1e-8


class TestVerifierTamperRejection:
    """fastpath_plan must refuse parity circuits that are not the exact
    parity program — perturbed angles, dropped gadget gates, missing
    mixers."""

    def _compiled(self):
        problem = MaxCutProblem(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        return compile_with_method(
            problem.to_program([0.7], [0.35]),
            get_device("ibmq_16_melbourne"),
            "parity",
            rng=np.random.default_rng(0),
        )

    def _tampered(self, compiled, mutate):
        import dataclasses

        from repro.circuits import QuantumCircuit

        instructions = mutate(list(compiled.circuit.instructions))
        circuit = QuantumCircuit(
            compiled.circuit.num_qubits, name="tampered"
        )
        circuit.extend(instructions)
        return dataclasses.replace(compiled, circuit=circuit)

    def test_accepts_untampered(self):
        assert fastpath_plan(self._compiled()).ok

    def test_rejects_perturbed_rz_angle(self):
        import dataclasses

        compiled = self._compiled()

        def bump_first_rz(instructions):
            for i, inst in enumerate(instructions):
                if inst.name == "rz":
                    instructions[i] = dataclasses.replace(
                        inst, params=(inst.params[0] + 1e-3,)
                    )
                    break
            return instructions

        assert not fastpath_plan(
            self._tampered(compiled, bump_first_rz)
        ).ok

    def test_rejects_dropped_cnot(self):
        compiled = self._compiled()

        def drop_first_cnot(instructions):
            for i, inst in enumerate(instructions):
                if inst.name == "cnot":
                    del instructions[i]
                    break
            return instructions

        assert not fastpath_plan(
            self._tampered(compiled, drop_first_cnot)
        ).ok

    def test_rejects_mixer_inside_the_cnot_ladder(self):
        """A mixer hoisted onto the ladder's first wire before the chain
        is undone: that wire's mask is its one slot, but the slot rides
        on the other ladder wires too, so the RX is no mixer on it."""
        compiled = self._compiled()

        def hoist_mixer(instructions):
            first = next(
                k for k, inst in enumerate(instructions) if inst.name == "cnot"
            )
            wire = instructions[first].qubits[0]
            mixer = instructions.pop(
                next(
                    k
                    for k, inst in enumerate(instructions)
                    if inst.name == "rx" and inst.qubits == (wire,)
                )
            )
            gadget_rz = next(
                k
                for k, inst in enumerate(instructions)
                if k > first and inst.name == "rz"
            )
            instructions.insert(gadget_rz + 1, mixer)
            return instructions

        plan = fastpath_plan(self._tampered(compiled, hoist_mixer))
        assert not plan.ok
        assert "while another wire carries it" in plan.reason

    def test_rejects_dropped_mixer(self):
        compiled = self._compiled()

        def drop_last_rx(instructions):
            for i in range(len(instructions) - 1, -1, -1):
                if instructions[i].name == "rx":
                    del instructions[i]
                    break
            return instructions

        assert not fastpath_plan(
            self._tampered(compiled, drop_last_rx)
        ).ok


class TestLayoutRejections:
    def test_linear_fields_rejected(self):
        program = QAOAProgram(
            num_qubits=3,
            edges=[(0, 1, 1.0), (1, 2, 1.0)],
            levels=[Level(0.5, 0.3)],
            linear={0: 0.7},
        )
        try:
            ParityLayout.from_program(program)
        except ValueError as exc:
            assert "linear" in str(exc) or "field" in str(exc)
        else:  # pragma: no cover - defends the rejection contract
            raise AssertionError("linear fields must be rejected")

    def test_edge_free_program_rejected(self):
        program = QAOAProgram(
            num_qubits=2, edges=[], levels=[Level(0.5, 0.3)]
        )
        try:
            ParityLayout.from_program(program)
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("edge-free programs must be rejected")
