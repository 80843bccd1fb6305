"""Property tests for the vectorized fast-path evaluation engine.

The engine's whole claim is *exactness*: the diagonal-multiply QAOA
simulation (:func:`repro.sim.fastpath.qaoa_statevector`) and the verified
compiled-circuit path must agree with the gate-by-gate
:class:`~repro.sim.statevector.StatevectorSimulator` to machine precision
— global phase included — across random graphs, levels, and angles, and
the sampled evaluation must equal the paper's counts procedure
(``sample_counts``, ``decode_physical_counts``, ``approximation_ratio``)
on the same RNG stream, draw for draw.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_with_method
from repro.hardware.devices import get_device, melbourne_calibration
from repro.qaoa import (
    approximation_ratio,
    approximation_ratio_gap,
    build_qaoa_circuit,
    decode_physical_counts,
)
from repro.qaoa.problems import Level, MaxCutProblem, QAOAProgram
from repro.sim import NoiseModel, NoisySimulator, StatevectorSimulator
from repro.sim.fastpath import (
    cost_diagonal,
    evaluate_fast,
    fastpath_plan,
    qaoa_statevector,
)

ATOL = 1e-9


@st.composite
def programs(draw):
    n = draw(st.integers(2, 7))
    edge_pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(edge_pool), min_size=1, max_size=10, unique=True
        )
    )
    weights = [draw(st.floats(0.1, 4.0, allow_nan=False)) for _ in chosen]
    p = draw(st.integers(1, 3))
    levels = [
        Level(
            draw(st.floats(-3.0, 3.0, allow_nan=False)),
            draw(st.floats(-1.5, 1.5, allow_nan=False)),
        )
        for _ in range(p)
    ]
    edges = [(a, b, w) for (a, b), w in zip(chosen, weights)]
    return QAOAProgram(num_qubits=n, edges=edges, levels=levels)


class TestStatevectorParity:
    @given(programs())
    @settings(max_examples=50, deadline=None)
    def test_logical_statevector_matches_gate_by_gate(self, program):
        fast = qaoa_statevector(program)
        circuit = build_qaoa_circuit(program, measure=False)
        slow = StatevectorSimulator().run(circuit)
        assert np.max(np.abs(fast - slow)) < ATOL

    @given(programs())
    @settings(max_examples=30, deadline=None)
    def test_expectation_matches_gate_by_gate(self, program):
        diag = cost_diagonal(program)
        fast = float(np.dot(np.abs(qaoa_statevector(program)) ** 2, diag.cut))
        circuit = build_qaoa_circuit(program, measure=False)
        probs = StatevectorSimulator().probabilities(circuit)
        slow = float(np.dot(probs, diag.cut))
        assert abs(fast - slow) < ATOL


def _compiled_cases():
    """Deterministic compiled cases over all methods/devices that force
    nontrivial SWAP routing (permuted final mappings)."""
    cases = []
    for seed, (device, method) in enumerate(
        [
            ("ibmq_16_melbourne", "qaim"),
            ("ibmq_16_melbourne", "ip"),
            ("ibmq_16_melbourne", "ic"),
            ("ibmq_16_melbourne", "vic"),
            ("ibmq_20_tokyo", "ic"),
            ("linear_4", "qaim"),
        ]
    ):
        rng = np.random.default_rng(seed)
        n = 4 if device == "linear_4" else 8
        edges = []
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.6:
                    edges.append((a, b, float(rng.uniform(0.2, 2.0))))
        if not edges:
            edges = [(0, 1, 1.0)]
        problem = MaxCutProblem(n, edges)
        program = QAOAProgram(
            num_qubits=n,
            edges=edges,
            levels=[Level(0.9, 0.4), Level(-0.5, 0.7)],
        )
        calibration = (
            melbourne_calibration() if device == "ibmq_16_melbourne" else None
        )
        compiled = compile_with_method(
            program,
            get_device(device),
            method,
            calibration=calibration,
            rng=rng,
        )
        cases.append((problem, program, compiled))
    return cases


class TestCompiledPath:
    def test_all_compiled_cases_verify(self):
        for _, _, compiled in _compiled_cases():
            plan = fastpath_plan(compiled)
            assert plan.ok, plan.reason

    def test_compiled_exact_matches_fallback(self):
        for problem, _, compiled in _compiled_cases():
            if compiled.circuit.num_qubits > 16:
                continue
            noise = NoiseModel.from_calibration(melbourne_calibration())
            if compiled.circuit.num_qubits != 15:
                noise = NoiseModel.ideal(compiled.circuit.num_qubits)
            fast = evaluate_fast(
                compiled,
                noise=noise,
                trajectories=4,
                rng=np.random.default_rng(5),
                mode="exact",
            )
            slow = evaluate_fast(
                compiled,
                noise=noise,
                trajectories=4,
                rng=np.random.default_rng(5),
                mode="exact",
                use_fastpath=False,
            )
            assert fast.fastpath and not slow.fastpath
            assert abs(fast.r0 - slow.r0) < ATOL
            assert abs(fast.rh - slow.rh) < ATOL

    def test_compiled_sampled_bit_identical_to_legacy(self):
        calibration = melbourne_calibration()
        noisy = NoisySimulator(
            NoiseModel.from_calibration(calibration), trajectories=6
        )
        ideal = StatevectorSimulator()
        for problem, _, compiled in _compiled_cases():
            if compiled.circuit.num_qubits != 15:
                continue
            fast = evaluate_fast(
                compiled,
                noise=noisy.noise,
                shots=512,
                trajectories=noisy.trajectories,
                rng=np.random.default_rng(17),
            )
            # The paper's counts procedure, gate by gate, on the same
            # stream: ideal samples, then noisy samples, decoded through
            # the final mapping.
            rng = np.random.default_rng(17)
            r0, rh = (
                approximation_ratio(
                    decode_physical_counts(
                        sim.sample_counts(compiled.circuit, 512, rng),
                        compiled.final_mapping,
                        compiled.num_logical,
                    ),
                    problem,
                )
                for sim in (ideal, noisy)
            )
            assert fast.fastpath
            # Same RNG stream, same draws: agreement is limited only by
            # floating-point summation order in the means, not sampling.
            assert abs(fast.r0 - r0) < 1e-12
            assert abs(fast.rh - rh) < 1e-12
            assert abs(fast.arg - approximation_ratio_gap(r0, rh)) < ATOL
