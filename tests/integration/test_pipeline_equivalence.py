"""Pipeline ↔ seed-flow equivalence (the refactor's safety net).

The pass pipeline must be a pure re-organisation: for a fixed rng seed,
every ``METHOD_PRESETS`` entry has to produce the *gate-for-gate identical*
circuit the pre-pipeline monolithic flow produced.  The reference below is
that flow, re-implemented from the same primitives the old
``_compile_monolithic``/``_compile_incremental`` helpers used — placement
functions, ``parallelize``/``build_qaoa_circuit``, the backend routers and
the incremental compiler — consuming the rng in the exact same order.

One deliberate difference: the monolithic flow routed the logical
circuit *with* its measures, so the routers could SWAP a measured qubit
off its wire.  The reference now routes the unitary part and measures
every logical qubit at its final home, as the incremental flow always
did; each test also pins the non-measure stream to the old flow's, gate
for gate.
"""

import numpy as np
import pytest

from repro.compiler import compile_with_method
from repro.compiler.backend import ConventionalBackend
from repro.compiler.flow import METHOD_PRESETS, PLACEMENTS, run_incremental_flow
from repro.compiler.ic import IncrementalCompiler
from repro.compiler.ip import parallelize
from repro.compiler.qaim import QAIMConfig, qaim_placement
from repro.compiler.sabre import SabreBackend
from repro.compiler.vic import resolve_vic_distances
from repro.hardware import (
    ibmq_16_melbourne,
    ibmq_20_tokyo,
    melbourne_calibration,
    random_calibration,
)
from repro.qaoa import MaxCutProblem
from repro.qaoa.circuit_builder import build_qaoa_circuit

PROBLEM = MaxCutProblem(
    10,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
     (8, 9), (0, 9), (0, 5), (2, 7), (1, 8), (3, 9)],
)


def _make_router(router, coupling, distance_matrix=None):
    if router == "sabre":
        return SabreBackend(coupling, distance_matrix=distance_matrix)
    return ConventionalBackend(coupling, distance_matrix=distance_matrix)


def reference_compile(
    program,
    coupling,
    method,
    rng,
    calibration=None,
    packing_limit=None,
    router="layered",
    routed_measures=False,
):
    """The pre-pipeline flow, from primitives, with identical rng order.

    ``routed_measures=True`` reproduces the old monolithic flow exactly,
    measures routed along with the gates; the default measures at the
    final homes instead."""
    preset = METHOD_PRESETS[method]
    placement, ordering = preset.placement, preset.ordering
    pairs = program.pairs()
    if placement == "qaim":
        mapping = qaim_placement(
            pairs, program.num_qubits, coupling,
            rng=rng, config=QAIMConfig(radius=2),
        )
    else:
        mapping = PLACEMENTS[placement](
            pairs, program.num_qubits, coupling, rng
        )
    initial = mapping.as_dict()
    warnings = []
    if ordering in ("random", "ip"):
        if ordering == "ip":
            ip_result = parallelize(
                pairs, rng=rng, packing_limit=packing_limit
            )
            logical = build_qaoa_circuit(
                program,
                edge_orders=[ip_result.ordered_pairs] * program.p,
                measure=routed_measures,
            )
        else:
            logical = build_qaoa_circuit(
                program, rng=rng, measure=routed_measures
            )
        compiled = _make_router(router, coupling).compile(logical, mapping)
        circuit = compiled.circuit
        final = compiled.final_mapping
        swaps = compiled.swap_count
        if not routed_measures:
            for q in range(program.num_qubits):
                circuit.measure(final[q])
    else:
        distance_matrix = None
        if ordering == "vic":
            distance_matrix, warnings = resolve_vic_distances(calibration)
        compiler = IncrementalCompiler(
            coupling,
            distance_matrix=distance_matrix,
            packing_limit=packing_limit,
            rng=rng,
            backend=_make_router(router, coupling, distance_matrix),
        )
        circuit, final, swaps = run_incremental_flow(
            program, mapping, compiler
        )
    return circuit, initial, final, swaps, warnings


def _unitary_part(circuit):
    return [inst for inst in circuit.instructions if inst.name != "measure"]


def assert_matches_old_flow(compiled, program, coupling, method, seed, **knobs):
    """Only the measures moved: the non-measure stream is the old
    monolithic flow's, gate for gate."""
    old = reference_compile(
        program, coupling, method, np.random.default_rng(seed),
        routed_measures=True, **knobs,
    )
    assert _unitary_part(compiled.circuit) == _unitary_part(old[0])
    assert compiled.final_mapping == old[2]


def _calibration_for(coupling, method):
    if method != "vic":
        return None
    if coupling.name == "ibmq_16_melbourne":
        return melbourne_calibration()
    return random_calibration(coupling, rng=np.random.default_rng(7))


DEVICES = [ibmq_20_tokyo, ibmq_16_melbourne]

# The seed-flow reference predates the structural methods (swap_network,
# parity) — those have no monolithic counterpart and are covered by the
# verifier plans plus tests/integration/test_structural_methods.py.
CLASSIC_METHODS = sorted(
    name
    for name, preset in METHOD_PRESETS.items()
    if preset.ordering in ("random", "ip", "ic", "vic")
)


@pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("method", CLASSIC_METHODS)
@pytest.mark.parametrize("seed", [0, 11])
def test_preset_matches_seed_flow(device, method, seed):
    coupling = device()
    calibration = _calibration_for(coupling, method)
    program = PROBLEM.to_program([0.7], [0.35])

    ref = reference_compile(
        program, coupling, method,
        np.random.default_rng(seed), calibration=calibration,
    )
    compiled = compile_with_method(
        program, coupling, method,
        calibration=calibration, rng=np.random.default_rng(seed),
    )

    circuit, initial, final, swaps, warnings = ref
    assert compiled.circuit.instructions == circuit.instructions
    assert compiled.initial_mapping == initial
    assert compiled.final_mapping == final
    assert compiled.swap_count == swaps
    assert compiled.warnings == warnings
    assert_matches_old_flow(
        compiled, program, coupling, method, seed, calibration=calibration
    )


@pytest.mark.parametrize("method", ["naive", "ip", "ic"])
def test_preset_matches_seed_flow_sabre(method):
    """The equivalence holds for the SABRE router too."""
    coupling = ibmq_20_tokyo()
    program = PROBLEM.to_program([0.7, 0.4], [0.35, 0.2])

    ref = reference_compile(
        program, coupling, method, np.random.default_rng(3), router="sabre"
    )
    compiled = compile_with_method(
        program, coupling, method,
        rng=np.random.default_rng(3), router="sabre",
    )
    circuit, initial, final, swaps, _ = ref
    assert compiled.circuit.instructions == circuit.instructions
    assert compiled.initial_mapping == initial
    assert compiled.final_mapping == final
    assert compiled.swap_count == swaps
    assert_matches_old_flow(
        compiled, program, coupling, method, 3, router="sabre"
    )


@pytest.mark.parametrize("method", ["ip", "ic"])
def test_preset_matches_seed_flow_packing_limit(method):
    """Figure 12's packing-limit knob routes through the pipeline intact."""
    coupling = ibmq_16_melbourne()
    program = PROBLEM.to_program([0.7], [0.35])

    ref = reference_compile(
        program, coupling, method,
        np.random.default_rng(5), packing_limit=2,
    )
    compiled = compile_with_method(
        program, coupling, method,
        rng=np.random.default_rng(5), packing_limit=2,
    )
    circuit, initial, final, swaps, _ = ref
    assert compiled.circuit.instructions == circuit.instructions
    assert compiled.final_mapping == final
    assert compiled.swap_count == swaps
    assert_matches_old_flow(
        compiled, program, coupling, method, 5, packing_limit=2
    )
