"""Unit tests for the compilation flows (NAIVE/QAIM/IP/IC/VIC presets)."""

import numpy as np
import pytest

from repro.compiler.flow import METHOD_PRESETS, compile_with_method
from repro.compiler.pipeline import PipelineSpec
from repro.hardware import (
    ibmq_16_melbourne,
    ibmq_20_tokyo,
    linear_device,
    melbourne_calibration,
    uniform_calibration,
)
from repro.qaoa import MaxCutProblem


@pytest.fixture
def program(k4_problem):
    return k4_problem.to_program([0.5], [0.3])


class TestPresets:
    @pytest.mark.parametrize("method", sorted(METHOD_PRESETS))
    def test_every_preset_compiles_and_validates(self, method, program, rng):
        calibration = (
            melbourne_calibration() if method == "vic" else None
        )
        coupling = (
            ibmq_16_melbourne() if method == "vic" else ibmq_20_tokyo()
        )
        compiled = compile_with_method(
            program, coupling, method, calibration=calibration, rng=rng
        )
        compiled.validate()
        assert compiled.num_logical == 4
        assert compiled.compile_time > 0

    def test_unknown_method_rejected(self, program, rng):
        with pytest.raises(ValueError, match="unknown method"):
            compile_with_method(program, ibmq_20_tokyo(), "magic", rng=rng)

    def test_method_label(self, program, rng):
        compiled = compile_with_method(
            program, ibmq_20_tokyo(), "ic", rng=rng
        )
        assert compiled.method == "qaim+ic"


class TestStructure:
    @pytest.mark.parametrize("ordering", ["random", "ip", "ic"])
    def test_gate_census(self, ordering, program, rng):
        """Every flow must emit exactly n H, |E| CPHASE, n RX, n measures
        (plus SWAPs)."""
        compiled = compile_with_method(
            program, ibmq_20_tokyo(), PipelineSpec(ordering=ordering), rng=rng
        )
        ops = compiled.circuit.count_ops()
        assert ops["h"] == 4
        assert ops["cphase"] == 6
        assert ops["rx"] == 4
        assert ops["measure"] == 4

    def test_measurements_at_final_mapping(self, program, rng):
        compiled = compile_with_method(
            program, linear_device(5), PipelineSpec(ordering="ic"), rng=rng
        )
        measured = {
            i.qubits[0] for i in compiled.circuit if i.name == "measure"
        }
        assert measured == set(compiled.final_mapping.values())

    def test_multi_level_program(self, k4_problem, rng):
        program = k4_problem.to_program([0.5, 0.2], [0.3, 0.1])
        compiled = compile_with_method(
            program, ibmq_20_tokyo(), PipelineSpec(ordering="ic"), rng=rng
        )
        ops = compiled.circuit.count_ops()
        assert ops["cphase"] == 12  # 6 edges x 2 levels
        assert ops["rx"] == 8

    def test_swap_count_matches_circuit(self, program, rng):
        compiled = compile_with_method(
            program, linear_device(6), PipelineSpec(ordering="random"), rng=rng
        )
        assert compiled.swap_count == compiled.circuit.count_ops().get(
            "swap", 0
        )

    def test_initial_mapping_is_injective(self, program, rng):
        compiled = compile_with_method(
            program, ibmq_20_tokyo(), PipelineSpec(placement="random"), rng=rng
        )
        values = list(compiled.initial_mapping.values())
        assert len(set(values)) == len(values) == 4


class TestArgumentValidation:
    def test_vic_requires_calibration(self, program, rng):
        with pytest.raises(ValueError, match="requires calibration"):
            compile_with_method(
                program, ibmq_16_melbourne(), PipelineSpec(ordering="vic"), rng=rng
            )

    def test_vic_calibration_device_mismatch(self, program, rng):
        cal = uniform_calibration(linear_device(5))
        with pytest.raises(ValueError, match="does not match"):
            compile_with_method(
                program,
                ibmq_16_melbourne(),
                PipelineSpec(ordering="vic"),
                calibration=cal,
                rng=rng,
            )

    def test_unknown_placement(self, program, rng):
        with pytest.raises(ValueError, match="unknown placement"):
            compile_with_method(
                program, ibmq_20_tokyo(), PipelineSpec(placement="magic"), rng=rng
            )

    def test_unknown_ordering(self, program, rng):
        with pytest.raises(ValueError, match="unknown ordering"):
            compile_with_method(
                program, ibmq_20_tokyo(), PipelineSpec(ordering="magic"), rng=rng
            )


class TestDeterminism:
    @pytest.mark.parametrize("method", ["naive", "qaim", "ip", "ic"])
    def test_same_seed_same_circuit(self, method, program):
        a = compile_with_method(
            program, ibmq_20_tokyo(), method, rng=np.random.default_rng(11)
        )
        b = compile_with_method(
            program, ibmq_20_tokyo(), method, rng=np.random.default_rng(11)
        )
        assert a.circuit.instructions == b.circuit.instructions
        assert a.initial_mapping == b.initial_mapping


class TestCrosstalkIntegration:
    def test_crosstalk_pass_runs_in_flow(self, program, rng):
        from repro.compiler.crosstalk import count_conflicts
        from repro.hardware import fully_connected_device

        device = fully_connected_device(4)
        # On all-to-all hardware IP packs CPHASEs side by side; declare two
        # co-scheduled couplings as conflicting.
        baseline = compile_with_method(
            program, device, PipelineSpec(ordering="ip"),
            rng=np.random.default_rng(3),
        )
        from repro.circuits import asap_layers

        conflict = None
        for layer in asap_layers(baseline.circuit):
            edges = [
                tuple(sorted(i.qubits)) for i in layer if i.is_two_qubit
            ]
            if len(edges) >= 2:
                conflict = (edges[0], edges[1])
                break
        assert conflict is not None
        mitigated = compile_with_method(
            program,
            device,
            PipelineSpec(ordering="ip"),
            rng=np.random.default_rng(3),
            crosstalk_conflicts=[conflict],
        )
        assert count_conflicts(mitigated.circuit, [conflict]) == 0
        mitigated.validate()

    def test_no_conflicts_means_no_change(self, program, rng):
        a = compile_with_method(
            program, ibmq_20_tokyo(), PipelineSpec(ordering="ic"),
            rng=np.random.default_rng(5),
        )
        b = compile_with_method(
            program, ibmq_20_tokyo(), PipelineSpec(ordering="ic"),
            rng=np.random.default_rng(5), crosstalk_conflicts=[],
        )
        assert a.circuit.instructions == b.circuit.instructions


class TestPackingLimit:
    def test_limit_one_serialises_cphases(self, program, rng):
        compiled = compile_with_method(
            program,
            ibmq_20_tokyo(),
            PipelineSpec(ordering="ic", packing_limit=1),
            rng=rng,
        )
        compiled.validate()
        assert compiled.circuit.count_ops()["cphase"] == 6

    def test_limit_changes_structure(self, rng):
        problem = MaxCutProblem(
            8, [(i, (i + 1) % 8) for i in range(8)]
        )
        program = problem.to_program([0.4], [0.2])
        dev = ibmq_20_tokyo()
        loose = compile_with_method(
            program, dev, PipelineSpec(ordering="ic"),
            rng=np.random.default_rng(0),
        )
        tight = compile_with_method(
            program, dev, PipelineSpec(ordering="ic", packing_limit=1),
            rng=np.random.default_rng(0),
        )
        assert tight.depth() >= loose.depth()
