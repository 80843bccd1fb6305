"""Unit tests for compiled-result JSON serialisation."""

import json
import re

import pytest

from repro.circuits import Instruction, QuantumCircuit, qasm
from repro.compiler import (
    CompiledQAOA,
    ConventionalBackend,
    CouplingError,
    Mapping,
    compile_with_method,
)
from repro.compiler.serialize import from_document, from_json, to_json
from repro.hardware import ibmq_16_melbourne, melbourne_calibration, ring_device
from repro.qaoa import MaxCutProblem


@pytest.fixture
def compiled_qaoa(rng):
    problem = MaxCutProblem(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    program = problem.to_program([0.5, -0.2], [0.3, 0.1])
    return compile_with_method(program, ring_device(6), "ic", rng=rng)


class TestQAOARoundTrip:
    def test_round_trip_identity(self, compiled_qaoa):
        restored = from_json(to_json(compiled_qaoa))
        assert isinstance(restored, CompiledQAOA)
        assert restored.circuit.instructions == compiled_qaoa.circuit.instructions
        assert restored.initial_mapping == compiled_qaoa.initial_mapping
        assert restored.final_mapping == compiled_qaoa.final_mapping
        assert restored.swap_count == compiled_qaoa.swap_count
        assert restored.method == compiled_qaoa.method
        assert restored.coupling.edges == compiled_qaoa.coupling.edges

    def test_program_restored(self, compiled_qaoa):
        restored = from_json(to_json(compiled_qaoa))
        assert restored.program.num_qubits == 5
        assert restored.program.p == 2
        assert restored.program.edges == compiled_qaoa.program.edges

    def test_metrics_recomputable_after_restore(self, compiled_qaoa):
        restored = from_json(to_json(compiled_qaoa))
        assert restored.depth() == compiled_qaoa.depth()
        assert restored.gate_count() == compiled_qaoa.gate_count()

    def test_linear_terms_survive(self, rng):
        from repro.qaoa import IsingProblem

        problem = IsingProblem(3, {(0, 1): 1.0, (1, 2): -0.5}, {0: 0.7})
        program = problem.to_program([0.5], [0.3])
        compiled = compile_with_method(
            program, ring_device(4), "ip", rng=rng
        )
        restored = from_json(to_json(compiled))
        assert restored.program.linear == {0: 0.7}

    def test_payload_is_valid_json_with_qasm(self, compiled_qaoa):
        payload = json.loads(to_json(compiled_qaoa))
        assert payload["kind"] == "qaoa"
        assert payload["qasm"].startswith("OPENQASM 2.0;")


class TestCircuitRoundTrip:
    def test_raw_backend_result(self):
        device = ring_device(5)
        backend = ConventionalBackend(device)
        compiled = backend.compile(
            QuantumCircuit(5).cphase(0.4, 0, 2).cnot(1, 3),
            Mapping.trivial(5, 5),
        )
        restored = from_json(to_json(compiled))
        assert not isinstance(restored, CompiledQAOA)
        assert restored.circuit.instructions == compiled.circuit.instructions
        assert restored.swap_count == compiled.swap_count


class TestValidation:
    @pytest.mark.parametrize("edge", [[0, 1, 2], [0, 0], [0, 99]])
    def test_malformed_coupling_edge_is_a_value_error(self, compiled_qaoa, edge):
        payload = json.loads(to_json(compiled_qaoa))
        payload["coupling"]["edges"].append(edge)
        with pytest.raises(ValueError):
            from_json(json.dumps(payload))

    def test_version_check(self, compiled_qaoa):
        payload = json.loads(to_json(compiled_qaoa))
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="version 99"):
            from_json(json.dumps(payload))

    def test_stale_version_error_is_descriptive(self, compiled_qaoa):
        from repro.compiler.serialize import FORMAT_VERSION

        payload = json.loads(to_json(compiled_qaoa))
        payload["format_version"] = FORMAT_VERSION + 1
        with pytest.raises(ValueError) as excinfo:
            from_json(json.dumps(payload))
        message = str(excinfo.value)
        assert str(FORMAT_VERSION) in message
        assert "recompile" in message

    def test_missing_version_rejected(self, compiled_qaoa):
        payload = json.loads(to_json(compiled_qaoa))
        del payload["format_version"]
        with pytest.raises(ValueError, match="format_version"):
            from_json(json.dumps(payload))

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            from_json(json.dumps([1, 2, 3]))

    def test_round_trip_unaffected_by_stale_rejection(self, compiled_qaoa):
        # A stale payload raises; the same document with the correct
        # version still round-trips — rejection is purely the version gate.
        good = to_json(compiled_qaoa)
        stale = json.loads(good)
        stale["format_version"] = 0
        with pytest.raises(ValueError):
            from_json(json.dumps(stale))
        restored = from_json(good)
        assert (
            restored.circuit.instructions == compiled_qaoa.circuit.instructions
        )

    def test_format_version_exported(self):
        from repro.compiler.serialize import FORMAT_VERSION

        assert isinstance(FORMAT_VERSION, int)

    def test_pre_v5_artifact_refused(self, compiled_qaoa):
        # Before v5 a routed qubit could be measured and then SWAPped
        # away, so its classical bits need not match its final mapping:
        # pre-v5 documents are refused, not read.
        payload = json.loads(to_json(compiled_qaoa))
        for version in (2, 3, 4):
            payload["format_version"] = version
            with pytest.raises(
                ValueError, match="unsupported serialisation format version"
            ):
                from_json(json.dumps(payload))

    def test_document_missing_a_field_is_a_value_error(self, compiled_qaoa):
        """A v5 document of either kind that lacks any field it reads —
        at the top, in its coupling, its program or a pass record — is
        refused with a ValueError naming the field, not a KeyError."""
        device = ring_device(5)
        raw = ConventionalBackend(device).compile(
            QuantumCircuit(5).cphase(0.4, 0, 2), Mapping.trivial(5, 5)
        )
        for compiled in (compiled_qaoa, raw):
            document = json.loads(to_json(compiled))
            fields = [((key,), key) for key in document if key != "format_version"]
            for nested in ("coupling", "program"):
                if nested in document:
                    fields += [
                        ((nested, key), f"{nested}.{key}") for key in document[nested]
                    ]
            if "pass_trace" in document:
                fields += [
                    (("pass_trace", 0, key), f"pass_trace[].{key}")
                    for key in ("name", "seconds")
                ]
            assert len(fields) >= 8
            for path, name in fields:
                tampered = json.loads(to_json(compiled))
                holder = tampered
                for key in path[:-1]:
                    holder = holder[key]
                del holder[path[-1]]
                with pytest.raises(ValueError, match=re.escape(repr(name))):
                    from_document(tampered)
            assert from_document(document).swap_count == compiled.swap_count

    def test_document_field_of_wrong_json_type_is_a_value_error(
        self, compiled_qaoa
    ):
        """A v5 document whose object, array or string field holds a
        value of another JSON type is refused with a ValueError naming
        the field and the type it must have, not an AttributeError or
        TypeError from deeper in the read."""
        device = ring_device(5)
        raw = ConventionalBackend(device).compile(
            QuantumCircuit(5).cphase(0.4, 0, 2), Mapping.trivial(5, 5)
        )
        objects = ["initial_mapping", "final_mapping", "coupling"]
        arrays = [("coupling", "edges")]
        qaoa_objects = ["program", "encoding_info", ("program", "linear")]
        qaoa_arrays = [
            "warnings", "pass_trace", ("program", "edges"), ("program", "levels"),
        ]
        for compiled, qaoa in ((compiled_qaoa, True), (raw, False)):
            cases = [(path, [], "object") for path in objects]
            cases += [(path, {}, "array") for path in arrays]
            cases += [("qasm", ["OPENQASM 2.0;"], "string")]
            if qaoa:
                cases += [(path, "{}", "object") for path in qaoa_objects]
                cases += [(path, {"0": 1}, "array") for path in qaoa_arrays]
                cases += [(("pass_trace", 0), "route", "object")]
            for path, wrong, kind in cases:
                path = (path,) if isinstance(path, str) else path
                name = ".".join(map(str, path)).replace(".0", "[]")
                tampered = json.loads(to_json(compiled))
                holder = tampered
                for key in path[:-1]:
                    holder = holder[key]
                holder[path[-1]] = wrong
                with pytest.raises(
                    ValueError, match=re.escape(f"{name!r} must be a JSON {kind}")
                ):
                    from_document(tampered)

    def test_tampered_circuit_fails_validation(self, compiled_qaoa):
        payload = json.loads(to_json(compiled_qaoa))
        # Inject a coupling-violating gate into the QASM.
        payload["qasm"] = payload["qasm"].replace(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[6];\ncreg c[6];",
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[6];\ncreg c[6];\ncx q[0],q[3];",
        )
        with pytest.raises(CouplingError, match="violates"):
            from_json(json.dumps(payload))

    def test_register_widened_to_the_device(self, rng):
        program = MaxCutProblem(4, [(0, 1), (1, 2), (2, 3)]).to_program([0.4], [0.2])
        compiled = compile_with_method(program, ibmq_16_melbourne(), "ic", rng=rng)
        used = 1 + max(q for inst in compiled.circuit for q in inst.qubits)
        assert used < compiled.coupling.num_qubits
        payload = json.loads(to_json(compiled))
        payload["qasm"] = qasm.dumps(QuantumCircuit(used, compiled.circuit.instructions))
        restored = from_document(payload)
        assert restored.circuit.num_qubits == compiled.coupling.num_qubits
        assert restored.circuit.instructions == compiled.circuit.instructions
        payload["qasm"] = qasm.dumps(QuantumCircuit(16, [Instruction("h", (15,))]))
        with pytest.raises(ValueError, match="out of range"):
            from_document(payload)

    def test_vic_result_round_trips(self, rng):
        problem = MaxCutProblem(6, [(0, 1), (1, 2), (2, 3), (4, 5), (0, 5)])
        program = problem.to_program([0.4], [0.2])
        compiled = compile_with_method(
            program,
            ibmq_16_melbourne(),
            "vic",
            calibration=melbourne_calibration(),
            rng=rng,
        )
        restored = from_json(to_json(compiled))
        assert restored.method == "qaim+vic"
        assert restored.depth() == compiled.depth()
