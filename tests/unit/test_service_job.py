"""Unit tests for the service job model: hashing, JSONL I/O, execution."""

import json

import pytest

from repro.compiler import available_methods, serialize
from repro.compiler.serialize import FORMAT_VERSION, to_document, to_json
from repro.hardware import (
    ibmq_16_melbourne,
    melbourne_calibration,
    ring_device,
)
from repro.qaoa import MaxCutProblem
from repro.qaoa.problems import Level, QAOAProgram
from repro.service import (
    CompileJob,
    decode_envelope,
    encode_envelope,
    execute_job,
    job_from_dict,
    job_to_dict,
    load_jobs_jsonl,
)


@pytest.fixture
def program():
    problem = MaxCutProblem(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    return problem.to_program([0.7], [0.35])


def _job(program, **kwargs):
    defaults = dict(program=program, device="ibmq_20_tokyo")
    defaults.update(kwargs)
    return CompileJob(**defaults)


class TestContentHash:
    def test_stable_across_calls(self, program):
        job = _job(program)
        assert job.content_hash() == job.content_hash()

    def test_edge_order_invariant(self, program):
        shuffled = QAOAProgram(
            num_qubits=program.num_qubits,
            edges=list(program.edges)[::-1],
            levels=program.levels,
        )
        assert _job(program).content_hash() == _job(shuffled).content_hash()

    def test_endpoint_order_invariant(self, program):
        flipped = QAOAProgram(
            num_qubits=program.num_qubits,
            edges=[(b, a, w) for a, b, w in program.edges],
            levels=program.levels,
        )
        assert _job(program).content_hash() == _job(flipped).content_hash()

    def test_seed_distinct(self, program):
        assert (
            _job(program, seed=0).content_hash()
            != _job(program, seed=1).content_hash()
        )

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("method", "ip"),
            ("packing_limit", 4),
            ("router", "sabre"),
            ("device", "ibmq_16_melbourne"),
        ],
    )
    def test_knobs_distinct(self, program, knob, value):
        assert (
            _job(program).content_hash()
            != _job(program, **{knob: value}).content_hash()
        )

    def test_weight_changes_hash(self, program):
        reweighted = QAOAProgram(
            num_qubits=program.num_qubits,
            edges=[(a, b, w * 2.0) for a, b, w in program.edges],
            levels=program.levels,
        )
        assert (
            _job(program).content_hash() != _job(reweighted).content_hash()
        )

    def test_level_params_change_hash(self, program):
        retuned = QAOAProgram(
            num_qubits=program.num_qubits,
            edges=program.edges,
            levels=[Level(0.9, 0.1)],
        )
        assert _job(program).content_hash() != _job(retuned).content_hash()

    def test_job_id_excluded(self, program):
        assert (
            _job(program, job_id="a").content_hash()
            == _job(program, job_id="b").content_hash()
        )

    def test_inline_device_vs_name_distinct(self, program):
        # Conservative: an inline graph hashes by content, a name by name.
        inline = _job(program, device=ring_device(8))
        named = _job(program, device="ring_8")
        assert inline.content_hash() != named.content_hash()

    def test_calibration_object_hashes_by_content(self, program):
        cal = melbourne_calibration()
        a = _job(program, device=ibmq_16_melbourne(), calibration=cal)
        b = _job(
            program,
            device=ibmq_16_melbourne(),
            calibration=melbourne_calibration(),
        )
        assert a.content_hash() == b.content_hash()


class TestExecuteJob:
    def test_success_produces_payload_and_metrics(self, program):
        result = execute_job(_job(program))
        assert result.ok
        assert result.metrics["depth"] > 0
        metrics, compiled_json = decode_envelope(result.payload)
        assert metrics == result.metrics
        assert json.loads(compiled_json)["kind"] == "qaoa"

    def test_compiled_round_trip(self, program):
        result = execute_job(_job(program))
        compiled = result.compiled()
        assert compiled.depth() == result.metrics["depth"]
        assert compiled.gate_count() == result.metrics["gate_count"]

    def test_unknown_device_is_structured_error(self, program):
        result = execute_job(_job(program, device="nonexistent"))
        assert not result.ok
        assert result.error_kind == "invalid"
        assert "nonexistent" in result.error

    def test_unknown_method_is_structured_error(self, program):
        result = execute_job(_job(program, method="telepathy"))
        assert not result.ok
        assert result.error_kind == "invalid"

    def test_vic_auto_calibration(self, program):
        result = execute_job(
            _job(
                program,
                device="ibmq_16_melbourne",
                method="vic",
                calibration="auto",
            )
        )
        assert result.ok
        assert result.metrics["success_probability"] is not None

    def test_failed_result_refuses_compiled(self, program):
        result = execute_job(_job(program, device="nonexistent"))
        with pytest.raises(ValueError, match="no compiled result"):
            result.compiled()

    @pytest.mark.parametrize("device", ["ibmq_20_tokyo", "ibmq_16_melbourne"])
    @pytest.mark.parametrize("method", available_methods())
    def test_payload_bytes_equal_two_step_encoding(
        self, program, method, device, monkeypatch
    ):
        """The envelope is encoded once from the document dict, with the
        same bytes as encoding ``to_json``'s text — so the payload format
        (and caches written before the single encode) are unchanged.  The
        explicit two-step encoding pins the bytes independently of
        ``encode_envelope``'s own implementation."""
        seen = []

        def capture(compiled):
            seen.append(compiled)
            return to_document(compiled)

        monkeypatch.setattr(serialize, "to_document", capture)
        result = execute_job(
            _job(program, device=device, method=method, calibration="auto")
        )
        assert result.ok, result.error
        (compiled,) = seen
        two_step = json.dumps(
            {
                "format_version": FORMAT_VERSION,
                "metrics": result.metrics,
                "compiled": json.loads(to_json(compiled)),
            },
            separators=(",", ":"),
        )
        assert result.payload == two_step
        assert result.payload == encode_envelope(to_json(compiled), result.metrics)


def _dirty_melbourne_payload():
    payload = {
        f"{a}-{b}": err
        for (a, b), err in melbourne_calibration().cnot_error.items()
    }
    payload["0-1"] = float("nan")
    payload["2-3"] = 7.5  # out of range
    return {"cnot_error": payload}


class TestDegradedCalibration:
    def test_dirty_feed_repaired_with_warnings(self, program):
        result = execute_job(
            _job(
                program,
                device="ibmq_16_melbourne",
                method="vic",
                calibration=_dirty_melbourne_payload(),
            )
        )
        assert result.ok
        assert result.warnings
        assert any("repaired" in w for w in result.warnings)
        assert result.metrics["warnings"] == result.warnings
        assert result.metrics["success_probability"] is not None

    def test_warnings_survive_record_round_trip(self, program):
        result = execute_job(
            _job(
                program,
                device="ibmq_16_melbourne",
                method="vic",
                calibration=_dirty_melbourne_payload(),
            )
        )
        record = result.to_record()
        assert record["warnings"] == result.warnings

    def test_clean_feed_has_no_warnings(self, program):
        result = execute_job(
            _job(
                program,
                device="ibmq_16_melbourne",
                method="vic",
                calibration="auto",
            )
        )
        assert result.ok
        assert result.warnings == []

    def test_unrepairable_feed_is_structured_error(self, program):
        device = ring_device(5)
        disconnected = type(device)(
            5, [(0, 1), (1, 2), (3, 4)], name="split5"
        )
        payload = {
            "cnot_error": {"0-1": float("nan"), "1-2": 0.01, "3-4": 0.01}
        }
        result = execute_job(
            _job(program, device=disconnected, calibration=payload)
        )
        assert not result.ok
        assert result.error_kind == "invalid"
        assert "disconnected" in result.error


class TestJsonl:
    def test_round_trip(self, program):
        job = _job(program, method="ip", packing_limit=4, job_id="x1")
        restored = job_from_dict(job_to_dict(job))
        assert restored.content_hash() == job.content_hash()
        assert restored.job_id == "x1"

    def test_problem_spec_is_deterministic(self):
        spec = {
            "problem": {"family": "er", "nodes": 10, "param": 0.5, "seed": 7},
            "device": "ibmq_20_tokyo",
        }
        a = job_from_dict(dict(spec))
        b = job_from_dict(dict(spec))
        assert a.content_hash() == b.content_hash()

    def test_loader_skips_comments_and_blanks(self):
        lines = [
            "# a comment",
            "",
            json.dumps(
                {
                    "program": {
                        "num_qubits": 3,
                        "edges": [[0, 1], [1, 2]],
                    },
                    "device": "ring_8",
                }
            ),
        ]
        jobs = load_jobs_jsonl(lines)
        assert len(jobs) == 1
        assert jobs[0].program.num_qubits == 3

    def test_loader_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            load_jobs_jsonl(["# ok", '{"device": "ring_8"}'])

    def test_inline_device_round_trip(self, program):
        job = _job(program, device=ring_device(8))
        restored = job_from_dict(job_to_dict(job))
        assert restored.content_hash() == job.content_hash()

    def test_calibration_round_trip(self, program):
        job = _job(
            program,
            device=ibmq_16_melbourne(),
            method="vic",
            calibration=melbourne_calibration(),
        )
        restored = job_from_dict(job_to_dict(job))
        assert restored.content_hash() == job.content_hash()
        result = execute_job(restored)
        assert result.ok
