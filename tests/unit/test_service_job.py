"""Unit tests for the service job model: hashing, JSONL I/O, execution."""

import dataclasses
import json

import numpy as np
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
from repro.hardware.target import intern_target
from repro.service import (
    CompileJob,
    decode_envelope,
    encode_envelope,
    execute_job,
    job_from_dict,
    job_to_dict,
    load_jobs_jsonl,
    resolve_job_environment,
)
from repro.service import job as job_module


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


class TestMalformedCalibrationSpec:
    """An unsupported calibration spec fails where the job is built."""

    def test_constructor_rejects_unsupported_forms(self, program):
        for spec in ([1, 2], 3, "bogus", {"timestamp": "x"}):
            with pytest.raises(ValueError, match="unsupported calibration spec"):
                _job(program, calibration=spec)

    def test_loader_reports_the_bad_line(self, program):
        good = job_to_dict(_job(program, job_id="good"))
        bad = dict(good, id="bad", calibration=[1, 2])
        lines = [json.dumps(good), json.dumps(bad), json.dumps(good)]
        with pytest.raises(ValueError, match="bad job on line 2: unsupported calibration"):
            load_jobs_jsonl(lines)

    def test_unhashable_job_is_an_invalid_result(self, program):
        job = _job(program)
        job.calibration = [1, 2]  # mutated past the constructor's check
        result = execute_job(job)
        assert not result.ok
        assert result.error_kind == "invalid"
        assert "unsupported calibration spec" in result.error


def _timing_free(payload):
    """The compiled document of an envelope without its wall-clock fields."""
    document = json.loads(payload)["compiled"]
    del document["compile_time"]
    for record in document["pass_trace"]:
        del record["seconds"]
    return document


class TestNumpyScalarPrograms:
    """Numpy scalars are coerced where the program is built, so they hash
    and compile like their Python twins."""

    def _twins(self, program):
        twin = QAOAProgram(
            num_qubits=np.int64(program.num_qubits),
            edges=[(np.int64(a), np.int64(b), np.float64(w)) for a, b, w in program.edges],
            levels=[Level(np.float64(lv.gamma), np.float64(lv.beta)) for lv in program.levels],
            linear={np.int64(2): np.float64(0.3)},
        )
        python = QAOAProgram(
            program.num_qubits, program.edges, program.levels, linear={2: 0.3}
        )
        return twin, python

    def test_share_one_key(self, program):
        twin, python = self._twins(program)
        for method in ("ic", "vic"):
            a = _job(twin, method=method, calibration="auto")
            b = _job(python, method=method, calibration="auto")
            assert a.content_hash() == b.content_hash()

    def test_compile_to_identical_payloads(self, program):
        twin, python = self._twins(program)
        a = execute_job(_job(twin, method="ic"))
        b = execute_job(_job(python, method="ic"))
        assert a.ok and b.ok and a.key == b.key
        assert a.compiled().circuit.instructions == b.compiled().circuit.instructions
        assert _timing_free(a.payload) == _timing_free(b.payload)

    def test_fields_become_python_scalars(self, program):
        twin, _ = self._twins(program)
        assert type(twin.num_qubits) is int
        for a, b, w in twin.edges:
            assert (type(a), type(b), type(w)) == (int, int, float)
        for lv in twin.levels:
            assert (type(lv.gamma), type(lv.beta)) == (float, float)
        assert [(type(q), type(h)) for q, h in twin.linear.items()] == [(int, float)]

    def test_non_integral_indices_rejected(self, program):
        levels = program.levels
        with pytest.raises(ValueError, match="not an integer"):
            QAOAProgram(3, [(0, 1.5, 1.0)], levels)
        with pytest.raises(ValueError, match="not an integer"):
            QAOAProgram(3, [(0, 1, 1.0)], levels, linear={0.5: 1.0})
        with pytest.raises(ValueError, match="not an integer"):
            QAOAProgram(2.5, [(0, 1, 1.0)], levels)
        assert QAOAProgram(3, [(0.0, np.float64(2.0), 1)], levels).edges == [(0, 2, 1.0)]
        line = json.dumps({"program": {"num_qubits": 3, "edges": [[0, 1.5]]}})
        with pytest.raises(ValueError, match="line 1: edge endpoint 1.5 is not an integer"):
            load_jobs_jsonl([line])


def _environment_jobs(program):
    melbourne = ibmq_16_melbourne()
    cal = melbourne_calibration()
    table = {
        "cnot_error": {f"{a}-{b}": err for (a, b), err in cal.cnot_error.items()}
    }
    return {
        "none": _job(program),
        "auto-melbourne": _job(program, device="ibmq_16_melbourne", calibration="auto"),
        "auto-tokyo": _job(program, calibration="auto", seed=5),
        "seed": _job(program, calibration={"seed": 9}),
        "table": _job(program, device="ibmq_16_melbourne", calibration=table),
        "dirty": _job(
            program, device="ibmq_16_melbourne", calibration=_dirty_melbourne_payload()
        ),
        "object": _job(program, device=melbourne, calibration=cal),
        "inline": _job(program, device=ring_device(6), calibration={"seed": 4}),
    }


def _calibration_content(calibration):
    if calibration is None:
        return None
    return (
        calibration.coupling.name,
        sorted(calibration.coupling.edges),
        sorted(calibration.cnot_error.items()),
        sorted(calibration.single_qubit_error.items()),
        sorted(calibration.readout_error.items()),
    )


class TestEnvironmentMemo:
    """``execute_job`` resolves device + calibration + Target once per
    distinct environment; the memo must equal a fresh resolution."""

    @pytest.fixture(autouse=True)
    def _empty_memo(self):
        job_module._ENVIRONMENTS.clear()
        yield
        job_module._ENVIRONMENTS.clear()

    @pytest.mark.parametrize(
        "kind",
        ["none", "auto-melbourne", "auto-tokyo", "seed", "table", "dirty", "object", "inline"],
    )
    def test_memo_equals_fresh_resolution(self, program, kind):
        job = _environment_jobs(program)[kind]
        for _ in range(2):  # the miss, then the hit
            calibration, warnings, target = job_module._job_environment(job)
            device, fresh_cal, fresh_warnings = resolve_job_environment(job)
            fresh = intern_target(device, fresh_cal, warnings=tuple(fresh_warnings))
            assert target.fingerprint == fresh.fingerprint is not None
            assert _calibration_content(calibration) == _calibration_content(fresh_cal)
            assert _calibration_content(target.calibration) == _calibration_content(fresh_cal)
            assert list(warnings) == fresh_warnings
        assert bool(warnings) == (kind == "dirty")

    def test_repair_warnings_reach_every_result(self, program):
        job = _environment_jobs(program)["dirty"]
        first, second = execute_job(job), execute_job(job)
        assert first.ok and second.ok
        assert any("repaired" in w for w in second.warnings)
        assert _timing_free(first.payload) == _timing_free(second.payload)
        assert first.warnings == second.warnings == second.metrics["warnings"]

    def test_one_resolution_per_environment(self, program, monkeypatch):
        calls = []

        def counting(job):
            calls.append(job.seed)
            return resolve_job_environment(job)

        monkeypatch.setattr(job_module, "resolve_job_environment", counting)
        for seed in (1, 2, 1, 2):
            job_module._job_environment(_job(program, seed=seed))
            job_module._job_environment(_job(program, calibration="auto", seed=seed))
            job_module._job_environment(
                _job(program, device="ibmq_16_melbourne", calibration="auto", seed=seed)
            )
        # The seed splits only the environments that draw from it.
        assert calls == [1, 1, 1, 2]

    def test_failures_are_not_stored(self, program):
        job = _job(program, device="no_such_device")
        for _ in range(2):
            result = execute_job(job)
            assert result.error_kind == "invalid"
        assert len(job_module._ENVIRONMENTS) == 0


@pytest.mark.parametrize("method", available_methods())
def test_compiled_read_back_equals_from_json(program, method):
    calibration = "auto" if method == "vic" else None
    result = execute_job(_job(program, method=method, calibration=calibration))
    assert result.ok
    one_decode = result.compiled()
    reference = serialize.from_json(decode_envelope(result.payload)[1])
    assert type(one_decode) is type(reference)
    for field in dataclasses.fields(one_decode):
        if field.name == "_native_cache":
            continue
        mine, theirs = getattr(one_decode, field.name), getattr(reference, field.name)
        if field.name == "coupling":
            mine = (mine.name, mine.num_qubits, mine.edges)
            theirs = (theirs.name, theirs.num_qubits, theirs.edges)
        assert mine == theirs, field.name
    assert one_decode.circuit.name == reference.circuit.name
    assert one_decode.circuit.num_qubits == reference.circuit.num_qubits
