"""What the job model must not move: cache keys and result envelopes.

A cache key is a job's ``content_hash()``; a changed key silently
invalidates every cache written before.  The keys below are full literals,
so any change to a canonical form, a version constant or the hash itself
fails here.  The envelope checks pin the bytes eval and optimize results
carry and the order of their metrics keys (a digest that sorts keys
cannot see a reordering).
"""

import json

import pytest

from repro.compiler.pipeline import PipelineSpec
from repro.hardware import ring_device, uniform_calibration
from repro.qaoa.frontend import problem_from_spec
from repro.qaoa.problems import Level, QAOAProgram
from repro.service import (
    CompileJob,
    EvalJob,
    OptimizeJob,
    encode_envelope,
    execute_eval_job,
    execute_job,
    execute_optimize_job,
)


def _program():
    return QAOAProgram(
        num_qubits=5,
        edges=[(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1.25), (3, 4, 1.0), (0, 4, 2.0)],
        levels=[Level(0.7, 0.35)],
        linear={1: 0.25},
    )


def _named_compile_job():
    return CompileJob(
        program=_program(), device="ibmq_20_tokyo", method="ic", seed=3,
        job_id="named",
    )


def _inline_compile_job():
    ring = ring_device(6)
    return CompileJob(
        program=_program(),
        device=ring,
        method=PipelineSpec(placement="greedy_e", ordering="ip", packing_limit=2),
        seed=1,
        calibration=uniform_calibration(ring, cnot_error=0.02),
        job_id="inline",
    )


def _eval_job():
    return EvalJob(
        CompileJob(
            program=_program(), device="ibmq_16_melbourne", method="vic",
            seed=2, calibration="auto",
        ),
        shots=1024,
        trajectories=8,
        noise_scale=1.5,
        t2_ns=50000.0,
        mode="exact",
        eval_seed=4,
        job_id="eval",
    )


def _optimize_job():
    problem = problem_from_spec(
        {"qubo": {"matrix": [[1, -1, 0], [-1, 1, -1], [0, -1, 1]]}}
    )
    return OptimizeJob(
        problem=problem, p=2, optimizer="nelder-mead", maxiter=50,
        restarts=4, opt_seed=9, job_id="opt",
    )


class TestGoldenKeys:
    @pytest.mark.parametrize(
        "build, key",
        [
            (
                _named_compile_job,
                "70db3bc5058dffc7c411487b7750646cc4200d294aabffd6815c1d4d82ecd8c7",
            ),
            (
                _inline_compile_job,
                "c4315b34e81fbb0aab890f1e4bba4790349408ec6b70174fa68c8acc17c0816c",
            ),
            (
                _eval_job,
                "e54da4b8055336fe0909944b6d6a395dc5e8a1ac0fb513362af4ceebb6bb96f5",
            ),
            (
                _optimize_job,
                "9141c927d6c662bd97f72b8f1716e96927bc4dd9086e36cbfcf61969f066d0a6",
            ),
        ],
        ids=["compile-named", "compile-inline-spec", "eval", "optimize"],
    )
    def test_content_hash_is_pinned(self, build, key):
        assert build().content_hash() == key


def _keys(metrics):
    # Only envelopes written before 5.0.0 carry per-job ``store_events``.
    assert "store_events" not in metrics
    return list(metrics)


class TestEnvelopes:
    def test_compile_metrics_order(self):
        result = execute_job(_named_compile_job())
        assert result.ok, result.error
        assert _keys(result.metrics) == [
            "depth", "gate_count", "cnot_count", "swap_count", "compile_time",
            "success_probability", "warnings", "pass_trace",
            "target_fingerprint",
        ]
        assert json.loads(result.payload)["metrics"] == result.metrics

    def test_eval_envelope(self):
        result = execute_eval_job(_eval_job())
        assert result.ok, result.error
        assert result.key == _eval_job().content_hash()
        assert result.payload == encode_envelope("null", result.metrics)
        assert _keys(result.metrics) == [
            "r0", "rh", "arg", "shots", "trajectories", "mode", "fastpath",
            "fastpath_reason", "noise_scale", "t2_ns", "swap_count",
            "compile_time", "success_probability", "eval_trace",
            "pass_trace", "warnings", "target_fingerprint",
            "diagonal_fingerprint",
        ]

    def test_optimize_envelope(self):
        result = execute_optimize_job(_optimize_job())
        assert result.ok, result.error
        assert result.key == _optimize_job().content_hash()
        assert result.payload == encode_envelope("null", result.metrics)
        assert _keys(result.metrics) == [
            "gammas", "betas", "expectation", "optimum",
            "approximation_ratio", "evaluations", "optimizer", "p",
            "maxiter", "restarts", "num_qubits", "optimize_trace",
            "problem_fingerprint", "diagonal_fingerprint",
        ]
        assert result.warnings == []
