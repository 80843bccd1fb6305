"""Unit tests for the service-layer evaluation workload (EvalJob)."""

import numpy as np
import pytest

from repro.qaoa.problems import Level, QAOAProgram
from repro.service import (
    CompileJob,
    EvalJob,
    ResultCache,
    execute_eval_job,
    run_batch,
)
from repro.service import evaluate as evaluate_module
from repro.service import job as job_module
from repro.service.job import resolve_job_environment


def _program(n=6, seed=0):
    rng = np.random.default_rng(seed)
    edges = [
        (a, b, float(rng.uniform(0.5, 2.0)))
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < 0.6
    ] or [(0, 1, 1.0)]
    return QAOAProgram(num_qubits=n, edges=edges, levels=[Level(0.8, 0.4)])


def _job(**kwargs):
    defaults = dict(
        compile_job=CompileJob(
            program=_program(),
            device="ibmq_16_melbourne",
            method="ic",
            calibration="auto",
        ),
        shots=512,
        trajectories=4,
    )
    defaults.update(kwargs)
    return EvalJob(**defaults)


class TestEvalJobHash:
    def test_hash_is_stable_and_id_free(self):
        assert _job().content_hash() == _job(job_id="xyz").content_hash()

    def test_every_eval_knob_changes_the_hash(self):
        base = _job().content_hash()
        assert _job(shots=1024).content_hash() != base
        assert _job(trajectories=8).content_hash() != base
        assert _job(noise_scale=2.0).content_hash() != base
        assert _job(t2_ns=4e4).content_hash() != base
        assert _job(mode="exact").content_hash() != base
        assert _job(eval_seed=9).content_hash() != base

    def test_compile_knobs_change_the_hash(self):
        base = _job().content_hash()
        other = _job(
            compile_job=CompileJob(
                program=_program(),
                device="ibmq_16_melbourne",
                method="vic",
                calibration="auto",
            )
        )
        assert other.content_hash() != base

    def test_proxies_delegate_to_compile_job(self):
        job = _job()
        assert job.device == "ibmq_16_melbourne"
        assert job.method == "ic"
        assert job.seed == 0
        assert job.packing_limit is None
        assert job.program is job.compile_job.program


class TestExecuteEvalJob:
    def test_successful_execution(self):
        result = execute_eval_job(_job())
        assert result.ok, result.error
        m = result.metrics
        assert 0.0 < m["rh"] <= 1.0 and 0.0 < m["r0"] <= 1.0
        assert m["arg"] == pytest.approx(
            100.0 * (m["r0"] - m["rh"]) / m["r0"]
        )
        assert m["fastpath"] is True
        assert m["success_probability"] is not None
        stages = {t["name"] for t in m["eval_trace"]}
        assert {"diagonal", "ideal", "noisy"} <= stages
        assert m["diagonal_fingerprint"]

    def test_bad_method_degrades_not_raises(self):
        job = _job(
            compile_job=CompileJob(
                program=_program(), device="ibmq_16_melbourne", method="bogus"
            )
        )
        result = execute_eval_job(job)
        assert not result.ok
        assert result.error_kind == "invalid"

    def test_unhashable_job_fails_not_raises(self):
        job = _job()
        job.compile_job.calibration = [1, 2]  # set after __post_init__
        result = execute_eval_job(job)
        assert not result.ok
        assert result.error_kind == "invalid"
        assert result.key == ""

    def test_noise_scale_zero_closes_the_gap(self):
        noisy = execute_eval_job(_job(mode="exact"))
        clean = execute_eval_job(_job(mode="exact", noise_scale=0.0))
        assert clean.ok and noisy.ok
        assert clean.metrics["arg"] == pytest.approx(0.0, abs=1e-9)
        assert noisy.metrics["arg"] > clean.metrics["arg"]


class TestEvalEnvironmentMemo:
    def test_shared_environment_resolves_once(self, monkeypatch):
        calls = []

        def counting(job):
            calls.append(job.seed)
            return resolve_job_environment(job)

        monkeypatch.setattr(job_module, "resolve_job_environment", counting)
        monkeypatch.setattr(evaluate_module, "resolve_job_environment", counting)
        job_module._ENVIRONMENTS.clear()
        try:
            report = run_batch(
                [_job(eval_seed=seed) for seed in range(3)], cache=None
            )
        finally:
            job_module._ENVIRONMENTS.clear()
        assert len(report.ok) == 3
        assert calls == [0]


class TestEvalBatch:
    def test_cache_round_trip(self, tmp_path):
        jobs = [_job(job_id="a"), _job(job_id="b", shots=1024)]
        cold = run_batch(
            jobs, cache=ResultCache(directory=str(tmp_path))
        )
        assert len(cold.ok) == 2 and not cold.failed
        assert all(not r.cached for r in cold.results)
        warm = run_batch(
            jobs, cache=ResultCache(directory=str(tmp_path))
        )
        assert len(warm.ok) == 2
        assert all(r.cached for r in warm.results)
        for before, after in zip(cold.results, warm.results):
            assert before.metrics["arg"] == after.metrics["arg"]

    def test_eval_stage_summary_histograms(self):
        report = run_batch([_job()], cache=None)
        stages = report.stage_summary("eval")
        assert {"diagonal", "ideal", "noisy"} <= set(stages)
        assert all(s["count"] == 1 for s in stages.values())

    def test_to_record_shape(self):
        report = run_batch([_job(job_id="rec")], cache=None)
        record = report.results[0].to_record()
        assert record["id"] == "rec"
        assert record["ok"] is True
        assert record["device"] == "ibmq_16_melbourne"
        assert "arg" in record["metrics"]
