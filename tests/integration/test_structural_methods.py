"""Integration: the structural methods flow through every entry point.

The registry is the API contract — once a spec is registered (built-in
``swap_network``/``parity`` or a user's custom method), it must compile
through :func:`repro.compile`, survive serialization and resolve in the
service job layer without any entry point special-casing the name.
"""

import json

import numpy as np
import pytest

import repro
from repro.compiler import (
    PipelineSpec,
    compile_with_method,
    from_json,
    register_method,
    to_json,
    unregister_method,
)
from repro.hardware import get_device
from repro.qaoa import MaxCutProblem
from repro.service import CompileJob, execute_job
from repro.service.job import job_from_dict, job_to_dict, method_label
from repro.sim.fastpath import evaluate_fast, fastpath_plan

PROBLEM = MaxCutProblem(
    6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
)


def _program():
    return PROBLEM.to_program([0.7], [0.35])


class TestStructuralMethodsEndToEnd:
    @pytest.mark.parametrize("method", ["swap_network", "parity"])
    @pytest.mark.parametrize(
        "device", ["ibmq_16_melbourne", "ibmq_20_tokyo"]
    )
    def test_compile_and_evaluate_via_facade(self, method, device):
        result = repro.compile(
            PROBLEM,
            target=device,
            method=method,
            gammas=[0.7],
            betas=[0.35],
        )
        assert result.method == method
        scores = repro.evaluate(result, shots=2048, seed=3)
        assert 0.0 <= scores.r0 <= 1.0

    @pytest.mark.parametrize(
        "device", ["ibmq_16_melbourne", "ibmq_20_tokyo"]
    )
    def test_verifier_covers_both_methods(self, device):
        coupling = get_device(device)
        swapnet = compile_with_method(
            _program(), coupling, "swap_network",
            rng=np.random.default_rng(0),
        )
        plan = fastpath_plan(swapnet)
        assert plan.ok, plan.reason
        parity = compile_with_method(
            _program(), coupling, "parity", rng=np.random.default_rng(0)
        )
        pplan = fastpath_plan(parity)
        assert pplan.ok, pplan.reason

    def test_serialize_roundtrip_preserves_encoding(self):
        compiled = compile_with_method(
            _program(), get_device("ibmq_16_melbourne"), "parity",
            rng=np.random.default_rng(1),
        )
        restored = from_json(to_json(compiled))
        assert restored.encoding == "parity"
        assert restored.encoding_info == compiled.encoding_info
        assert fastpath_plan(restored).ok
        a = evaluate_fast(compiled, mode="exact")
        b = evaluate_fast(restored, mode="exact")
        assert a.r0 == pytest.approx(b.r0, abs=1e-12)


class TestCustomRegisteredMethod:
    def test_user_method_compiles_everywhere(self):
        spec = PipelineSpec(placement="linear", ordering="swap_network")
        register_method("custom_brick", spec)
        try:
            # facade
            result = repro.compile(
                PROBLEM,
                target="ibmq_20_tokyo",
                method="custom_brick",
                gammas=[0.7],
                betas=[0.35],
            )
            assert result.method == "custom_brick"
            # service job layer (string name resolves via the registry)
            job = CompileJob(
                program=_program(),
                device="ibmq_20_tokyo",
                method="custom_brick",
                job_id="custom-0",
            )
            outcome = execute_job(job)
            assert outcome.ok
            assert outcome.to_record()["method"] == "custom_brick"
            roundtrip = job_from_dict(job_to_dict(job))
            assert roundtrip.method == "custom_brick"
        finally:
            unregister_method("custom_brick")


class TestSpecPassthrough:
    def test_facade_accepts_inline_spec(self):
        spec = PipelineSpec(placement="linear", ordering="swap_network")
        result = repro.compile(
            PROBLEM,
            target="ibmq_20_tokyo",
            method=spec,
            gammas=[0.7],
            betas=[0.35],
        )
        assert result.method == spec.method == "linear+swap_network"

    def test_job_spec_roundtrips_with_stable_hash(self):
        spec = PipelineSpec(placement="linear", ordering="swap_network")
        job = CompileJob(
            program=_program(),
            device="ibmq_20_tokyo",
            method=spec,
            job_id="spec-0",
        )
        assert method_label(job.method) == "linear+swap_network"
        line = json.dumps(job_to_dict(job))
        restored = job_from_dict(json.loads(line))
        assert restored.method == spec
        assert restored.content_hash() == job.content_hash()

    def test_fingerprint_distinguishes_specs(self):
        a = PipelineSpec(placement="linear", ordering="swap_network")
        b = PipelineSpec(
            placement="linear", ordering="swap_network", lower=True
        )
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == PipelineSpec(
            placement="linear", ordering="swap_network"
        ).fingerprint()
