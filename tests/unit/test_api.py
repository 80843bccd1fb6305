"""Unit tests for the :mod:`repro.api` facade.

Covers the redesigned public surface: keyword-only signatures, input
coercion (device names, couplings, calibrations, targets), the typed
result objects, the silent compiler-module entry points, and a snapshot
of the facade's export surface so accidental API drift fails loudly.
"""

import inspect
import warnings

import numpy as np
import pytest

import repro
from repro.api import CompileResult, EvalResult, compile, evaluate
from repro.hardware import get_device, melbourne_calibration
from repro.hardware.target import Target, intern_target
from repro.qaoa import MaxCutProblem

SQUARE = [(0, 1), (1, 2), (2, 3), (0, 3)]


def _problem():
    return MaxCutProblem(4, SQUARE)


class TestSignatures:
    def test_compile_is_keyword_only(self):
        params = inspect.signature(compile).parameters
        assert params["problem"].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        for name, param in params.items():
            if name == "problem":
                continue
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, name

    def test_evaluate_is_keyword_only(self):
        params = inspect.signature(evaluate).parameters
        for name, param in params.items():
            if name == "compiled":
                continue
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, name

    def test_positional_target_rejected(self):
        with pytest.raises(TypeError):
            compile(_problem(), "linear_4")


class TestCompile:
    def test_device_name_target(self):
        result = compile(_problem(), target="linear_4")
        assert isinstance(result, CompileResult)
        assert isinstance(result.target, Target)
        assert result.method == "ic"
        assert result.problem is not None
        assert result.depth() > 0 and result.gate_count() > 0
        assert result.swap_count >= 0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            compile(_problem(), target="linear_4", method="magic")

    def test_coupling_and_calibration_targets(self):
        coupling = get_device("ibmq_16_melbourne")
        calibration = melbourne_calibration()
        by_coupling = compile(
            _problem(), target=coupling, calibration=calibration, method="vic"
        )
        by_calibration = compile(_problem(), target=calibration, method="vic")
        assert by_coupling.target is by_calibration.target  # interned

    def test_auto_calibration_melbourne(self):
        result = compile(
            _problem(), target="ibmq_16_melbourne", calibration="auto"
        )
        assert result.target.calibration is not None

    def test_target_object_passthrough(self):
        target = intern_target(get_device("linear_4"))
        result = compile(_problem(), target=target)
        assert result.target is target

    def test_conflicting_calibration_rejected(self):
        target = intern_target(get_device("linear_4"))
        with pytest.raises(ValueError, match="conflicts"):
            compile(
                _problem(),
                target=target,
                calibration=melbourne_calibration(),
            )

    def test_angle_validation(self):
        with pytest.raises(ValueError, match="together"):
            compile(_problem(), target="linear_4", gammas=[0.7])
        program = _problem().to_program([0.7], [0.35])
        with pytest.raises(ValueError, match="baked"):
            compile(program, target="linear_4", gammas=[0.7], betas=[0.3])

    def test_ising_problem_accepted(self):
        """The unified frontend: any Problem with to_program compiles,
        and the originating instance rides along on the result."""
        ising = repro.IsingProblem(
            4, {(0, 1): 0.5, (1, 2): 0.5, (2, 3): 0.5}, {0: 0.25}
        )
        result = compile(ising, target="linear_4")
        assert isinstance(result, CompileResult)
        assert result.problem is ising
        assert result.depth() > 0

    def test_qubo_via_spec_accepted(self):
        problem = repro.problem_from_spec(
            {"qubo": {"matrix": [[1, -1], [-1, 1]]}}
        )
        result = compile(problem, target="linear_4")
        assert result.problem is problem

    def test_rejects_non_problem(self):
        with pytest.raises(TypeError, match="to_program"):
            compile(object(), target="linear_4")


class TestEvaluate:
    def test_noiseless_r0_only(self):
        result = compile(_problem(), target="linear_4")
        scores = evaluate(result, noise=None, shots=256, seed=1)
        assert isinstance(scores, EvalResult)
        assert 0.0 < scores.r0 <= 1.0
        assert scores.rh is None and scores.arg is None

    def test_auto_noise_from_target_calibration(self):
        result = compile(
            _problem(), target="ibmq_16_melbourne", calibration="auto"
        )
        scores = evaluate(result, shots=512, trajectories=4, seed=2)
        assert scores.rh is not None and scores.arg is not None
        assert scores.rh < scores.r0
        assert scores.success_probability is not None
        assert scores.fastpath

    def test_exact_mode_deterministic(self):
        result = compile(
            _problem(), target="ibmq_16_melbourne", calibration="auto"
        )
        a = evaluate(result, mode="exact", trajectories=4, seed=3)
        b = evaluate(result, mode="exact", trajectories=4, seed=3)
        assert a.r0 == b.r0 and a.rh == b.rh

    def test_bad_noise_type_rejected(self):
        result = compile(_problem(), target="linear_4")
        with pytest.raises(TypeError, match="noise must be"):
            evaluate(result, noise=0.01)

    def test_t2_requires_calibration_noise(self):
        from repro.sim import NoiseModel

        result = compile(_problem(), target="linear_4")
        with pytest.raises(ValueError, match="t2_ns"):
            evaluate(result, noise=NoiseModel.ideal(4), t2_ns=1e4)


class TestDeprecationShims:
    """2.0.0 dropped the warning top-level aliases; the originals under
    :mod:`repro.compiler` never warned and still don't."""

    def test_compiler_module_names_stay_silent(self):
        from repro.compiler import compile_with_method as silent

        program = _problem().to_program([0.7], [0.35])
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            compiled = silent(
                program,
                get_device("linear_4"),
                "ic",
                rng=np.random.default_rng(0),
            )
        assert compiled.method.endswith("ic")


class TestSurfaceSnapshot:
    def test_api_module_surface(self):
        import repro.api

        assert sorted(repro.api.__all__) == [
            "CompileResult",
            "EvalResult",
            "compile",
            "evaluate",
        ]

    def test_compile_method_accepts_registry_names_and_specs(self):
        """method= resolves registered names through the registry and
        takes a PipelineSpec directly (labelled placement+ordering)."""
        from repro.compiler import PipelineSpec, available_methods

        assert "swap_network" in available_methods()
        assert "parity" in available_methods()
        by_name = compile(_problem(), target="ring_8", method="swap_network")
        assert by_name.method == "swap_network"
        spec = PipelineSpec(placement="qaim", ordering="ic")
        by_spec = compile(_problem(), target="ring_8", method=spec)
        assert by_spec.method == "qaim+ic"

    def test_top_level_facade_names(self):
        for name in (
            "compile",
            "evaluate",
            "CompileResult",
            "EvalResult",
            "evaluate_fast",
            "EvalOutcome",
        ):
            assert name in repro.__all__
            assert hasattr(repro, name)

    def test_top_level_compile_is_the_facade(self):
        assert repro.compile is compile
        assert repro.evaluate is evaluate
