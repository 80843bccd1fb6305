"""Unit tests for approximation ratio, ARG and physical-count decoding."""

import numpy as np
import pytest

from repro.compiler import compile_with_method
from repro.hardware import linear_device, uniform_calibration
from repro.qaoa.evaluation import (
    approximation_ratio,
    approximation_ratio_gap,
    decode_physical_counts,
)
from repro.qaoa.problems import MaxCutProblem
from repro.sim import NoiseModel, evaluate_fast


class TestDecode:
    def test_identity_mapping(self):
        counts = {"011": 5}
        out = decode_physical_counts(counts, {0: 0, 1: 1, 2: 2}, 3)
        assert out == {"011": 5}

    def test_permuted_mapping(self):
        # logical 0 lives on physical 2, logical 1 on physical 0.
        counts = {"100": 7}  # physical: p2=1, p1=0, p0=0
        out = decode_physical_counts(counts, {0: 2, 1: 0}, 2)
        # logical q0 = bit of p2 = 1; logical q1 = bit of p0 = 0 -> "01"
        assert out == {"01": 7}

    def test_extra_physical_qubits_marginalised(self):
        counts = {"10110": 3}  # 5 physical qubits, 2 logical
        out = decode_physical_counts(counts, {0: 1, 1: 4}, 2)
        # q0 = bit of p1 = 1, q1 = bit of p4 = 1 -> "11"
        assert out == {"11": 3}

    def test_merging_after_marginalisation(self):
        counts = {"001": 2, "101": 3}  # p2 differs but is unmapped
        out = decode_physical_counts(counts, {0: 0}, 1)
        assert out == {"1": 5}

    def test_missing_logical_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            decode_physical_counts({"01": 1}, {0: 0}, 2)


class TestApproximationRatio:
    def test_optimal_samples_give_one(self):
        problem = MaxCutProblem(2, [(0, 1)])
        assert approximation_ratio({"01": 10}, problem) == pytest.approx(1.0)

    def test_worst_samples_give_zero(self):
        problem = MaxCutProblem(2, [(0, 1)])
        assert approximation_ratio({"00": 4, "11": 6}, problem) == 0.0

    def test_mixture(self):
        problem = MaxCutProblem(2, [(0, 1)])
        counts = {"01": 5, "00": 5}
        assert approximation_ratio(counts, problem) == pytest.approx(0.5)

    def test_empty_rejected(self):
        problem = MaxCutProblem(2, [(0, 1)])
        with pytest.raises(ValueError, match="empty"):
            approximation_ratio({}, problem)


class TestARGFormula:
    def test_basic(self):
        assert approximation_ratio_gap(0.8, 0.6) == pytest.approx(25.0)

    def test_zero_gap(self):
        assert approximation_ratio_gap(0.9, 0.9) == 0.0

    def test_negative_gap_possible(self):
        # Hardware beating the simulator is a negative gap, not an error.
        assert approximation_ratio_gap(0.5, 0.6) == pytest.approx(-20.0)

    def test_zero_r0_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            approximation_ratio_gap(0.0, 0.5)


class TestEvaluateArg:
    def _setup(self, cnot_error):
        problem = MaxCutProblem(3, [(0, 1), (1, 2), (0, 2)])
        program = problem.to_program([0.6], [0.3])
        device = linear_device(4)
        compiled = compile_with_method(
            program, device, "ic", rng=np.random.default_rng(0)
        )
        cal = uniform_calibration(device, cnot_error=cnot_error)
        return compiled, NoiseModel.from_calibration(cal)

    def _evaluate(self, cnot_error, shots, seed):
        compiled, noise = self._setup(cnot_error)
        return evaluate_fast(
            compiled, noise=noise, shots=shots, trajectories=16,
            rng=np.random.default_rng(seed),
        )

    def test_noiseless_hardware_gives_near_zero_arg(self):
        result = self._evaluate(cnot_error=0.0, shots=4000, seed=1)
        assert abs(result.arg) < 5.0  # only shot noise remains

    def test_noise_produces_positive_arg(self):
        result = self._evaluate(cnot_error=0.15, shots=4000, seed=2)
        assert result.arg > 2.0
        assert result.rh < result.r0

    def test_result_fields(self):
        result = self._evaluate(cnot_error=0.05, shots=512, seed=3)
        assert result.shots == 512
        assert 0.0 < result.r0 <= 1.0
        assert result.arg == pytest.approx(
            100.0 * (result.r0 - result.rh) / result.r0
        )
