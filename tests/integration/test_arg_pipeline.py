"""Integration: the full ARG measurement pipeline (Section V-A/V-G)."""

import numpy as np
import pytest

from repro.compiler import compile_with_method
from repro.hardware import ibmq_16_melbourne, melbourne_calibration
from repro.qaoa import MaxCutProblem, optimize_qaoa
from repro.sim import NoiseModel, evaluate_fast

TRAJECTORIES = 24


@pytest.fixture(scope="module")
def setup():
    problem = MaxCutProblem(
        8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
            (0, 7), (1, 6), (2, 5)]
    )
    opt = optimize_qaoa(problem, p=1)
    program = problem.to_program(opt.gammas, opt.betas)
    cal = melbourne_calibration()
    return problem, program, cal, NoiseModel.from_calibration(cal)


class TestARGPipeline:
    def test_optimized_parameters_beat_random_sampling(self, setup):
        problem, program, *_ = setup
        opt = optimize_qaoa(problem, p=1)
        # Random assignment cuts half the edges in expectation; the
        # optimised circuit must do meaningfully better.
        assert opt.expectation > 0.55 * len(problem.edges)

    @pytest.mark.parametrize("method", ["qaim", "ip", "ic", "vic"])
    def test_arg_is_finite_and_noise_positive(self, setup, method):
        problem, program, cal, noise = setup
        compiled = compile_with_method(
            program,
            ibmq_16_melbourne(),
            method,
            calibration=cal,
            rng=np.random.default_rng(1),
        )
        result = evaluate_fast(
            compiled, noise=noise, shots=2048, trajectories=TRAJECTORIES,
            rng=np.random.default_rng(2),
        )
        assert result.rh < result.r0  # hardware noise must cost something
        assert 0.0 < result.arg < 100.0

    def test_r0_close_to_noiseless_optimum(self, setup):
        """The compiled circuit's noiseless sampling ratio should match the
        optimiser's expectation / maxcut ratio up to shot noise — the
        compiled circuit computes the same state."""
        problem, program, cal, noise = setup
        opt = optimize_qaoa(problem, p=1)
        compiled = compile_with_method(
            program, ibmq_16_melbourne(), "ic", calibration=cal,
            rng=np.random.default_rng(3),
        )
        result = evaluate_fast(
            compiled, noise=noise, shots=8192, trajectories=TRAJECTORIES,
            rng=np.random.default_rng(4),
        )
        assert result.r0 == pytest.approx(opt.approximation_ratio, abs=0.03)

    def test_heavier_noise_worsens_arg(self, setup):
        problem, program, cal, base = setup
        compiled = compile_with_method(
            program, ibmq_16_melbourne(), "ic", calibration=cal,
            rng=np.random.default_rng(5),
        )
        arg_mild, arg_harsh = (
            evaluate_fast(
                compiled, noise=base.scaled(factor), shots=4096,
                trajectories=TRAJECTORIES, rng=np.random.default_rng(6),
            ).arg
            for factor in (0.3, 3.0)
        )
        assert arg_harsh > arg_mild

    def test_fewer_gates_generally_means_lower_arg(self, setup):
        """The paper's core claim behind Figure 11(b): better-compiled
        (fewer gates) circuits lose less approximation ratio on hardware.
        Compare the best and worst compilations of the same instance."""
        problem, program, cal, noise = setup
        rng = np.random.default_rng(8)
        compiled = {
            m: compile_with_method(
                program, ibmq_16_melbourne(), m, calibration=cal, rng=rng
            )
            for m in ("qaim", "ic")
        }
        assert compiled["ic"].gate_count() <= compiled["qaim"].gate_count()
        args = {
            m: np.mean(
                [
                    evaluate_fast(
                        c, noise=noise, shots=4096,
                        trajectories=TRAJECTORIES,
                        rng=np.random.default_rng(100 + r),
                    ).arg
                    for r in range(3)
                ]
            )
            for m, c in compiled.items()
        }
        assert args["ic"] <= args["qaim"] + 2.0  # allow shot-noise slack
