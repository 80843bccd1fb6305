"""Unit tests for QAOA landscape utilities."""

import numpy as np
import pytest

from repro.hardware import ibmq_16_melbourne, ring_device, uniform_calibration
from repro.qaoa.landscape import (
    expectation_grid,
    landscape_statistics,
    noisy_expectation_grid,
)
from repro.qaoa.problems import MaxCutProblem
from repro.sim import NoiseModel, NoisySimulator


@pytest.fixture
def triangle():
    return MaxCutProblem(3, [(0, 1), (1, 2), (0, 2)])


class TestExpectationGrid:
    def test_shape(self, triangle):
        grid = expectation_grid(triangle, resolution=8)
        assert grid.values.shape == (8, 8)
        assert len(grid.gammas) == len(grid.betas) == 8

    def test_analytic_and_simulated_agree(self, triangle):
        a = expectation_grid(triangle, resolution=6, use_analytic=True)
        b = expectation_grid(triangle, resolution=6, use_analytic=False)
        np.testing.assert_allclose(a.values, b.values, atol=1e-9)

    def test_values_bounded(self, triangle):
        grid = expectation_grid(triangle, resolution=10)
        assert grid.values.min() >= -1e-9
        assert grid.values.max() <= len(triangle.edges) + 1e-9

    def test_best_is_grid_argmax(self, triangle):
        grid = expectation_grid(triangle, resolution=10)
        g, b, v = grid.best()
        assert v == pytest.approx(grid.values.max())
        assert g in grid.gammas and b in grid.betas

    def test_zero_angles_give_half_edges(self, triangle):
        grid = expectation_grid(triangle, resolution=8)
        # gamma = beta = 0 is on the grid (linspace includes 0 when
        # endpoint=False and resolution divides the range symmetrically).
        i = np.argmin(np.abs(grid.gammas))
        j = np.argmin(np.abs(grid.betas))
        assert grid.values[i, j] == pytest.approx(1.5, abs=1e-6)

    def test_resolution_validated(self, triangle):
        with pytest.raises(ValueError, match="resolution"):
            expectation_grid(triangle, resolution=1)

    def test_weighted_problem_uses_simulator(self):
        weighted = MaxCutProblem(3, [(0, 1, 2.0), (1, 2, 0.5)])
        grid = expectation_grid(weighted, resolution=4)
        assert grid.values.max() <= weighted.total_weight() + 1e-9


class TestNoisyGrid:
    def test_noise_flattens_the_landscape(self, triangle):
        """The Section I claim: noise reduces landscape contrast."""
        ideal_grid = expectation_grid(triangle, resolution=6)
        cal = uniform_calibration(ring_device(4), cnot_error=0.25)
        noisy = NoisySimulator(
            NoiseModel.from_calibration(cal), trajectories=32
        )
        noisy_grid = noisy_expectation_grid(
            triangle,
            ring_device(4),
            "ic",
            noisy,
            resolution=6,
            shots=1024,
            rng=np.random.default_rng(0),
        )
        ideal_stats = landscape_statistics(ideal_grid)
        noisy_stats = landscape_statistics(noisy_grid)
        assert noisy_stats.contrast < ideal_stats.contrast

    def test_noiseless_sampled_grid_tracks_exact(self, triangle):
        cal = uniform_calibration(ring_device(4), cnot_error=0.0)
        noiseless = NoisySimulator(
            NoiseModel.from_calibration(cal), trajectories=2
        )
        sampled = noisy_expectation_grid(
            triangle,
            ring_device(4),
            "ic",
            noiseless,
            resolution=4,
            shots=4096,
            rng=np.random.default_rng(1),
        )
        exact = expectation_grid(triangle, resolution=4)
        np.testing.assert_allclose(sampled.values, exact.values, atol=0.15)

    def test_parity_encoding_refused(self):
        """Parity slots are not logical bits: decoding them through the
        final mapping would score the wrong cuts, so the grid refuses."""
        problem = MaxCutProblem(
            5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]
        )
        noiseless = NoisySimulator(NoiseModel.ideal(15), trajectories=2)
        with pytest.raises(ValueError, match="'parity' encoding"):
            noisy_expectation_grid(
                problem,
                ibmq_16_melbourne(),
                "parity",
                noiseless,
                resolution=2,
                shots=64,
                rng=np.random.default_rng(0),
            )


class TestStatistics:
    def test_fields(self):
        grid = expectation_grid(
            MaxCutProblem(3, [(0, 1), (1, 2), (0, 2)]), resolution=6
        )
        stats = landscape_statistics(grid)
        assert stats.contrast == pytest.approx(
            stats.max_value - stats.min_value
        )
        assert stats.min_value <= stats.mean <= stats.max_value
        assert stats.peak_to_mean >= 0
