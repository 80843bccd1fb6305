"""QAOA expectation landscapes.

The paper motivates reliable compilation with the observation that "various
sources of noise flatten the solution space of QAOA" (Section I, citing the
authors' own noise studies).  This module provides the tools to see that:

* :func:`expectation_grid` — ``<C>(gamma, beta)`` on a parameter grid,
  using the closed form for p=1 unweighted problems and the simulator
  otherwise;
* :func:`noisy_expectation_grid` — the same landscape as measured through a
  *compiled* circuit on a noisy simulator (grid points share the gate
  structure; only angles change — exactly how a hardware sweep works);
* :func:`landscape_statistics` — contrast/flatness summary, so "noise
  flattens the landscape" becomes a number.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

import numpy as np

from ..sim.fastpath import cost_diagonal, expectation_batch
from .analytic import analytic_expectation
from .frontend import cost_values
from .problems import MaxCutProblem

__all__ = [
    "LandscapeGrid",
    "expectation_grid",
    "noisy_expectation_grid",
    "landscape_statistics",
    "LandscapeStats",
]


@dataclasses.dataclass
class LandscapeGrid:
    """A sampled ``<C>(gamma, beta)`` surface.

    Attributes:
        gammas: Grid values along the gamma axis.
        betas: Grid values along the beta axis.
        values: ``(len(gammas), len(betas))`` expectation values.
    """

    gammas: np.ndarray
    betas: np.ndarray
    values: np.ndarray

    def best(self) -> Tuple[float, float, float]:
        """``(gamma, beta, value)`` at the grid maximum."""
        i, j = np.unravel_index(np.argmax(self.values), self.values.shape)
        return float(self.gammas[i]), float(self.betas[j]), float(self.values[i, j])


@dataclasses.dataclass
class LandscapeStats:
    """Flatness summary of a landscape.

    Attributes:
        max_value: Peak expectation.
        min_value: Valley expectation.
        contrast: ``max - min`` — what noise flattens.
        mean: Grid mean.
        peak_to_mean: ``max - mean``; small values mean the optimiser has
            little signal to climb.
    """

    max_value: float
    min_value: float
    contrast: float
    mean: float
    peak_to_mean: float


def _grid_axes(resolution: int) -> Tuple[np.ndarray, np.ndarray]:
    gammas = np.linspace(-math.pi, math.pi, resolution, endpoint=False)
    betas = np.linspace(-math.pi / 2, math.pi / 2, resolution, endpoint=False)
    return gammas, betas


def expectation_grid(
    problem,
    resolution: int = 16,
    use_analytic: bool = True,
) -> LandscapeGrid:
    """Noiseless p=1 expectation surface of a problem.

    Accepts any :class:`~repro.qaoa.frontend.Problem`.  The general case
    runs the whole ``resolution^2`` grid through one batched fast-path
    pass (:func:`~repro.sim.fastpath.expectation_batch`) against the
    interned cost diagonal — no per-point circuit builds.

    Args:
        problem: The instance (MaxCut or general Ising/QUBO).
        resolution: Grid points per axis.
        use_analytic: Use the closed form when valid (unweighted MaxCut).
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    gammas, betas = _grid_axes(resolution)
    unweighted = isinstance(problem, MaxCutProblem) and all(
        abs(w - 1.0) < 1e-12 for _, _, w in problem.edges
    )
    if use_analytic and unweighted:
        values = np.zeros((resolution, resolution))
        for i, g in enumerate(gammas):
            for j, b in enumerate(betas):
                values[i, j] = analytic_expectation(problem, float(g), float(b))
    else:
        grid_g, grid_b = np.meshgrid(gammas, betas, indexing="ij")
        flat = expectation_batch(
            problem,
            grid_g.ravel()[:, None],
            grid_b.ravel()[:, None],
            values=cost_values(problem),
            diagonal=cost_diagonal(problem),
        )
        values = flat.reshape(resolution, resolution)
    return LandscapeGrid(gammas=gammas, betas=betas, values=values)


def noisy_expectation_grid(
    problem: MaxCutProblem,
    coupling,
    method: str,
    noisy_simulator,
    resolution: int = 8,
    shots: int = 512,
    rng: Optional[np.random.Generator] = None,
    calibration=None,
) -> LandscapeGrid:
    """The landscape as seen through compiled circuits on noisy hardware.

    Every grid point re-compiles with the same seed, so the gate structure
    is fixed and only the angles vary — matching how a parameter sweep runs
    on a real device.  Sampled expectations (``shots`` each) stand in for
    the hardware estimator.  Samples decode through ``final_mapping`` as
    logical bits, so a method whose circuit uses another encoding (parity
    slots) raises :class:`ValueError`.
    """
    from ..compiler import compile_with_method
    from .evaluation import decode_physical_counts

    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    rng = rng if rng is not None else np.random.default_rng()
    gammas, betas = _grid_axes(resolution)
    values = np.zeros((resolution, resolution))
    for i, g in enumerate(gammas):
        for j, b in enumerate(betas):
            program = problem.to_program([float(g)], [float(b)])
            compiled = compile_with_method(
                program,
                coupling,
                method,
                calibration=calibration,
                rng=np.random.default_rng(1234),  # fixed: same structure
            )
            if compiled.encoding != "direct":
                raise ValueError(
                    f"noisy_expectation_grid decodes logical bits; method "
                    f"{method!r} compiles to the {compiled.encoding!r} encoding"
                )
            counts = decode_physical_counts(
                noisy_simulator.sample_counts(compiled.circuit, shots, rng),
                compiled.final_mapping,
                problem.num_nodes,
            )
            total = sum(counts.values())
            values[i, j] = (
                sum(problem.cut_value(bits) * c for bits, c in counts.items())
                / total
            )
    return LandscapeGrid(gammas=gammas, betas=betas, values=values)


def landscape_statistics(grid: LandscapeGrid) -> LandscapeStats:
    """Contrast/flatness numbers for a landscape."""
    values = grid.values
    return LandscapeStats(
        max_value=float(values.max()),
        min_value=float(values.min()),
        contrast=float(values.max() - values.min()),
        mean=float(values.mean()),
        peak_to_mean=float(values.max() - values.mean()),
    )
