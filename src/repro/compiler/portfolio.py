"""Portfolio compilation: run several flow configurations, keep the best.

Two of the paper's own observations motivate this:

* Section V-H: "Compiling the circuits multiple times with different packing
  limits may help to generate circuits with desired circuit depth."
* Section VI's usage directives: IP, IC and VIC have *different* sweet spots
  (depth vs gates vs reliability), so the right flow is workload-dependent.

:func:`compile_portfolio` runs a set of candidate configurations (method ×
packing limit × seed), scores each compiled circuit with a pluggable
objective, and returns the winner plus the full scoreboard.  Because every
flow is milliseconds-fast, a portfolio of dozens of configurations is still
far cheaper than one run of the planner-style compilers the paper compares
against.

The candidate grid is submitted through the service layer's
:class:`~repro.service.engine.BatchEngine`, so a portfolio gets result
caching for free: pass a shared :class:`~repro.service.cache.ResultCache`
so repeated portfolios over the same program only compile new
configurations.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Tuple

from ..hardware.calibration import Calibration
from ..hardware.coupling import CouplingGraph
from ..qaoa.problems import QAOAProgram
from .flow import CompiledQAOA
from .metrics import success_probability

__all__ = [
    "PortfolioEntry",
    "PortfolioResult",
    "compile_portfolio",
    "depth_objective",
    "gate_count_objective",
    "reliability_objective",
]


def depth_objective(compiled: CompiledQAOA) -> float:
    """Native depth with gate-count tie-break (lower = better)."""
    return compiled.depth() * 1e6 + compiled.gate_count()


def gate_count_objective(compiled: CompiledQAOA) -> float:
    """Native gate count with depth tie-break (lower = better)."""
    return compiled.gate_count() * 1e6 + compiled.depth()


def reliability_objective(calibration: Calibration) -> Callable[[CompiledQAOA], float]:
    """Negated success probability (lower = better) under a calibration."""

    def objective(compiled: CompiledQAOA) -> float:
        return -success_probability(compiled.native(), calibration)

    return objective


@dataclasses.dataclass
class PortfolioEntry:
    """One candidate configuration's outcome.

    Attributes:
        method: Flow preset name.
        packing_limit: Layer-packing cap used (None = unlimited).
        seed: Seed of the configuration's rng.
        score: Objective value (lower = better).
        compiled: The compiled circuit.
    """

    method: str
    packing_limit: Optional[int]
    seed: int
    score: float
    compiled: CompiledQAOA


@dataclasses.dataclass
class PortfolioResult:
    """Winner plus scoreboard of a portfolio run."""

    best: PortfolioEntry
    entries: List[PortfolioEntry]

    def scoreboard(self) -> List[Tuple[str, Optional[int], int, float]]:
        """``(method, packing_limit, seed, score)`` rows, best first."""
        return [
            (e.method, e.packing_limit, e.seed, e.score)
            for e in sorted(self.entries, key=lambda e: e.score)
        ]


def compile_portfolio(
    program: QAOAProgram,
    coupling: CouplingGraph,
    methods: Sequence[str] = ("ip", "ic"),
    packing_limits: Sequence[Optional[int]] = (None,),
    seeds: Sequence[int] = (0, 1, 2),
    objective: Callable[[CompiledQAOA], float] = depth_objective,
    calibration: Optional[Calibration] = None,
    router: str = "layered",
    cache=None,
    engine=None,
) -> PortfolioResult:
    """Compile every (method, packing_limit, seed) combination; keep the best.

    The grid is executed through the service layer's batch engine.  Each
    candidate compiles with ``np.random.default_rng(seed)``, exactly as the
    pre-service direct loop did, so a fixed-seed portfolio is reproducible
    regardless of cache state.

    Args:
        program: The QAOA program.
        coupling: Target device.
        methods: Flow presets to try (``vic`` requires ``calibration``).
        packing_limits: Layer caps to sweep (``None`` = unlimited).
        seeds: Random seeds per configuration — flows are stochastic in
            their tie-breaks, so seeds are free diversity.
        objective: Scoring function, lower = better (see the provided
            ``depth_objective`` / ``gate_count_objective`` /
            ``reliability_objective``).
        calibration: Needed when ``"vic"`` is among the methods or the
            objective is reliability-based.
        router: Backend router for every candidate.
        cache: Optional :class:`~repro.service.cache.ResultCache` shared
            across portfolio calls.
        engine: A pre-configured
            :class:`~repro.service.engine.BatchEngine` to submit through
            (overrides ``cache``).

    Returns:
        A :class:`PortfolioResult`; ``result.best.compiled`` is the winner.

    Raises:
        RuntimeError: When any candidate configuration fails to compile —
            a portfolio's scoreboard must be complete to be comparable.
    """
    if not methods or not seeds or not packing_limits:
        raise ValueError("methods, packing_limits and seeds must be non-empty")
    from ..service.engine import BatchEngine
    from ..service.job import CompileJob

    grid = [
        (method, limit, seed)
        for method in methods
        for limit in packing_limits
        for seed in seeds
    ]
    jobs = [
        CompileJob(
            program=program,
            device=coupling,
            method=method,
            packing_limit=limit,
            router=router,
            seed=seed,
            calibration=calibration,
        )
        for method, limit, seed in grid
    ]
    if engine is None:
        engine = BatchEngine(cache=cache)
    report = engine.run(jobs)
    entries: List[PortfolioEntry] = []
    for (method, limit, seed), result in zip(grid, report.results):
        if not result.ok:
            raise RuntimeError(
                f"portfolio candidate {method}/limit={limit}/seed={seed} "
                f"failed ({result.error_kind}): {result.error}"
            )
        compiled = result.compiled()
        entries.append(
            PortfolioEntry(
                method=method,
                packing_limit=limit,
                seed=seed,
                score=float(objective(compiled)),
                compiled=compiled,
            )
        )
    best = min(entries, key=lambda e: e.score)
    return PortfolioResult(best=best, entries=entries)
