"""The package's single public front door.

The compilation stack grew several overlapping entry points
(``compile_qaoa``, ``compile_with_method``, ``compile_spec``,
``execute_job``).  This module is the one coherent surface new code
should use:

* :func:`compile` — problem + target + method name in, typed
  :class:`CompileResult` out;
* :func:`evaluate` — compiled circuit in, typed :class:`EvalResult`
  (``r0``/``rh``/ARG and how they were obtained) out, served by the
  :mod:`repro.sim.fastpath` engine whenever the circuit proves
  ARG-equivalent and falling back to gate-by-gate simulation otherwise.

Both are re-exported from :mod:`repro`; the lower-level entry points
stay in :mod:`repro.compiler`.

Quickstart::

    import repro

    problem = repro.MaxCutProblem(
        4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (1, 2)]
    )
    result = repro.compile(
        problem, target="ibmq_16_melbourne", method="vic", calibration="auto"
    )
    scores = repro.evaluate(result, shots=4096, seed=7)
    print(scores.r0, scores.rh, scores.arg)
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .compiler.flow import METHOD_PRESETS
from .compiler.pipeline import PipelineSpec
from .compiler.registry import unknown_method_error
from .compiler.flow import compile_with_method as _compile_with_method_impl
from .compiler.metrics import success_probability as _success_probability
from .hardware import get_device
from .hardware.calibration import Calibration
from .hardware.coupling import CouplingGraph
from .hardware.target import Target, intern_target
from .qaoa.ising import IsingProblem
from .qaoa.problems import MaxCutProblem, QAOAProgram
from .sim.fastpath import evaluate_fast
from .sim.noise import NoiseModel

__all__ = [
    "CompileResult",
    "EvalResult",
    "compile",
    "evaluate",
]

#: Default p=1 angles — the harness's fixed paper-style parameters
#: (``repro.experiments.harness.DEFAULT_GAMMA`` / ``DEFAULT_BETA``).
_DEFAULT_GAMMAS: Tuple[float, ...] = (0.7,)
_DEFAULT_BETAS: Tuple[float, ...] = (0.35,)


def _auto_calibration(coupling: CouplingGraph) -> Calibration:
    """The paper's melbourne calibration for the melbourne device; a
    seeded random calibration for anything else (mirrors the service's
    ``calibration="auto"``)."""
    from .hardware.calibration import random_calibration
    from .hardware.devices import ibmq_16_melbourne, melbourne_calibration

    melbourne = ibmq_16_melbourne()
    if (
        coupling.num_qubits == melbourne.num_qubits
        and coupling.edges == melbourne.edges
    ):
        return melbourne_calibration()
    return random_calibration(coupling, rng=np.random.default_rng(0))


def _resolve_target(target, calibration) -> Target:
    """Coerce a device name / coupling / calibration / Target to a Target."""
    if isinstance(target, str):
        target = get_device(target)
    if calibration == "auto":
        calibration = (
            _auto_calibration(target)
            if isinstance(target, CouplingGraph)
            else None
        )
    if isinstance(target, Target):
        if calibration is not None and calibration is not target.calibration:
            raise ValueError(
                "calibration= conflicts with the Target's own calibration; "
                "build the Target from the calibration you want"
            )
        return target
    if isinstance(target, CouplingGraph):
        return intern_target(target, calibration)
    if isinstance(target, Calibration):
        if calibration is not None and calibration is not target:
            raise ValueError("two different calibrations given")
        return intern_target(target.coupling, target)
    raise TypeError(
        f"target must be a device name, CouplingGraph, Calibration or "
        f"Target, got {type(target).__name__}"
    )


def _resolve_program(
    problem,
    gammas: Optional[Sequence[float]],
    betas: Optional[Sequence[float]],
) -> Tuple[QAOAProgram, Optional[object]]:
    if isinstance(problem, QAOAProgram):
        if gammas is not None or betas is not None:
            raise ValueError(
                "gammas/betas are baked into a QAOAProgram; pass a "
                "problem instance to choose angles here"
            )
        return problem, None
    if isinstance(problem, (MaxCutProblem, IsingProblem)) or (
        not isinstance(problem, type) and hasattr(problem, "to_program")
    ):
        if (gammas is None) != (betas is None):
            raise ValueError("pass gammas and betas together")
        if gammas is None:
            gammas, betas = _DEFAULT_GAMMAS, _DEFAULT_BETAS
        if len(gammas) != len(betas):
            raise ValueError("gammas and betas must have equal length")
        return problem.to_program(gammas, betas), problem
    raise TypeError(
        f"problem must be a MaxCutProblem, IsingProblem, QAOAProgram or "
        f"any Problem with to_program, got {type(problem).__name__}"
    )


@dataclasses.dataclass(frozen=True)
class CompileResult:
    """What :func:`compile` returns.

    Attributes:
        compiled: The full :class:`~repro.compiler.flow.CompiledQAOA`
            (circuit, mappings, pass trace, ...).
        program: The logical program that was compiled (angles included).
        problem: The originating problem instance (MaxCut, Ising/QUBO, or
            any :class:`~repro.qaoa.frontend.Problem`) when one was
            passed (``None`` when :func:`compile` was given a raw
            program).
        target: The interned device view the compilation ran against.
        method: The method name requested (``"ic"``, ``"vic"``, ...), or
            the flow label (``placement+ordering``) when a
            :class:`~repro.compiler.pipeline.PipelineSpec` was compiled
            directly.
    """

    compiled: object
    program: QAOAProgram
    problem: Optional[object]
    target: Target
    method: str

    @property
    def circuit(self):
        """The physical circuit."""
        return self.compiled.circuit

    @property
    def swap_count(self) -> int:
        """SWAPs the router inserted."""
        return self.compiled.swap_count

    def depth(self) -> int:
        """Depth of the compiled circuit."""
        return self.compiled.depth()

    def gate_count(self) -> int:
        """Gate count of the compiled circuit."""
        return self.compiled.gate_count()

    @property
    def warnings(self):
        """Structured degradation warnings raised during compilation."""
        return self.compiled.warnings


@dataclasses.dataclass(frozen=True)
class EvalResult:
    """What :func:`evaluate` returns.

    Attributes:
        r0: Noiseless approximation ratio of the compiled circuit.
        rh: Noisy ("hardware") ratio; ``None`` when evaluated without a
            noise model.
        arg: ``100 * (r0 - rh) / r0`` — the paper's ARG; ``None`` without
            noise.
        shots: Samples per side (0 in ``exact`` mode).
        trajectories: Noise realisations averaged into ``rh``.
        mode: ``"sampled"`` or ``"exact"``.
        fastpath: Whether the vectorized engine served the numbers (else
            gate-by-gate fallback simulation did).
        fallback_reason: Why the fast path was refused (``None`` when
            taken).
        success_probability: Product of calibrated per-gate success rates
            of the circuit, when a calibration was available.
        timings: Per-stage wall seconds (``diagonal``/``ideal``/``noisy``).
    """

    r0: float
    rh: Optional[float]
    arg: Optional[float]
    shots: int
    trajectories: int
    mode: str
    fastpath: bool
    fallback_reason: Optional[str]
    success_probability: Optional[float]
    timings: Dict[str, float]


def compile(
    problem,
    *,
    target,
    method="ic",
    gammas: Optional[Sequence[float]] = None,
    betas: Optional[Sequence[float]] = None,
    calibration=None,
    seed: Optional[int] = 0,
    rng: Optional[np.random.Generator] = None,
    packing_limit: Optional[int] = None,
    router: str = "layered",
    qaim_radius: int = 2,
) -> CompileResult:
    """Compile a MaxCut problem (or prebuilt program) for a device.

    Args:
        problem: A :class:`~repro.qaoa.problems.MaxCutProblem` (angles
            from ``gammas``/``betas``, default the harness's fixed p=1
            parameters) or a ready :class:`~repro.qaoa.problems.QAOAProgram`.
        target: Device name (``"melbourne"``, ``"tokyo"``, ...), a
            :class:`~repro.hardware.coupling.CouplingGraph`, a
            :class:`~repro.hardware.calibration.Calibration`, or a
            prebuilt :class:`~repro.hardware.target.Target`.
        method: A registered method name (see
            :func:`repro.compiler.available_methods` — ``naive``,
            ``greedy_v``, ``greedy_e``, ``qaim``, ``ip``, ``ic``,
            ``vic``, ``swap_network``, ``parity``, plus anything
            installed via :func:`repro.compiler.register_method`), or a
            :class:`~repro.compiler.pipeline.PipelineSpec` instance
            compiled directly — in which case ``router``, ``qaim_radius``
            and ``packing_limit`` must stay at their defaults (they are
            fields of the spec).
        gammas / betas: Per-level QAOA angles when ``problem`` is a
            MaxCut instance.
        calibration: Device calibration (required for ``method="vic"``
            unless the target carries one), or ``"auto"`` — the paper's
            melbourne calibration for the melbourne device, a seeded
            random calibration otherwise.
        seed: Seed for the compilation's stochastic tie-breaks (ignored
            when ``rng`` is given).
        rng: Explicit random generator.
        packing_limit: Max CPHASE gates per formed layer (Figure 12).
        router: ``"layered"`` or ``"sabre"``.
        qaim_radius: QAIM connectivity-strength radius.
    """
    if isinstance(method, PipelineSpec):
        label = method.method
    else:
        if method not in METHOD_PRESETS:
            raise unknown_method_error(method)
        label = method
    program, maxcut = _resolve_program(problem, gammas, betas)
    resolved = _resolve_target(target, calibration)
    rng = rng if rng is not None else np.random.default_rng(seed)
    compiled = _compile_with_method_impl(
        program,
        method=method,
        packing_limit=packing_limit,
        rng=rng,
        router=router,
        qaim_radius=qaim_radius,
        target=resolved,
    )
    return CompileResult(
        compiled=compiled,
        program=program,
        problem=maxcut,
        target=resolved,
        method=label,
    )


def evaluate(
    compiled,
    *,
    noise="auto",
    shots: int = 4096,
    trajectories: int = 32,
    seed: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    mode: str = "sampled",
    t2_ns: Optional[float] = None,
) -> EvalResult:
    """Evaluate ``r0``/``rh``/ARG of a compiled circuit in one pass.

    Args:
        compiled: A :class:`CompileResult` or a raw
            :class:`~repro.compiler.flow.CompiledQAOA`.
        noise: The ``rh``-side noise — a
            :class:`~repro.sim.noise.NoiseModel`, a
            :class:`~repro.hardware.calibration.Calibration` (converted
            via :meth:`~repro.sim.noise.NoiseModel.from_calibration` with
            ``t2_ns``), ``"auto"`` (derive from the compile target's
            calibration when present, else no noisy side), or ``None``
            (noiseless ``r0`` only).
        shots: Samples per side in ``sampled`` mode (paper: 40960).
        trajectories: Noise realisations averaged into ``rh``.
        seed: Seed for sampling and noise draws (ignored when ``rng`` is
            given).
        rng: Explicit random generator.
        mode: ``"sampled"`` (the paper's finite-shot procedure) or
            ``"exact"`` (expectation values, no sampling noise).
        t2_ns: T2 dephasing time used when deriving a noise model from a
            calibration.
    """
    result = compiled if isinstance(compiled, CompileResult) else None
    inner = result.compiled if result is not None else compiled
    calibration = result.target.calibration if result is not None else None

    if noise == "auto":
        noise = calibration
    if isinstance(noise, Calibration):
        noise_cal = noise
        noise = NoiseModel.from_calibration(noise, t2_ns=t2_ns)
    else:
        noise_cal = calibration
        if noise is not None and not isinstance(noise, NoiseModel):
            raise TypeError(
                f"noise must be a NoiseModel, Calibration, 'auto' or None, "
                f"got {type(noise).__name__}"
            )
        if noise is not None and t2_ns is not None:
            raise ValueError(
                "t2_ns only applies when deriving a NoiseModel from a "
                "calibration; set it on the NoiseModel instead"
            )

    rng = rng if rng is not None else np.random.default_rng(seed)
    outcome = evaluate_fast(
        inner,
        noise=noise,
        shots=shots,
        trajectories=trajectories,
        rng=rng,
        mode=mode,
    )
    success = None
    if noise_cal is not None:
        success = _success_probability(inner.circuit, noise_cal)
    return EvalResult(
        r0=outcome.r0,
        rh=outcome.rh,
        arg=outcome.arg,
        shots=outcome.shots,
        trajectories=outcome.trajectories,
        mode=outcome.mode,
        fastpath=outcome.fastpath,
        fallback_reason=outcome.reason,
        success_probability=success,
        timings=outcome.timings,
    )
