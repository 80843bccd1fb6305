"""Chaos harness: sweep seeded calibration faults through every flow.

The resilience contract of the compilation service is behavioural, not
structural: *no* calibration defect may crash a compile, every degraded
compile must still produce a valid (coupling-compliant) circuit with a
populated ``warnings`` list, routing must never touch a pruned dead
coupler, and success probability must fall monotonically as fault severity
rises (more broken hardware can only hurt).  This module encodes that
contract as an executable sweep:

* :class:`ChaosScenario` — one named fault bundle with a severity rank;
  :func:`default_scenarios` provides the standard ladder from ``baseline``
  (no faults) to ``blackout`` (dead qubit + dead couplers + dropout + NaN
  poisoning at heavy error inflation).
* :func:`run_chaos` — the sweep driver: for every (device, scenario) it
  degrades a clean calibration with a :class:`~repro.hardware.faults.
  FaultInjector`, repairs the feed, then compiles one problem with each
  requested method and audits the outcome.
* :class:`ChaosReport` — per-cell outcomes plus the contract checks
  (``failures()``, ``contract_violations()``, ``monotone_violations()``)
  and a terminal rendering used by ``repro chaos``.

Both the integration suite (``tests/integration/test_chaos_compilation``,
marker ``chaos``) and the CLI drive this module, so CI and operators run
the identical sweep.
"""

from __future__ import annotations

import dataclasses
import datetime
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.flow import compile_with_method
from ..compiler.metrics import measure_compiled
from ..hardware.calibration import Calibration
from ..hardware.coupling import Edge
from ..hardware.devices import auto_calibration, get_device
from ..hardware.faults import (
    CalibrationError,
    CalibrationValidator,
    FaultInjector,
    RawCalibration,
    repair_calibration,
)
from ..hardware.target import intern_target
from .harness import make_problem, pass_seconds

__all__ = [
    "ChaosScenario",
    "ChaosOutcome",
    "ChaosReport",
    "default_scenarios",
    "run_chaos",
    "DEFAULT_METHODS",
    "DEFAULT_DEVICES",
]

DEFAULT_METHODS = ("qaim", "ip", "ic", "vic")
DEFAULT_DEVICES = ("ibmq_20_tokyo", "ibmq_16_melbourne")


@dataclasses.dataclass(frozen=True)
class ChaosScenario:
    """One fault bundle at one severity rank.

    Severity orders scenarios for the monotone-degradation check; the
    ``inflate`` knob (uniform error scaling) is what makes severity
    physically meaningful — every step up the ladder strictly worsens the
    average error rate, on top of whatever structural faults it adds.
    """

    name: str
    severity: int
    dead_qubits: int = 0
    dead_edges: int = 0
    drift_sigma: float = 0.0
    dropout: float = 0.0
    nan_entries: int = 0
    out_of_range_entries: int = 0
    inflate: float = 1.0
    timestamp: Optional[str] = None

    @property
    def injects_faults(self) -> bool:
        """Whether the scenario degrades the calibration at all."""
        return (
            self.dead_qubits > 0
            or self.dead_edges > 0
            or self.drift_sigma > 0
            or self.dropout > 0
            or self.nan_entries > 0
            or self.out_of_range_entries > 0
            or self.inflate != 1.0
            or self.timestamp is not None
        )

    def apply(
        self, calibration: Calibration, injector: FaultInjector
    ) -> RawCalibration:
        """Degrade ``calibration`` according to this scenario."""
        return injector.degrade(
            calibration,
            dead_qubits=self.dead_qubits,
            dead_edges=self.dead_edges,
            drift_sigma=self.drift_sigma,
            dropout=self.dropout,
            nan_entries=self.nan_entries,
            out_of_range_entries=self.out_of_range_entries,
            inflate=self.inflate,
            timestamp=self.timestamp,
        )


def default_scenarios() -> List[ChaosScenario]:
    """The standard severity ladder, mildest first."""
    return [
        ChaosScenario(name="baseline", severity=0),
        ChaosScenario(
            name="drift",
            severity=1,
            drift_sigma=0.15,
            inflate=1.6,
            timestamp="1/1/2020",  # stale vs the validator's max age
        ),
        ChaosScenario(
            name="dropout", severity=2, dropout=0.15, inflate=2.6
        ),
        ChaosScenario(
            name="poison",
            severity=3,
            nan_entries=3,
            out_of_range_entries=1,
            inflate=4.2,
        ),
        # Pruning dead couplers can *help* routing (the worst edges leave
        # the graph), so the inflate gap to the previous rung is widened to
        # keep the severity ladder physically monotone.
        ChaosScenario(
            name="dead-coupler", severity=4, dead_edges=2, inflate=10.0
        ),
        ChaosScenario(
            name="blackout",
            severity=5,
            dead_qubits=1,
            dead_edges=2,
            dropout=0.1,
            nan_entries=2,
            inflate=18.0,
        ),
    ]


@dataclasses.dataclass
class ChaosOutcome:
    """Audit record for one (device, scenario, method) cell."""

    device: str
    scenario: str
    severity: int
    method: str
    ok: bool
    error: Optional[str] = None
    warnings: List[str] = dataclasses.field(default_factory=list)
    pruned_edges: List[Edge] = dataclasses.field(default_factory=list)
    used_pruned_edges: List[Edge] = dataclasses.field(default_factory=list)
    depth: Optional[int] = None
    swap_count: Optional[int] = None
    success_probability: Optional[float] = None
    pass_times: Optional[Dict[str, float]] = None

    @property
    def violates_contract(self) -> Optional[str]:
        """A human-readable violation, or ``None`` when the cell is fine."""
        if not self.ok:
            return f"compile failed: {self.error}"
        if self.used_pruned_edges:
            return f"circuit uses pruned dead couplers {self.used_pruned_edges}"
        return None


@dataclasses.dataclass
class ChaosReport:
    """Everything one chaos sweep produced, plus the contract checks."""

    outcomes: List[ChaosOutcome]
    seed: int
    nodes: int

    def failures(self) -> List[ChaosOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def contract_violations(self) -> List[Tuple[ChaosOutcome, str]]:
        """Cells breaking the resilience contract (crash or pruned-edge use)."""
        out = []
        for o in self.outcomes:
            violation = o.violates_contract
            if violation is not None:
                out.append((o, violation))
        return out

    def monotone_violations(
        self, tolerance: float = 1.05
    ) -> List[Tuple[str, str, str, str, float, float]]:
        """Severity steps where success probability *rose* beyond tolerance.

        For each (device, method), outcomes are ordered by severity; a
        step from probability ``p_low`` (milder) to ``p_high`` (harsher)
        violates monotonicity when ``p_high > p_low * tolerance``.  The
        tolerance absorbs routing noise: a harsher scenario may reroute
        and by luck land a marginally better circuit.
        """
        series: Dict[Tuple[str, str], List[ChaosOutcome]] = {}
        for o in self.outcomes:
            if o.ok and o.success_probability is not None:
                series.setdefault((o.device, o.method), []).append(o)
        violations = []
        for (device, method), cells in series.items():
            cells.sort(key=lambda o: o.severity)
            for milder, harsher in zip(cells, cells[1:]):
                if (
                    harsher.success_probability
                    > milder.success_probability * tolerance
                ):
                    violations.append(
                        (
                            device,
                            method,
                            milder.scenario,
                            harsher.scenario,
                            milder.success_probability,
                            harsher.success_probability,
                        )
                    )
        return violations

    def render(self) -> str:
        """Terminal table plus the contract verdict."""
        from .reporting import format_table

        rows = []
        for o in self.outcomes:
            rows.append(
                [
                    o.scenario,
                    o.severity,
                    o.device,
                    o.method,
                    "ok" if o.ok else "FAIL",
                    len(o.warnings),
                    o.swap_count if o.swap_count is not None else "-",
                    (
                        f"{o.success_probability:.3e}"
                        if o.success_probability is not None
                        else "-"
                    ),
                ]
            )
        table = format_table(
            [
                "scenario",
                "sev",
                "device",
                "method",
                "status",
                "warnings",
                "swaps",
                "success prob",
            ],
            rows,
        )
        violations = self.contract_violations()
        monotone = self.monotone_violations()
        lines = [
            f"chaos sweep (seed={self.seed}, {self.nodes}-node problem)",
            "",
            table,
            "",
        ]
        lines.append(
            f"cells: {len(self.outcomes)}  failures: {len(self.failures())}  "
            f"contract violations: {len(violations)}  "
            f"monotonicity violations: {len(monotone)}"
        )
        for outcome, violation in violations:
            lines.append(
                f"  VIOLATION {outcome.device}/{outcome.scenario}/"
                f"{outcome.method}: {violation}"
            )
        for device, method, s_low, s_high, p_low, p_high in monotone:
            lines.append(
                f"  NON-MONOTONE {device}/{method}: {s_high} "
                f"({p_high:.3e}) > {s_low} ({p_low:.3e})"
            )
        return "\n".join(lines)


def run_chaos(
    methods: Sequence[str] = DEFAULT_METHODS,
    devices: Sequence[str] = DEFAULT_DEVICES,
    scenarios: Optional[Sequence[ChaosScenario]] = None,
    nodes: int = 8,
    edge_prob: float = 0.5,
    seed: int = 0,
) -> ChaosReport:
    """Sweep every (device, scenario, method) cell and audit the outcomes.

    One MaxCut instance (``nodes``, ``edge_prob``, seeded) is compiled per
    cell.  The compile itself is wrapped so an unexpected exception becomes
    a failed :class:`ChaosOutcome` rather than aborting the sweep — the
    report is the place such bugs surface.
    """
    scenarios = (
        list(scenarios) if scenarios is not None else default_scenarios()
    )
    graph_rng = np.random.default_rng(seed)
    problem = make_problem("er", nodes, edge_prob, graph_rng)
    program = problem.to_program([0.7], [0.35])
    # Flags calibrations older than a month as stale.  The clock is pinned
    # (not wall time) so the sweep is reproducible and the paper-era
    # melbourne feed (4/8/2020) stays fresh while the drift scenario's
    # 1/1/2020 timestamp always trips the check.
    validator = CalibrationValidator(
        max_age_days=30.0, now=datetime.datetime(2020, 4, 20)
    )

    outcomes: List[ChaosOutcome] = []
    for device_name in devices:
        base = auto_calibration(get_device(device_name), seed)
        for scenario_index, scenario in enumerate(scenarios):
            injector = FaultInjector(
                seed=seed * 1009 + scenario_index * 101 + hash_name(device_name)
            )
            raw = scenario.apply(base, injector)
            try:
                repair = repair_calibration(raw, validator=validator)
            except CalibrationError as exc:
                for method in methods:
                    outcomes.append(
                        ChaosOutcome(
                            device=device_name,
                            scenario=scenario.name,
                            severity=scenario.severity,
                            method=method,
                            ok=False,
                            error=f"unrepairable calibration: {exc}",
                        )
                    )
                continue
            for method in methods:
                outcomes.append(
                    _run_cell(
                        device_name, scenario, method, program, repair, seed
                    )
                )
    return ChaosReport(outcomes=outcomes, seed=seed, nodes=nodes)


def hash_name(name: str) -> int:
    """Deterministic small hash (``hash()`` is salted per process)."""
    value = 0
    for ch in name:
        value = (value * 131 + ord(ch)) % 1_000_003
    return value


def _run_cell(
    device_name: str,
    scenario: ChaosScenario,
    method: str,
    program,
    repair,
    seed: int,
) -> ChaosOutcome:
    outcome = ChaosOutcome(
        device=device_name,
        scenario=scenario.name,
        severity=scenario.severity,
        method=method,
        ok=False,
        pruned_edges=list(repair.pruned_edges),
    )
    try:
        # Interning keys off content, so every method cell for the same
        # repaired feed shares one Target (and its memoized oracles).
        target = intern_target(
            repair.coupling,
            repair.calibration,
            warnings=tuple(repair.warnings),
        )
        compiled = compile_with_method(
            program,
            method=method,
            rng=np.random.default_rng(seed),
            target=target,
        )
        compiled.warnings = list(repair.warnings) + compiled.warnings
        compiled.validate()
        pruned = set(repair.pruned_edges)
        used = sorted(
            {
                (min(i.qubits), max(i.qubits))
                for i in compiled.circuit
                if i.is_two_qubit
            }
            & pruned
        )
        metrics = measure_compiled(compiled, calibration=repair.calibration)
        outcome.ok = True
        outcome.warnings = list(compiled.warnings)
        outcome.used_pruned_edges = used
        outcome.depth = metrics.depth
        outcome.swap_count = metrics.swap_count
        outcome.success_probability = metrics.success_probability
        outcome.pass_times = pass_seconds(compiled.pass_trace)
    except Exception as exc:  # noqa: BLE001 — the audit reports, never dies
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome
