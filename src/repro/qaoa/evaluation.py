"""QAOA output evaluation: approximation ratio and the ARG metric.

The paper's quality pipeline (Sections II and V-A):

* **approximation ratio** ``r`` — the mean sampled cut value divided by the
  true maximum cut;
* **Approximation Ratio Gap (ARG)** — the paper's proposed hardware-quality
  metric: compile the circuit once with optimal parameters, sample it on a
  noiseless simulator (ratio ``r0``) and on hardware (ratio ``rh``), and
  report ``100 * (r0 - rh) / r0``.  Lower is better; it isolates how much
  the *compiled circuit's* noise exposure degrades the algorithm.

Compiled circuits live on physical qubits and their logical qubits end up
wherever routing left them, so :func:`decode_physical_counts` folds sampled
physical bitstrings back into logical ones through the final mapping before
any cost is evaluated.  These helpers are the paper's counts procedure in
its plain form, for directly encoded circuits only;
:func:`repro.sim.fastpath.evaluate_fast` measures the ARG of a compiled
circuit of either encoding, and on a direct one it draws the samples this
procedure draws.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..sim.sampler import expectation_from_counts, total_shots
from .problems import MaxCutProblem

__all__ = [
    "approximation_ratio",
    "approximation_ratio_gap",
    "decode_physical_counts",
]


def decode_physical_counts(
    counts: Mapping[str, int],
    final_mapping: Mapping[int, int],
    num_logical: int,
) -> Dict[str, int]:
    """Translate physical-qubit bitstrings into logical-qubit bitstrings.

    Args:
        counts: Histogram over physical bitstrings ``p_{N-1}...p_0``.
        final_mapping: logical -> physical at measurement time.
        num_logical: Number of logical qubits; all must be mapped.

    Returns:
        Histogram over logical bitstrings ``q_{n-1}...q_0``.
    """
    for q in range(num_logical):
        if q not in final_mapping:
            raise ValueError(f"logical qubit {q} missing from final mapping")
    out: Dict[str, int] = {}
    for bits, c in counts.items():
        n_phys = len(bits)
        logical_bits = "".join(
            bits[n_phys - 1 - final_mapping[q]]
            for q in range(num_logical - 1, -1, -1)
        )
        out[logical_bits] = out.get(logical_bits, 0) + c
    return out


def approximation_ratio(
    counts: Mapping[str, int], problem: MaxCutProblem
) -> float:
    """Mean sampled cut value over the exact maximum cut.

    ``counts`` must already be over *logical* bitstrings (see
    :func:`decode_physical_counts`).
    """
    if total_shots(counts) == 0:
        raise ValueError("empty counts")
    mean_cost = expectation_from_counts(counts, problem.cut_value)
    return mean_cost / problem.max_cut_value()


def approximation_ratio_gap(r0: float, rh: float) -> float:
    """ARG = ``100 * (r0 - rh) / r0`` (percent; lower is better)."""
    if r0 == 0.0:
        raise ValueError("noiseless approximation ratio r0 is zero")
    return 100.0 * (r0 - rh) / r0
