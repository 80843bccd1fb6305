"""Independent output oracle and timing-free digest for the service benchmark.

Nothing here trusts the code under test to judge its own output:

* compiled circuits are read from the payload's OpenQASM with this file's
  own line parser (not ``repro.circuits.qasm.loads``), checked against
  coupler lists written out below, and replayed SWAP by SWAP from the
  payload's ``initial_mapping``;
* gate-level samples are checked against the closed-form p=1 expectation
  (``repro.qaoa.analytic``), decoded with this file's own bit map;
* optimize outputs are checked against this file's brute-force max cut.

``fastpath_plan(...).ok`` and ``EvalOutcome.fastpath`` are never used as a
verdict: the plan is a heuristic and refuses valid circuits.

Every rejection raises :class:`Rejection` naming the job key and the reason.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

# IBM Q20 Tokyo (4x5 grid plus its diagonal couplers) and IBM Q16
# Melbourne (2x7 ladder plus qubit 7), as published with the paper's
# Figures 3(a) and 10(a).
_TOKYO_GRID = [(r * 5 + c, r * 5 + c + 1) for r in range(4) for c in range(4)] + [
    (r * 5 + c, (r + 1) * 5 + c) for r in range(3) for c in range(5)
]
_TOKYO_DIAGONALS = [
    (1, 7), (2, 6), (3, 9), (4, 8), (5, 11), (6, 10),
    (7, 13), (8, 12), (11, 17), (12, 16), (13, 19), (14, 18),
]
_MELBOURNE = (
    [(i, i + 1) for i in range(6)]
    + [(i, i + 1) for i in range(7, 14)]
    + [(0, 14), (1, 13), (2, 12), (3, 11), (4, 10), (5, 9), (6, 8)]
)
DEVICES: Dict[str, Tuple[int, frozenset]] = {
    "ibmq_20_tokyo": (
        20,
        frozenset(frozenset(e) for e in _TOKYO_GRID + _TOKYO_DIAGONALS),
    ),
    "ibmq_16_melbourne": (15, frozenset(frozenset(e) for e in _MELBOURNE)),
}

#: Fields that carry wall-clock time or process history rather than output.
#: ``id`` is a client label: resubmitted variants carry new ids by design.
_RECORD_VOLATILE = ("id", "latency_ms", "cached", "attempts", "placement")
_METRIC_VOLATILE = (
    "compile_time",
    "eval_trace",
    "optimize_trace",
    "store_events",
    "placement",
)


class Rejection(Exception):
    """An output the oracle does not accept."""

    def __init__(self, key: str, reason: str) -> None:
        super().__init__(f"job {key}: {reason}")
        self.key = key
        self.reason = reason


# ----------------------------------------------------------------------
# OpenQASM line parser
# ----------------------------------------------------------------------
_LINE = re.compile(
    r"^(?P<name>[a-z]+)(?:\((?P<param>[^)]*)\))?\s+"
    r"(?P<args>q\[\d+\](?:,\s*q\[\d+\])*)"
    r"(?:\s*->\s*c\[(?P<cbit>\d+)\])?;$"
)
_QREG = re.compile(r"^qreg q\[(\d+)\];$")


def parse_qasm(text: str):
    """``(num_qubits, ops)`` with ops ``(name, qubits, param, cbit)``."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "OPENQASM 2.0;":
        raise ValueError("missing OPENQASM 2.0 header")
    num_qubits = None
    ops = []
    for line in lines[1:]:
        if line.startswith("include ") or line.startswith("creg "):
            continue
        qreg = _QREG.match(line)
        if qreg:
            num_qubits = int(qreg.group(1))
            continue
        m = _LINE.match(line)
        if m is None:
            raise ValueError(f"unparsed QASM line {line!r}")
        qubits = tuple(int(x) for x in re.findall(r"q\[(\d+)\]", m.group("args")))
        param = float(m.group("param")) if m.group("param") is not None else None
        cbit = int(m.group("cbit")) if m.group("cbit") is not None else None
        ops.append((m.group("name"), qubits, param, cbit))
    if num_qubits is None:
        raise ValueError("no qreg declaration")
    return num_qubits, ops


# ----------------------------------------------------------------------
# compile outputs
# ----------------------------------------------------------------------
class CompileFacts:
    """What the oracle learned from one accepted compile output."""

    __slots__ = ("misplaced", "n_ops", "ops")

    def __init__(self, misplaced, ops):
        self.misplaced = misplaced
        self.n_ops = len(ops)
        self.ops = ops  # dropped once the gate-level sample is chosen


def check_compile_output(key: str, spec: dict, metrics: dict, payload: str) -> CompileFacts:
    """Check one compile output against the JSONL spec that requested it.

    ``spec`` is the benchmark's own job line (device, edges, gammas, betas);
    ``metrics`` and ``payload`` are what the service returned.
    """

    def reject(reason: str):
        raise Rejection(key, reason)

    num_phys, couplers = DEVICES[spec["device"]]
    prog = spec["program"]
    n = int(prog["num_qubits"])
    gammas, betas = prog["gammas"], prog["betas"]
    p = len(gammas)
    expected = [
        Counter(
            ((min(a, b), max(a, b)), -float(gammas[lv]) * float(w))
            for a, b, w in prog["edges"]
        )
        for lv in range(p)
    ]
    degree = Counter()
    for a, b, _ in prog["edges"]:
        degree[a] += 1
        degree[b] += 1

    try:
        envelope = json.loads(payload)
        doc = envelope["compiled"]
        width, ops = parse_qasm(doc["qasm"])
        initial = {int(k): int(v) for k, v in doc["initial_mapping"].items()}
        final = {int(k): int(v) for k, v in doc["final_mapping"].items()}
    except (ValueError, KeyError, TypeError) as exc:
        reject(f"unreadable payload: {exc}")
    if width != num_phys:
        reject(f"register has {width} qubits, device has {num_phys}")
    for name, mapping in (("initial", initial), ("final", final)):
        if sorted(mapping) != list(range(n)):
            reject(f"{name}_mapping keys are not the logical qubits 0..{n - 1}")
        if len(set(mapping.values())) != n or not all(
            0 <= v < num_phys for v in mapping.values()
        ):
            reject(f"{name}_mapping is not injective onto the device")

    owner: Dict[int, int] = {phys: q for q, phys in initial.items()}
    h_done = [False] * n
    level = [0] * n
    cost_done = [0] * n
    observed = [Counter() for _ in range(p)]
    last_measure: Dict[int, Optional[int]] = {}
    swaps = rzz = 0

    def logical(phys: int, what: str) -> int:
        q = owner.get(phys)
        if q is None:
            reject(f"{what} on physical {phys}, which holds no logical qubit")
        if not h_done[q] and what != "h":
            reject(f"{what} on logical {q} before its H")
        return q

    for name, qubits, param, cbit in ops:
        if len(qubits) == 2 and frozenset(qubits) not in couplers:
            reject(f"{name} on {qubits} is not a device coupler")
        if name == "h":
            q = logical(qubits[0], "h")
            if h_done[q]:
                reject(f"logical {q} gets a second H")
            h_done[q] = True
        elif name == "rzz":
            qa, qb = logical(qubits[0], "rzz"), logical(qubits[1], "rzz")
            if level[qa] != level[qb] or level[qa] >= p:
                reject(f"rzz on logical ({qa},{qb}) straddles levels")
            observed[level[qa]][((min(qa, qb), max(qa, qb)), param)] += 1
            cost_done[qa] += 1
            cost_done[qb] += 1
            rzz += 1
        elif name == "rx":
            q = logical(qubits[0], "rx")
            lv = level[q]
            if lv >= p:
                reject(f"logical {q} gets more than {p} mixers")
            if cost_done[q] != degree[q]:
                reject(
                    f"level-{lv} mixer on logical {q} after {cost_done[q]} "
                    f"of its {degree[q]} cost gates"
                )
            if param != 2.0 * float(betas[lv]):
                reject(f"level-{lv} mixer angle {param} != 2*beta")
            level[q] += 1
            cost_done[q] = 0
        elif name == "swap":
            a, b = qubits
            owner[a], owner[b] = owner.get(b), owner.get(a)
            owner = {k: v for k, v in owner.items() if v is not None}
            swaps += 1
        elif name == "measure":
            last_measure[cbit] = owner.get(qubits[0])
        else:
            reject(f"unexpected gate {name!r}")

    for q in range(n):
        if not h_done[q]:
            reject(f"logical {q} never gets its H")
        if level[q] != p:
            reject(f"logical {q} gets {level[q]} of {p} mixers")
    for lv in range(p):
        if observed[lv] != expected[lv]:
            missing = expected[lv] - observed[lv]
            extra = observed[lv] - expected[lv]
            reject(
                f"level-{lv} cost gates differ from the program "
                f"(missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})"
            )
    if {q: phys for phys, q in owner.items()} != final:
        reject("replayed ownership differs from final_mapping")
    if doc.get("swap_count") != swaps or metrics.get("swap_count") != swaps:
        reject(f"swap_count {metrics.get('swap_count')} != {swaps} swaps")
    if metrics.get("cnot_count") != 2 * rzz + 3 * swaps:
        reject(
            f"cnot_count {metrics.get('cnot_count')} != 2*{rzz} rzz + "
            f"3*{swaps} swap"
        )
    misplaced = any(last_measure.get(final[q]) != q for q in range(n))
    return CompileFacts(misplaced, ops)


def cut_values(n: int, edges: Sequence) -> np.ndarray:
    """Cut value of every logical basis index (bit q of the index is node q)."""
    idx = np.arange(1 << n, dtype=np.int64)
    cut = np.zeros(1 << n)
    for edge in edges:
        a, b = edge[0], edge[1]
        w = float(edge[2]) if len(edge) > 2 else 1.0
        cut += w * (((idx >> a) ^ (idx >> b)) & 1)
    return cut


def check_gate_level(key: str, spec: dict, ops: list, final: Dict[int, int]) -> float:
    """Simulate a compile output gate by gate and compare with the analytic
    p=1 expectation; returns the absolute difference."""
    from repro.circuits import QuantumCircuit
    from repro.qaoa.analytic import analytic_expectation
    from repro.qaoa.problems import MaxCutProblem
    from repro.sim.statevector import StatevectorSimulator

    prog = spec["program"]
    n = int(prog["num_qubits"])
    width = DEVICES[spec["device"]][0]
    qc = QuantumCircuit(width)
    for name, qubits, param, _ in ops:
        if name == "h":
            qc.h(qubits[0])
        elif name == "rzz":
            qc.cphase(param, *qubits)
        elif name == "rx":
            qc.rx(param, qubits[0])
        elif name == "swap":
            qc.swap(*qubits)
    probs = StatevectorSimulator(max_qubits=width).probabilities(qc)
    phys = np.arange(len(probs), dtype=np.int64)
    logical = np.zeros_like(phys)
    for q in range(n):
        logical |= ((phys >> final[q]) & 1) << q
    simulated = float(probs @ cut_values(n, prog["edges"])[logical])
    problem = MaxCutProblem(n, [tuple(e) for e in prog["edges"]])
    analytic = analytic_expectation(problem, prog["gammas"][0], prog["betas"][0])
    diff = abs(simulated - analytic)
    if not diff <= 1e-9:
        raise Rejection(key, f"gate-level expectation {simulated} != analytic {analytic}")
    return diff


# ----------------------------------------------------------------------
# optimize and eval outputs
# ----------------------------------------------------------------------
def analytic_ratio_inputs(n: int, edges: Sequence, gamma: float, beta: float):
    """``(analytic expectation, brute-force max cut)`` for an unweighted graph."""
    from repro.qaoa.analytic import analytic_expectation
    from repro.qaoa.problems import MaxCutProblem

    problem = MaxCutProblem(n, [tuple(e) for e in edges])
    return analytic_expectation(problem, gamma, beta), float(cut_values(n, edges).max())


def check_optimize_output(key: str, n: int, edges: Sequence, metrics: dict) -> float:
    """Returns the accepted approximation ratio."""
    gamma, beta = metrics["gammas"][0], metrics["betas"][0]
    analytic, optimum = analytic_ratio_inputs(n, edges, gamma, beta)
    if metrics["optimum"] != optimum:
        raise Rejection(key, f"optimum {metrics['optimum']} != brute force {optimum}")
    if not abs(metrics["expectation"] - analytic) <= 1e-9:
        raise Rejection(
            key, f"expectation {metrics['expectation']} != analytic {analytic}"
        )
    ratio = metrics["approximation_ratio"]
    if not abs(ratio - metrics["expectation"] / optimum) <= 1e-12:
        raise Rejection(key, f"approximation_ratio {ratio} != expectation/optimum")
    return ratio


def check_eval_output(key: str, n: int, edges: Sequence, gamma: float, beta: float,
                      shots: int, metrics: dict) -> float:
    """Returns the accepted ARG (%)."""
    analytic, optimum = analytic_ratio_inputs(n, edges, gamma, beta)
    r0, rh, arg = metrics["r0"], metrics["rh"], metrics["arg"]
    bound = 6 * 0.5 / math.sqrt(shots)
    if not abs(r0 - analytic / optimum) <= bound:
        raise Rejection(
            key, f"sampled r0 {r0} is more than {bound:.4f} from {analytic / optimum}"
        )
    if not abs(arg - 100.0 * (r0 - rh) / r0) <= 1e-9 * max(1.0, abs(arg)):
        raise Rejection(key, f"arg {arg} != 100*(r0-rh)/r0")
    return arg


# ----------------------------------------------------------------------
# timing-free digest
# ----------------------------------------------------------------------
def _strip_metrics(metrics):
    if not isinstance(metrics, dict):
        return metrics
    out = {k: v for k, v in metrics.items() if k not in _METRIC_VOLATILE}
    if isinstance(out.get("pass_trace"), list):
        out["pass_trace"] = [
            {k: v for k, v in rec.items() if k != "seconds"} for rec in out["pass_trace"]
        ]
    return out


def timing_free(record: dict) -> dict:
    """A ``to_record(include_payload=True)`` dict without clock or history."""
    out = {k: v for k, v in record.items() if k not in _RECORD_VOLATILE}
    out["metrics"] = _strip_metrics(out.get("metrics"))
    payload = out.get("payload")
    if payload is not None:
        envelope = json.loads(payload)
        envelope["metrics"] = _strip_metrics(envelope.get("metrics"))
        if isinstance(envelope.get("compiled"), dict):
            envelope["compiled"] = _strip_metrics(envelope["compiled"])
        out["payload"] = envelope
    return out


class Digest:
    """SHA-256 over timing-free records, in the order they are added."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.records = 0

    def add(self, record: dict) -> None:
        text = json.dumps(timing_free(record), sort_keys=True, separators=(",", ":"))
        self._sha.update(text.encode("utf-8"))
        self._sha.update(b"\n")
        self.records += 1

    def hexdigest(self) -> str:
        return self._sha.hexdigest()
