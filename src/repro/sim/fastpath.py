"""QAOA-specialised fast-path evaluation engine.

The paper's headline quality metric — ARG, Section V-A — needs every
compiled circuit simulated twice (noiseless and noisy).  Gate-by-gate
statevector evolution pays one tensordot per gate over the *physical*
register (2^16 amplitudes on melbourne), yet a QAOA circuit has rigid
algebraic structure this module exploits:

* every cost block is **diagonal** in the computational basis — applying
  all of a level's CPHASE gates equals one elementwise multiply by
  ``exp(-i * gamma * D(z))`` with ``D(z) = c(z) - W/2 + sum_i h_i s_i(z)``
  where ``c(z)`` is the cut value, ``W`` the total edge weight and
  ``s_i = 1 - 2 bit_i`` (exact, global phase included);
* the mixer is a tensor product of identical ``RX`` rotations — ``n``
  axis-wise 2x2 multiplies, no per-gate matrices;
* SWAPs inserted by routing are pure qubit relocations — in the *logical*
  frame they are bookkeeping, not linear algebra, so the state never
  leaves the ``2^n`` logical subspace (n = problem qubits, not device
  qubits).

The cost diagonal is computed once per problem and interned in a bounded
registry keyed by content hash (mirroring
:func:`repro.hardware.target.intern_target`), so parameter sweeps and
batches over the same instance share one table.

Compiled circuits are only admitted to the fast path after
:func:`fastpath_plan` proves ARG-equivalence: the physical instruction
stream must be the Hadamard prefix, ``p`` complete cost blocks (the
level's CPHASE/RZ multiset, SWAP-tracked), and per-level mixers, ending
in the recorded ``final_mapping``.  Anything else falls back to the
gate-by-gate simulators, so the fast path can never silently change
semantics.

For noisy evaluation, :func:`logical_trajectory` replays the physical
instruction stream in the logical frame while consuming **exactly** the
same random draws as :meth:`repro.sim.noise.NoisySimulator.run_trajectory`
— same dephasing draws, same Pauli injections at the same points — so a
shared generator produces the identical noise realisation on both paths.
Pauli noise landing on an unmapped physical qubit cannot reach any
decoded logical bit (cost gates never couple mapped and unmapped qubits;
SWAPs only relocate), so it degrades to a classical "dirt bit" tracked
per physical qubit.

Sampled evaluation draws in the logical frame too: the ``2^n`` support,
ordered by physical index, is sampled exactly as ``Generator.choice``
samples the dense physical register, and readout flips land on logical
bits, so the numbers equal the gate-level path's without ever building a
physical-register distribution beyond its normalising sum.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections import Counter
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .noise import _ONE_QUBIT_PAULIS, _TWO_QUBIT_PAULIS, NoiseModel
from ..store.registry import FingerprintRegistry

__all__ = [
    "CostDiagonal",
    "EvalOutcome",
    "FastPathPlan",
    "clear_diagonal_registry",
    "cost_diagonal",
    "decode_indices",
    "diagonal_registry_stats",
    "evaluate_fast",
    "expectation_batch",
    "fastpath_plan",
    "logical_trajectory",
    "parity_plan",
    "qaoa_statevector",
    "qaoa_statevector_batch",
]

#: Matches the brute-force ceiling of ``MaxCutProblem.cut_values``.
_MAX_DIAGONAL_QUBITS = 26

_FINGERPRINT_VERSION = 1

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the cost diagonal
# ----------------------------------------------------------------------
class CostDiagonal:
    """Per-problem diagonal tables, computed lazily and served read-only.

    Args:
        num_qubits: Number of logical qubits (26 at most — the tables are
            dense over ``2^n`` basis states).
        edges: ``(a, b, weight)`` triples; endpoint order and duplicate
            accumulation are canonicalised so content-equal problems
            fingerprint identically.
        linear: Optional per-qubit linear Ising fields ``{i: h_i}``.

    The tables:

    * :attr:`cut` — ``c(z)``, the cut value of every little-endian basis
      index (what ``r0``/``rh`` expectations are taken against);
    * :attr:`phase` — ``D(z) = c(z) - W/2 + sum_i h_i s_i(z)``, the exact
      per-unit-gamma phase of one cost block *including global phase*, so
      fast-path statevectors match gate-by-gate evolution bit-for-bit up
      to float rounding;
    * :meth:`sign` / :meth:`szz` — ``s_q(z)`` and ``s_a s_b`` sign
      vectors, the elementwise form of Z and ZZ rotations.
    """

    def __init__(
        self,
        num_qubits: int,
        edges,
        linear: Optional[Mapping[int, float]] = None,
    ) -> None:
        num_qubits = int(num_qubits)
        if num_qubits < 1:
            raise ValueError("num_qubits must be positive")
        if num_qubits > _MAX_DIAGONAL_QUBITS:
            raise ValueError(
                f"dense cost diagonal infeasible for {num_qubits} qubits "
                f"(limit {_MAX_DIAGONAL_QUBITS})"
            )
        self.num_qubits = num_qubits
        accum: Dict[Tuple[int, int], float] = {}
        for a, b, w in edges:
            key = (min(int(a), int(b)), max(int(a), int(b)))
            if key[0] == key[1]:
                raise ValueError(f"self-loop edge {key}")
            if not 0 <= key[0] < num_qubits or not key[1] < num_qubits:
                raise ValueError(f"edge {key} out of range")
            accum[key] = accum.get(key, 0.0) + float(w)
        self.edges: Tuple[Tuple[int, int, float], ...] = tuple(
            (a, b, w) for (a, b), w in sorted(accum.items())
        )
        self.linear: Tuple[Tuple[int, float], ...] = tuple(
            sorted((int(q), float(h)) for q, h in (linear or {}).items())
        )
        for q, _ in self.linear:
            if not 0 <= q < num_qubits:
                raise ValueError(f"linear term index {q} out of range")
        self.fingerprint = _digest(
            {
                "fingerprint_version": _FINGERPRINT_VERSION,
                "num_qubits": self.num_qubits,
                "edges": [[a, b, repr(w)] for a, b, w in self.edges],
                "linear": [[q, repr(h)] for q, h in self.linear],
            }
        )
        self._cut: Optional[np.ndarray] = None
        self._phase: Optional[np.ndarray] = None
        self._signs: Dict[int, np.ndarray] = {}
        self._szz: Dict[Tuple[int, int], np.ndarray] = {}
        self._phase_groups: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._phase_groups_known = False

    @property
    def dim(self) -> int:
        """Number of basis states (``2^n``)."""
        return 1 << self.num_qubits

    @property
    def total_weight(self) -> float:
        """Sum of edge weights."""
        return sum(w for _, _, w in self.edges)

    @property
    def cut(self) -> np.ndarray:
        """``c(z)`` for every little-endian basis index (read-only)."""
        if self._cut is None:
            indices = np.arange(self.dim, dtype=np.int64)
            values = np.zeros(self.dim)
            for a, b, w in self.edges:
                values += w * (((indices >> a) & 1) ^ ((indices >> b) & 1))
            values.flags.writeable = False
            self._cut = values
        return self._cut

    @property
    def max_value(self) -> float:
        """The exact maximum cut (the ``r`` denominator)."""
        return float(self.cut.max())

    def sign(self, q: int) -> np.ndarray:
        """``s_q(z) = 1 - 2 bit_q(z)`` — the Z eigenvalue sign vector."""
        cached = self._signs.get(q)
        if cached is None:
            indices = np.arange(self.dim, dtype=np.int64)
            cached = 1.0 - 2.0 * ((indices >> q) & 1)
            cached.flags.writeable = False
            self._signs[q] = cached
        return cached

    def szz(self, a: int, b: int) -> np.ndarray:
        """``s_a(z) * s_b(z)`` — the ZZ eigenvalue sign vector."""
        key = (min(a, b), max(a, b))
        cached = self._szz.get(key)
        if cached is None:
            cached = self.sign(key[0]) * self.sign(key[1])
            cached.flags.writeable = False
            self._szz[key] = cached
        return cached

    @property
    def phase(self) -> np.ndarray:
        """``D(z)`` such that one cost block is exactly
        ``exp(-i * gamma * D(z))``, global phase included."""
        if self._phase is None:
            values = self.cut - self.total_weight / 2.0
            for q, h in self.linear:
                values = values + h * self.sign(q)
            values.flags.writeable = False
            self._phase = values
        return self._phase

    @property
    def phase_groups(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(values, inverse)`` with ``phase == values[inverse]``.

        Real cost diagonals are massively degenerate — an unweighted
        ``m``-edge cut takes at most ``m + 1`` distinct values over
        ``2^n`` basis states — so batched evolution can exponentiate one
        small table per angle row and gather, instead of taking a dense
        ``batch x 2^n`` complex exponential.  ``None`` when the phase has
        too many distinct values for the factorisation to pay off
        (gather + table would cost about as much as the dense ``exp``).
        """
        if not self._phase_groups_known:
            values, inverse = np.unique(self.phase, return_inverse=True)
            if values.size * 4 <= self.dim:
                values.flags.writeable = False
                inverse.flags.writeable = False
                self._phase_groups = (values, inverse)
            self._phase_groups_known = True
        return self._phase_groups

    def readout_adjusted(self, flip_probs: Mapping[int, float]) -> np.ndarray:
        """The cut diagonal after an analytic readout-error channel.

        ``flip_probs`` maps a *logical* qubit to its classical bit-flip
        probability (for a compiled circuit, the readout error of the
        physical qubit it is measured on).  Returns ``c'`` with
        ``c'(z) = E[c(y)]`` over independent per-bit flips of ``z`` —
        exact, no readout sampling needed.
        """
        values = np.array(self.cut, dtype=float)
        indices = np.arange(self.dim, dtype=np.int64)
        for q in sorted(flip_probs):
            p = float(flip_probs[q])
            if p <= 0.0:
                continue
            values = (1.0 - p) * values + p * values[indices ^ (1 << q)]
        return values

    def __repr__(self) -> str:
        return (
            f"CostDiagonal(num_qubits={self.num_qubits}, "
            f"num_edges={len(self.edges)}, "
            f"fingerprint={self.fingerprint[:12]})"
        )


# ----------------------------------------------------------------------
# interning registry (the store's in-process tier)
# ----------------------------------------------------------------------
_DIAGONALS = FingerprintRegistry(
    "diagonals", env_var="REPRO_DIAGONAL_CAPACITY", default_capacity=128
)

def cost_diagonal(problem) -> CostDiagonal:
    """The shared :class:`CostDiagonal` for this problem content.

    Accepts a :class:`~repro.qaoa.problems.QAOAProgram` or a
    :class:`~repro.qaoa.problems.MaxCutProblem` (duck-typed on
    ``num_qubits``/``num_nodes``, ``edges`` and optional ``linear``).
    Content-equal problems — even across distinct objects, edge orders or
    QAOA parameter sets — return the *same* diagonal, so its tables are
    computed once.  The registry is a bounded LRU
    (``REPRO_DIAGONAL_CAPACITY``, default 128).
    """
    num_qubits = getattr(problem, "num_qubits", None)
    if num_qubits is None:
        num_qubits = problem.num_nodes
    candidate = CostDiagonal(
        num_qubits, problem.edges, getattr(problem, "linear", None)
    )
    diagonal, _hit = _DIAGONALS.intern(candidate.fingerprint, lambda: candidate)
    return diagonal


def clear_diagonal_registry() -> None:
    """Empty the diagonal registry and reset its counters (tests and
    cold-start benchmarking)."""
    _DIAGONALS.clear()


def diagonal_registry_stats() -> dict:
    """Registry size and hit/miss counters (telemetry).  The same
    counters appear in :func:`repro.store.store_stats` under
    ``diagonals``."""
    stats = _DIAGONALS.stats()
    return {
        "hits": stats["hits"],
        "misses": stats["misses"],
        "evictions": stats["evictions"],
        "diagonals": stats["size"],
        "capacity": stats["capacity"],
    }


# ----------------------------------------------------------------------
# noiseless fast path
# ----------------------------------------------------------------------
def _apply_single(state: np.ndarray, matrix: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 matrix to one qubit of a flat little-endian state.

    Views the state as ``(higher bits, the qubit's bit, lower bits)``:
    the two halves are strided views, so no axis is moved or copied, and
    each output amplitude is the same pair of products as in the
    tensor-axis form.
    """
    view = state.reshape(-1, 2, 1 << qubit)
    lo, hi = view[:, 0], view[:, 1]
    out = np.empty_like(view)
    out[:, 0] = matrix[0, 0] * lo + matrix[0, 1] * hi
    out[:, 1] = matrix[1, 0] * lo + matrix[1, 1] * hi
    return out.reshape(-1)


def _rx_matrix(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -1.0j * s], [-1.0j * s, c]], dtype=complex)


def qaoa_statevector(program, diagonal: Optional[CostDiagonal] = None) -> np.ndarray:
    """The exact logical QAOA statevector in ``O(p)`` dense passes.

    Equals gate-by-gate evolution of the logical circuit *including global
    phase*: uniform superposition, then per level one elementwise
    ``exp(-i * gamma * D)`` multiply and ``n`` axis-wise RX mixers.
    Returns a flat ``2^n`` little-endian vector.
    """
    n = program.num_qubits
    diag = diagonal if diagonal is not None else cost_diagonal(program)
    if diag.num_qubits != n:
        raise ValueError(
            f"diagonal is over {diag.num_qubits} qubits, program has {n}"
        )
    dim = 1 << n
    state = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    phase = diag.phase
    for level in range(program.p):
        gamma = program.levels[level].gamma
        state = state * np.exp(-1j * gamma * phase)
        mixer = _rx_matrix(program.mixer_angle(level))
        for q in range(n):
            state = _apply_single(state, mixer, q)
    return state


def _apply_rx_batch(
    src: np.ndarray,
    dst: np.ndarray,
    cos_half: np.ndarray,
    sin_half: np.ndarray,
    num_qubits: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Apply per-column RX mixers to every qubit of a ``(2^n, batch)``
    stack.

    The batch axis sits *last* so every ufunc below streams over
    contiguous batch-length runs regardless of which qubit is being
    mixed — with batch-first layout the ``qubit = 0`` butterfly
    degenerates to stride-one-element views and the pass goes scalar.
    ``cos_half``/``sin_half`` hold cos/sin of each column's half-angle
    and broadcast against that last axis.  Ping-pongs between ``src``
    and ``dst`` (one butterfly per qubit, two fused multiply-adds per
    output half, no temporaries beyond the pair); returns the
    ``(result, scratch)`` buffer pair.
    """
    batch = src.shape[-1]
    s = -1.0j * sin_half
    for qubit in range(num_qubits):
        s4 = src.reshape(-1, 2, 1 << qubit, batch)
        d4 = dst.reshape(-1, 2, 1 << qubit, batch)
        lo, hi = s4[:, 0], s4[:, 1]
        np.multiply(lo, cos_half, out=d4[:, 0])
        d4[:, 0] += hi * s
        np.multiply(lo, s, out=d4[:, 1])
        d4[:, 1] += hi * cos_half
        src, dst = dst, src
    return src, dst


def _angle_matrix(angles, levels: Optional[int], name: str) -> np.ndarray:
    out = np.asarray(angles, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got shape {out.shape}")
    if levels is not None and out.shape[1] != levels:
        raise ValueError(
            f"{name} has {out.shape[1]} levels per row, expected {levels}"
        )
    return out


def qaoa_statevector_batch(
    problem,
    gammas,
    betas,
    diagonal: Optional[CostDiagonal] = None,
) -> np.ndarray:
    """Exact logical QAOA statevectors for a *batch* of angle points.

    ``gammas``/``betas`` are ``(n_angles, p)`` (or ``(n_angles,)`` for
    ``p = 1``): row ``k`` is one full parameter assignment.  All rows
    evolve together — one ``exp(-i * gamma_k * D)`` broadcast against the
    shared cost diagonal per level, then batched axis-wise RX mixers —
    so a 32-point angle grid costs one numpy pass instead of 32 circuit
    evaluations.  Returns a ``(n_angles, 2^n)`` little-endian array whose
    row ``k`` equals ``qaoa_statevector(problem.to_program(row_k))`` to
    machine precision.

    ``problem`` is anything :func:`cost_diagonal` accepts: a
    ``QAOAProgram``, ``MaxCutProblem``, ``IsingProblem``, or any object
    with ``num_qubits``/``edges``/``linear``.
    """
    diag = diagonal if diagonal is not None else cost_diagonal(problem)
    gamma_rows = _angle_matrix(gammas, None, "gammas")
    beta_rows = _angle_matrix(betas, gamma_rows.shape[1], "betas")
    if beta_rows.shape[0] != gamma_rows.shape[0]:
        raise ValueError(
            f"gammas has {gamma_rows.shape[0]} rows, betas has "
            f"{beta_rows.shape[0]}"
        )
    n = diag.num_qubits
    n_angles, levels = gamma_rows.shape
    dim = 1 << n
    # Work in (2^n, batch) layout — batch contiguous innermost — and
    # transpose on return; see _apply_rx_batch for why.
    states = np.full((dim, n_angles), 1.0 / np.sqrt(dim), dtype=complex)
    scratch = np.empty_like(states)
    groups = diag.phase_groups
    for level in range(levels):
        coeff = -1j * gamma_rows[:, level]
        if groups is None:
            states *= np.exp(np.multiply.outer(diag.phase, coeff))
        else:
            # Degenerate diagonal: exponentiate one row per distinct
            # phase value and gather, instead of a dense 2^n exp.
            values, inverse = groups
            states *= np.exp(np.multiply.outer(values, coeff))[inverse]
        # mixer_angle = 2 * beta, so the RX half-angle is beta itself
        states, scratch = _apply_rx_batch(
            states,
            scratch,
            np.cos(beta_rows[:, level]),
            np.sin(beta_rows[:, level]),
            n,
        )
    return states.T


def expectation_batch(
    problem,
    gammas,
    betas,
    values: Optional[np.ndarray] = None,
    diagonal: Optional[CostDiagonal] = None,
    max_batch_amplitudes: int = 1 << 22,
) -> np.ndarray:
    """Batched exact expectations ``<psi_k| V |psi_k>`` over angle rows.

    ``values`` is the diagonal observable per basis state; it defaults
    to the problem's own classical cost vector (``cost_values()`` when
    the problem exposes one — offset and linear fields included — else
    the shared diagonal's cut values).  Large grids are processed in
    chunks of at most ``max_batch_amplitudes`` amplitudes so an n-qubit
    sweep never materialises more than ~64 MiB of statevectors at once
    while keeping every chunk fully vectorized.
    """
    diag = diagonal if diagonal is not None else cost_diagonal(problem)
    gamma_rows = _angle_matrix(gammas, None, "gammas")
    beta_rows = _angle_matrix(betas, gamma_rows.shape[1], "betas")
    if beta_rows.shape[0] != gamma_rows.shape[0]:
        raise ValueError(
            f"gammas has {gamma_rows.shape[0]} rows, betas has "
            f"{beta_rows.shape[0]}"
        )
    if values is None:
        cost_fn = getattr(problem, "cost_values", None)
        obs = cost_fn() if cost_fn is not None else diag.cut
    else:
        obs = np.asarray(values, dtype=float)
    dim = 1 << diag.num_qubits
    if obs.shape != (dim,):
        raise ValueError(f"values must have shape ({dim},), got {obs.shape}")
    n_angles = gamma_rows.shape[0]
    chunk = max(1, int(max_batch_amplitudes) // dim)
    out = np.empty(n_angles, dtype=float)
    for start in range(0, n_angles, chunk):
        stop = min(start + chunk, n_angles)
        states = qaoa_statevector_batch(
            problem,
            gamma_rows[start:stop],
            beta_rows[start:stop],
            diagonal=diag,
        )
        # Weighted probabilities in C layout, then a per-row pairwise
        # sum over the contiguous last axis: each angle point's
        # reduction sees only its own row, in a fixed order, so the
        # grid is bit-identical whatever chunk size it ran at.
        probs = np.empty(states.shape)
        np.multiply(states.real, states.real, out=probs)
        probs += states.imag**2
        probs *= obs
        out[start:stop] = probs.sum(axis=1)
    return out


# ----------------------------------------------------------------------
# ARG-equivalence verification of compiled circuits
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FastPathPlan:
    """Verdict of :func:`fastpath_plan`.

    Attributes:
        ok: Whether the compiled circuit is ARG-equivalent to the logical
            program (permutation via the recorded final mapping).
        reason: Why the fast path was refused (``None`` when ``ok``).
    """

    ok: bool
    reason: Optional[str] = None


def fastpath_plan(compiled) -> FastPathPlan:
    """Prove a compiled circuit ARG-equivalent to its logical program.

    Walks the physical instruction stream tracking the SWAP-updated
    physical→logical ownership and, per logical qubit, its progress
    through the canonical sequence ``H → level-0 diagonals → RX →
    level-1 diagonals → RX → ... → measure``.  Physical schedulers
    interleave gates on disjoint qubits freely (they commute), so the
    only ordering the proof needs is *per qubit*: a CPHASE requires both
    endpoints at the same level with that level's gate still pending, a
    mixer RX requires every pending diagonal touching its qubit consumed.
    Any reordering the walk accepts therefore differs from the canonical
    level sequence only by transpositions of commuting gates — disjoint
    supports, or same-level diagonals — hence is unitary-equal.  The walk
    must end in the recorded ``final_mapping``, and the last measure that
    writes ``c[final_mapping[q]]`` must have read logical qubit ``q`` (a
    measure reads whichever qubit owns its wire at that point), so every
    decoded bit is its own qubit's outcome.  Any other structure refuses
    the fast path and the caller falls back to gate-by-gate simulation.
    """
    encoding = getattr(compiled, "encoding", "direct")
    if encoding != "direct":
        return FastPathPlan(
            False, f"encoding {encoding!r} has its own verifier"
        )
    program = compiled.program
    n = program.num_qubits
    p_levels = program.p

    initial = {int(q): int(p) for q, p in compiled.initial_mapping.items()}
    if sorted(initial) != list(range(n)):
        return FastPathPlan(False, "initial mapping must cover logical qubits")
    if len(set(initial.values())) != n:
        return FastPathPlan(False, "initial mapping is not injective")
    owner: Dict[int, int] = {p: q for q, p in initial.items()}

    h_seen: set = set()
    # mixer RXs consumed so far per logical qubit == its current level
    level_of = [0] * n
    # per level: pending diagonal-gate multisets and per-qubit touch counts
    pending_cphase = []
    pending_rz = []
    touches = []  # touches[lv][q] = pending diagonal gates involving q
    for lv in range(p_levels):
        cp = Counter(
            ((min(a, b), max(a, b)), angle)
            for a, b, angle in program.cphase_gates(lv)
        )
        rz = Counter(program.rz_gates(lv))
        touch = [0] * n
        for (a, b), count in Counter(k[0] for k in cp.elements()).items():
            touch[a] += count
            touch[b] += count
        for q, count in Counter(k[0] for k in rz.elements()).items():
            touch[q] += count
        pending_cphase.append(cp)
        pending_rz.append(rz)
        touches.append(touch)
    # c[p] <- the logical qubit the last measure of wire p read (None for
    # an unmapped wire)
    reads: Dict[int, Optional[int]] = {}

    for inst in compiled.circuit:
        name = inst.name
        if name == "barrier":
            continue
        if name == "measure":
            phys = inst.qubits[0]
            q = owner.get(phys)
            if q is not None and level_of[q] != p_levels:
                return FastPathPlan(
                    False, f"logical qubit {q} measured before its last mixer"
                )
            reads[phys] = q
            continue
        if name == "swap":
            pa, pb = inst.qubits
            oa, ob = owner.pop(pa, None), owner.pop(pb, None)
            if ob is not None:
                owner[pa] = ob
            if oa is not None:
                owner[pb] = oa
            continue
        if name == "h":
            q = owner.get(inst.qubits[0])
            if q is None:
                return FastPathPlan(False, "H on an unmapped physical qubit")
            if q in h_seen:
                return FastPathPlan(False, "duplicate Hadamard")
            h_seen.add(q)
            continue
        if name == "cphase":
            qa = owner.get(inst.qubits[0])
            qb = owner.get(inst.qubits[1])
            if qa is None or qb is None:
                return FastPathPlan(False, "CPHASE on an unmapped qubit")
            if qa not in h_seen or qb not in h_seen:
                return FastPathPlan(False, "CPHASE before Hadamard")
            lv = level_of[qa]
            if lv != level_of[qb]:
                return FastPathPlan(
                    False,
                    f"CPHASE across mixer levels {lv}/{level_of[qb]}",
                )
            if lv >= p_levels:
                return FastPathPlan(False, "CPHASE after the final mixer")
            key = ((min(qa, qb), max(qa, qb)), inst.params[0])
            if pending_cphase[lv][key] <= 0:
                return FastPathPlan(
                    False, f"unexpected CPHASE {key} in level {lv}"
                )
            pending_cphase[lv][key] -= 1
            touches[lv][qa] -= 1
            touches[lv][qb] -= 1
            continue
        if name == "rz":
            q = owner.get(inst.qubits[0])
            if q is None:
                return FastPathPlan(False, "RZ on an unmapped qubit")
            if q not in h_seen:
                return FastPathPlan(False, "RZ before Hadamard")
            lv = level_of[q]
            if lv >= p_levels:
                return FastPathPlan(False, "RZ after the final mixer")
            key = (q, inst.params[0])
            if pending_rz[lv][key] <= 0:
                return FastPathPlan(
                    False, f"unexpected RZ {key} in level {lv}"
                )
            pending_rz[lv][key] -= 1
            touches[lv][q] -= 1
            continue
        if name == "rx":
            q = owner.get(inst.qubits[0])
            if q is None:
                return FastPathPlan(False, "RX on an unmapped qubit")
            if q not in h_seen:
                return FastPathPlan(False, "RX before Hadamard")
            lv = level_of[q]
            if lv >= p_levels:
                return FastPathPlan(False, "RX after the final mixer")
            if inst.params[0] != program.mixer_angle(lv):
                return FastPathPlan(False, f"mixer angle mismatch in level {lv}")
            if touches[lv][q] > 0:
                return FastPathPlan(
                    False,
                    f"mixer on logical qubit {q} before its level-{lv} "
                    f"cost gates completed",
                )
            level_of[q] = lv + 1
            continue
        return FastPathPlan(
            False, f"gate {name!r} outside the QAOA fast-path gate set"
        )

    if len(h_seen) != n:
        return FastPathPlan(False, "incomplete Hadamard prefix")
    if any(lv != p_levels for lv in level_of):
        return FastPathPlan(False, "circuit ended before the final mixer")
    if any(
        v > 0
        for lv in range(p_levels)
        for counter in (pending_cphase[lv], pending_rz[lv])
        for v in counter.values()
    ):
        return FastPathPlan(False, "cost gates missing from the circuit")
    final = {q: p for p, q in owner.items()}
    recorded = {int(q): int(p) for q, p in compiled.final_mapping.items()}
    if final != recorded:
        return FastPathPlan(False, "final mapping mismatch")
    return _measure_binding(final, reads, "logical qubit")


def _measure_binding(
    final: Dict[int, int], reads: Dict[int, Optional[int]], label: str
) -> FastPathPlan:
    """Accept only when each register entry's final home was last
    measured while it held that entry (``label`` names the entries in
    the refusal, e.g. ``"logical qubit"``)."""
    unmeasured = [q for q in sorted(final) if final[q] not in reads]
    if unmeasured:
        return FastPathPlan(False, f"{label}(s) {unmeasured} never measured")
    for q in sorted(final):
        held = reads[final[q]]
        if held != q:
            source = "an unmapped wire" if held is None else f"{label} {held}"
            return FastPathPlan(
                False,
                f"measure bound to the wrong qubit: c[{final[q]}] reads "
                f"{source}, not {label} {q}",
            )
    return FastPathPlan(True, None)


def parity_plan(compiled) -> FastPathPlan:
    """Prove a parity-encoded compiled circuit equivalent to its program.

    The parity circuit is CNOT-conjugated diagonal rotations plus local
    mixers, so the proof is a phase-polynomial walk: each physical wire
    carries a GF(2) mask over parity slots (``H`` on slot ``s``'s home
    initialises mask ``1 << s``; ``CNOT(a, b)`` XORs ``mask[a]`` into
    ``mask[b]``; SWAPs relocate masks).  Every ``RZ`` must consume a
    pending phase term of its wire's exact current mask — the per-level
    multiset of field terms ``(1 << s, -gamma * w_s)`` and constraint
    terms ``(XOR of cycle slots, -gamma * Omega)`` derived from
    :class:`~repro.compiler.parity.ParityLayout` — and every mixer
    ``RX`` requires its wire restored to a singleton mask no other wire
    shares, with that slot's pending terms drained.  The walk must end
    with all masks singleton, matching the recorded ``final_mapping``,
    and every slot's home last measured while it carried that slot.  Any
    accepted circuit therefore
    implements exactly ``prod_levels [mixer . exp(-i gamma D(y))]`` over
    the parity basis, which :func:`_evaluate_parity` evolves directly.
    """
    from ..compiler.parity import (
        ParityLayout,
        parity_constraint_angle,
        parity_field_angle,
    )

    program = compiled.program
    try:
        layout = ParityLayout.from_program(program)
    except ValueError as exc:
        return FastPathPlan(False, str(exc))
    info = getattr(compiled, "encoding_info", None) or {}
    strength = float(info.get("constraint_strength", 2.0))
    K = layout.num_slots
    p_levels = program.p

    initial = {int(s): int(p) for s, p in compiled.initial_mapping.items()}
    if sorted(initial) != list(range(K)):
        return FastPathPlan(False, "initial mapping must cover parity slots")
    if len(set(initial.values())) != K:
        return FastPathPlan(False, "initial mapping is not injective")
    owner: Dict[int, int] = {p: s for s, p in initial.items()}
    masks: Dict[int, int] = {}

    h_seen: set = set()
    level_of = [0] * K
    # per level: pending (mask, angle) multisets and per-slot touch counts
    pending = []
    touches = []
    for lv in range(p_levels):
        gamma = program.levels[lv].gamma
        terms: Counter = Counter()
        for s, w in enumerate(layout.weights):
            terms[(1 << s, parity_field_angle(gamma, w))] += 1
        angle = parity_constraint_angle(gamma, strength)
        for cycle in layout.constraints:
            mask = 0
            for s in cycle:
                mask ^= 1 << s
            terms[(mask, angle)] += 1
        touch = [0] * K
        for (mask, _), count in terms.items():
            for s in range(K):
                if (mask >> s) & 1:
                    touch[s] += count
        pending.append(terms)
        touches.append(touch)
    # c[p] <- the parity slot the last measure of wire p read (None for
    # an unmapped wire)
    reads: Dict[int, Optional[int]] = {}

    for inst in compiled.circuit:
        name = inst.name
        if name == "barrier":
            continue
        if name == "measure":
            phys = inst.qubits[0]
            mask = masks.get(phys)
            s = None
            if mask is not None:
                if mask == 0 or mask & (mask - 1):
                    return FastPathPlan(
                        False, "measurement of an unrestored parity line"
                    )
                s = mask.bit_length() - 1
                if level_of[s] != p_levels:
                    return FastPathPlan(
                        False,
                        f"parity slot {s} measured before its last mixer",
                    )
            reads[phys] = s
            continue
        if name == "swap":
            pa, pb = inst.qubits
            oa, ob = owner.pop(pa, None), owner.pop(pb, None)
            ma, mb = masks.pop(pa, None), masks.pop(pb, None)
            if ob is not None:
                owner[pa] = ob
            if oa is not None:
                owner[pb] = oa
            if mb is not None:
                masks[pa] = mb
            if ma is not None:
                masks[pb] = ma
            continue
        if name == "h":
            s = owner.get(inst.qubits[0])
            if s is None:
                return FastPathPlan(False, "H on an unmapped physical qubit")
            if s in h_seen:
                return FastPathPlan(False, "duplicate Hadamard")
            h_seen.add(s)
            masks[inst.qubits[0]] = 1 << s
            continue
        if name == "cnot":
            ma = masks.get(inst.qubits[0])
            mb = masks.get(inst.qubits[1])
            if ma is None or mb is None:
                return FastPathPlan(
                    False, "CNOT before Hadamard or on an unmapped qubit"
                )
            masks[inst.qubits[1]] = mb ^ ma
            continue
        if name == "rz":
            mask = masks.get(inst.qubits[0])
            if mask is None:
                return FastPathPlan(
                    False, "RZ before Hadamard or on an unmapped qubit"
                )
            if mask == 0:
                return FastPathPlan(False, "RZ on a cancelled parity line")
            slots = [s for s in range(K) if (mask >> s) & 1]
            lv = level_of[slots[0]]
            if any(level_of[s] != lv for s in slots):
                return FastPathPlan(False, "RZ mask spans mixer levels")
            if lv >= p_levels:
                return FastPathPlan(False, "RZ after the final mixer")
            key = (mask, inst.params[0])
            if pending[lv][key] <= 0:
                return FastPathPlan(
                    False,
                    f"unexpected phase term (mask {mask:#x}, "
                    f"angle {inst.params[0]!r}) in level {lv}",
                )
            pending[lv][key] -= 1
            for s in slots:
                touches[lv][s] -= 1
            continue
        if name == "rx":
            phys = inst.qubits[0]
            mask = masks.get(phys)
            if mask is None:
                return FastPathPlan(
                    False, "RX before Hadamard or on an unmapped qubit"
                )
            if mask == 0 or mask & (mask - 1):
                return FastPathPlan(False, "mixer on an unrestored parity line")
            s = mask.bit_length() - 1
            if any(
                q != phys and (m >> s) & 1 for q, m in masks.items()
            ):
                return FastPathPlan(
                    False, f"mixer on slot {s} while another wire carries it"
                )
            lv = level_of[s]
            if lv >= p_levels:
                return FastPathPlan(False, "RX after the final mixer")
            if inst.params[0] != program.mixer_angle(lv):
                return FastPathPlan(
                    False, f"mixer angle mismatch in level {lv}"
                )
            if touches[lv][s] > 0:
                return FastPathPlan(
                    False,
                    f"mixer on parity slot {s} before its level-{lv} "
                    f"phase terms completed",
                )
            level_of[s] = lv + 1
            continue
        return FastPathPlan(
            False, f"gate {name!r} outside the parity fast-path gate set"
        )

    if len(h_seen) != K:
        return FastPathPlan(False, "incomplete Hadamard prefix")
    if any(lv != p_levels for lv in level_of):
        return FastPathPlan(False, "circuit ended before the final mixer")
    if any(
        v > 0 for lv in range(p_levels) for v in pending[lv].values()
    ):
        return FastPathPlan(False, "phase terms missing from the circuit")
    final: Dict[int, int] = {}
    for phys, mask in masks.items():
        if mask == 0 or mask & (mask - 1):
            return FastPathPlan(
                False, "parity line not restored to a single slot"
            )
        s = mask.bit_length() - 1
        if s in final:
            return FastPathPlan(False, f"slot {s} carried by two wires")
        final[s] = phys
    recorded = {int(s): int(p) for s, p in compiled.final_mapping.items()}
    if final != recorded:
        return FastPathPlan(False, "final mapping mismatch")
    return _measure_binding(final, reads, "parity slot")


# ----------------------------------------------------------------------
# noisy logical-frame trajectories
# ----------------------------------------------------------------------
def logical_trajectory(
    compiled,
    noise: NoiseModel,
    rng: np.random.Generator,
    diagonal: Optional[CostDiagonal] = None,
    durations=None,
) -> Tuple[np.ndarray, int]:
    """One noisy Pauli trajectory evolved in the ``2^n`` logical frame.

    Replays the physical instruction stream of ``compiled.circuit`` —
    SWAPs become ownership bookkeeping, CPHASE/RZ become accumulated
    diagonal phases (flushed in one ``exp`` when a non-diagonal operation
    arrives), H/RX become axis-wise 2x2 multiplies — while consuming
    random draws in **exactly** the order of
    :meth:`~repro.sim.noise.NoisySimulator.run_trajectory`, so the same
    generator realises the same noise on both paths.  Pauli noise on
    unmapped physical qubits cannot reach decoded logical bits; X/Y there
    toggle a classical dirt bit, Z is a global phase.

    Requires a circuit that :func:`fastpath_plan` accepts.

    Returns:
        ``(state, dirt_mask)`` — the flat logical statevector and the
        basis-state content of the unmapped physical qubits (bit ``p``
        set when physical qubit ``p`` was flipped to ``|1>`` by noise),
        enough to reconstruct the full physical distribution.
    """
    circuit = compiled.circuit
    program = compiled.program
    n = program.num_qubits
    n_phys = circuit.num_qubits
    diag = diagonal if diagonal is not None else cost_diagonal(program)
    track_time = noise.t2_ns is not None
    if durations is None and track_time:
        from ..circuits.timing import DurationModel

        durations = DurationModel()

    owner: Dict[int, int] = {
        int(p): int(q) for q, p in compiled.initial_mapping.items()
    }
    dirt: Dict[int, int] = {}
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    acc: Optional[np.ndarray] = None  # pending diagonal phase angles

    def flush() -> None:
        nonlocal state, acc
        if acc is not None:
            state = state * np.exp(-1j * acc)
            acc = None

    def add_diag(coeff: float, vector: np.ndarray) -> None:
        nonlocal acc
        if acc is None:
            acc = coeff * vector
        else:
            acc += coeff * vector

    def apply_pauli(pauli: str, phys: int) -> None:
        nonlocal state
        q = owner.get(phys)
        if q is None:
            # Unreachable by any decoded logical bit: X/Y flip the dirt
            # bit, Z is a global phase on a basis state.
            if pauli in ("x", "y"):
                dirt[phys] = dirt.get(phys, 0) ^ 1
            return
        if pauli == "z":
            state = state * diag.sign(q)  # diagonal — no flush needed
            return
        flush()
        matrix = _PAULI_X if pauli == "x" else _PAULI_Y
        state = _apply_single(state, matrix, q)

    clocks = [0.0] * n_phys if track_time else None

    def dephase(phys: int, idle_ns: float) -> None:
        if idle_ns <= 0.0:
            return
        p_flip = 0.5 * (1.0 - np.exp(-idle_ns / noise.t2_ns))
        if rng.random() < p_flip:
            apply_pauli("z", phys)

    for inst in circuit:
        if inst.is_directive or inst.is_measurement:
            if track_time and inst.is_directive and inst.qubits:
                sync = max(clocks[q] for q in inst.qubits)
                for q in inst.qubits:
                    clocks[q] = sync
            continue
        if track_time:
            start = max(clocks[q] for q in inst.qubits)
            for q in inst.qubits:
                dephase(q, start - clocks[q])
            duration = durations.duration(inst)
            for q in inst.qubits:
                clocks[q] = start + duration
        name = inst.name
        if name == "swap":
            pa, pb = inst.qubits
            oa, ob = owner.pop(pa, None), owner.pop(pb, None)
            da, db = dirt.pop(pa, 0), dirt.pop(pb, 0)
            if ob is not None:
                owner[pa] = ob
            elif db:
                dirt[pa] = db
            if oa is not None:
                owner[pb] = oa
            elif da:
                dirt[pb] = da
        elif name == "cphase":
            qa, qb = owner[inst.qubits[0]], owner[inst.qubits[1]]
            add_diag(0.5 * inst.params[0], diag.szz(qa, qb))
        elif name == "rz":
            add_diag(0.5 * inst.params[0], diag.sign(owner[inst.qubits[0]]))
        elif name == "h":
            flush()
            state = _apply_single(state, _HADAMARD, owner[inst.qubits[0]])
        elif name == "rx":
            flush()
            state = _apply_single(
                state, _rx_matrix(inst.params[0]), owner[inst.qubits[0]]
            )
        else:
            raise ValueError(
                f"gate {name!r} outside the fast-path gate set; run "
                f"fastpath_plan() before logical_trajectory()"
            )
        # Noise draws, in run_trajectory's exact order.
        if inst.is_two_qubit:
            p = noise.two_qubit_prob(*inst.qubits)
            if p > 0.0 and rng.random() < p:
                pauli_a, pauli_b = _TWO_QUBIT_PAULIS[int(rng.integers(15))]
                if pauli_a != "i":
                    apply_pauli(pauli_a, inst.qubits[0])
                if pauli_b != "i":
                    apply_pauli(pauli_b, inst.qubits[1])
        else:
            q = inst.qubits[0]
            p = noise.single_qubit_depol.get(q, 0.0)
            if p > 0.0 and rng.random() < p:
                apply_pauli(_ONE_QUBIT_PAULIS[int(rng.integers(3))], q)
    if track_time:
        end = max(clocks) if clocks else 0.0
        for q in range(n_phys):
            dephase(q, end - clocks[q])
    flush()
    dirt_mask = 0
    for phys, bit in dirt.items():
        if bit:
            dirt_mask |= 1 << phys
    return state, dirt_mask


# ----------------------------------------------------------------------
# index plumbing between the logical and physical frames
# ----------------------------------------------------------------------
def decode_indices(
    indices: np.ndarray, final_mapping: Mapping[int, int], num_logical: int
) -> np.ndarray:
    """Physical little-endian basis indices → logical indices (vectorised
    form of :func:`repro.qaoa.evaluation.decode_physical_counts`)."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros_like(indices)
    for q in range(num_logical):
        out |= ((indices >> final_mapping[q]) & 1) << q
    return out


def _physical_index_map(
    final_mapping: Mapping[int, int], num_logical: int
) -> np.ndarray:
    """Logical basis index → physical basis index under a final mapping."""
    logical = np.arange(1 << num_logical, dtype=np.int64)
    phys = np.zeros_like(logical)
    for q in range(num_logical):
        phys |= ((logical >> q) & 1) << final_mapping[q]
    return phys


#: ``Generator.choice``'s tolerance on the sum of its probabilities.
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def _sample_support(
    rng: np.random.Generator,
    weights: np.ndarray,
    positions: np.ndarray,
    num_qubits: int,
    size: int,
) -> np.ndarray:
    """Sample a distribution held sparsely in a ``2^num_qubits``
    register, drawing exactly as ``Generator.choice`` draws over the
    dense register.

    ``weights`` sit at the increasing register indices ``positions``.
    Returns ``size`` indices ``k`` into ``weights`` such that
    ``positions[k]`` equals, draw for draw,
    ``rng.choice(dense.size, size, p=dense / dense.sum())`` for the
    dense vector holding ``weights``, and leaves the generator in the
    same state.  ``choice`` takes ``cumsum(p)``, scales it by its last
    entry and runs ``searchsorted(random(size), side="right")``.  A zero
    entry adds exactly 0.0 to that sequential sum, so the compact cdf
    holds the dense cdf's values at ``positions``, and a right-sided
    search always lands on an increasing step, which both share.  The
    normalising sum still runs over the dense register: numpy's pairwise
    sum rounds differently on the compacted array.
    """
    dense = np.zeros(1 << num_qubits)
    dense[positions] = weights
    p = weights / dense.sum()
    # choice's own checks: non-negative, finite, summing to 1
    if not ((p >= 0.0).all() and abs(p.sum() - 1.0) <= _CHOICE_ATOL):
        raise ValueError(
            "probabilities must be non-negative, finite and sum to 1"
        )
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


# ----------------------------------------------------------------------
# parity-frame evaluation
# ----------------------------------------------------------------------
def _evaluate_parity(
    compiled,
    *,
    noise,
    shots,
    trajectories,
    rng,
    mode,
    durations,
    use_fastpath,
):
    """Evaluate a parity-encoded compiled circuit (``encoding="parity"``).

    The fast ideal path evolves the ``2^K`` parity register directly —
    one elementwise ``exp(-i gamma D(y))`` multiply per level against
    :meth:`~repro.compiler.parity.ParityLayout.phase_vector` plus
    axis-wise RX mixers — admitted only after :func:`parity_plan` proves
    the physical stream implements exactly that product.  Measured slot
    bits decode to logical assignments by XOR along spanning-tree paths
    before the cut table is consulted, so ``r0``/``rh`` are directly
    comparable with direct-encoding evaluations of the same problem.
    The noisy side is always gate-by-gate (the dense parity constraint
    gadgets have no cheap logical-frame replay), with readout applied
    analytically in ``exact`` mode on the slot homes only — flips on
    unmapped physical qubits cannot reach any decoded bit.
    """
    from ..compiler.parity import ParityLayout, parity_decode_indices

    program = compiled.program
    n_phys = compiled.circuit.num_qubits
    layout = ParityLayout.from_program(program)
    K = layout.num_slots
    info = getattr(compiled, "encoding_info", None) or {}
    strength = float(info.get("constraint_strength", 2.0))
    mapping = {int(s): int(p) for s, p in compiled.final_mapping.items()}
    timings: Dict[str, float] = {}

    tick = time.perf_counter()
    diag = cost_diagonal(program)
    max_cut = diag.max_value
    if max_cut == 0.0:
        raise ValueError("problem has zero maximum cut")
    # cut value of every parity-basis index, through the decode gauge
    slot_cut = diag.cut[
        parity_decode_indices(np.arange(1 << K, dtype=np.int64), layout)
    ]
    timings["diagonal"] = time.perf_counter() - tick

    if use_fastpath:
        plan = parity_plan(compiled)
    else:
        plan = FastPathPlan(False, "fast path disabled by caller")
    fast = plan.ok

    # -- ideal side ----------------------------------------------------
    tick = time.perf_counter()
    if fast:
        phase = layout.phase_vector(strength)
        state = np.full(1 << K, 1.0 / np.sqrt(1 << K), dtype=complex)
        for level in range(program.p):
            gamma = program.levels[level].gamma
            state = state * np.exp(-1j * gamma * phase)
            mixer = _rx_matrix(program.mixer_angle(level))
            for s in range(K):
                state = _apply_single(state, mixer, s)
        probs_slots = np.abs(state) ** 2
        if mode == "exact":
            r0 = float(np.dot(probs_slots, slot_cut)) / max_cut
        else:
            phys_map = _physical_index_map(mapping, K)
            order = np.argsort(phys_map)
            picks = _sample_support(
                rng, probs_slots[order], phys_map[order], n_phys, shots
            )
            r0 = float(slot_cut[order[picks]].mean()) / max_cut
    else:
        from .statevector import StatevectorSimulator

        sim = StatevectorSimulator(max_qubits=max(n_phys, 24))
        if mode == "exact":
            probs_phys = sim.probabilities(compiled.circuit)
            phys_cut = slot_cut[
                decode_indices(np.arange(1 << n_phys), mapping, K)
            ]
            r0 = float(np.dot(probs_phys, phys_cut)) / max_cut
        else:
            sampled = sim.sample_indices(compiled.circuit, shots, rng)
            r0 = float(
                slot_cut[decode_indices(sampled, mapping, K)].mean()
            ) / max_cut
    timings["ideal"] = time.perf_counter() - tick

    # -- noisy side ----------------------------------------------------
    rh = None
    arg = None
    n_traj = trajectories
    if noise is not None:
        from .noise import NoisySimulator

        tick = time.perf_counter()
        nsim = NoisySimulator(
            noise, trajectories=trajectories, durations=durations
        )
        if mode == "exact":
            readout = slot_cut[
                decode_indices(np.arange(1 << n_phys), mapping, K)
            ].astype(float)
            indices = np.arange(1 << n_phys, dtype=np.int64)
            for s in range(K):
                p = noise.readout_flip.get(mapping[s], 0.0)
                if p <= 0.0:
                    continue
                readout = (1.0 - p) * readout + p * readout[
                    indices ^ (1 << mapping[s])
                ]
            total = 0.0
            for _ in range(n_traj):
                state = nsim.run_trajectory(compiled.circuit, rng)
                probs = np.abs(state) ** 2
                probs /= probs.sum()
                total += float(np.dot(probs, readout))
            rh = total / n_traj / max_cut
        else:
            n_traj = min(trajectories, shots)
            indices = nsim.sample_indices(compiled.circuit, shots, rng)
            rh = float(
                slot_cut[decode_indices(indices, mapping, K)].mean()
            ) / max_cut
        if r0 == 0.0:
            raise ValueError("noiseless approximation ratio r0 is zero")
        arg = 100.0 * (r0 - rh) / r0
        timings["noisy"] = time.perf_counter() - tick

    return EvalOutcome(
        r0=r0,
        rh=rh,
        arg=arg,
        shots=shots if mode == "sampled" else 0,
        trajectories=n_traj if noise is not None else 0,
        mode=mode,
        fastpath=fast,
        reason=plan.reason,
        timings=timings,
    )


# ----------------------------------------------------------------------
# the evaluation driver
# ----------------------------------------------------------------------
@dataclasses.dataclass
class EvalOutcome:
    """Result of one :func:`evaluate_fast` call.

    Attributes:
        r0: Noiseless approximation ratio of the compiled circuit.
        rh: Noisy ("hardware") approximation ratio; ``None`` when no
            noise model was supplied.
        arg: ``100 * (r0 - rh) / r0``; ``None`` without noise.
        shots: Samples per side (``sampled`` mode; 0 in ``exact`` mode).
        trajectories: Noise realisations averaged for ``rh``.
        mode: ``"sampled"`` (paper procedure, finite shots) or
            ``"exact"`` (expectation values, no sampling noise).
        fastpath: Whether the fast path was taken (else gate-by-gate
            fallback simulation produced the numbers).
        reason: Why the fast path was refused (``None`` when taken).
        timings: Per-stage wall seconds (``diagonal``/``ideal``/``noisy``).
    """

    r0: float
    rh: Optional[float]
    arg: Optional[float]
    shots: int
    trajectories: int
    mode: str
    fastpath: bool
    reason: Optional[str]
    timings: Dict[str, float]


def evaluate_fast(
    compiled,
    *,
    noise: Optional[NoiseModel] = None,
    shots: int = 4096,
    trajectories: int = 32,
    rng: Optional[np.random.Generator] = None,
    mode: str = "sampled",
    durations=None,
    use_fastpath: bool = True,
) -> EvalOutcome:
    """Evaluate ``r0``/``rh``/ARG of a compiled QAOA circuit in one pass.

    The cost diagonal is interned once per problem and reused for the
    ideal expectation, every noisy trajectory, and the analytic readout
    channel.  In ``sampled`` mode the random-draw order matches the
    gate-by-gate simulators exactly (ideal sampling, then per-trajectory
    noise draws and sampling, then readout flips), so a seeded generator
    reproduces the legacy pipeline's stream whether or not the fast path
    is taken.  In ``exact`` mode no sampling happens: ``r0`` is the exact
    expectation and ``rh`` averages exact per-trajectory expectations
    under the same noise realisations, with readout applied analytically
    to the diagonal.

    Args:
        compiled: A compiled result exposing ``circuit``, ``program``,
            ``initial_mapping``, ``final_mapping`` (e.g.
            :class:`repro.compiler.flow.CompiledQAOA`).
        noise: Noise model for the ``rh`` side; ``None`` evaluates only
            ``r0``.
        shots: Samples per side in ``sampled`` mode.
        trajectories: Noise realisations for ``rh``.
        rng: Random generator (shared across both sides, like the legacy
            pipeline).
        mode: ``"sampled"`` or ``"exact"``.
        durations: Gate-duration model for T2 timing (defaults to
            :class:`~repro.circuits.timing.DurationModel` when needed).
        use_fastpath: Force the gate-by-gate fallback when ``False``
            (benchmark baselines).
    """
    if mode not in ("sampled", "exact"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    if mode == "sampled" and shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    rng = rng if rng is not None else np.random.default_rng()
    encoding = getattr(compiled, "encoding", "direct")
    if encoding == "parity":
        return _evaluate_parity(
            compiled,
            noise=noise,
            shots=shots,
            trajectories=trajectories,
            rng=rng,
            mode=mode,
            durations=durations,
            use_fastpath=use_fastpath,
        )
    if encoding != "direct":
        raise ValueError(f"unknown circuit encoding {encoding!r}")
    program = compiled.program
    n = program.num_qubits
    n_phys = compiled.circuit.num_qubits
    mapping = {int(q): int(p) for q, p in compiled.final_mapping.items()}
    timings: Dict[str, float] = {}

    tick = time.perf_counter()
    diag = cost_diagonal(program)
    cut = diag.cut
    max_cut = diag.max_value
    if max_cut == 0.0:
        raise ValueError("problem has zero maximum cut")
    timings["diagonal"] = time.perf_counter() - tick

    if use_fastpath:
        plan = fastpath_plan(compiled)
    else:
        plan = FastPathPlan(False, "fast path disabled by caller")
    fast = plan.ok
    if fast and mode == "sampled":
        # Logical basis states in the order of their physical indices —
        # the order Generator.choice walks the physical register in.
        phys_map = _physical_index_map(mapping, n)
        order = np.argsort(phys_map)
        positions = phys_map[order]

    # -- ideal side ----------------------------------------------------
    tick = time.perf_counter()
    if fast:
        probs_logical = np.abs(qaoa_statevector(program, diag)) ** 2
        if mode == "exact":
            r0 = float(np.dot(probs_logical, cut)) / max_cut
        else:
            picks = _sample_support(
                rng, probs_logical[order], positions, n_phys, shots
            )
            r0 = float(cut[order[picks]].mean()) / max_cut
    else:
        from .statevector import StatevectorSimulator

        sim = StatevectorSimulator(max_qubits=max(n_phys, 24))
        if mode == "exact":
            probs_phys = sim.probabilities(compiled.circuit)
            phys_cut = cut[
                decode_indices(np.arange(1 << n_phys), mapping, n)
            ]
            r0 = float(np.dot(probs_phys, phys_cut)) / max_cut
        else:
            sampled = sim.sample_indices(compiled.circuit, shots, rng)
            r0 = float(cut[decode_indices(sampled, mapping, n)].mean()) / max_cut
    timings["ideal"] = time.perf_counter() - tick

    # -- noisy side ----------------------------------------------------
    rh = None
    arg = None
    n_traj = trajectories
    if noise is not None:
        tick = time.perf_counter()
        if mode == "exact":
            readout = diag.readout_adjusted(
                {q: noise.readout_flip.get(mapping[q], 0.0) for q in range(n)}
            )
            total = 0.0
            if fast:
                for _ in range(n_traj):
                    state, _ = logical_trajectory(
                        compiled, noise, rng, diag, durations
                    )
                    probs = np.abs(state) ** 2
                    probs /= probs.sum()
                    total += float(np.dot(probs, readout))
            else:
                from .noise import NoisySimulator

                nsim = NoisySimulator(
                    noise, trajectories=n_traj, durations=durations
                )
                phys_readout = readout[
                    decode_indices(np.arange(1 << n_phys), mapping, n)
                ]
                for _ in range(n_traj):
                    state = nsim.run_trajectory(compiled.circuit, rng)
                    probs = np.abs(state) ** 2
                    probs /= probs.sum()
                    total += float(np.dot(probs, phys_readout))
            rh = total / n_traj / max_cut
        else:
            n_traj = min(trajectories, shots)
            if fast:
                base, extra = divmod(shots, n_traj)
                chunks = []
                for t in range(n_traj):
                    state, dirt_mask = logical_trajectory(
                        compiled, noise, rng, diag, durations
                    )
                    # Dirt only sets bits of unmapped qubits, so it moves
                    # every position alike and keeps their order.
                    picks = _sample_support(
                        rng,
                        np.abs(state[order]) ** 2,
                        positions | dirt_mask,
                        n_phys,
                        base + (1 if t < extra else 0),
                    )
                    chunks.append(order[picks])
                logical = np.concatenate(chunks)
                # Readout flips in NoisySimulator's exact draw order, in
                # the logical frame: a flip on an unmapped qubit draws
                # its randoms but reaches no decoded bit.
                owner = {p: q for q, p in mapping.items()}
                for phys in range(n_phys):
                    p = noise.readout_flip.get(phys, 0.0)
                    if p <= 0.0:
                        continue
                    flips = rng.random(len(logical)) < p
                    if phys in owner:
                        logical[flips] ^= 1 << owner[phys]
            else:
                from .noise import NoisySimulator

                nsim = NoisySimulator(
                    noise, trajectories=trajectories, durations=durations
                )
                indices = nsim.sample_indices(compiled.circuit, shots, rng)
                logical = decode_indices(indices, mapping, n)
            rh = float(cut[logical].mean()) / max_cut
        if r0 == 0.0:
            raise ValueError("noiseless approximation ratio r0 is zero")
        arg = 100.0 * (r0 - rh) / r0
        timings["noisy"] = time.perf_counter() - tick

    return EvalOutcome(
        r0=r0,
        rh=rh,
        arg=arg,
        shots=shots if mode == "sampled" else 0,
        trajectories=n_traj if noise is not None else 0,
        mode=mode,
        fastpath=fast,
        reason=plan.reason,
        timings=timings,
    )
