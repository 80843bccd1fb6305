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
  axis-wise 2x2 multiplies, no per-gate matrices; the angle-batched
  kernel applies it as one ``matmul`` per group of up to five adjacent
  qubits (``RX^(x)k`` as a ``2^k x 2^k`` matrix) instead;
* SWAPs inserted by routing are pure qubit relocations — in the *logical*
  frame they are bookkeeping, not linear algebra, so the state never
  leaves the ``2^n`` logical subspace (n = problem qubits, not device
  qubits).

The cost diagonal is computed once per problem and interned in a bounded
registry keyed by content hash (mirroring
:func:`repro.hardware.target.intern_target`), so parameter sweeps and
batches over the same instance share one table.

Compiled circuits are only admitted to the fast path after
:func:`fastpath_plan` proves ARG-equivalence.  One phase-polynomial walk
serves both encodings: each wire carries a GF(2) mask over the register
(``n`` logical qubits, or Lechner's ``K`` parity slots), CNOTs XOR masks
and SWAPs move them, and every CPHASE/RZ must consume a pending phase
term of its level while every mixer finds its wire back on a single
entry, ending in the recorded ``final_mapping``.  A direct QAOA circuit
is the case whose masks never leave one qubit.  Anything else falls back
to the gate-by-gate simulators, so the fast path can never silently
change semantics.

:func:`evaluate_fast` is the one evaluation body for both encodings: the
encoding describes the register, its cut table and its noiseless kernel
(:func:`_register`), and the verifier, the sampling, the gate-level
fallback, the readout channel, the noisy side and ARG are written once.

For noisy evaluation, :func:`logical_trajectory` runs all of an
evaluation's trajectories in the register frame while consuming
**exactly** the random draws of as many consecutive calls to
:meth:`repro.sim.noise.NoisySimulator.run_trajectory` — same dephasing
draws, same Pauli injections at the same points — so a shared generator
produces the identical noise realisations on both paths.  No draw
depends on the state, so one walk of the circuit builds a schedule, the
draws come first, and one stack of rows evolves a shared noiseless row
that each trajectory leaves only at its first error on a mapped wire.
The walk keeps each mapped wire's GF(2) frame, so a Pauli there is a
sign vector or an index permutation of the register.  Pauli noise
landing on an unmapped physical qubit cannot reach any decoded bit (no
gate couples mapped and unmapped qubits; SWAPs only relocate), so it
degrades to a classical "dirt bit" tracked per physical qubit.

Sampled evaluation draws in the register frame too: the register's
support, ordered by physical index, is sampled exactly as
``Generator.choice`` samples the dense physical register, and readout
flips land on register bits, so the numbers equal the gate-level path's
without ever building a physical-register distribution beyond its
normalising sum.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import time
from collections import Counter
from typing import Callable, Dict, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .noise import _ONE_QUBIT_PAULIS, _TWO_QUBIT_PAULIS, NoiseModel, NoisySimulator
from .statevector import StatevectorSimulator
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
    "qaoa_statevector",
    "qaoa_statevector_batch",
]

#: Matches the brute-force ceiling of ``MaxCutProblem.cut_values``.
_MAX_DIAGONAL_QUBITS = 26

_FINGERPRINT_VERSION = 1

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the cost diagonal
# ----------------------------------------------------------------------
class _SignTable(dict):
    """Z-parity sign vectors over a ``2^size`` register, keyed by mask.

    ``table[mask][z] = (-1) ** popcount(z & mask)``: the eigenvalues of
    the Pauli-Z product over the entries in ``mask``, which is the
    elementwise form of a Z, ZZ or multi-body Z rotation.  Each vector is
    computed on first use and served read-only.
    """

    def __init__(self, size: int) -> None:
        super().__init__()
        self.size = size

    def __missing__(self, mask: int) -> np.ndarray:
        indices = np.arange(1 << self.size, dtype=np.int64)
        parity = np.zeros_like(indices)
        for q in _entries(mask):
            parity ^= indices >> q
        vector = 1.0 - 2.0 * (parity & 1)
        vector.flags.writeable = False
        self[mask] = vector
        return vector


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
    * :attr:`signs` — a mask-keyed sign table: ``signs[1 << q]``
      is ``s_q(z)`` and ``signs[1 << a | 1 << b]`` is ``s_a s_b``, the
      elementwise form of Z and ZZ rotations.
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
        self.signs = _SignTable(num_qubits)
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

    @property
    def phase(self) -> np.ndarray:
        """``D(z)`` such that one cost block is exactly
        ``exp(-i * gamma * D(z))``, global phase included."""
        if self._phase is None:
            values = self.cut - self.total_weight / 2.0
            for q, h in self.linear:
                values = values + h * self.signs[1 << q]
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
        return _readout_adjusted(self.cut, flip_probs)

    def __repr__(self) -> str:
        return (
            f"CostDiagonal(num_qubits={self.num_qubits}, "
            f"num_edges={len(self.edges)}, "
            f"fingerprint={self.fingerprint[:12]})"
        )


def _readout_adjusted(
    values: np.ndarray, flip_probs: Mapping[int, float]
) -> np.ndarray:
    """``values`` over a register's basis after independent classical
    flips of its bits (``flip_probs`` maps a bit to its probability)."""
    values = np.array(values, dtype=float)
    indices = np.arange(values.size, dtype=np.int64)
    for q in sorted(flip_probs):
        p = float(flip_probs[q])
        if p <= 0.0:
            continue
        values = (1.0 - p) * values + p * values[indices ^ (1 << q)]
    return values


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
    """Apply a 2x2 matrix to one qubit of a flat little-endian state, or
    of every row of a C-contiguous ``(rows, 2^n)`` stack of states.

    Views the state as ``(higher bits, the qubit's bit, lower bits)``
    (a stack's row index rides along with the higher bits): the two
    halves are strided views, so no axis is moved or copied, and each
    output amplitude is the same pair of products as in the tensor-axis
    form, whichever row it sits in.
    """
    view = state.reshape(-1, 2, 1 << qubit)
    lo, hi = view[:, 0], view[:, 1]
    out = np.empty_like(view)
    out[:, 0] = matrix[0, 0] * lo + matrix[0, 1] * hi
    out[:, 1] = matrix[1, 0] * lo + matrix[1, 1] * hi
    return out.reshape(state.shape)


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
    return _evolve_levels(program, diag.phase, n)


def _evolve_levels(program, phase: np.ndarray, num_qubits: int) -> np.ndarray:
    """The level loop of :func:`qaoa_statevector` over any register whose
    cost block is ``exp(-i * gamma * phase)`` (the parity encoding's
    ``K``-slot register runs it over
    :meth:`~repro.compiler.parity.ParityLayout.phase_vector`)."""
    dim = 1 << num_qubits
    state = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    for level in range(program.p):
        gamma = program.levels[level].gamma
        state = state * np.exp(-1j * gamma * phase)
        mixer = _rx_matrix(program.mixer_angle(level))
        for q in range(num_qubits):
            state = _apply_single(state, mixer, q)
    return state


#: Most adjacent qubits the batched mixer applies as one matrix.
_MIXER_GROUP = 5


@functools.lru_cache(maxsize=None)
def _mixer_groups(num_qubits: int) -> Tuple[Tuple[int, int], ...]:
    """``(lowest qubit, size)`` of each mixer group: ``ceil(n / 5)`` runs
    of adjacent qubits whose sizes differ by at most one."""
    count = -(-num_qubits // _MIXER_GROUP)
    groups, low = [], 0
    for g in range(count):
        size = num_qubits // count + int(g < num_qubits % count)
        groups.append((low, size))
        low += size
    return tuple(groups)


@functools.lru_cache(maxsize=None)
def _bit_distance(size: int) -> np.ndarray:
    """``popcount(i ^ j)`` for every pair of ``size``-bit indices."""
    index = np.arange(1 << size)
    xor = index[:, None] ^ index[None, :]
    distance = np.zeros_like(xor)
    for bit in range(size):
        distance += (xor >> bit) & 1
    distance.flags.writeable = False
    return distance


def _rx_power(cos: np.ndarray, sin: np.ndarray, size: int) -> np.ndarray:
    """``RX(2 beta)`` on ``size`` qubits at once, one ``(2^size, 2^size)``
    matrix per row of ``cos``/``sin`` (of each row's ``beta``).

    Entry ``(i, j)`` is ``cos^(size - d) * (-i sin)^d`` with
    ``d = popcount(i ^ j)``: a factor ``cos`` per qubit whose bit agrees
    and ``-i sin`` per qubit whose bit differs.  The matrix is symmetric.
    """
    factors = np.empty((cos.size, 2, size + 1), dtype=complex)
    factors[:, :, 0] = 1.0
    factors[:, 0, 1:] = cos[:, None]
    factors[:, 1, 1:] = -1j * sin[:, None]
    powers = np.multiply.accumulate(factors, axis=2)  # cos^d, (-i sin)^d
    terms = powers[:, 0, ::-1] * powers[:, 1]
    # take, not terms[:, table]: the latter lays the rows out strided
    # when there are several, and matmul then skips BLAS for them but
    # not for a lone row, so a row's bits would depend on its batch.
    return np.take(terms, _bit_distance(size), axis=1)


def _apply_mixer_batch(
    states: np.ndarray, betas: np.ndarray, num_qubits: int
) -> np.ndarray:
    """Apply each row's ``RX(2 beta)`` mixer to every qubit of a
    C-contiguous ``(rows, 2^n)`` stack.

    Each group of :func:`_mixer_groups` is one ``matmul`` of the rows'
    group matrices (:func:`_rx_power`) along the group's bits, viewed as
    the middle axis of ``(higher bits, group bits, lower bits)``.  The
    lowest group is the last axis, so it runs as ``state @ matrix``
    (the matrix is symmetric).  ``matmul`` issues one BLAS call per row,
    or per row and higher-bit index, of the same shape whatever the
    number of rows, so a row's bits do not depend on its batch.
    """
    rows = states.shape[0]
    groups = _mixer_groups(num_qubits)
    cos, sin = np.cos(betas), np.sin(betas)
    sizes = {size for _, size in groups}
    matrices = {size: _rx_power(cos, sin, size) for size in sizes}
    for low, size in groups:
        matrix = matrices[size]
        if low == 0:
            states = np.matmul(states.reshape(rows, -1, 1 << size), matrix)
        else:
            states = np.matmul(
                matrix[:, None], states.reshape(rows, -1, 1 << size, 1 << low)
            )
    return states.reshape(rows, -1)


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
    shared cost diagonal per level, then the grouped Kronecker mixer of
    :func:`_apply_mixer_batch` — so a 32-point angle grid costs one numpy
    pass instead of 32 circuit evaluations.  Returns a C-contiguous
    ``(n_angles, 2^n)`` little-endian array whose row ``k`` equals
    ``qaoa_statevector(problem.to_program(row_k))`` to machine precision
    (about 1e-15 relative, not bit for bit: the mixer sums ``2^k``
    products per amplitude where the gate-exact kernel sums two per
    qubit), and whose rows' bits do not depend on how many rows ran
    together.

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
    n_angles, levels = gamma_rows.shape
    dim = 1 << diag.num_qubits
    states = np.full((n_angles, dim), 1.0 / np.sqrt(dim), dtype=complex)
    groups = diag.phase_groups
    for level in range(levels):
        coeff = -1j * gamma_rows[:, level]
        if groups is None:
            states *= np.exp(np.multiply.outer(coeff, diag.phase))
        else:
            # Degenerate diagonal: exponentiate one column per distinct
            # phase value and gather (in C order, like the stack),
            # instead of a dense 2^n exp.
            values, inverse = groups
            states *= np.take(np.exp(np.multiply.outer(coeff, values)), inverse, axis=1)
        # mixer_angle = 2 * beta, so the RX half-angle is beta itself
        states = _apply_mixer_batch(states, beta_rows[:, level], diag.num_qubits)
    return states


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
# the register a circuit's measured bits address
# ----------------------------------------------------------------------
class _Register(NamedTuple):
    """What a circuit's encoding decides (see :func:`_register`)."""

    size: int
    entry: str
    terms: Callable[[int], Counter]
    signs: Callable[[], _SignTable]
    cut: Callable[[], np.ndarray]
    kernel: Callable[[], np.ndarray]


def _register(compiled, diag: Optional[CostDiagonal]) -> _Register:
    """The register ``compiled``'s measured bits address: the one reader
    of ``compiled.encoding``.

    ``size`` counts its entries (``n`` logical qubits, or ``K`` parity
    slots), and ``entry`` names one in refusal reasons.  ``terms(level)``
    is the level's multiset of phase terms ``(mask, angle)``, each the
    rotation ``exp(-i angle/2 Z^mask)`` over the entries in ``mask``: a
    direct CPHASE on ``a, b`` is the term of ``1 << a | 1 << b`` and an
    RZ on ``q`` that of ``1 << q``; a parity field term is its slot's and
    a constraint term its cycle's.  The tables are built when called:
    ``signs()`` is the register's sign table, ``cut()`` the cut value of
    each basis index and ``kernel()`` the exact noiseless state.  The
    direct tables live on the interned diagonal ``diag``, so evaluations
    of one problem share them; parity slot bits decode to a logical
    assignment by XOR along spanning-tree paths before the cut table is
    read, so ``r0``/``rh`` compare directly with direct evaluations.  A
    caller that reads only ``size``, ``entry`` and ``terms`` may pass
    ``None`` for ``diag``.
    """
    program = compiled.program
    encoding = getattr(compiled, "encoding", "direct")
    if encoding == "direct":

        def terms(level):
            out = Counter(
                (1 << a | 1 << b, angle)
                for a, b, angle in program.cphase_gates(level)
            )
            out.update((1 << q, angle) for q, angle in program.rz_gates(level))
            return out

        return _Register(
            program.num_qubits,
            "logical qubit",
            terms,
            lambda: diag.signs,
            lambda: diag.cut,
            lambda: qaoa_statevector(program, diag),
        )
    if encoding != "parity":
        raise ValueError(f"unknown circuit encoding {encoding!r}")
    from ..compiler.parity import (
        ParityLayout,
        parity_constraint_angle,
        parity_decode_indices,
        parity_field_angle,
    )

    layout = ParityLayout.from_program(program)
    info = getattr(compiled, "encoding_info", None) or {}
    strength = float(info.get("constraint_strength", 2.0))
    size = layout.num_slots
    cycles = [sum(1 << s for s in cycle) for cycle in layout.constraints]
    signs = _SignTable(size)

    def terms(level):
        gamma = program.levels[level].gamma
        out = Counter(
            (1 << s, parity_field_angle(gamma, w))
            for s, w in enumerate(layout.weights)
        )
        angle = parity_constraint_angle(gamma, strength)
        out.update((mask, angle) for mask in cycles)
        return out

    return _Register(
        size,
        "parity slot",
        terms,
        lambda: signs,
        lambda: diag.cut[
            parity_decode_indices(np.arange(1 << size, dtype=np.int64), layout)
        ],
        lambda: _evolve_levels(program, layout.phase_vector(strength), size),
    )


def _entries(mask: int) -> list:
    """The register entries in ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _single(mask: int) -> Optional[int]:
    """The entry of a single-entry ``mask``, else ``None``."""
    if mask & (mask - 1):
        return None
    return mask.bit_length() - 1


def _swap(tables, pa: int, pb: int) -> None:
    """Move what each of ``tables`` holds for wires ``pa`` and ``pb``."""
    for table in tables:
        a, b = table.pop(pa, None), table.pop(pb, None)
        if b is not None:
            table[pa] = b
        if a is not None:
            table[pb] = a


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
    """Prove a compiled circuit of either encoding equivalent to its
    program.

    A phase-polynomial walk: each wire carries a GF(2) mask over the
    register's entries (``n`` logical qubits, or ``K`` parity slots; see
    :func:`_register`), the entries whose parity is the wire's bit.  H on
    the wire holding entry ``e`` starts mask ``1 << e``, CNOT XORs the
    control's mask into the target's, and SWAP moves masks.  An RZ is
    then the phase term of its wire's mask and a CPHASE that of the XOR
    of its two wires' masks; each must consume a pending term of the
    encoding's per-level multiset, with every entry of the mask at that
    level.  A mixer RX needs a single-entry mask that no other wire
    shares, where an X or Z on the wire is one on the entry, with the
    entry's terms of the level drained.

    Physical schedulers interleave gates on disjoint qubits freely (they
    commute), so the only ordering the proof needs is per entry: any
    accepted order differs from the canonical ``H → level-0 terms → RX →
    level-1 terms → ... → measure`` only by transpositions of commuting
    operations, hence is unitary-equal.  The walk must end with
    single-entry masks equal to the recorded ``final_mapping``, and the
    last measure that writes ``c[final_mapping[e]]`` must have read entry
    ``e`` (a measure reads whatever its wire holds at that point), so
    every decoded bit is its own entry's outcome.  Anything else refuses
    the fast path and the caller falls back to gate-by-gate simulation.
    """
    try:
        register = _register(compiled, None)
    except ValueError as exc:
        return FastPathPlan(False, str(exc))
    program = compiled.program
    size, label, p_levels = register.size, register.entry, program.p

    initial = {int(e): int(p) for e, p in compiled.initial_mapping.items()}
    if sorted(initial) != list(range(size)):
        return FastPathPlan(
            False, f"initial mapping must cover every {label}"
        )
    if len(set(initial.values())) != size:
        return FastPathPlan(False, "initial mapping is not injective")
    # wire -> the entry awaiting its Hadamard there, and wire -> its mask
    # once that Hadamard ran
    fresh: Dict[int, int] = {p: e for e, p in initial.items()}
    masks: Dict[int, int] = {}
    # per entry: the wires whose mask holds it, and the mixer RXs
    # consumed so far == its current level
    carriers = [0] * size
    level_of = [0] * size
    # per level: pending (mask, angle) multisets and per-entry touch counts
    pending = [register.terms(lv) for lv in range(p_levels)]
    touches = []
    for terms in pending:
        touch = [0] * size
        for (mask, _), count in terms.items():
            for e in _entries(mask):
                touch[e] += count
        touches.append(touch)
    # c[p] <- the entry the last measure of wire p read (None for an
    # unmapped wire)
    reads: Dict[int, Optional[int]] = {}

    for inst in compiled.circuit:
        name, wires = inst.name, inst.qubits
        if name == "barrier":
            continue
        if name == "swap":
            _swap((fresh, masks), *wires)
            continue
        if name == "h":
            if wires[0] in masks:
                return FastPathPlan(False, "duplicate Hadamard")
            e = fresh.pop(wires[0], None)
            if e is None:
                return FastPathPlan(False, "H on an unmapped physical qubit")
            masks[wires[0]] = 1 << e
            carriers[e] = 1
            continue
        if name == "measure":
            mask = masks.get(wires[0])
            e = fresh.get(wires[0]) if mask is None else _single(mask)
            if mask is not None and e is None:
                return FastPathPlan(
                    False, "measure of a wire carrying several entries"
                )
            if e is not None and level_of[e] != p_levels:
                return FastPathPlan(
                    False, f"{label} {e} measured before its last mixer"
                )
            reads[wires[0]] = e
            continue
        if name not in ("cnot", "cphase", "rz", "rx"):
            return FastPathPlan(
                False, f"gate {name!r} outside the QAOA fast-path gate set"
            )
        held = list(map(masks.get, wires))
        if None in held:
            return FastPathPlan(
                False, f"{name.upper()} before Hadamard or on an unmapped qubit"
            )
        if name == "cnot":
            control, target = held
            for e in _entries(control):
                carriers[e] += -1 if (target >> e) & 1 else 1
            masks[wires[1]] = target ^ control
            continue
        if name == "rx":
            e = _single(held[0])
            if e is None:
                return FastPathPlan(
                    False, "mixer on a wire carrying several entries"
                )
            if carriers[e] > 1:
                return FastPathPlan(
                    False, f"mixer on {label} {e} while another wire carries it"
                )
            lv = level_of[e]
            if lv >= p_levels:
                return FastPathPlan(False, "RX after the final mixer")
            if inst.params[0] != program.mixer_angle(lv):
                return FastPathPlan(False, f"mixer angle mismatch in level {lv}")
            if touches[lv][e] > 0:
                return FastPathPlan(
                    False,
                    f"mixer on {label} {e} before its level-{lv} phase terms "
                    f"completed",
                )
            level_of[e] = lv + 1
            continue
        # an RZ's term is its wire's mask, a CPHASE's the XOR of two
        mask = held[0] ^ held[1] if name == "cphase" else held[0]
        entries = _entries(mask)
        lv = level_of[entries[0]]
        if lv >= p_levels:
            return FastPathPlan(False, f"{name.upper()} after the final mixer")
        key = (mask, inst.params[0])
        if pending[lv][key] <= 0:
            return FastPathPlan(
                False,
                f"unexpected {name.upper()} term (mask {mask:#x}, angle "
                f"{inst.params[0]!r}) in level {lv}",
            )
        pending[lv][key] -= 1
        touch = touches[lv]
        for e in entries:
            if level_of[e] != lv:
                return FastPathPlan(
                    False, f"{name.upper()} term spans mixer levels"
                )
            touch[e] -= 1

    if fresh:
        return FastPathPlan(False, "incomplete Hadamard prefix")
    if any(lv != p_levels for lv in level_of):
        return FastPathPlan(False, "circuit ended before the final mixer")
    if any(v > 0 for terms in pending for v in terms.values()):
        return FastPathPlan(False, "phase terms missing from the circuit")
    # a wire left on several entries ends under the key None
    final = {_single(mask): phys for phys, mask in masks.items()}
    recorded = {int(e): int(p) for e, p in compiled.final_mapping.items()}
    if final != recorded:
        return FastPathPlan(False, "final mapping mismatch")
    unmeasured = [e for e in sorted(final) if final[e] not in reads]
    if unmeasured:
        return FastPathPlan(False, f"{label}(s) {unmeasured} never measured")
    for e in sorted(final):
        held = reads[final[e]]
        if held != e:
            source = "an unmapped wire" if held is None else f"{label} {held}"
            return FastPathPlan(
                False,
                f"measure bound to the wrong qubit: c[{final[e]}] reads "
                f"{source}, not {label} {e}",
            )
    return FastPathPlan(True, None)


# ----------------------------------------------------------------------
# noisy register-frame trajectories
# ----------------------------------------------------------------------
#: Most amplitudes :func:`logical_trajectory`'s stack holds, rows x 2^n
#: (16 MiB of complex128): the noiseless row plus one row per trajectory
#: with an error on a mapped wire.  Longer runs take their trajectories
#: in order, in chunks, each re-evolving its own noiseless row; a chunk
#: always holds at least one trajectory.  A butterfly briefly allocates
#: twice the live rows again in temporaries.
_MAX_ROW_AMPLITUDES = 1 << 20

# Schedule ops: a diagonal phase to accumulate, or an H/RX to apply.
_DIAG, _MIX = 0, 1
# Noise checks: idle dephasing (a Z), a one- or a two-qubit depolarizing
# event.
_T2, _ONE, _TWO = 0, 1, 2


def _trajectory_schedule(compiled, noise: NoiseModel, signs: _SignTable, durations):
    """One walk of ``compiled.circuit``: what every trajectory replays.

    Each mapped wire carries a frame ``(z, x)`` over the register, both
    masks of entries: ``z`` holds the entries whose parity is the wire's
    bit (:func:`fastpath_plan`'s mask) and ``x`` the entries an X on the
    wire flips.  ``CNOT(c, t)`` sets ``z_t ^= z_c`` and ``x_c ^= x_t``,
    and SWAPs move frames: bookkeeping, done here once.

    Returns ``(ops, checks)``.  ``ops`` holds ``(_DIAG, coeff, vector)``
    for each CPHASE/RZ (the phase ``coeff * vector`` to accumulate, over
    the sign vector of its wires' XORed ``z``) and ``(_MIX, matrix, e)``
    for each H/RX, on the single entry ``e`` of its wire's ``z``, which a
    verified circuit guarantees is its ``x`` too.  ``checks`` holds
    ``(position, p, kind, a, b)`` for every random draw of
    :meth:`~repro.sim.noise.NoisySimulator.run_trajectory`, in its order:
    a draw below ``p`` is an error, applied just before ``ops[position]``.
    Its targets ``a`` (and ``b`` for ``_TWO``) are the frame ``(z, x)``
    of a mapped wire at that point, or, for an unmapped wire, the wire its
    dirt bit ends on.
    """
    circuit = compiled.circuit
    n_phys = circuit.num_qubits
    t2_ns = noise.t2_ns
    track_time = t2_ns is not None
    if durations is None and track_time:
        from ..circuits.timing import DurationModel

        durations = DurationModel()

    frame = {
        int(p): (1 << int(e), 1 << int(e))
        for e, p in compiled.initial_mapping.items()
    }
    # An unmapped wire's content travels with SWAPs like an entry's; name
    # it by the wire it starts on until the walk shows where it ends.
    dirt_of = {p: p for p in range(n_phys) if p not in frame}
    ops: list = []
    checks: list = []

    def target(phys: int):
        held = frame.get(phys)
        return held if held is not None else dirt_of[phys]

    clocks = [0.0] * n_phys if track_time else None

    def dephase(phys: int, idle_ns: float) -> None:
        if idle_ns > 0.0:
            p_flip = 0.5 * (1.0 - np.exp(-idle_ns / t2_ns))
            checks.append((len(ops), p_flip, _T2, target(phys), None))

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
        name, wires = inst.name, inst.qubits
        if name == "swap":
            _swap((frame, dirt_of), *wires)
        elif name == "cnot":
            (zc, xc), (zt, xt) = frame[wires[0]], frame[wires[1]]
            frame[wires[0]] = (zc, xc ^ xt)
            frame[wires[1]] = (zt ^ zc, xt)
        elif name == "cphase":
            mask = frame[wires[0]][0] ^ frame[wires[1]][0]
            ops.append((_DIAG, 0.5 * inst.params[0], signs[mask]))
        elif name == "rz":
            ops.append((_DIAG, 0.5 * inst.params[0], signs[frame[wires[0]][0]]))
        elif name in ("h", "rx"):
            matrix = _HADAMARD if name == "h" else _rx_matrix(inst.params[0])
            ops.append((_MIX, matrix, frame[wires[0]][0].bit_length() - 1))
        else:
            raise ValueError(
                f"gate {name!r} outside the fast-path gate set; run "
                f"fastpath_plan() before logical_trajectory()"
            )
        if inst.is_two_qubit:
            pa, pb = wires
            p = noise.two_qubit_prob(pa, pb)
            if p > 0.0:
                checks.append((len(ops), p, _TWO, target(pa), target(pb)))
        else:
            q = wires[0]
            p = noise.single_qubit_depol.get(q, 0.0)
            if p > 0.0:
                checks.append((len(ops), p, _ONE, target(q), None))
    if track_time:
        end = max(clocks) if clocks else 0.0
        for q in range(n_phys):
            dephase(q, end - clocks[q])

    end_wire = {start: phys for phys, start in dirt_of.items()}

    def settle(t):
        return end_wire[t] if isinstance(t, int) else t

    return ops, [
        (position, p, kind, settle(a), settle(b))
        for position, p, kind, a, b in checks
    ]


def _draw_errors(checks, rng: np.random.Generator, shot_counts):
    """Every trajectory's noise draws, each followed (unless
    ``shot_counts[t]`` is ``None``) by its ``rng.random(shot_counts[t])``
    sample uniforms: the calls lone trajectories make, in the same order.

    Returns ``(errors, dirt_masks, uniforms)``.  ``errors[t]`` lists the
    trajectory's Paulis on mapped wires as ``(position, pauli, (z, x))``
    in draw order; an X or Y on an unmapped wire only toggles bit ``w`` of
    ``dirt_masks[t]`` (a Z there is a global phase).
    """
    random = rng.random
    integers = rng.integers
    errors, dirt_masks, uniforms = [], [], []
    for shots_t in shot_counts:
        hits: list = []
        dirt = 0
        for position, p, kind, a, b in checks:
            if random() < p:
                if kind == _T2:
                    paulis = (("z", a),)
                elif kind == _ONE:
                    paulis = ((_ONE_QUBIT_PAULIS[int(integers(3))], a),)
                else:
                    pauli_a, pauli_b = _TWO_QUBIT_PAULIS[int(integers(15))]
                    paulis = ((pauli_a, a), (pauli_b, b))
                for pauli, held in paulis:
                    if isinstance(held, int):
                        if pauli in ("x", "y"):
                            dirt ^= 1 << held
                    elif pauli != "i":
                        hits.append((position, pauli, held))
        errors.append(hits)
        dirt_masks.append(dirt)
        uniforms.append(None if shots_t is None else random(shots_t))
    return errors, dirt_masks, uniforms


def _apply_phase(states: np.ndarray, rows, acc: np.ndarray) -> None:
    """Multiply each of ``rows`` by ``exp(-i * acc)`` exactly as a lone
    trajectory's ``state = state * np.exp(-1j * acc)`` does.

    numpy's complex multiply rounds differently with its operands swapped,
    and for a large state it evaluates that expression as the fresh
    temporary times the state, reusing the temporary in place.  So each
    row meets the same expression, with a fresh copy of the phases, and
    numpy picks the same operand order as for the lone trajectory.
    """
    phases = np.exp(-1j * acc)
    for row in rows:
        states[row] = states[row] * phases.copy()


def _flush(states: np.ndarray, groups: dict) -> None:
    """Apply every row's pending phase."""
    for acc, rows in groups.values():
        if acc is not None:
            _apply_phase(states, rows, acc)


def _evolve_chunk(ops, errors: dict, signs: _SignTable):
    """Evolve the noiseless row and, forked from it, each trajectory of a
    chunk that has an error on a mapped wire.

    ``errors`` maps the chunk's trajectories, in order, to their errors
    (see :func:`_draw_errors`).  A Z on a wire with frame ``(z, x)`` is
    the sign vector of ``z``, an X flips the entries in ``x`` (an index
    permutation), and a Y is ``i X Z``.  Returns ``(rows, row_of)``: a
    read-only ``(rows, 2^size)`` array of end states and the row of each
    forked trajectory; the others end in row 0, the noiseless row.
    """
    at: Dict[int, list] = {}
    for t, hits in errors.items():
        for position, pauli, (z, x) in hits:
            # Z and Y need z's sign vector: made among the stack's
            # temporaries, it fragments the heap (+3 MB peak RSS).
            vector = None if pauli == "x" else signs[z]
            at.setdefault(position, []).append((t, pauli, vector, x))
    # Row 0 is the noiseless row, and forks take the next rows in the
    # order they happen, so the live rows are a prefix of the stack and
    # each butterfly runs over all of them at once.
    forks = sum(1 for hits in errors.values() if hits)
    indices = np.arange(1 << signs.size, dtype=np.int64)
    states = np.empty((1 + forks, indices.size), dtype=complex)
    states[0] = 0.0
    states[0, 0] = 1.0
    live = 1
    row_of: Dict[int, int] = {}
    # Pending diagonal phases.  A row's key is the position of its last
    # flush, and rows with one key hold the same pending sum ``acc``,
    # built with the same additions in the same order as a lone
    # trajectory's; groups[key] = [acc or None, rows].
    groups: Dict[int, list] = {-1: [None, [0]]}
    key_of = [-1] * (1 + forks)
    for index in range(len(ops) + 1):
        for t, pauli, vector, x in at.get(index, ()):
            row = row_of.get(t)
            if row is None:
                # The trajectory's first error on a mapped wire: fork it
                # from the noiseless row, pending phase included.
                row = row_of[t] = live
                live += 1
                states[row] = states[0]
                key_of[row] = key_of[0]
                groups[key_of[0]][1].append(row)
            if pauli == "z":
                # Diagonal, so the pending phase stays pending.
                states[row] *= vector
                continue
            key = key_of[row]
            if key != index:
                acc, rows = groups[key]
                if acc is not None:
                    _apply_phase(states, (row,), acc)
                rows.remove(row)
                if not rows:
                    del groups[key]
                groups.setdefault(index, [None, []])[1].append(row)
                key_of[row] = index
            state = states[row] if pauli == "x" else 1j * states[row] * vector
            states[row] = state[indices ^ x]
        if index == len(ops):
            break
        kind, a, b = ops[index]
        if kind == _DIAG:
            phase = a * b
            for group in groups.values():
                group[0] = phase if group[0] is None else group[0] + phase
        else:
            _flush(states, groups)
            states[:live] = _apply_single(states[:live], a, b)
            groups = {index: [None, list(range(live))]}
            key_of[:live] = [index] * live
    _flush(states, groups)
    states.flags.writeable = False
    return states, row_of


def logical_trajectory(
    compiled,
    noise: NoiseModel,
    rng: np.random.Generator,
    diagonal: Optional[CostDiagonal] = None,
    durations=None,
    *,
    trajectories: int = 1,
    shots: Optional[int] = None,
    reduce: Optional[Callable] = None,
) -> list:
    """Noisy Pauli trajectories evolved together in the register frame:
    ``2^n`` logical amplitudes, or ``2^K`` parity-slot ones.

    Trajectory ``t`` realises exactly the noise that the ``t``-th of
    ``trajectories`` consecutive calls to
    :meth:`~repro.sim.noise.NoisySimulator.run_trajectory` realises on the
    same generator, with the same end state up to a global phase: SWAPs
    and CNOTs become frame bookkeeping, CPHASE/RZ accumulate diagonal
    phases (flushed in one ``exp`` when an H, RX, X or Y arrives), H/RX
    are axis-wise 2x2 multiplies, and a Pauli on a mapped wire is a sign
    vector or an index permutation of the register
    (:func:`_trajectory_schedule`).  Pauli noise on unmapped physical
    qubits cannot reach decoded bits; X/Y there toggle a classical dirt
    bit, Z is a global phase.

    No draw depends on the state, so the work splits in three:

    1. one walk of the circuit builds the schedule of phases, mixers and
       noise checks (:func:`_trajectory_schedule`);
    2. every trajectory's noise draws are taken, each followed, when
       ``shots`` is given, by its ``rng.random(shots_t)`` sample uniforms
       (``shots`` split as evenly as :meth:`NoisySimulator.sample_indices`
       splits them), in the order lone trajectories would draw them;
    3. one ``(rows, 2^size)`` stack, sized up front for the noiseless row
       and every trajectory with an error on a mapped wire, evolves the
       noiseless row, and a trajectory takes its own row only at its
       first such error, as a copy of the noiseless row and its pending
       phase.  Butterflies run on all live rows at once, and each row
       applies its errors and flushes its phase where a lone trajectory
       does, so every amplitude takes the same float operations in the
       same order as a lone trajectory's.  Rows are capped by
       ``_MAX_ROW_AMPLITUDES``; longer runs go in chunks.

    Requires a circuit that :func:`fastpath_plan` accepts.

    Returns:
        One entry per trajectory, in order: ``reduce(state, dirt_mask,
        uniforms)``, or the tuple itself without ``reduce``.  ``state``
        is the read-only flat register end state (trajectories without an
        error on a mapped wire share one), ``dirt_mask`` the basis-state
        content of the unmapped physical qubits (bit ``p`` set when noise
        flipped physical qubit ``p`` to ``|1>``), and ``uniforms`` the
        sample uniforms (``None`` without ``shots``).  ``reduce`` runs
        once a chunk is evolved, so only a chunk's states are held at a
        time.
    """
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    diag = diagonal if diagonal is not None else cost_diagonal(compiled.program)
    signs = _register(compiled, diag).signs()
    ops, checks = _trajectory_schedule(compiled, noise, signs, durations)
    if shots is None:
        shot_counts = [None] * trajectories
    else:
        base, extra = divmod(shots, trajectories)
        shot_counts = [
            base + (1 if t < extra else 0) for t in range(trajectories)
        ]
    errors, dirt_masks, uniforms = _draw_errors(checks, rng, shot_counts)

    per_chunk = max(1, (_MAX_ROW_AMPLITUDES >> signs.size) - 1)
    out = []
    for first in range(0, trajectories, per_chunk):
        chunk = range(first, min(first + per_chunk, trajectories))
        rows, row_of = _evolve_chunk(ops, {t: errors[t] for t in chunk}, signs)
        for t in chunk:
            entry = (rows[row_of.get(t, 0)], dirt_masks[t], uniforms[t])
            out.append(entry if reduce is None else reduce(*entry))
    return out


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
    uniforms: np.ndarray,
    weights: np.ndarray,
    positions: np.ndarray,
    num_qubits: int,
) -> np.ndarray:
    """Sample a distribution held sparsely in a ``2^num_qubits``
    register, drawing exactly as ``Generator.choice`` draws over the
    dense register.

    ``weights`` sit at the increasing register indices ``positions``, and
    ``uniforms`` is ``rng.random(size)``, drawn by the caller.  Returns
    ``size`` indices ``k`` into ``weights`` such that ``positions[k]``
    equals, draw for draw, ``rng.choice(dense.size, size, p=dense /
    dense.sum())`` for the dense vector holding ``weights``, which leaves
    the generator where that draw does.  ``choice`` takes ``cumsum(p)``,
    scales it by its last entry and runs ``searchsorted(random(size),
    side="right")``.  A zero
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
    return cdf.searchsorted(uniforms, side="right")


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

    The one evaluation body for both encodings.  The encoding describes
    the register (``n`` logical qubits, or ``K`` parity slots), its cut
    table and its noiseless kernel; the verifier (:func:`fastpath_plan`),
    sampling, the gate-level fallback, the readout channel, the noisy
    side and ARG are shared.  A verified circuit's noisy side replays its
    trajectories in the register frame (:func:`logical_trajectory`); a
    refused one runs gate by gate.

    The cost diagonal is interned once per problem and reused for the
    ideal expectation, every noisy trajectory, and the analytic readout
    channel.  In ``sampled`` mode the random-draw order matches the
    gate-by-gate simulators exactly (ideal sampling, then per-trajectory
    noise draws and sampling, then readout flips), so a seeded generator
    gives the same numbers whether or not the fast path is taken.  In
    ``exact`` mode no sampling happens: ``r0`` is the exact expectation
    and ``rh`` averages exact per-trajectory expectations under the same
    noise realisations, with readout applied analytically to the cut
    table in the register frame.

    Args:
        compiled: A compiled result exposing ``circuit``, ``program``,
            ``initial_mapping``, ``final_mapping`` and optionally
            ``encoding``/``encoding_info`` (e.g.
            :class:`repro.compiler.flow.CompiledQAOA`).
        noise: Noise model for the ``rh`` side; ``None`` evaluates only
            ``r0``.
        shots: Samples per side in ``sampled`` mode.
        trajectories: Noise realisations for ``rh``.
        rng: Random generator, shared across both sides.
        mode: ``"sampled"`` or ``"exact"``.
        durations: Gate-duration model for T2 timing (defaults to
            :class:`~repro.circuits.timing.DurationModel` when needed).
        use_fastpath: Force the gate-by-gate fallback when ``False``
            (the reference the fast path must equal).
    """
    if mode not in ("sampled", "exact"):
        raise ValueError(f"unknown evaluation mode {mode!r}")
    if mode == "sampled" and shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    if trajectories < 1:
        raise ValueError("need at least one trajectory")
    rng = rng if rng is not None else np.random.default_rng()
    n_phys = compiled.circuit.num_qubits
    mapping = {int(q): int(p) for q, p in compiled.final_mapping.items()}
    timings: Dict[str, float] = {}

    tick = time.perf_counter()
    diag = cost_diagonal(compiled.program)
    max_cut = diag.max_value
    if max_cut == 0.0:
        raise ValueError("problem has zero maximum cut")
    register = _register(compiled, diag)
    size, cut = register.size, register.cut()
    timings["diagonal"] = time.perf_counter() - tick

    if use_fastpath:
        plan = fastpath_plan(compiled)
    else:
        plan = FastPathPlan(False, "fast path disabled by caller")
    fast = plan.ok
    if fast and mode == "sampled":
        # Register basis states in the order of their physical indices —
        # the order Generator.choice walks the physical register in.
        phys_map = _physical_index_map(mapping, size)
        order = np.argsort(phys_map)
        positions = phys_map[order]

    # -- ideal side ----------------------------------------------------
    tick = time.perf_counter()
    if fast:
        probs = np.abs(register.kernel()) ** 2
        if mode == "exact":
            r0 = float(np.dot(probs, cut)) / max_cut
        else:
            picks = _sample_support(
                rng.random(shots), probs[order], positions, n_phys
            )
            r0 = float(cut[order[picks]].mean()) / max_cut
    else:
        sim = StatevectorSimulator(max_qubits=max(n_phys, 24))
        if mode == "exact":
            probs_phys = sim.probabilities(compiled.circuit)
            phys_cut = cut[
                decode_indices(np.arange(1 << n_phys), mapping, size)
            ]
            r0 = float(np.dot(probs_phys, phys_cut)) / max_cut
        else:
            sampled = sim.sample_indices(compiled.circuit, shots, rng)
            r0 = float(cut[decode_indices(sampled, mapping, size)].mean()) / max_cut
    timings["ideal"] = time.perf_counter() - tick

    # -- noisy side ----------------------------------------------------
    rh = None
    arg = None
    n_traj = trajectories
    if noise is not None:
        tick = time.perf_counter()
        if not fast:
            nsim = NoisySimulator(
                noise, trajectories=trajectories, durations=durations
            )
        if mode == "exact":
            readout = _readout_adjusted(
                cut,
                {r: noise.readout_flip.get(mapping[r], 0.0) for r in range(size)},
            )
            if fast:

                def expectation(state, _dirt_mask, _uniforms):
                    probs = np.abs(state) ** 2
                    probs /= probs.sum()
                    return float(np.dot(probs, readout))

                values = logical_trajectory(
                    compiled,
                    noise,
                    rng,
                    diag,
                    durations,
                    trajectories=n_traj,
                    reduce=expectation,
                )
            else:
                phys_readout = readout[
                    decode_indices(np.arange(1 << n_phys), mapping, size)
                ]
                values = []
                for _ in range(n_traj):
                    state = nsim.run_trajectory(compiled.circuit, rng)
                    probs = np.abs(state) ** 2
                    probs /= probs.sum()
                    values.append(float(np.dot(probs, phys_readout)))
            total = 0.0
            for value in values:
                total += value
            rh = total / n_traj / max_cut
        else:
            n_traj = min(trajectories, shots)
            if fast:

                def sample(state, dirt_mask, uniforms):
                    # Dirt only sets bits of unmapped qubits, so it moves
                    # every position alike and keeps their order.
                    picks = _sample_support(
                        uniforms,
                        np.abs(state[order]) ** 2,
                        positions | dirt_mask,
                        n_phys,
                    )
                    return order[picks]

                outcomes = np.concatenate(
                    logical_trajectory(
                        compiled,
                        noise,
                        rng,
                        diag,
                        durations,
                        trajectories=n_traj,
                        shots=shots,
                        reduce=sample,
                    )
                )
                # Readout flips in NoisySimulator's exact draw order, in
                # the register frame: a flip on an unmapped qubit draws
                # its randoms but reaches no decoded bit.
                owner = {p: r for r, p in mapping.items()}
                for phys in range(n_phys):
                    p = noise.readout_flip.get(phys, 0.0)
                    if p <= 0.0:
                        continue
                    flips = rng.random(len(outcomes)) < p
                    if phys in owner:
                        outcomes[flips] ^= 1 << owner[phys]
            else:
                indices = nsim.sample_indices(compiled.circuit, shots, rng)
                outcomes = decode_indices(indices, mapping, size)
            rh = float(cut[outcomes].mean()) / max_cut
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
