"""Gate definitions for the quantum-circuit intermediate representation.

The gate set mirrors what the paper needs end to end:

* the QAOA-level gates ``H``, ``RX`` and the commuting two-qubit
  ``CPHASE``/``ZZ`` interaction that makes up the cost Hamiltonian,
* the IBM-style native basis ``{U1, U2, U3, CNOT}`` that compiled circuits
  are lowered to (Section II, "Basis Gates and Coupling Constraints"),
* the ``SWAP`` gate the router inserts to satisfy coupling constraints,
* ``measure`` and ``barrier`` pseudo-gates.

Every unitary gate knows how to produce its matrix, which is what the
statevector simulator consumes.  Matrices follow the little-endian qubit
convention used throughout :mod:`repro.sim`: for a two-qubit gate acting on
``(q0, q1)``, ``q0`` is the least-significant bit of the 4x4 matrix index.

Note on naming: the paper calls the two-qubit cost-Hamiltonian interaction a
"CPHASE" gate.  Functionally it is the ZZ interaction
``exp(-i * theta/2 * Z (x) Z)`` — Figure 1(d) of the paper shows exactly the
``CNOT . RZ . CNOT`` decomposition of that gate.  We keep the paper's name
(:data:`CPHASE`) and document the semantics here.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "GateSpec",
    "Instruction",
    "GATES",
    "gate_spec",
    "is_known_gate",
    "IBM_BASIS",
    "QAOA_BASIS",
]


def _mat_i() -> np.ndarray:
    return np.eye(2, dtype=complex)


def _mat_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def _mat_y() -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=complex)


def _mat_z() -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=complex)


def _mat_h() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


def _mat_s() -> np.ndarray:
    return np.array([[1, 0], [0, 1j]], dtype=complex)


def _mat_sdg() -> np.ndarray:
    return np.array([[1, 0], [0, -1j]], dtype=complex)


def _mat_t() -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)


def _mat_rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _mat_ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _mat_rz(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-1j * theta / 2.0), 0], [0, np.exp(1j * theta / 2.0)]],
        dtype=complex,
    )


def _mat_u1(lam: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=complex)


def _mat_u2(phi: float, lam: float) -> np.ndarray:
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return inv_sqrt2 * np.array(
        [
            [1, -np.exp(1j * lam)],
            [np.exp(1j * phi), np.exp(1j * (phi + lam))],
        ],
        dtype=complex,
    )


def _mat_u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _mat_cnot() -> np.ndarray:
    # Control is qubit index 0 (least significant bit), target is qubit 1.
    m = np.eye(4, dtype=complex)
    m[[1, 3]] = m[[3, 1]]
    return m


def _mat_cz() -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[3, 3] = -1
    return m


def _mat_swap() -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[[1, 2]] = m[[2, 1]]
    return m


def _mat_cphase(theta: float) -> np.ndarray:
    """ZZ interaction exp(-i*theta/2 * Z(x)Z) — the paper's "CPHASE"."""
    e_minus = np.exp(-1j * theta / 2.0)
    e_plus = np.exp(1j * theta / 2.0)
    return np.diag([e_minus, e_plus, e_plus, e_minus]).astype(complex)


def _mat_cu1(lam: float) -> np.ndarray:
    """Controlled phase (diag(1,1,1,e^{i lam})) — the textbook CPHASE."""
    return np.diag([1, 1, 1, np.exp(1j * lam)]).astype(complex)


@dataclasses.dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    Attributes:
        name: Canonical lower-case gate name used in :class:`Instruction`.
        num_qubits: Arity of the gate (0 means "any", used by barrier).
        num_params: Number of real parameters the gate takes.
        matrix_fn: Callable producing the unitary for given parameters, or
            ``None`` for non-unitary pseudo-gates (measure, barrier).
        self_inverse: True when ``G . G == I`` for all parameter values.
        directive: True for pseudo-gates that do not touch the state.
    """

    name: str
    num_qubits: int
    num_params: int
    matrix_fn: Optional[Callable[..., np.ndarray]] = None
    self_inverse: bool = False
    directive: bool = False

    @property
    def is_unitary(self) -> bool:
        """Whether this gate has a matrix representation."""
        return self.matrix_fn is not None

    def matrix(self, params: Sequence[float] = ()) -> np.ndarray:
        """Return the gate unitary for ``params``.

        Raises:
            ValueError: if the gate is non-unitary or the parameter count
                does not match :attr:`num_params`.
        """
        if self.matrix_fn is None:
            raise ValueError(f"gate {self.name!r} has no matrix")
        if len(params) != self.num_params:
            raise ValueError(
                f"gate {self.name!r} takes {self.num_params} parameter(s), "
                f"got {len(params)}"
            )
        return self.matrix_fn(*params)


GATES: Dict[str, GateSpec] = {
    spec.name: spec
    for spec in (
        GateSpec("id", 1, 0, _mat_i, self_inverse=True),
        GateSpec("x", 1, 0, _mat_x, self_inverse=True),
        GateSpec("y", 1, 0, _mat_y, self_inverse=True),
        GateSpec("z", 1, 0, _mat_z, self_inverse=True),
        GateSpec("h", 1, 0, _mat_h, self_inverse=True),
        GateSpec("s", 1, 0, _mat_s),
        GateSpec("sdg", 1, 0, _mat_sdg),
        GateSpec("t", 1, 0, _mat_t),
        GateSpec("rx", 1, 1, _mat_rx),
        GateSpec("ry", 1, 1, _mat_ry),
        GateSpec("rz", 1, 1, _mat_rz),
        GateSpec("u1", 1, 1, _mat_u1),
        GateSpec("u2", 1, 2, _mat_u2),
        GateSpec("u3", 1, 3, _mat_u3),
        GateSpec("cnot", 2, 0, _mat_cnot, self_inverse=True),
        GateSpec("cz", 2, 0, _mat_cz, self_inverse=True),
        GateSpec("swap", 2, 0, _mat_swap, self_inverse=True),
        GateSpec("cphase", 2, 1, _mat_cphase),
        GateSpec("cu1", 2, 1, _mat_cu1),
        GateSpec("measure", 1, 0, None, directive=False),
        GateSpec("barrier", 0, 0, None, directive=True),
    )
}

#: The IBM-style native basis the backend compiler lowers to (Section II).
IBM_BASIS = frozenset({"u1", "u2", "u3", "id", "cnot", "measure", "barrier"})

#: The high-level gate set QAOA circuits are written in (Figure 1(b)).
QAOA_BASIS = frozenset({"h", "rx", "cphase", "measure", "barrier"})

#: Gate names that are symmetric under qubit exchange.
SYMMETRIC_TWO_QUBIT = frozenset({"cz", "swap", "cphase", "cu1"})


def gate_spec(name: str) -> GateSpec:
    """Look up the :class:`GateSpec` for ``name``.

    Raises:
        KeyError: for unknown gate names, with a helpful message.
    """
    try:
        return GATES[name]
    except KeyError:
        known = ", ".join(sorted(GATES))
        raise KeyError(f"unknown gate {name!r}; known gates: {known}") from None


def is_known_gate(name: str) -> bool:
    """Whether ``name`` is a registered gate type."""
    return name in GATES


@dataclasses.dataclass(frozen=True)
class Instruction:
    """One gate application inside a circuit.

    Instructions are immutable value objects: two instructions compare equal
    when the gate name, the qubits and the parameters all match.

    Attributes:
        name: Gate name; must be registered in :data:`GATES`.
        qubits: Qubit indices the gate acts on, in gate order (for ``cnot``
            that is ``(control, target)``).
        params: Real gate parameters (angles).
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        # Every instruction read back from QASM or a cache entry passes
        # through here, so each field is coerced in one pass and checked
        # on the coerced tuple.
        spec = gate_spec(self.name)
        qubits = tuple(map(int, self.qubits))
        params = tuple(map(float, self.params))
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "params", params)
        n = len(qubits)
        if spec.num_qubits and n != spec.num_qubits:
            raise ValueError(
                f"gate {self.name!r} acts on {spec.num_qubits} qubit(s), "
                f"got qubits={qubits}"
            )
        if n > 1 and len(set(qubits)) != n:
            raise ValueError(f"duplicate qubits in {self.name!r}: {qubits}")
        if len(params) != spec.num_params:
            raise ValueError(
                f"gate {self.name!r} takes {spec.num_params} parameter(s), "
                f"got params={params}"
            )
        if n and min(qubits) < 0:
            raise ValueError(f"negative qubit index in {qubits}")

    @classmethod
    def _unchecked(
        cls, name: str, qubits: Tuple[int, ...], params: Tuple[float, ...] = ()
    ) -> "Instruction":
        """Build an instruction without running :meth:`__post_init__`.

        Only for compiler emit sites whose fields are already valid: the
        name and ``float`` params copied from a validated instruction, and
        distinct non-negative Python ``int`` qubits taken from the device's
        paths or the routing mapping.  Everything else goes through the
        public constructor, which validates and coerces.
        """
        inst = object.__new__(cls)
        inst.__dict__.update(name=name, qubits=qubits, params=params)
        return inst

    @property
    def spec(self) -> GateSpec:
        """The static gate description."""
        return gate_spec(self.name)

    @property
    def num_qubits(self) -> int:
        """Number of qubits this instruction touches."""
        return len(self.qubits)

    @property
    def is_two_qubit(self) -> bool:
        """True for two-qubit unitary gates (the coupling-constrained ones)."""
        return len(self.qubits) == 2 and self.spec.is_unitary

    @property
    def is_measurement(self) -> bool:
        """True for measurement pseudo-gates."""
        return self.name == "measure"

    @property
    def is_directive(self) -> bool:
        """True for barrier-like directives that do not act on the state."""
        return self.spec.directive

    def matrix(self) -> np.ndarray:
        """Unitary matrix of this instruction (little-endian qubit order)."""
        return self.spec.matrix(self.params)

    def remap(self, qubit_map: Dict[int, int]) -> "Instruction":
        """Return a copy acting on ``qubit_map[q]`` for each qubit ``q``.

        Qubits absent from ``qubit_map`` are left unchanged.
        """
        return Instruction(
            self.name,
            tuple(qubit_map.get(q, q) for q in self.qubits),
            self.params,
        )

    def commutes_trivially_with(self, other: "Instruction") -> bool:
        """True when the two instructions share no qubits.

        Disjoint-support gates always commute; this is the cheap test the
        layering pass uses.  It deliberately does *not* try to detect
        algebraic commutation on overlapping supports — the QAOA-specific
        commutation of CPHASE gates is handled at the compilation-flow level
        where it is known by construction.
        """
        return not set(self.qubits) & set(other.qubits)

    def __str__(self) -> str:
        args = ", ".join(str(q) for q in self.qubits)
        if self.params:
            angles = ", ".join(f"{p:.4g}" for p in self.params)
            return f"{self.name}({angles}) {args}"
        return f"{self.name} {args}"
