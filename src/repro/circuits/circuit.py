"""The :class:`QuantumCircuit` container.

A circuit is an ordered list of :class:`~repro.circuits.gates.Instruction`
objects over ``num_qubits`` qubits.  It is deliberately a thin, explicit data
structure: compilation passes build new circuits rather than mutating shared
state, and anything structural (layers, depth) lives in
:mod:`repro.circuits.dag`.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gates import Instruction

__all__ = ["QuantumCircuit"]


class QuantumCircuit:
    """An ordered sequence of gate instructions on ``num_qubits`` qubits.

    The builder methods (:meth:`h`, :meth:`cnot`, :meth:`cphase`, ...) append
    instructions and return ``self`` so construction chains naturally::

        qc = QuantumCircuit(3).h(0).cnot(0, 1).cphase(0.4, 1, 2).measure_all()
    """

    def __init__(
        self,
        num_qubits: int,
        instructions: Optional[Iterable[Instruction]] = None,
        name: str = "circuit",
    ) -> None:
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = name
        self._instructions: List[Instruction] = []
        if instructions is not None:
            for inst in instructions:
                self.append(inst)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """The instructions in program order (read-only view)."""
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self._instructions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self._instructions == other._instructions
        )

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self.num_qubits},"
            f" num_instructions={len(self)})"
        )

    # ------------------------------------------------------------------
    # generic appends
    # ------------------------------------------------------------------
    def _check_qubits(self, qubits: Sequence[int]) -> None:
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )

    def append(self, instruction: Instruction) -> "QuantumCircuit":
        """Append an already-built :class:`Instruction`."""
        self._check_qubits(instruction.qubits)
        self._instructions.append(instruction)
        return self

    def _unchecked_appender(self) -> Callable[[Instruction], None]:
        """A callable appending one instruction without :meth:`append`'s
        qubit range check, for a caller that has checked every qubit it
        will emit against ``num_qubits`` up front (the backend router)."""
        return self._instructions.append

    def add(
        self,
        name: str,
        qubits: Sequence[int],
        params: Sequence[float] = (),
    ) -> "QuantumCircuit":
        """Append a gate by name; validates arity against the gate spec."""
        return self.append(Instruction(name, tuple(qubits), tuple(params)))

    def extend(self, instructions: Iterable[Instruction]) -> "QuantumCircuit":
        """Append many instructions in order."""
        for inst in instructions:
            self.append(inst)
        return self

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Append every instruction of ``other`` (must fit this register)."""
        if other.num_qubits > self.num_qubits:
            raise ValueError(
                f"cannot compose a {other.num_qubits}-qubit circuit onto a "
                f"{self.num_qubits}-qubit one"
            )
        return self.extend(other.instructions)

    # ------------------------------------------------------------------
    # named builders
    # ------------------------------------------------------------------
    def h(self, qubit: int) -> "QuantumCircuit":
        """Hadamard."""
        return self.add("h", (qubit,))

    def x(self, qubit: int) -> "QuantumCircuit":
        """Pauli-X."""
        return self.add("x", (qubit,))

    def y(self, qubit: int) -> "QuantumCircuit":
        """Pauli-Y."""
        return self.add("y", (qubit,))

    def z(self, qubit: int) -> "QuantumCircuit":
        """Pauli-Z."""
        return self.add("z", (qubit,))

    def s(self, qubit: int) -> "QuantumCircuit":
        """Phase gate S = sqrt(Z)."""
        return self.add("s", (qubit,))

    def sdg(self, qubit: int) -> "QuantumCircuit":
        """Inverse phase gate."""
        return self.add("sdg", (qubit,))

    def t(self, qubit: int) -> "QuantumCircuit":
        """T gate (pi/8)."""
        return self.add("t", (qubit,))

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        """X rotation by ``theta``."""
        return self.add("rx", (qubit,), (theta,))

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Y rotation by ``theta``."""
        return self.add("ry", (qubit,), (theta,))

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Z rotation by ``theta``."""
        return self.add("rz", (qubit,), (theta,))

    def u1(self, lam: float, qubit: int) -> "QuantumCircuit":
        """IBM U1 (phase) gate."""
        return self.add("u1", (qubit,), (lam,))

    def u2(self, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        """IBM U2 gate."""
        return self.add("u2", (qubit,), (phi, lam))

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        """IBM U3 (generic single-qubit) gate."""
        return self.add("u3", (qubit,), (theta, phi, lam))

    def cnot(self, control: int, target: int) -> "QuantumCircuit":
        """CNOT with explicit control/target order."""
        return self.add("cnot", (control, target))

    def cz(self, a: int, b: int) -> "QuantumCircuit":
        """Controlled-Z (symmetric)."""
        return self.add("cz", (a, b))

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        """SWAP (symmetric)."""
        return self.add("swap", (a, b))

    def cphase(self, gamma: float, a: int, b: int) -> "QuantumCircuit":
        """The paper's commuting two-qubit cost gate: exp(-i*gamma/2 Z(x)Z)."""
        return self.add("cphase", (a, b), (gamma,))

    def cu1(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        """Textbook controlled-phase diag(1,1,1,e^{i lam})."""
        return self.add("cu1", (control, target), (lam,))

    def measure(self, qubit: int) -> "QuantumCircuit":
        """Measure one qubit in the computational basis."""
        return self.add("measure", (qubit,))

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit."""
        for q in range(self.num_qubits):
            self.measure(q)
        return self

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        """Scheduling barrier across ``qubits`` (all qubits when empty)."""
        qs = tuple(qubits) if qubits else tuple(range(self.num_qubits))
        return self.append(Instruction("barrier", qs))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def count_ops(self) -> Dict[str, int]:
        """Histogram of gate names, e.g. ``{"cnot": 12, "u3": 7}``."""
        return dict(Counter(inst.name for inst in self._instructions))

    def gate_count(self, include_directives: bool = False) -> int:
        """Total number of gate operations.

        Measurements count (the paper's time-step accounting includes them);
        barriers do not unless ``include_directives`` is set.
        """
        if include_directives:
            return len(self._instructions)
        return sum(1 for inst in self._instructions if not inst.is_directive)

    def two_qubit_gates(self) -> List[Instruction]:
        """All two-qubit unitary instructions, in program order."""
        return [inst for inst in self._instructions if inst.is_two_qubit]

    def num_two_qubit_gates(self) -> int:
        """Count of two-qubit unitary gates."""
        return len(self.two_qubit_gates())

    def active_qubits(self) -> Tuple[int, ...]:
        """Sorted tuple of qubits touched by at least one instruction."""
        used = set()
        for inst in self._instructions:
            used.update(inst.qubits)
        return tuple(sorted(used))

    def depth(self) -> int:
        """Critical-path depth (directives excluded).

        Delegates to :func:`repro.circuits.dag.circuit_depth`; exposed here
        because depth is the paper's headline circuit-quality metric.
        """
        from .dag import circuit_depth

        return circuit_depth(self)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Shallow copy (instructions are immutable, so this is safe)."""
        return QuantumCircuit(
            self.num_qubits, self._instructions, name=name or self.name
        )

    def remap(self, qubit_map: Dict[int, int], num_qubits: Optional[int] = None) -> "QuantumCircuit":
        """Relabel qubits through ``qubit_map``.

        Args:
            qubit_map: old-index -> new-index; missing qubits keep their index.
            num_qubits: register size of the result (defaults to current size,
                grown if the map targets larger indices).
        """
        remapped = [inst.remap(qubit_map) for inst in self._instructions]
        needed = 1 + max(
            (q for inst in remapped for q in inst.qubits), default=0
        )
        size = num_qubits if num_qubits is not None else max(self.num_qubits, needed)
        if size < needed:
            raise ValueError(
                f"num_qubits={size} too small for remapped circuit needing {needed}"
            )
        return QuantumCircuit(size, remapped, name=self.name)

    def reversed_ops(self) -> "QuantumCircuit":
        """Circuit with the instruction order reversed (no inversion of gates).

        Useful for reverse-traversal style mapping experiments (Section III,
        "Initial Mapping").
        """
        return QuantumCircuit(
            self.num_qubits,
            reversed(self._instructions),
            name=f"{self.name}_reversed",
        )

    def without(self, names: Iterable[str]) -> "QuantumCircuit":
        """Copy of the circuit with all gates named in ``names`` dropped."""
        drop = set(names)
        return QuantumCircuit(
            self.num_qubits,
            (inst for inst in self._instructions if inst.name not in drop),
            name=self.name,
        )

    def only_unitary(self) -> "QuantumCircuit":
        """Copy without measurements and barriers (for simulation pre-pass)."""
        return QuantumCircuit(
            self.num_qubits,
            (
                inst
                for inst in self._instructions
                if inst.spec.is_unitary and not inst.is_directive
            ),
            name=self.name,
        )

    def validate_basis(self, basis: Iterable[str]) -> None:
        """Raise ``ValueError`` if any instruction is outside ``basis``."""
        allowed = set(basis)
        for inst in self._instructions:
            if inst.name not in allowed:
                raise ValueError(
                    f"instruction {inst} not in basis {sorted(allowed)}"
                )

    def draw(self) -> str:
        """ASCII rendering (delegates to :mod:`repro.circuits.draw`)."""
        from .draw import draw_circuit

        return draw_circuit(self)
