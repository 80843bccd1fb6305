"""The unified problem frontend: one protocol from QUBO to placement.

The paper's Section VI observes that *any* Ising-formulated cost
Hamiltonian compiles through the same ZZ-interaction path as MaxCut.
This module makes that a first-class contract: a :class:`Problem` is
anything exposing

* ``num_qubits`` — logical register width,
* ``edges`` — weighted ``(a, b, w)`` ZZ terms *in program weight
  convention* (the CPHASE angle is ``-gamma * w``),
* ``linear`` — ``{qubit: h}`` fields realised as virtual RZ rotations,
* ``to_program(gammas, betas)`` — the QAOA circuit description,
* ``cost_values()`` — the classical cost of every little-endian basis
  state (dense, small ``n`` only),
* ``optimum()`` — the exact brute-force optimum,
* ``content_fingerprint()`` — a canonical content hash.

:class:`~repro.qaoa.problems.MaxCutProblem` and
:class:`~repro.qaoa.ising.IsingProblem` both satisfy it, so every layer
above — ``repro.api.compile``, the service job specs, the workload
families, the batched angle-grid fast path — accepts either without
special-casing.  The ``edges``/``linear`` surface is
exactly what :func:`repro.sim.fastpath.cost_diagonal` duck-types on, so
content-equal problems share one interned diagonal across the stack.

JSONL spec forms (:func:`problem_from_spec`)::

    {"qubo": {"matrix": [[1, -2], [0, 1]], "sense": "max"}}
    {"ising": {"num_spins": 3, "quadratic": {"0-1": -0.5},
               "linear": {"2": 1.0}, "offset": 1.5}}

Diagonal QUBO terms become RZ rotations, off-diagonal terms weighted ZZ
interactions — matching the cost diagonal's weighted support — and the
canonical form hashes identically however the terms were ordered.
"""

from __future__ import annotations

import hashlib
import json
from typing import (
    Dict,
    List,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from .ising import IsingProblem
from .problems import MaxCutProblem, QAOAProgram

__all__ = [
    "PROBLEM_CANONICAL_VERSION",
    "Problem",
    "cost_values",
    "problem_canonical",
    "problem_fingerprint",
    "problem_from_spec",
]

#: Bumped whenever the canonical problem form changes, so fingerprints
#: (and everything hashed on top of them) cannot alias across versions.
PROBLEM_CANONICAL_VERSION = 1


@runtime_checkable
class Problem(Protocol):
    """Anything the whole stack accepts as a QAOA cost function."""

    @property
    def num_qubits(self) -> int:
        """Logical register width."""
        ...

    @property
    def edges(self) -> Sequence[Tuple[int, int, float]]:
        """Weighted ZZ terms, program weight convention."""
        ...

    @property
    def linear(self) -> Dict[int, float]:
        """Per-qubit linear fields (virtual RZ rotations)."""
        ...

    def to_program(
        self, gammas: Sequence[float], betas: Sequence[float]
    ) -> QAOAProgram:
        """The QAOA program for one parameter assignment."""
        ...

    def cost_values(self) -> np.ndarray:
        """Classical cost of every little-endian basis state."""
        ...

    def optimum(self) -> float:
        """The exact brute-force optimum (small ``n`` only)."""
        ...

    def content_fingerprint(self) -> str:
        """Canonical content hash (stable under term reordering)."""
        ...


def _kind(problem) -> str:
    if isinstance(problem, MaxCutProblem):
        return "maxcut"
    if isinstance(problem, IsingProblem):
        return "ising"
    return type(problem).__name__.lower()


def problem_canonical(problem) -> dict:
    """The order-independent hash pre-image of a problem's content.

    Two content-equal problems — same kind, register, accumulated terms
    and offset, whatever the construction order — canonicalise
    identically; problems whose *cost semantics* differ (a MaxCut
    instance vs the Ising form with the same couplings) differ in
    ``kind`` and never collide.
    """
    edges = sorted(
        (min(int(a), int(b)), max(int(a), int(b)), float(w))
        for a, b, w in problem.edges
    )
    linear = sorted(
        (int(q), float(h))
        for q, h in dict(getattr(problem, "linear", {}) or {}).items()
        if h
    )
    return {
        "canonical_version": PROBLEM_CANONICAL_VERSION,
        "kind": _kind(problem),
        "num_qubits": int(problem.num_qubits),
        "edges": [[a, b, repr(w)] for a, b, w in edges],
        "linear": [[q, repr(h)] for q, h in linear],
        "offset": repr(float(getattr(problem, "offset", 0.0))),
    }


def problem_fingerprint(problem) -> str:
    """Hex SHA-256 of :func:`problem_canonical`."""
    text = json.dumps(
        problem_canonical(problem), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cost_values(problem) -> np.ndarray:
    """The classical cost vector of a problem (protocol dispatch with a
    legacy fallback for bare MaxCut-likes exposing ``cut_values``)."""
    method = getattr(problem, "cost_values", None)
    if method is not None:
        return method()
    return problem.cut_values()


# ----------------------------------------------------------------------
# JSONL spec forms
# ----------------------------------------------------------------------
def _parse_pair_key(key) -> Tuple[int, int]:
    if isinstance(key, str):
        a, b = key.replace(",", "-").split("-")
        return int(a), int(b)
    a, b = key
    return int(a), int(b)


def problem_from_spec(spec: dict):
    """Build a problem from one JSONL spec object.

    Accepted forms (exactly one must be present):

    * ``"qubo"`` — ``{"matrix": [[...]], "sense": "max"|"min"}``, routed
      through :meth:`IsingProblem.from_qubo` (diagonal terms → RZ,
      off-diagonal → weighted ZZ);
    * ``"ising"`` — ``{"num_spins", "quadratic": {"i-j": J} | [[i, j, J]],
      "linear": {"i": h}, "offset"}``;
    * ``"maxcut"`` — ``{"num_nodes", "edges": [[a, b], [a, b, w], ...]}``.
    """
    forms = [k for k in ("qubo", "ising", "maxcut") if k in spec]
    if len(forms) != 1:
        raise ValueError(
            f"problem spec needs exactly one of 'qubo'/'ising'/'maxcut', "
            f"got {forms or 'none'}"
        )
    form = forms[0]
    body = spec[form]
    if not isinstance(body, dict):
        raise ValueError(f"'{form}' must be an object, got {type(body).__name__}")
    if form == "qubo":
        if "matrix" not in body:
            raise ValueError("'qubo' spec needs a 'matrix' entry")
        return IsingProblem.from_qubo(
            np.asarray(body["matrix"], dtype=float),
            sense=str(body.get("sense", "max")),
        )
    if form == "ising":
        quadratic_spec = body.get("quadratic", {})
        if isinstance(quadratic_spec, dict):
            quadratic = {
                _parse_pair_key(k): float(v)
                for k, v in quadratic_spec.items()
            }
        else:
            quadratic = {}
            for entry in quadratic_spec:
                a, b, j = entry
                key = (min(int(a), int(b)), max(int(a), int(b)))
                quadratic[key] = quadratic.get(key, 0.0) + float(j)
        return IsingProblem(
            int(body["num_spins"]),
            quadratic,
            {int(q): float(h) for q, h in body.get("linear", {}).items()},
            float(body.get("offset", 0.0)),
        )
    edges: List[Sequence] = [tuple(e) for e in body["edges"]]
    return MaxCutProblem(int(body["num_nodes"]), edges)
