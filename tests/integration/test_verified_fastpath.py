"""Every registered method's output is proven, not sampled.

The verifier (:func:`~repro.sim.fastpath.fastpath_plan`, one walk for
the direct and the parity encoding) must accept what every registered
method emits under both routers on both paper devices — a refusal would
send the evaluation to the gate-level simulators without a word.  It
must also refuse a circuit whose classical bit ``c[final_mapping[q]]``
holds another qubit's outcome, and a verified sampled evaluation of
either encoding must return the very numbers of the gate-level fallback.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler import available_methods, compile_with_method
from repro.circuits.gates import Instruction
from repro.hardware import (
    ibmq_16_melbourne,
    ibmq_20_tokyo,
    melbourne_calibration,
    random_calibration,
)
from repro.qaoa import MaxCutProblem
from repro.sim import NoiseModel, fastpath
from repro.sim.fastpath import evaluate_fast, fastpath_plan

DEVICES = [ibmq_16_melbourne, ibmq_20_tokyo]


def _problem(seed, n=8, chords=4):
    """A ring plus random chords: connected, and at most 15 edges, so
    the parity encoding fits melbourne."""
    rng = np.random.default_rng(seed)
    edges = {(i, (i + 1) % n) for i in range(n)}
    while len(edges) < n + chords:
        a, b = sorted(int(v) for v in rng.choice(n, size=2, replace=False))
        if (a, b) not in edges and (b, a) not in edges:
            edges.add((a, b))
    return MaxCutProblem(n, sorted(edges))


def _calibration(coupling, method):
    if method != "vic":
        return None
    if coupling.name == "ibmq_16_melbourne":
        return melbourne_calibration()
    return random_calibration(coupling, rng=np.random.default_rng(7))


def _compile(device, method, router, p, seed):
    coupling = device()
    program = _problem(seed).to_program([0.7, -0.4][:p], [0.35, 0.2][:p])
    return compile_with_method(
        program,
        coupling,
        method,
        calibration=_calibration(coupling, method),
        rng=np.random.default_rng(seed),
        router=router,
    )


@pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("router", ["layered", "sabre"])
@pytest.mark.parametrize("method", available_methods())
def test_verifier_accepts_every_method(device, method, router):
    for p in (1, 2):
        for seed in (0, 1, 2):
            compiled = _compile(device, method, router, p, seed)
            plan = fastpath_plan(compiled)
            assert plan.ok, (p, seed, plan.reason)
            # every logical qubit (or parity slot) is measured last, at
            # its final home
            n = len(compiled.final_mapping)
            tail = compiled.circuit.instructions[-n:]
            assert [inst.name for inst in tail] == ["measure"] * n
            assert sorted(inst.qubits[0] for inst in tail) == sorted(
                compiled.final_mapping.values()
            )


def _swap_two_homes(compiled):
    """Append a SWAP after the measures between the final homes of two
    register entries whose homes are coupled, and swap them in the
    recorded final mapping: every gate still checks out, but the two
    classical bits now hold each other's outcome."""
    final = dict(compiled.final_mapping)
    owner = {p: q for q, p in final.items()}
    for a, b in sorted(compiled.coupling.edges):
        if a in owner and b in owner:
            break
    else:
        raise AssertionError("no two final homes are coupled")
    qa, qb = owner[a], owner[b]
    final[qa], final[qb] = b, a
    circuit = compiled.circuit.copy()
    circuit.append(Instruction("swap", (a, b)))
    return dataclasses.replace(compiled, circuit=circuit, final_mapping=final)


def test_fastpath_plan_refuses_measures_bound_to_the_wrong_qubit():
    compiled = _compile(ibmq_16_melbourne, "ic", "layered", 1, 0)
    assert fastpath_plan(compiled).ok
    plan = fastpath_plan(_swap_two_homes(compiled))
    assert not plan.ok
    assert plan.reason.startswith("measure bound to the wrong qubit")


def test_parity_plan_refuses_measures_bound_to_the_wrong_slot():
    compiled = _compile(ibmq_16_melbourne, "parity", "layered", 1, 0)
    assert fastpath_plan(compiled).ok
    plan = fastpath_plan(_swap_two_homes(compiled))
    assert not plan.ok
    assert plan.reason.startswith("measure bound to the wrong qubit")


def test_plan_refuses_a_home_last_measured_while_unmapped():
    compiled = _compile(ibmq_16_melbourne, "qaim", "layered", 1, 0)
    free = next(
        p
        for p in range(compiled.circuit.num_qubits)
        if p not in compiled.final_mapping.values()
    )
    q, home = 0, compiled.final_mapping[0]
    circuit = compiled.circuit.copy()
    # q steps aside, c[home] is overwritten by a measure of the unmapped
    # wire, and q comes back: the mapping still checks out
    circuit.append(Instruction("swap", (home, free)))
    circuit.append(Instruction("measure", (home,)))
    circuit.append(Instruction("swap", (home, free)))
    tampered = dataclasses.replace(compiled, circuit=circuit)
    plan = fastpath_plan(tampered)
    assert not plan.ok
    assert f"c[{home}] reads an unmapped wire, not logical qubit {q}" in plan.reason


def _fast_and_fallback(method, mode):
    calibration = melbourne_calibration()
    program = _problem(3).to_program([0.7], [0.35])
    compiled = compile_with_method(
        program,
        ibmq_16_melbourne(),
        method,
        calibration=calibration if method == "vic" else None,
        rng=np.random.default_rng(3),
    )
    fast, slow = (
        evaluate_fast(
            compiled,
            noise=NoiseModel.from_calibration(calibration),
            shots=1024,
            trajectories=4,
            rng=np.random.default_rng(11),
            mode=mode,
            use_fastpath=use_fastpath,
        )
        for use_fastpath in (True, False)
    )
    assert fast.fastpath and not slow.fastpath
    return fast, slow


@pytest.mark.parametrize("method", available_methods())
def test_sampled_fastpath_equals_gate_level_fallback(method):
    """Same generator, same draws: r0 and rh are equal, not just close."""
    fast, slow = _fast_and_fallback(method, "sampled")
    assert fast.r0 == slow.r0
    assert fast.rh == slow.rh


def test_exact_parity_fastpath_equals_gate_level_fallback():
    """The fast path evolves and sums over the slot register and the
    fallback over the physical one, so exact r0 and rh agree up to the
    rounding of those sums."""
    fast, slow = _fast_and_fallback("parity", "exact")
    assert abs(fast.rh - slow.rh) < 1e-12
    assert abs(fast.r0 - slow.r0) < 1e-12


@pytest.mark.parametrize("mode", ["sampled", "exact"])
def test_verified_parity_eval_never_runs_gate_by_gate(monkeypatch, mode):
    """A verified parity circuit's noisy side replays its trajectories in
    the slot register: no gate-level simulator is built."""

    def gate_level(*args, **kwargs):
        raise AssertionError("a gate-level simulator was built")

    monkeypatch.setattr(fastpath, "NoisySimulator", gate_level)
    monkeypatch.setattr(fastpath, "StatevectorSimulator", gate_level)
    compiled = _compile(ibmq_16_melbourne, "parity", "layered", 2, 0)
    outcome = evaluate_fast(
        compiled,
        noise=NoiseModel.from_calibration(
            melbourne_calibration(), t2_ns=40_000.0
        ),
        shots=1024,
        trajectories=4,
        rng=np.random.default_rng(1),
        mode=mode,
    )
    assert outcome.fastpath and outcome.rh is not None
