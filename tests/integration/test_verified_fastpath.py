"""Every registered method's output is proven, not sampled.

The verifiers (:func:`~repro.sim.fastpath.fastpath_plan` for the direct
encoding, :func:`~repro.sim.fastpath.parity_plan` for the parity one)
must accept what every registered method emits under both routers on
both paper devices — a refusal would send the evaluation to the
gate-level simulators without a word.  They must also refuse a circuit
whose classical bit ``c[final_mapping[q]]`` holds another qubit's
outcome, and a verified sampled evaluation of either encoding must
return the very numbers of the gate-level fallback.
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
from repro.sim import NoiseModel
from repro.sim.fastpath import evaluate_fast, fastpath_plan, parity_plan

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


def _plan(compiled):
    if compiled.encoding == "parity":
        return parity_plan(compiled)
    return fastpath_plan(compiled)


@pytest.mark.parametrize("device", DEVICES, ids=lambda d: d.__name__)
@pytest.mark.parametrize("router", ["layered", "sabre"])
@pytest.mark.parametrize("method", available_methods())
def test_verifier_accepts_every_method(device, method, router):
    for p in (1, 2):
        for seed in (0, 1, 2):
            compiled = _compile(device, method, router, p, seed)
            plan = _plan(compiled)
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
    assert parity_plan(compiled).ok
    plan = parity_plan(_swap_two_homes(compiled))
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
    """Parity's noisy side is gate by gate on both paths, so rh is equal;
    r0 differs only in the order of the expectation's sum."""
    fast, slow = _fast_and_fallback("parity", "exact")
    assert fast.rh == slow.rh
    assert abs(fast.r0 - slow.r0) < 1e-12
