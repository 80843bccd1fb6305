"""Decoherence extension bench: depth matters once T2 is modelled.

The paper motivates depth reduction by decoherence ("a reduced circuit-depth
means less decoherence time for the qubits"), but its noisy runs conflate
gate errors with duration.  Our T2 extension separates them: with idle
dephasing enabled, two compilations of the *same* instance with similar gate
counts but different depths should diverge in ARG — the shallower circuit
survives better.

This bench measures ARG for QAIM (deep) vs IC (shallow) compilations with
the depolarizing model alone and with depolarizing + T2 dephasing, and
checks that adding T2 widens IC's advantage.
"""

import numpy as np

from repro.compiler import compile_with_method
from repro.experiments.figures.common import FigureResult
from repro.experiments.harness import make_problem, scaled_instances
from repro.experiments.reporting import format_table
from repro.hardware import ibmq_16_melbourne, melbourne_calibration
from repro.qaoa import optimize_qaoa
from repro.sim import NoiseModel, evaluate_fast


def _run(instances, t2_ns=40_000.0, shots=4096, trajectories=24):
    coupling = ibmq_16_melbourne()
    calibration = melbourne_calibration()
    sims = {
        "depol only": NoiseModel.from_calibration(calibration),
        "depol + T2": NoiseModel.from_calibration(calibration, t2_ns=t2_ns),
    }
    problem_rng = np.random.default_rng(606)
    args = {(s, m): [] for s in sims for m in ("qaim", "ic")}
    depths = {m: [] for m in ("qaim", "ic")}
    for i in range(instances):
        problem = make_problem("er", 10, 0.5, problem_rng)
        opt = optimize_qaoa(problem, p=1)
        program = problem.to_program(opt.gammas, opt.betas)
        for method in ("qaim", "ic"):
            compiled = compile_with_method(
                program,
                coupling,
                method,
                calibration=calibration,
                rng=np.random.default_rng((i, method == "ic")),
            )
            depths[method].append(compiled.depth())
            for sim_name, noise in sims.items():
                result = evaluate_fast(
                    compiled, noise=noise, shots=shots,
                    trajectories=trajectories,
                    rng=np.random.default_rng((i, sim_name == "depol only")),
                )
                args[(sim_name, method)].append(result.arg)

    rows = []
    headline = {}
    for sim_name in sims:
        for method in ("qaim", "ic"):
            mean = float(np.mean(args[(sim_name, method)]))
            rows.append(
                [sim_name, method.upper(), round(float(np.mean(depths[method])), 1), mean]
            )
            key = f"arg_{'t2' if 'T2' in sim_name else 'depol'}_{method}"
            headline[key] = mean
    headline["ic_advantage_depol"] = (
        headline["arg_depol_qaim"] - headline["arg_depol_ic"]
    )
    headline["ic_advantage_t2"] = (
        headline["arg_t2_qaim"] - headline["arg_t2_ic"]
    )
    return FigureResult(
        figure="t2_decoherence",
        description=(
            f"ARG with and without T2 idle dephasing (T2={t2_ns / 1000:.0f}us), "
            f"10-node ER p=0.5 on melbourne, {instances} instances"
        ),
        table=format_table(
            ["noise model", "method", "mean depth", "mean ARG (%)"], rows
        ),
        headline=headline,
    )


def test_t2_widens_depth_advantage(benchmark, record_figure):
    instances = scaled_instances(reduced=4, paper=15)
    result = benchmark.pedantic(
        _run, kwargs={"instances": instances}, rounds=1, iterations=1
    )
    record_figure(result)
    # T2 dephasing must cost everyone something...
    assert result.headline["arg_t2_ic"] >= result.headline["arg_depol_ic"] - 1.0
    # ...and the shallow compilation must keep (or grow) its lead.
    assert (
        result.headline["ic_advantage_t2"]
        >= result.headline["ic_advantage_depol"] - 2.0
    )
    assert result.headline["arg_t2_qaim"] > 0
