"""Method-comparison bench: the structural methods against the paper's.

Scores every registered methodology — QAIM / IP / IC / VIC plus the
odd/even SWAP network and the LHZ parity encoding — on the paper's two
devices (ibmq_16_melbourne, ibmq_20_tokyo): circuit depth, gate/SWAP
counts, and noisy-simulation ARG on one optimised ER instance family.

The structural methods trade differently: the SWAP network pays a fixed
O(n) brick schedule regardless of problem density (so it beats routed
flows on dense graphs), while parity swaps routing for locality at the
cost of a larger register (one qubit per edge) and constraint gadgets.

``python benchmarks/bench_methods.py --quick`` runs the depth-contract
smoke only (CI gate): SWAP-network brick layers must stay <= n per QAOA
level and both structural methods must pass the fast-path verifier
(``fastpath_plan``).
"""

import numpy as np

from repro.compiler import compile_with_method
from repro.experiments.figures.common import FigureResult
from repro.experiments.harness import make_problem, scaled_instances
from repro.hardware import get_device, melbourne_calibration
from repro.hardware.calibration import random_calibration
from repro.qaoa import optimize_qaoa
from repro.sim import NoiseModel
from repro.sim.fastpath import evaluate_fast, fastpath_plan

METHODS = ("qaim", "ip", "ic", "vic", "swap_network", "parity")
DEVICES = ("ibmq_16_melbourne", "ibmq_20_tokyo")


def _calibration_for(coupling):
    if coupling.name == "ibmq_16_melbourne":
        return melbourne_calibration()
    return random_calibration(coupling, rng=np.random.default_rng(7))


def run(instances=3, num_nodes=6, shots=4096, trajectories=8, seed=7):
    """ARG + depth comparison across methods and devices.

    Instances stay small (``num_nodes`` defaults to 6) so the parity
    register — one qubit per edge — fits both devices and the noisy
    reference simulation stays exact-size.
    """
    rng = np.random.default_rng(seed)
    rows = {
        (device, method): {"arg": [], "depth": [], "swaps": []}
        for device in DEVICES
        for method in METHODS
    }
    for index in range(instances):
        problem = make_problem("er", num_nodes, 0.5, rng)
        if not problem.edges:
            continue
        opt = optimize_qaoa(problem, p=1)
        program = problem.to_program(opt.gammas, opt.betas)
        for device in DEVICES:
            coupling = get_device(device)
            calibration = _calibration_for(coupling)
            noise = NoiseModel.from_calibration(calibration)
            for method in METHODS:
                compiled = compile_with_method(
                    program,
                    coupling,
                    method,
                    calibration=calibration if method == "vic" else None,
                    rng=np.random.default_rng(seed + index),
                )
                outcome = evaluate_fast(
                    compiled,
                    noise=noise,
                    shots=shots,
                    trajectories=trajectories,
                    rng=np.random.default_rng(seed + index),
                )
                cell = rows[(device, method)]
                cell["arg"].append(outcome.arg)
                cell["depth"].append(compiled.circuit.depth())
                cell["swaps"].append(compiled.swap_count)

    headline = {}
    lines = [
        f"{'device':<20} {'method':<14} {'ARG%':>8} {'depth':>6} {'swaps':>6}"
    ]
    for device in DEVICES:
        for method in METHODS:
            cell = rows[(device, method)]
            if not cell["arg"]:
                continue
            arg = float(np.mean(cell["arg"]))
            depth = float(np.mean(cell["depth"]))
            swaps = float(np.mean(cell["swaps"]))
            short = device.replace("ibmq_", "")
            headline[f"arg_{method}_{short}"] = arg
            headline[f"depth_{method}_{short}"] = depth
            lines.append(
                f"{device:<20} {method:<14} {arg:>8.2f} {depth:>6.1f} "
                f"{swaps:>6.1f}"
            )
    return FigureResult(
        figure="methods",
        description=(
            "structural methods (swap_network, parity) vs QAIM/IP/IC/VIC: "
            f"noisy ARG and depth, ER(n={num_nodes}, p_edge=0.5), "
            f"{instances} instance(s)"
        ),
        table="\n".join(lines),
        headline=headline,
        raw={
            f"{device}:{method}": cell
            for (device, method), cell in rows.items()
        },
    )


def quick_smoke(num_nodes=6, seed=3):
    """CI depth-contract gate, no noisy simulation.

    For both devices: the SWAP network's per-level brick layers stay
    <= n, and both structural circuits pass :func:`fastpath_plan`.
    Returns the collected depths.
    """
    rng = np.random.default_rng(seed)
    problem = make_problem("er", num_nodes, 0.6, rng)
    program = problem.to_program([0.7], [0.35])
    depths = {}
    for device in DEVICES:
        coupling = get_device(device)
        swapnet = compile_with_method(
            program, coupling, "swap_network",
            rng=np.random.default_rng(seed),
        )
        plan = fastpath_plan(swapnet)
        assert plan.ok, f"{device}: {plan.reason}"
        trace = {r.name: r for r in swapnet.pass_trace}
        layers = trace["route/swap_network"].info["brick_layers"]
        assert all(used <= program.num_qubits for used in layers), layers
        parity = compile_with_method(
            program, coupling, "parity", rng=np.random.default_rng(seed)
        )
        plan = fastpath_plan(parity)
        assert plan.ok, f"{device}: {plan.reason}"
        depths[device] = {
            "swap_network": swapnet.circuit.depth(),
            "parity": parity.circuit.depth(),
        }
    return depths


def test_methods_quick_smoke():
    depths = quick_smoke()
    for device in DEVICES:
        assert depths[device]["swap_network"] > 0
        assert depths[device]["parity"] > 0


def test_methods_arg_comparison(benchmark, record_figure):
    instances = scaled_instances(reduced=2, paper=10)
    result = benchmark.pedantic(
        run,
        kwargs={"instances": instances},
        rounds=1,
        iterations=1,
    )
    record_figure(result)
    h = result.headline
    for device in ("16_melbourne", "20_tokyo"):
        for method in METHODS:
            assert f"arg_{method}_{device}" in h
            assert np.isfinite(h[f"arg_{method}_{device}"])
    # Depth contract: the SWAP network's schedule is O(n) by construction
    # — per level at most n brick layers of (cphase, swap) plus the H,
    # RZ and RX columns — independent of problem density.
    n = 6
    for device in ("16_melbourne", "20_tokyo"):
        assert h[f"depth_swap_network_{device}"] <= 2 * n + 4


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="depth-contract smoke only (no noisy ARG simulation)",
    )
    opts = parser.parse_args()
    if opts.quick:
        depths = quick_smoke()
        for device, cell in depths.items():
            print(
                f"{device}: swap_network depth={cell['swap_network']} "
                f"parity depth={cell['parity']} (contracts hold)"
            )
    else:
        print(run().render())
