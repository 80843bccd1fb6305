"""Packing-density study on a 36-qubit grid (Section V-H / Figure 12).

Sweeps the maximum allowed CPHASE gates per layer in IC(+QAIM) on the
hypothetical 6x6-grid architecture and prints the depth / gate-count /
compile-time trade-off the paper plots in Figure 12, plus the usage
directives of Section VI ("if compilation time is of concern, packing the
layers to the fullest may provide the best performance ...").

Run:  python examples/packing_density_study.py  [--nodes N] [--instances K]
"""

import argparse

import numpy as np

from repro import MaxCutProblem, grid_device
from repro.compiler import compile_qaoa
from repro.experiments.reporting import format_table
from repro.qaoa import erdos_renyi_graph


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=25)
    parser.add_argument("--instances", type=int, default=5)
    parser.add_argument(
        "--limits", type=int, nargs="+", default=[1, 3, 5, 7, 9, 11, 13]
    )
    args = parser.parse_args()

    device = grid_device(6, 6)
    rng = np.random.default_rng(7)
    problems = [
        MaxCutProblem.from_graph(erdos_renyi_graph(args.nodes, 0.5, rng))
        for _ in range(args.instances)
    ]
    programs = [p.to_program([0.7], [0.35]) for p in problems]

    rows = []
    series = {}
    for limit in args.limits:
        depths, gates, times = [], [], []
        for program in programs:
            compiled = compile_qaoa(
                program,
                device,
                ordering="ic",
                packing_limit=limit,
                rng=np.random.default_rng(limit),
            )
            depths.append(compiled.depth())
            gates.append(compiled.gate_count())
            times.append(compiled.compile_time)
        series[limit] = (
            float(np.mean(depths)),
            float(np.mean(gates)),
            float(np.mean(times)),
        )
        rows.append(
            [
                limit,
                f"{series[limit][0]:.1f}",
                f"{series[limit][1]:.1f}",
                f"{series[limit][2] * 1e3:.2f} ms",
            ]
        )

    print(
        f"IC(+QAIM) on {device.name}, {args.nodes}-node ER graphs "
        f"(p_edge = 0.5), {args.instances} instances per point\n"
    )
    print(
        format_table(
            ["packing limit", "mean depth", "mean gates", "mean compile"],
            rows,
        )
    )

    best_depth = min(series, key=lambda k: series[k][0])
    best_gates = min(series, key=lambda k: series[k][1])
    best_time = min(series, key=lambda k: series[k][2])
    print(
        f"\ndirectives: depth-optimal limit = {best_depth}, "
        f"gate-optimal limit = {best_gates}, "
        f"compile-time-optimal limit = {best_time}"
    )
    print(
        "Compiling multiple times with different packing limits and keeping "
        "the best circuit (as the paper suggests) is cheap at this scale."
    )


if __name__ == "__main__":
    main()
