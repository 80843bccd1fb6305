"""Structural comparison of the methodologies on one instance.

Runs NAIVE / QAIM / IP / IC on the same 16-node problem and breaks each
compiled circuit down with :func:`repro.compiler.analyze_compiled`:

* routing overhead (fraction of native gates that only move qubits),
* mean layer concurrency (what IP maximises),
* total logical-qubit displacement (what IC exploits),
* hottest coupling (crosstalk planning input).

The table makes each method's mechanism visible: QAIM cuts routing overhead
via placement, IP raises concurrency, IC does both by re-sorting against
the drifting mapping.

Run:  python examples/compilation_analysis.py
"""

import numpy as np

from repro import MaxCutProblem, ibmq_20_tokyo
from repro.compiler import compile_with_method
from repro.compiler.analysis import analyze_compiled
from repro.experiments.reporting import format_table
from repro.qaoa import erdos_renyi_graph


def main():
    rng = np.random.default_rng(21)
    device = ibmq_20_tokyo()
    problem = MaxCutProblem.from_graph(erdos_renyi_graph(16, 0.35, rng))
    program = problem.to_program([0.7], [0.35])
    print(f"{problem} on {device.name}\n")

    rows = []
    for method in ("naive", "qaim", "ip", "ic"):
        compiled = compile_with_method(
            program, device, method, rng=np.random.default_rng(5)
        )
        analysis = analyze_compiled(compiled)
        hot_edge, hot_count = analysis.hottest_edges(top=1)[0]
        rows.append(
            [
                method.upper(),
                compiled.depth(),
                analysis.total_native_gates,
                f"{100 * analysis.routing_overhead:.1f}%",
                f"{analysis.mean_concurrency:.2f}",
                sum(analysis.displacement.values()),
                f"{hot_edge[0]}-{hot_edge[1]} ({hot_count})",
            ]
        )

    print(
        format_table(
            [
                "method",
                "depth",
                "native gates",
                "routing overhead",
                "concurrency",
                "total displacement",
                "hottest coupling",
            ],
            rows,
        )
    )
    print(
        "\nReading: QAIM lowers routing overhead (better start), IP lifts "
        "concurrency (better order), IC lowers both depth and overhead by "
        "re-sorting gates as SWAPs drift the mapping."
    )


if __name__ == "__main__":
    main()
