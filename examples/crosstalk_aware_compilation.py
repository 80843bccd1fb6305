"""Crosstalk-aware post-compilation pass (Section VI, "Crosstalk").

The paper proposes adding a sequentialisation step after compilation to
serialise parallel operations on the (few) crosstalk-prone coupling pairs,
following Murali et al. (ASPLOS'20), who found only 5 of 221 couplings on
IBM Poughkeepsie to be high-crosstalk.

This example compiles an aggressively parallelised circuit with IP, declares
a small set of conflicting coupling pairs on ibmq_20_tokyo, and shows:

* how many conflicting co-schedules the IP-compiled circuit contains,
* the depth cost of serialising exactly those conflicts (and nothing else).

Run:  python examples/crosstalk_aware_compilation.py
"""

import numpy as np

from repro import MaxCutProblem, ibmq_20_tokyo, sequentialize_crosstalk
from repro.compiler import compile_with_method, count_conflicts
from repro.experiments.reporting import format_table
from repro.qaoa import random_regular_graph


def main():
    rng = np.random.default_rng(99)
    device = ibmq_20_tokyo()

    # A dense problem so IP really packs the layers.
    problem = MaxCutProblem.from_graph(random_regular_graph(14, 6, rng))
    program = problem.to_program([0.7], [0.35])
    compiled = compile_with_method(program, device, "ip", rng=rng)

    # Murali et al. found the high-crosstalk pairs by device characterisation;
    # we stand that in by flagging a handful of coupling pairs that the
    # IP-compiled circuit actually co-schedules (spatially adjacent parallel
    # couplings are exactly the geometry that crosstalks).
    from repro.circuits import asap_layers

    co_scheduled = set()
    for layer in asap_layers(compiled.circuit):
        edges = sorted(
            tuple(sorted(i.qubits)) for i in layer if i.is_two_qubit
        )
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                co_scheduled.add((edges[i], edges[j]))
    conflicts = sorted(co_scheduled)[:5]
    n_conflicts = count_conflicts(compiled.circuit, conflicts)
    fixed = sequentialize_crosstalk(compiled.circuit, conflicts)

    rows = [
        [
            "IP (as compiled)",
            compiled.circuit.depth(),
            n_conflicts,
        ],
        [
            "IP + crosstalk pass",
            fixed.depth(),
            count_conflicts(fixed, conflicts),
        ],
    ]
    print(
        f"{problem} compiled with IP(+QAIM) on {device.name}; "
        f"{len(conflicts)} crosstalk-prone coupling pairs declared\n"
    )
    print(
        format_table(
            ["circuit", "high-level depth", "conflicting co-schedules"],
            rows,
        )
    )
    overhead = fixed.depth() - compiled.circuit.depth()
    print(
        f"\nserialising only the flagged pairs removed every conflict at a "
        f"cost of {overhead} layer(s) — targeted sequentialisation, not "
        f"global de-parallelisation."
    )


if __name__ == "__main__":
    main()
