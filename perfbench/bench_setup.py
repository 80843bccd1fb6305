"""Service set-up shared by the benchmark and its fresh-interpreter probe.

``setup_s`` is the time from a fresh interpreter until the first request can
be served: ``import repro``, cache and engine construction, and warming the
device targets the workload compiles against.  Run as a script, this file
performs exactly that set-up and prints ``ready``; ``run.py`` times it from
process start to that line, several times per run.

    python3 perfbench/bench_setup.py <workload> <src dir> <scratch dir>
"""

from __future__ import annotations

import os
import sys

#: One BLAS thread per process: the resubmit_warm prep runs one process per
#: core, and a multithreaded BLAS would oversubscribe the cores.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

TOKYO = "ibmq_20_tokyo"
MELBOURNE = "ibmq_16_melbourne"


def reap_resource_tracker_at_exit() -> None:
    """Stop and wait for multiprocessing's resource-tracker process when
    this process exits.  The shared-memory tier starts one implicitly; the
    handler is registered first so it runs last, after the tier's own
    cleanup."""
    import atexit
    from multiprocessing import resource_tracker

    atexit.register(resource_tracker._resource_tracker._stop)


def prep_processes() -> int:
    """Processes that fill resubmit_warm's cache before the timed loop."""
    return min(2, os.cpu_count() or 1)


def warm_targets() -> None:
    """Intern and analyse every target whose tables can exist before the
    first request: both devices without calibration, and melbourne with its
    Figure 10(a) calibration (VIC included).  Tokyo VIC jobs draw a fresh
    calibration per job seed, so their targets cannot be warmed."""
    from repro.hardware.devices import get_device, melbourne_calibration
    from repro.hardware.target import intern_target

    for name in (TOKYO, MELBOURNE):
        target = intern_target(get_device(name))
        target.routing_distances("hop")
        target.path_oracle("hop")
    calibrated = intern_target(get_device(MELBOURNE), melbourne_calibration())
    calibrated.routing_distances("hop")
    calibrated.path_oracle("hop")
    calibrated.vic_distances()
    calibrated.routing_distances("vic")


def build_service(workload: str, cache_dir: str, traced: bool = False):
    """The cache and engines a workload's first request needs.  A traced
    run hands the engines the benchmark's span-recording ``execute_fn``
    wrappers around the same executors."""
    from repro.compiler.serialize import FORMAT_VERSION
    from repro.service import (
        BatchEngine,
        ResultCache,
        execute_eval_job,
        execute_job,
        execute_optimize_job,
    )

    if traced:
        from bench_trace import (
            traced_execute_eval_job as execute_eval_job,
            traced_execute_job as execute_job,
            traced_execute_optimize_job as execute_optimize_job,
        )

    warm_targets()
    if workload == "variational":
        cache = ResultCache(expected_version=FORMAT_VERSION)
        return {
            "cache": cache,
            "optimize": BatchEngine(cache=cache, execute_fn=execute_optimize_job),
            # Serial: a pool's second worker runs on the other core, whose
            # speed the client's calibration runs cannot see (on a 2-core
            # host, ten pooled runs spread 0.32 of their median in
            # reference units).
            "eval": BatchEngine(cache=cache, execute_fn=execute_eval_job),
        }
    cache = ResultCache(directory=cache_dir, expected_version=FORMAT_VERSION)
    return {"cache": cache, "compile": BatchEngine(cache=cache, execute_fn=execute_job)}


if __name__ == "__main__":
    reap_resource_tracker_at_exit()
    workload, src, scratch = sys.argv[1:4]
    sys.path.insert(0, src)
    import repro  # noqa: F401  (the import is part of what is timed)

    build_service(workload, scratch)
    print("ready", flush=True)
