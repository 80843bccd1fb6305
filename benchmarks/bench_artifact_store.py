"""Artifact-store bench: steady-state interning and byte identity.

The content-addressed store (:mod:`repro.store`) makes two measurable
promises; this bench checks each one:

1. **Steady-state throughput** — a stream of mixed jobs over a ~100-target
   working set resolves device analyses through the intern registry
   instead of recomputing Floyd–Warshall per job.  The bench replays the
   stream cold (rebuild + recompute every job) and through the store, and
   gates on a ≥2x speedup.
2. **Byte identity** — entries written in the old flat ``ResultCache``
   layout read back byte-identical through the sharded facade, before and
   after migration into their shards.

Run through pytest-benchmark with the suite, or standalone::

    PYTHONPATH=src python benchmarks/bench_artifact_store.py --quick

Quick mode is the CI smoke step: smaller working set and stream, same
assertions.
"""

import json
import pathlib
import sys
import tempfile
import time

import numpy as np

from repro.experiments.figures.common import FigureResult
from repro.experiments.reporting import format_table
from repro.hardware.coupling import CouplingGraph
from repro.hardware.devices import grid_device
from repro.hardware.target import clear_target_registry, intern_coupling
from repro.service.cache import ResultCache
from repro.store import store_stats

TARGETS = 100
OPS = 10_000
QUICK_TARGETS = 16
QUICK_OPS = 500


def _working_set(num_targets):
    """``num_targets`` content-distinct devices of identical analysis cost
    (one 6x6 grid per distinct name → distinct fingerprints)."""
    base = grid_device(6, 6)
    edges = sorted(base.edges)
    return [
        {
            "num_qubits": base.num_qubits,
            "edges": [list(e) for e in edges],
            "name": f"grid-6x6-v{i}",
        }
        for i in range(num_targets)
    ]


def _job_stream(specs, ops, seed=417):
    """A mixed steady-state stream: ops draws over the working set."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, len(specs), size=ops)


def _run_cold(specs, stream):
    """Every job rebuilds the graph and recomputes Floyd-Warshall."""
    start = time.perf_counter()
    for index in stream:
        spec = specs[index]
        coupling = CouplingGraph(
            spec["num_qubits"],
            [tuple(e) for e in spec["edges"]],
            name=spec["name"],
        )
        coupling.distance_matrix()
    return time.perf_counter() - start


def _run_store(specs, stream):
    """Every job goes through the intern registry (the service path)."""
    clear_target_registry()
    before = store_stats()
    start = time.perf_counter()
    for index in stream:
        spec = specs[index]
        coupling = intern_coupling(
            spec["num_qubits"],
            [tuple(e) for e in spec["edges"]],
            name=spec["name"],
        )
        coupling.distance_matrix()
    elapsed = time.perf_counter() - start
    delta = {
        "hits": store_stats()["registries"]["couplings"]["hits"]
        - before["registries"]["couplings"]["hits"],
        "misses": store_stats()["registries"]["couplings"]["misses"]
        - before["registries"]["couplings"]["misses"],
    }
    return elapsed, delta


def _check_byte_identity(specs):
    """Old flat-layout entries must read back byte-identical through the
    sharded facade — cold (pre-migration) and warm (post-migration)."""
    payloads = {
        f"key-{i}": json.dumps(
            {"format_version": 1, "metrics": {"i": i}, "compiled": None},
            separators=(",", ":"),
        )
        for i in range(min(len(specs), 32))
    }
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for key, text in payloads.items():
            (root / f"{key}.json").write_text(text)  # the old flat layout
        cold = ResultCache(directory=tmp, expected_version=1)
        for key, text in payloads.items():
            assert cold.get(key) == text, f"cold read differs for {key}"
            assert not (root / f"{key}.json").exists(), "migration skipped"
        warm = ResultCache(directory=tmp, expected_version=1)
        for key, text in payloads.items():
            assert warm.get(key) == text, f"warm read differs for {key}"
    return len(payloads)


def run_bench(num_targets=TARGETS, ops=OPS):
    specs = _working_set(num_targets)
    stream = _job_stream(specs, ops)

    # -- steady-state throughput -----------------------------------------
    _run_cold(specs, stream[:2])  # warm-up: first-import costs
    cold_s = _run_cold(specs, stream)
    store_s, registry_delta = _run_store(specs, stream)
    speedup = cold_s / max(store_s, 1e-12)

    # -- byte identity ---------------------------------------------------
    identical = _check_byte_identity(specs)

    clear_target_registry()

    rows = [
        ["cold (rebuild per job)", ops, cold_s * 1e3, 1.0],
        ["store (interned)", ops, store_s * 1e3, speedup],
    ]
    table = format_table(
        ["mode", "jobs", "total ms", "speedup"], rows, float_fmt="{:.3g}"
    )
    headline = {
        "ops": float(ops),
        "targets": float(num_targets),
        "cold_ms": cold_s * 1e3,
        "store_ms": store_s * 1e3,
        "store_speedup": speedup,
        "registry_hits": float(registry_delta["hits"]),
        "registry_misses": float(registry_delta["misses"]),
        "byte_identical_entries": float(identical),
    }
    return FigureResult(
        figure="artifact_store",
        description=(
            f"Artifact store: {ops} mixed jobs over a {num_targets}-target "
            f"working set, cold vs interned"
        ),
        table=table,
        headline=headline,
    )


def _assert_headline(h):
    targets = h["targets"]
    # Steady state: one miss per distinct target, hits for the rest.
    assert h["registry_misses"] == targets, (
        f"{h['registry_misses']:.0f} registry misses for "
        f"{targets:.0f} distinct targets"
    )
    assert h["registry_hits"] == h["ops"] - targets
    assert h["byte_identical_entries"] > 0
    assert h["store_speedup"] > 2.0, (
        f"store path only {h['store_speedup']:.2f}x vs cold recompute"
    )


def test_artifact_store(benchmark, record_figure):
    result = benchmark.pedantic(
        run_bench,
        kwargs={"num_targets": QUICK_TARGETS, "ops": QUICK_OPS},
        rounds=1,
        iterations=1,
    )
    record_figure(result)
    _assert_headline(result.headline)


def main(argv):
    quick = "--quick" in argv
    result = run_bench(
        num_targets=QUICK_TARGETS if quick else TARGETS,
        ops=QUICK_OPS if quick else OPS,
    )
    print(result.render())
    _assert_headline(result.headline)
    h = result.headline
    print(
        f"OK: store path {h['store_speedup']:.1f}x over cold recompute; "
        f"{h['byte_identical_entries']:.0f} flat-layout entries read back "
        f"byte-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
