"""Artifact-store bench: steady-state interning and the disk tier's cost.

The content-addressed store (:mod:`repro.store`) has one tier per half of
this bench:

1. **Steady-state throughput** — a stream of mixed jobs over a ~100-target
   working set resolves device analyses through the intern registry
   instead of recomputing Floyd–Warshall per job.  The bench replays the
   stream cold (rebuild + recompute every job) and through the store, and
   gates on a ≥2x speedup.
2. **Disk tier** — real result envelopes (compiles of random 3-regular
   MaxCut programs on ibmq_20_tokyo) are written through
   ``ResultCache.put`` into an empty cache directory, then read back by a
   fresh cache as disk hits.  The bench prints the in-process milliseconds
   per put and per disk hit, and the bytes the directory allocates per
   payload byte: while the writer is open (database, write-ahead log and
   its index) and after it closes (the database alone, once SQLite has
   checkpointed and removed the log).  Every read must return the exact
   text written; the timings carry no gate, since they follow the host's
   disk and load.

Run through pytest-benchmark with the suite, or standalone::

    PYTHONPATH=src python benchmarks/bench_artifact_store.py --quick

Quick mode is the CI smoke step: smaller working set and stream, same
assertions.
"""

import hashlib
import pathlib
import sys
import tempfile
import time

import networkx as nx
import numpy as np

from repro.compiler.serialize import FORMAT_VERSION
from repro.experiments.figures.common import FigureResult
from repro.experiments.reporting import format_table
from repro.hardware.coupling import CouplingGraph
from repro.hardware.devices import grid_device
from repro.hardware.target import clear_target_registry, intern_coupling
from repro.qaoa import MaxCutProblem
from repro.service import CompileJob, ResultCache, execute_job
from repro.store import store_stats

TARGETS = 100
OPS = 10_000
ENTRIES = 4000
QUICK_TARGETS = 16
QUICK_OPS = 500
QUICK_ENTRIES = 400
ENVELOPES = 24  # distinct compiles, reused under distinct keys


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


def _tokyo_envelopes(count, seed=22):
    """``count`` result envelopes of real tokyo compiles: 3-regular MaxCut
    programs of 8-16 nodes under the paper's methods."""
    methods = ("ic", "ip", "qaim", "naive")
    envelopes = []
    for i in range(count):
        n = 8 + 2 * (i % 5)
        graph = nx.random_regular_graph(3, n, seed=seed + i)
        program = MaxCutProblem(n, sorted(graph.edges())).to_program([0.7], [0.35])
        job = CompileJob(
            program=program, device="ibmq_20_tokyo", method=methods[i % len(methods)], seed=i
        )
        result = execute_job(job)
        assert result.ok, result.error
        envelopes.append(result.payload)
    return envelopes


def _allocated_bytes(directory):
    return sum(p.stat().st_blocks * 512 for p in pathlib.Path(directory).iterdir())


def _measure_disk_tier(entries):
    """Put ``entries`` real envelopes into an empty cache directory, then
    read each back as a disk hit from a fresh cache."""
    envelopes = _tokyo_envelopes(min(entries, ENVELOPES))
    items = [
        (hashlib.sha256(str(i).encode()).hexdigest(), envelopes[i % len(envelopes)])
        for i in range(entries)
    ]
    payload_bytes = sum(len(text.encode("utf-8")) for _, text in items)
    with tempfile.TemporaryDirectory() as tmp:
        writer = ResultCache(max_entries=1, directory=tmp, expected_version=FORMAT_VERSION)
        start = time.perf_counter()
        for key, text in items:
            writer.put(key, text)
        put_s = time.perf_counter() - start
        allocated_open = _allocated_bytes(tmp)
        writer.close()
        allocated_closed = _allocated_bytes(tmp)
        reader = ResultCache(max_entries=1, directory=tmp, expected_version=FORMAT_VERSION)
        start = time.perf_counter()
        texts = [reader.get(key) for key, _ in items]
        hit_s = time.perf_counter() - start
        assert reader.stats.disk_hits == entries
        for (key, text), read in zip(items, texts):
            assert read == text, f"disk hit for {key[:12]} is not the text written"
        assert reader.disk_entries() == entries
        reader.close()
    return {
        "entries": float(entries),
        "envelope_kb_mean": payload_bytes / entries / 1e3,
        "put_ms_per_entry": put_s * 1e3 / entries,
        "disk_hit_ms_per_entry": hit_s * 1e3 / entries,
        "allocated_open_per_payload_byte": allocated_open / payload_bytes,
        "allocated_closed_per_payload_byte": allocated_closed / payload_bytes,
    }


def run_bench(num_targets=TARGETS, ops=OPS, entries=ENTRIES):
    specs = _working_set(num_targets)
    stream = _job_stream(specs, ops)

    # -- steady-state throughput -----------------------------------------
    _run_cold(specs, stream[:2])  # warm-up: first-import costs
    cold_s = _run_cold(specs, stream)
    store_s, registry_delta = _run_store(specs, stream)
    speedup = cold_s / max(store_s, 1e-12)

    clear_target_registry()

    # -- disk tier ---------------------------------------------------------
    disk = _measure_disk_tier(entries)

    rows = [
        ["cold (rebuild per job)", ops, cold_s * 1e3, 1.0],
        ["store (interned)", ops, store_s * 1e3, speedup],
    ]
    table = format_table(
        ["mode", "jobs", "total ms", "speedup"], rows, float_fmt="{:.3g}"
    ) + "\n\n" + format_table(
        ["disk tier (real tokyo envelopes)", "value"],
        [
            ["entries", int(disk["entries"])],
            ["envelope KB (mean)", disk["envelope_kb_mean"]],
            ["put ms / entry", disk["put_ms_per_entry"]],
            ["disk hit ms / entry", disk["disk_hit_ms_per_entry"]],
            ["allocated / payload bytes, writer open", disk["allocated_open_per_payload_byte"]],
            ["allocated / payload bytes, closed", disk["allocated_closed_per_payload_byte"]],
        ],
        float_fmt="{:.3g}",
    )
    headline = {
        "ops": float(ops),
        "targets": float(num_targets),
        "cold_ms": cold_s * 1e3,
        "store_ms": store_s * 1e3,
        "store_speedup": speedup,
        "registry_hits": float(registry_delta["hits"]),
        "registry_misses": float(registry_delta["misses"]),
        **{f"disk_{name}": value for name, value in disk.items()},
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
    assert h["store_speedup"] > 2.0, (
        f"store path only {h['store_speedup']:.2f}x vs cold recompute"
    )


def test_artifact_store(benchmark, record_figure):
    result = benchmark.pedantic(
        run_bench,
        kwargs={"num_targets": QUICK_TARGETS, "ops": QUICK_OPS, "entries": QUICK_ENTRIES},
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
        entries=QUICK_ENTRIES if quick else ENTRIES,
    )
    print(result.render())
    _assert_headline(result.headline)
    h = result.headline
    print(
        f"OK: store path {h['store_speedup']:.1f}x over cold recompute; "
        f"{h['disk_entries']:.0f} disk-tier entries read back byte-identical "
        f"(put {h['disk_put_ms_per_entry']:.3f} ms, disk hit "
        f"{h['disk_disk_hit_ms_per_entry']:.3f} ms per entry, "
        f"{h['disk_allocated_closed_per_payload_byte']:.2f} allocated bytes per "
        f"payload byte once closed)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
