#!/usr/bin/env python3
"""Service benchmark for the QAOA compiler.

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 20 --trace 0

Workloads: ``compile_cold``, ``resubmit_warm`` and ``variational`` (see
``perfbench/design.json`` for why each exists and what every metric means).
The program is imported from ``src/`` of the checkout this file sits in.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` first runs the
same workload and seed untraced in a child process under a different
``PYTHONHASHSEED``, then a traced run of its own, and reports the per-layer
metrics; the two runs' timing-free digests must agree.

Timings are reported in reference seconds: wall time scaled by a fixed
calibration loop run around it, so that the host's drifting speed cancels
(``bench_clock.py``); the raw wall figures are printed beside them.

Every output is checked by an independent oracle (``bench_oracle.py``)
outside the clock.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every output was accepted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("compile_cold", "resubmit_warm", "variational")
SETUP_PROBES = 5
#: Calibration runs before and after each set-up probe (median taken).
PROBE_CALIBRATIONS = 5
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: Value of a quality metric on a workload whose outputs it does not describe.
NOT_APPLICABLE = 1.0


def q_mean(values, field, applicable):
    if not applicable:
        return NOT_APPLICABLE
    return statistics.fmean(v if field is None else v[field] for v in values)


def nearest_rank(values, percentile):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def setup_seconds(workload: str, scratch: pathlib.Path):
    """Fresh-interpreter set-up time, several times; returns each probe's
    (raw wall seconds, reference seconds)."""
    from bench_clock import calibration_s, reference_scale

    samples = []
    for k in range(SETUP_PROBES):
        probe_dir = scratch / f"probe-{k}"
        before = calibration_s(PROBE_CALIBRATIONS)
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "bench_setup.py"), workload, str(SRC), str(probe_dir)],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.monotonic() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(
            (elapsed, elapsed * reference_scale(before, calibration_s(PROBE_CALIBRATIONS)))
        )
    return samples


def untraced_baseline(args):
    """The same workload and seed, untraced, in a child process under a
    different PYTHONHASHSEED; returns (jobs_per_s, digest, hash seed)."""
    parent_seed = os.environ.get("PYTHONHASHSEED", "random")
    child_seed = "1" if parent_seed != "1" else "2"
    env = dict(os.environ, PYTHONHASHSEED=child_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"untraced baseline run failed (exit {proc.returncode})")
    digest = next(ln.split()[1] for ln in lines if ln.startswith("digest "))
    result = json.loads(lines[-1])
    return result["metrics"]["jobs_per_s"]["value"], digest, child_seed


def prepare_resubmit(seed: int, cache_dir: pathlib.Path, parts: int) -> dict:
    """Fill the disk cache for resubmit_warm in ``parts`` prep processes
    (untimed); returns every sweep's keys, the prep failure count and the
    digest of the reference sweeps' fresh compile."""
    from bench_oracle import Digest

    procs = [
        subprocess.Popen(
            [sys.executable, str(HERE / "bench_workloads.py"), "prep", str(seed),
             str(cache_dir), str(SRC), str(part), str(parts)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for part in range(parts)
    ]
    outputs = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(err[-2000:])
                raise RuntimeError("resubmit_warm prep failed")
            outputs.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    keys, reference = {}, {}
    for out in outputs:
        keys.update({int(k): v for k, v in out["keys"].items()})
        reference.update({int(k): v for k, v in out["reference"].items()})
    digest = Digest()
    for i in sorted(reference):
        for line in reference[i]:
            digest.add(json.loads(line))
    return {
        "keys": [keys[i] for i in range(len(keys))],
        "failed": sum(out["failed"] for out in outputs),
        "digest": digest.hexdigest(),
    }


def run(args, scratch: pathlib.Path) -> int:
    import bench_setup
    import bench_trace
    import bench_workloads as W
    from bench_oracle import Rejection

    report = []
    baseline = untraced_baseline(args) if args.trace else None
    tracer = bench_trace.install() if args.trace else bench_trace.NullTracer()

    prep = None
    cache_dir = scratch / "cache"
    if args.workload == "resubmit_warm":
        prep = prepare_resubmit(args.seed, cache_dir, bench_setup.prep_processes())

    service = bench_setup.build_service(args.workload, str(cache_dir), traced=bool(args.trace))
    cache_before = service["cache"].stats.snapshot()
    outcome = W.Outcome()
    wall_start = time.monotonic()
    if args.workload == "compile_cold":
        W.run_compile_cold(tracer, service, args.seed, args.seconds, outcome)
    elif args.workload == "resubmit_warm":
        W.run_resubmit_warm(tracer, service, args.seed, args.seconds, outcome, prep)
    else:
        W.run_variational(tracer, service, args.seed, args.seconds, outcome)
    wall = time.monotonic() - wall_start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cache_after = service["cache"].stats.snapshot()
    W.finish_oracle(outcome)

    digest = outcome.digest.hexdigest()
    if prep is not None:
        if prep["failed"]:
            outcome.reject(Rejection("prep", f"{prep['failed']} prep jobs failed"))
        if prep["digest"] != digest:
            outcome.reject(
                Rejection("digest", f"cached outputs digest {digest} != fresh compile {prep['digest']}")
            )
    if baseline is not None and baseline[1] != digest:
        outcome.reject(
            Rejection("digest", f"traced digest {digest} != untraced {baseline[1]}")
        )

    design = json.loads((HERE / "design.json").read_text())
    tail_pct = design["workloads"][args.workload]["tail_percentile"]
    n_req = len(outcome.latencies)
    failed = outcome.jobs - outcome.ok
    quality = list(outcome.quality.values())
    ref_latencies = outcome.clock.reference_latencies()
    jobs_per_s = outcome.ok / math.fsum(ref_latencies)
    report.append(
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
        f"trace {args.trace}  nproc {os.cpu_count()}  serial engines  "
        f"BLAS threads {os.environ.get('OPENBLAS_NUM_THREADS')}"
    )
    report.append(
        f"requests {n_req}  jobs {outcome.jobs} (ok {outcome.ok}, failed {failed})  "
        f"request time {outcome.timed_s:.3f} s  loop wall {wall:.3f} s  "
        f"encoded records {outcome.encoded_bytes / 1e6:.1f} MB"
    )
    report.append(
        f"raw wall (timings below are reference ms, see bench_clock.py): "
        f"{outcome.ok / outcome.timed_s:.2f} jobs/s, "
        f"p50 {1e3 * statistics.median(outcome.latencies):.3f} ms, "
        f"p{tail_pct} {1e3 * nearest_rank(outcome.latencies, tail_pct):.3f} ms; "
        f"host speed {statistics.median(ref_latencies) / statistics.median(outcome.latencies):.3f} "
        f"of reference"
    )
    report.append(f"failed_frac {failed / max(outcome.jobs, 1):.6f} ratio ({failed}/{outcome.jobs})")
    report.append(
        f"digest {digest} over {outcome.digest.records} records of the first "
        f"{W.REFERENCE[args.workload]} requests"
    )
    report.append(
        f"oracle: {len(outcome.checked) if args.workload != 'variational' else len(quality)} "
        f"distinct compile outputs checked; {len(outcome.gate_samples)} gate-level samples, "
        f"max |simulated - analytic| {outcome.gate_level_max_diff:.2e}; "
        f"fallback re-run {'done' if outcome.fallback_check else 'n/a'}; "
        f"{len(outcome.rejections)} rejections"
    )

    metrics, notes = {}, {}
    if args.trace:
        extra = {
            "service.engine.retries": outcome.retries / max(outcome.jobs, 1),
            "trace.overhead_frac": 1.0 - jobs_per_s / baseline[0],
        }
        cache_delta = {k: cache_after[k] - cache_before[k] for k in ("hits", "misses", "disk_hits")}
        layer = bench_trace.per_layer_metrics(tracer, outcome.jobs, cache_delta, extra)
        units = {name: unit for name, unit, _ in bench_trace.per_layer_names()}
        for name in sorted(layer):
            metrics[name] = {"value": layer[name], "unit": units[name]}
        report.append(
            f"cache lookups {cache_delta['hits'] + cache_delta['misses']} "
            f"(hits {cache_delta['hits']}, disk hits {cache_delta['disk_hits']}); "
            f"untraced run under PYTHONHASHSEED={baseline[2]}: {baseline[0]:.2f} jobs/s, "
            f"same digest {baseline[1] == digest}"
        )
        if args.workload != "variational" and layer["trace.uncovered_frac"] > 0.10:
            outcome.reject(
                Rejection("trace", f"{layer['trace.uncovered_frac']:.3f} of request time "
                                   f"is inside no layer span (limit 0.10)")
            )
        spans_path = SCRATCH / f"spans-{args.workload}-{args.seed}.jsonl"
        bench_trace.write_spans(tracer, spans_path)
        report.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    else:
        probes = setup_seconds(args.workload, scratch)
        # Each quality metric is measured on the workloads whose outputs it
        # describes; elsewhere it reads the constant NOT_APPLICABLE, so every
        # workload carries every end-to-end metric.
        compile_quality = args.workload != "variational"
        values = {
            "jobs_per_s": (jobs_per_s, "jobs/s"),
            "latency_ms_p50": (1e3 * statistics.median(ref_latencies), "ms"),
            "latency_ms_tail": (1e3 * nearest_rank(ref_latencies, tail_pct), "ms"),
            "setup_s": (statistics.median(ref for _, ref in probes), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
            "native_cnots_mean": (q_mean(quality, 0, compile_quality), "CNOTs"),
            "native_depth_mean": (q_mean(quality, 1, compile_quality), "layers"),
            "misplaced_measure_frac": (q_mean(quality, 2, compile_quality), "ratio"),
            "arg_mean": (q_mean(outcome.args, None, not compile_quality), "%"),
            "approx_ratio_mean": (q_mean(outcome.ratios, None, not compile_quality), "ratio"),
        }
        for name, (value, unit) in values.items():
            metrics[name] = {"value": value, "unit": unit}
        beyond = n_req - math.ceil(tail_pct / 100 * n_req)
        misplaced = f"{sum(q[2] for q in quality)}/{len(quality)}"
        notes = {
            "latency_ms_p50": f"n={n_req}",
            "latency_ms_tail": f"p{tail_pct}, n={n_req}, {beyond} beyond",
            "setup_s": "median of " + ", ".join(f"{ref:.3f}" for _, ref in probes)
            + " (raw " + ", ".join(f"{raw:.3f}" for raw, _ in probes) + ")",
        }
        na = "n/a on this workload (constant)"
        if compile_quality:
            notes["native_cnots_mean"] = (
                f"{len(quality)} distinct outputs of the first "
                f"{W.QUALITY[args.workload]} requests"
            )
            notes["misplaced_measure_frac"] = misplaced
            notes["arg_mean"] = notes["approx_ratio_mean"] = na
        else:
            notes["arg_mean"] = f"{len(outcome.args)} eval jobs"
            notes["approx_ratio_mean"] = f"{len(outcome.ratios)} optimize jobs"
            for name in ("native_cnots_mean", "native_depth_mean"):
                notes[name] = na
            notes["misplaced_measure_frac"] = f"{na}; eval circuits {misplaced}"
    for name, entry in metrics.items():
        report.append(
            f"  {name:<40} {entry['value']:>14.6g} {entry['unit']:<7} {notes.get(name, '')}"
        )
    for rejection in outcome.rejections[:10]:
        report.append(f"REJECTED {rejection}")

    correct = not outcome.rejections
    print("\n".join(report), flush=True)
    print(
        json.dumps(
            {"correct": correct, "attempted": outcome.jobs, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    import bench_setup

    bench_setup.reap_resource_tracker_at_exit()
    os.environ.update(bench_setup.BLAS_ENV)  # before numpy loads
    sys.path[:0] = [str(SRC), str(HERE)]
    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
