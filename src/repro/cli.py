"""Command-line interface.

Subcommands::

    python -m repro devices                      # list the device library
    python -m repro profile ibmq_20_tokyo        # Fig 3(b) strength profile
    python -m repro compile --nodes 12 --family er --param 0.5 \
        --device ibmq_20_tokyo --method ic       # compile one instance
    python -m repro experiment fig9              # reproduce one figure
    python -m repro arg --nodes 10 --shots 4096  # ARG across methods
    python -m repro evaluate --nodes 10 --cache-dir .cache  # fast-path ARG
    python -m repro batch jobs.jsonl -o out.jsonl  # batch service
    python -m repro chaos --nodes 8 --seed 0     # calibration-fault sweep
    python -m repro cache stats --dir .cache     # disk-cache maintenance

Every command that compiles or samples takes ``--seed`` for
reproducibility; ``compile`` can dump the result as OpenQASM 2.0 with
``--qasm out.qasm`` or as machine-readable JSON with ``--json``, and
``--trace`` prints the per-pass pipeline trace (wall time, SWAPs inserted,
depth/gate deltas for every compiler pass).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

import numpy as np

from .compiler.registry import available_methods

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="QAOA circuit-compilation methodologies (MICRO 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list the device library")

    profile = sub.add_parser(
        "profile", help="connectivity-strength profile of a device"
    )
    profile.add_argument("device")
    profile.add_argument("--radius", type=int, default=2)

    compile_p = sub.add_parser("compile", help="compile one random instance")
    compile_p.add_argument("--nodes", type=int, default=12)
    compile_p.add_argument(
        "--family", choices=["er", "regular", "er_m"], default="er"
    )
    compile_p.add_argument("--param", type=float, default=0.5)
    compile_p.add_argument("--device", default="ibmq_20_tokyo")
    compile_p.add_argument(
        "--method",
        choices=list(available_methods()),
        default="ic",
    )
    compile_p.add_argument("--p", type=int, default=1, help="QAOA levels")
    compile_p.add_argument("--packing-limit", type=int, default=None)
    compile_p.add_argument(
        "--router",
        choices=["layered", "sabre"],
        default="layered",
        help="backend SWAP router",
    )
    compile_p.add_argument(
        "--qaim-radius",
        type=int,
        default=2,
        help="QAIM connectivity-strength radius",
    )
    compile_p.add_argument(
        "--crosstalk",
        default=None,
        metavar="A-B:C-D[,...]",
        help="conflicting coupling pairs for the Section VI "
        "sequentialisation pass, e.g. '0-1:2-3,4-5:6-7'",
    )
    compile_p.add_argument("--seed", type=int, default=0)
    compile_p.add_argument("--qasm", default=None, help="write OpenQASM here")
    compile_p.add_argument(
        "--trace",
        action="store_true",
        help="print the per-pass trace (wall time, SWAPs, depth/gate deltas)",
    )
    compile_p.add_argument(
        "--draw", action="store_true", help="ASCII-draw the compiled circuit"
    )
    compile_p.add_argument(
        "--json",
        action="store_true",
        help="emit the result as a machine-readable JSON document "
        "(serialised circuit + metrics) instead of the text summary",
    )

    experiment = sub.add_parser(
        "experiment", help="reproduce a paper figure/table"
    )
    experiment.add_argument(
        "figure",
        choices=[
            "fig7", "fig8", "fig9", "fig10", "fig11a", "fig11b", "fig12",
            "sec6", "all",
        ],
    )
    experiment.add_argument("--instances", type=int, default=None)

    analyze = sub.add_parser(
        "analyze", help="structural analysis of one compiled instance"
    )
    analyze.add_argument("--nodes", type=int, default=12)
    analyze.add_argument(
        "--family", choices=["er", "regular", "er_m"], default="er"
    )
    analyze.add_argument("--param", type=float, default=0.5)
    analyze.add_argument("--device", default="ibmq_20_tokyo")
    analyze.add_argument(
        "--method",
        choices=list(available_methods()),
        default="ic",
    )
    analyze.add_argument("--seed", type=int, default=0)

    arg_p = sub.add_parser(
        "arg", help="measure ARG for one instance across methods"
    )
    arg_p.add_argument("--nodes", type=int, default=10)
    arg_p.add_argument("--edge-prob", type=float, default=0.5)
    arg_p.add_argument("--shots", type=int, default=4096)
    arg_p.add_argument("--seed", type=int, default=0)
    arg_p.add_argument("--trajectories", type=int, default=24)

    evaluate = sub.add_parser(
        "evaluate",
        help="fast-path ARG evaluation across methods via the batch engine",
    )
    evaluate.add_argument("--nodes", type=int, default=10)
    evaluate.add_argument(
        "--family", choices=["er", "regular", "er_m"], default="er"
    )
    evaluate.add_argument("--param", type=float, default=0.5)
    evaluate.add_argument("--device", default="ibmq_16_melbourne")
    evaluate.add_argument(
        "--methods",
        default="qaim,ip,ic,vic",
        help="comma-separated compilation methods",
    )
    evaluate.add_argument("--shots", type=int, default=4096)
    evaluate.add_argument("--trajectories", type=int, default=24)
    evaluate.add_argument(
        "--mode",
        choices=["sampled", "exact"],
        default="sampled",
        help="sampled: paper shot procedure; exact: expectation values",
    )
    evaluate.add_argument(
        "--noise-scale",
        type=float,
        default=1.0,
        help="multiplier on every calibrated error rate",
    )
    evaluate.add_argument(
        "--t2-ns", type=float, default=None, help="T2 dephasing time (ns)"
    )
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument(
        "--cache-dir", default=None, help="disk-tier cache directory"
    )
    evaluate.add_argument(
        "--no-cache", action="store_true", help="disable result caching"
    )
    evaluate.add_argument(
        "--json",
        action="store_true",
        help="emit per-method outcomes as a JSON document",
    )

    optimize = sub.add_parser(
        "optimize",
        help="variational QAOA optimization over the unified problem "
        "frontend via the batch engine",
    )
    optimize.add_argument(
        "jobs",
        nargs="?",
        default=None,
        help="JSONL optimize-job file (- for stdin); omit for one "
        "synthetic instance from --family",
    )
    optimize.add_argument(
        "--family",
        choices=["er", "regular", "er_m", "qubo"],
        default="qubo",
        help="synthetic workload family (qubo samples a random QUBO)",
    )
    optimize.add_argument("--nodes", type=int, default=8)
    optimize.add_argument(
        "--param",
        type=float,
        default=0.5,
        help="family parameter (edge probability / degree / density)",
    )
    optimize.add_argument("--p", type=int, default=1, help="QAOA levels")
    optimize.add_argument(
        "--optimizer",
        choices=["cobyla", "nelder-mead"],
        default="cobyla",
    )
    optimize.add_argument(
        "--maxiter", type=int, default=200, help="classical iteration bound"
    )
    optimize.add_argument(
        "--restarts",
        type=int,
        default=8,
        help="random starts scored through the batched fast path",
    )
    optimize.add_argument("--seed", type=int, default=0)
    optimize.add_argument(
        "--cache-dir", default=None, help="disk-tier cache directory"
    )
    optimize.add_argument(
        "--no-cache", action="store_true", help="disable result caching"
    )
    optimize.add_argument(
        "--json",
        action="store_true",
        help="emit per-job outcomes as a JSON document",
    )

    batch = sub.add_parser(
        "batch",
        help="run a JSONL job file through the batch compilation engine",
    )
    batch.add_argument("jobs", help="JSONL job file (- for stdin)")
    batch.add_argument(
        "-o", "--out", default=None, help="write JSONL results here"
    )
    batch.add_argument(
        "--retries", type=int, default=1, help="retries per transient failure"
    )
    batch.add_argument(
        "--cache-dir", default=None, help="disk-tier cache directory"
    )
    batch.add_argument(
        "--cache-entries", type=int, default=1024, help="memory-tier entries"
    )
    batch.add_argument(
        "--cache-bytes",
        type=int,
        default=64 * 1024 * 1024,
        help="memory-tier byte budget",
    )
    batch.add_argument(
        "--no-cache", action="store_true", help="disable result caching"
    )
    batch.add_argument(
        "--include-payload",
        action="store_true",
        help="embed the serialised circuit in each result line",
    )

    chaos = sub.add_parser(
        "chaos",
        help="calibration-fault chaos sweep across methods and devices",
    )
    chaos.add_argument(
        "--methods",
        default="qaim,ip,ic,vic",
        help="comma-separated compilation methods",
    )
    chaos.add_argument(
        "--devices",
        default="ibmq_20_tokyo,ibmq_16_melbourne",
        help="comma-separated device names",
    )
    chaos.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario names (default: the full ladder); "
        "known: baseline, drift, dropout, poison, dead-coupler, blackout",
    )
    chaos.add_argument("--nodes", type=int, default=8)
    chaos.add_argument("--edge-prob", type=float, default=0.5)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--json",
        action="store_true",
        help="emit per-cell outcomes as a JSON document",
    )

    cache_p = sub.add_parser(
        "cache", help="inspect or maintain a disk-tier result cache"
    )
    cache_p.add_argument(
        "action", choices=["stats", "prune", "clear"],
        help="stats: show size; prune: drop stale-format entries; "
        "clear: delete every entry",
    )
    cache_p.add_argument("--dir", required=True, help="cache directory")

    return parser


def _cmd_devices(out) -> int:
    from .hardware.devices import DEVICE_BUILDERS

    from .experiments.reporting import format_table

    rows = []
    for name in sorted(DEVICE_BUILDERS):
        device = DEVICE_BUILDERS[name]()
        rows.append(
            [
                name,
                device.num_qubits,
                device.num_edges(),
                "yes" if device.is_connected() else "no",
            ]
        )
    print(
        format_table(["device", "qubits", "couplings", "connected"], rows),
        file=out,
    )
    return 0


def _cmd_profile(args, out) -> int:
    from .experiments.reporting import format_table
    from .hardware.devices import get_device

    device = get_device(args.device)
    profile = device.connectivity_profile(radius=args.radius)
    rows = [
        [q, device.degree(q), strength]
        for q, strength in sorted(profile.items())
    ]
    print(f"{device.name}: connectivity strength (radius {args.radius})", file=out)
    print(
        format_table(["qubit", "degree", "strength"], rows), file=out
    )
    return 0


def _parse_crosstalk(text: Optional[str]):
    """Parse ``'0-1:2-3,4-5:6-7'`` into conflicting coupling pairs."""
    if text is None:
        return None
    conflicts = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            first, second = chunk.split(":")
            a, b = (int(q) for q in first.split("-"))
            c, d = (int(q) for q in second.split("-"))
        except ValueError:
            raise ValueError(
                f"bad crosstalk conflict {chunk!r}; expected 'A-B:C-D'"
            ) from None
        conflicts.append(((a, b), (c, d)))
    return conflicts


def _cmd_compile(args, out) -> int:
    from .compiler import compile_with_method, measure_compiled
    from .experiments.harness import make_problem
    from .hardware.devices import auto_calibration, get_device

    rng = np.random.default_rng(args.seed)
    try:
        device = get_device(args.device)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    problem = make_problem(args.family, args.nodes, args.param, rng)
    program = problem.to_program([0.7] * args.p, [0.35] * args.p)
    calibration = (
        auto_calibration(device, args.seed) if args.method == "vic" else None
    )
    try:
        compiled = compile_with_method(
            program,
            device,
            args.method,
            calibration=calibration,
            packing_limit=args.packing_limit,
            rng=rng,
            router=args.router,
            qaim_radius=args.qaim_radius,
            crosstalk_conflicts=_parse_crosstalk(args.crosstalk),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = measure_compiled(compiled, calibration=calibration)
    if args.json:
        import dataclasses as _dataclasses
        import json as _json

        from .compiler.serialize import to_json

        document = {
            "problem": {
                "family": args.family,
                "nodes": args.nodes,
                "param": args.param,
                "seed": args.seed,
            },
            "metrics": _dataclasses.asdict(metrics),
            "result": _json.loads(to_json(compiled)),
        }
        print(_json.dumps(document, indent=2), file=out)
        return 0
    print(
        f"{problem} via {compiled.method} on {device.name}:", file=out
    )
    print(
        f"  depth={metrics.depth} gates={metrics.gate_count} "
        f"cnots={metrics.cnot_count} swaps={metrics.swap_count} "
        f"compile={metrics.compile_time * 1e3:.2f}ms",
        file=out,
    )
    if metrics.success_probability is not None:
        print(
            f"  success probability={metrics.success_probability:.3e}",
            file=out,
        )
    if args.trace:
        from .experiments.reporting import format_table

        rows = [
            [
                r.name,
                f"{r.seconds * 1e3:.3f}",
                r.swaps,
                f"{r.depth_delta:+d}",
                f"{r.gate_delta:+d}",
            ]
            for r in compiled.pass_trace
        ]
        accounted = sum(r.seconds for r in compiled.pass_trace)
        rows.append(
            [
                "(total)",
                f"{compiled.compile_time * 1e3:.3f}",
                compiled.swap_count,
                "",
                "",
            ]
        )
        print("  pass trace:", file=out)
        print(
            format_table(
                ["pass", "ms", "swaps", "Δdepth", "Δgates"], rows
            ),
            file=out,
        )
        overhead = compiled.compile_time - accounted
        print(
            f"  pipeline overhead: {overhead * 1e3:.3f} ms "
            f"({100 * overhead / compiled.compile_time:.1f}%)",
            file=out,
        )
    if args.qasm:
        from .circuits.qasm import dumps

        with open(args.qasm, "w") as fh:
            fh.write(dumps(compiled.circuit))
        print(f"  QASM written to {args.qasm}", file=out)
    if args.draw:
        from .circuits import draw_circuit

        active = compiled.circuit.active_qubits()
        compact = compiled.circuit.remap(
            {q: i for i, q in enumerate(active)}, num_qubits=len(active)
        )
        print(draw_circuit(compact), file=out)
    return 0


def _cmd_experiment(args, out) -> int:
    from .experiments import figures

    modules = {
        "fig7": figures.fig7,
        "fig8": figures.fig8,
        "fig9": figures.fig9,
        "fig10": figures.fig10,
        "fig11a": figures.fig11a,
        "fig11b": figures.fig11b,
        "fig12": figures.fig12,
        "sec6": figures.sec6_planner,
    }
    names = list(modules) if args.figure == "all" else [args.figure]
    for name in names:
        result = modules[name].run(instances=args.instances)
        print(result.render(), file=out)
        print(file=out)
    return 0


def _cmd_analyze(args, out) -> int:
    from .compiler import compile_with_method
    from .compiler.analysis import analyze_compiled
    from .experiments.harness import make_problem
    from .experiments.reporting import format_table
    from .hardware.devices import auto_calibration, get_device

    rng = np.random.default_rng(args.seed)
    device = get_device(args.device)
    problem = make_problem(args.family, args.nodes, args.param, rng)
    program = problem.to_program([0.7], [0.35])
    calibration = (
        auto_calibration(device, args.seed) if args.method == "vic" else None
    )
    compiled = compile_with_method(
        program, device, args.method, calibration=calibration, rng=rng
    )
    analysis = analyze_compiled(compiled)
    print(f"{problem} via {compiled.method} on {device.name}:", file=out)
    print(
        f"  native gates {analysis.total_native_gates} "
        f"({analysis.routing_native_gates} routing, "
        f"{100 * analysis.routing_overhead:.1f}% overhead), "
        f"mean concurrency {analysis.mean_concurrency:.2f}",
        file=out,
    )
    if analysis.hottest_qubits():
        rows = [[q, t] for q, t in analysis.hottest_qubits(top=5)]
        print("  hottest physical qubits (SWAP traffic):", file=out)
        print(format_table(["qubit", "swaps"], rows), file=out)
    rows = [[f"{a}-{b}", c] for (a, b), c in analysis.hottest_edges(top=5)]
    print("  hottest couplings (two-qubit gates):", file=out)
    print(format_table(["edge", "gates"], rows), file=out)
    moved = {
        q: d for q, d in sorted(analysis.displacement.items()) if d > 0
    }
    print(f"  displaced logical qubits: {moved or 'none'}", file=out)
    return 0


def _cmd_arg(args, out) -> int:
    from .compiler import compile_with_method
    from .experiments.harness import make_problem
    from .experiments.reporting import format_table
    from .hardware.devices import ibmq_16_melbourne, melbourne_calibration
    from .qaoa import optimize_qaoa
    from .sim import NoiseModel, evaluate_fast

    rng = np.random.default_rng(args.seed)
    problem = make_problem("er", args.nodes, args.edge_prob, rng)
    opt = optimize_qaoa(problem, p=1)
    program = problem.to_program(opt.gammas, opt.betas)
    calibration = melbourne_calibration()
    noise = NoiseModel.from_calibration(calibration)
    rows = []
    for method in ("qaim", "ip", "ic", "vic"):
        compiled = compile_with_method(
            program,
            ibmq_16_melbourne(),
            method,
            calibration=calibration,
            rng=rng,
        )
        result = evaluate_fast(
            compiled,
            noise=noise,
            shots=args.shots,
            trajectories=args.trajectories,
            rng=rng,
        )
        rows.append(
            [
                method.upper(),
                compiled.depth(),
                compiled.gate_count(),
                f"{result.r0:.3f}",
                f"{result.rh:.3f}",
                f"{result.arg:.2f}%",
            ]
        )
    print(
        f"{problem} on ibmq_16_melbourne (noisy sim), {args.shots} shots:",
        file=out,
    )
    print(
        format_table(["method", "depth", "gates", "r0", "rh", "ARG"], rows),
        file=out,
    )
    return 0


def _open_cache(no_cache: bool, **options):
    """``with _open_cache(...) as cache``: a
    :class:`~repro.service.ResultCache` at the current format version that
    closes its database on exit, or ``None`` when caching is off."""
    if no_cache:
        return contextlib.nullcontext()
    from .compiler.serialize import FORMAT_VERSION
    from .service import ResultCache

    return ResultCache(expected_version=FORMAT_VERSION, **options)


def _cmd_evaluate(args, out) -> int:
    from .experiments.harness import make_problem
    from .experiments.reporting import format_table
    from .qaoa import optimize_qaoa
    from .service import CompileJob, EvalJob, run_batch

    rng = np.random.default_rng(args.seed)
    problem = make_problem(args.family, args.nodes, args.param, rng)
    opt = optimize_qaoa(problem, p=1)
    program = problem.to_program(opt.gammas, opt.betas)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    jobs = [
        EvalJob(
            compile_job=CompileJob(
                program=program,
                device=args.device,
                method=method,
                seed=args.seed,
                calibration="auto",
                job_id=method,
            ),
            shots=args.shots,
            trajectories=args.trajectories,
            noise_scale=args.noise_scale,
            t2_ns=args.t2_ns,
            mode=args.mode,
            eval_seed=args.seed,
            job_id=method,
        )
        for method in methods
    ]
    with _open_cache(args.no_cache, directory=args.cache_dir) as cache:
        report = run_batch(jobs, cache=cache)
    by_id = {r.job.job_id: r for r in report.results}
    if args.json:
        import json as _json

        document = {
            "problem": {
                "family": args.family,
                "nodes": args.nodes,
                "param": args.param,
                "seed": args.seed,
            },
            "device": args.device,
            "results": [
                {
                    "method": method,
                    "ok": r.ok,
                    "cached": r.cached,
                    "error": r.error,
                    **{
                        k: r.metrics.get(k)
                        for k in (
                            "r0", "rh", "arg", "fastpath", "swap_count",
                            "success_probability",
                        )
                    },
                }
                for method in methods
                for r in (by_id[method],)
            ],
        }
        print(_json.dumps(document, indent=2), file=out)
        return 0 if not report.failed else 1
    rows = []
    for method in methods:
        result = by_id[method]
        if not result.ok:
            rows.append([method.upper(), "-", "-", "-", "-", result.error])
            continue
        m = result.metrics
        rows.append(
            [
                method.upper(),
                m["swap_count"],
                f"{m['r0']:.3f}",
                f"{m['rh']:.3f}",
                f"{m['arg']:.2f}%",
                "cached" if result.cached else f"{result.latency * 1e3:.0f}ms",
            ]
        )
    print(
        f"{problem} on {args.device} ({args.mode}, {args.shots} shots, "
        f"{args.trajectories} trajectories):",
        file=out,
    )
    print(
        format_table(["method", "swaps", "r0", "rh", "ARG", "source"], rows),
        file=out,
    )
    stages = report.stage_summary("eval")
    if stages:
        print("  eval stage p50 latency:", file=out)
        srows = [
            [name, f"{summary['p50']:.2f}", summary["count"]]
            for name, summary in sorted(stages.items())
        ]
        print(format_table(["stage", "p50 ms", "samples"], srows), file=out)
    return 0 if not report.failed else 1


def _read_jobs(path: str, load):
    """The jobs ``load`` parses from a JSONL file (``-`` reads stdin), or
    ``None`` after printing why when the file cannot be read, does not
    parse, or holds no jobs."""
    if path == "-":
        lines = sys.stdin.readlines()
    else:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            print(f"error: cannot read job file: {exc}", file=sys.stderr)
            return None
    try:
        jobs = load(lines)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    if not jobs:
        print("error: job file contains no jobs", file=sys.stderr)
        return None
    return jobs


def _cmd_optimize(args, out) -> int:
    from .experiments.reporting import format_table
    from .service import OptimizeJob, load_optimize_jobs_jsonl, run_batch

    if args.jobs is not None:
        jobs = _read_jobs(args.jobs, load_optimize_jobs_jsonl)
        if jobs is None:
            return 2
    else:
        from .experiments.harness import make_problem

        rng = np.random.default_rng(args.seed)
        problem = make_problem(args.family, args.nodes, args.param, rng)
        jobs = [
            OptimizeJob(
                problem=problem,
                p=args.p,
                optimizer=args.optimizer,
                maxiter=args.maxiter,
                restarts=args.restarts,
                opt_seed=args.seed,
                job_id=f"{args.family}-{args.nodes}",
            )
        ]

    with _open_cache(args.no_cache, directory=args.cache_dir) as cache:
        report = run_batch(jobs, cache=cache)

    if args.json:
        import json as _json

        document = {
            "results": [
                {
                    "id": r.job.job_id,
                    "ok": r.ok,
                    "cached": r.cached,
                    "error": r.error,
                    **{
                        k: r.metrics.get(k)
                        for k in (
                            "expectation", "optimum", "approximation_ratio",
                            "evaluations", "optimizer", "p", "num_qubits",
                        )
                    },
                }
                for r in report.results
            ],
        }
        print(_json.dumps(document, indent=2), file=out)
        return 0 if not report.failed else 1

    rows = []
    for index, result in enumerate(report.results):
        label = result.job.job_id or f"job-{index}"
        if not result.ok:
            rows.append([label, "-", "-", "-", "-", result.error])
            continue
        m = result.metrics
        rows.append(
            [
                label,
                f"{m['expectation']:.4f}",
                f"{m['optimum']:.4f}",
                f"{m['approximation_ratio']:.3f}",
                m["evaluations"],
                "cached" if result.cached else f"{result.latency * 1e3:.0f}ms",
            ]
        )
    print(
        format_table(
            ["job", "expectation", "optimum", "ratio", "evals", "source"],
            rows,
        ),
        file=out,
    )
    stages = report.stage_summary("optimize")
    if stages:
        print("  optimize stage p50 latency:", file=out)
        srows = [
            [name, f"{summary['p50']:.2f}", summary["count"]]
            for name, summary in sorted(stages.items())
        ]
        print(format_table(["stage", "p50 ms", "samples"], srows), file=out)
    return 0 if not report.failed else 1


def _cmd_batch(args, out) -> int:
    import json

    from .service import BatchEngine, load_jobs_jsonl

    jobs = _read_jobs(args.jobs, load_jobs_jsonl)
    if jobs is None:
        return 2

    with _open_cache(
        args.no_cache,
        max_entries=args.cache_entries,
        max_bytes=args.cache_bytes,
        directory=args.cache_dir,
    ) as cache:
        report = BatchEngine(retries=args.retries, cache=cache).run(jobs)

    records = (
        r.to_record(include_payload=args.include_payload)
        for r in report.results
    )
    if args.out:
        with open(args.out, "w") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
        print(f"results written to {args.out}", file=out)
    else:
        for record in records:
            print(json.dumps(record), file=out)
    print(report.render(), file=out)
    return 0 if not report.failed else 1


def _cmd_chaos(args, out) -> int:
    from .experiments.chaos import default_scenarios, run_chaos

    scenarios = default_scenarios()
    if args.scenarios:
        wanted = [name.strip() for name in args.scenarios.split(",") if name.strip()]
        known = {s.name: s for s in scenarios}
        unknown = [name for name in wanted if name not in known]
        if unknown:
            print(
                f"error: unknown scenario(s) {', '.join(unknown)}; "
                f"known: {', '.join(known)}",
                file=sys.stderr,
            )
            return 2
        scenarios = [known[name] for name in wanted]
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    devices = [d.strip() for d in args.devices.split(",") if d.strip()]
    try:
        report = run_chaos(
            methods=methods,
            devices=devices,
            scenarios=scenarios,
            nodes=args.nodes,
            edge_prob=args.edge_prob,
            seed=args.seed,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import dataclasses as _dataclasses
        import json as _json

        document = {
            "seed": report.seed,
            "nodes": report.nodes,
            "outcomes": [
                _dataclasses.asdict(o) for o in report.outcomes
            ],
            "contract_violations": [
                {"cell": f"{o.device}/{o.scenario}/{o.method}", "why": why}
                for o, why in report.contract_violations()
            ],
            "monotone_violations": [
                list(v) for v in report.monotone_violations()
            ],
        }
        print(_json.dumps(document, indent=2), file=out)
    else:
        print(report.render(), file=out)
    bad = report.contract_violations()
    return 0 if not bad else 1


def _cmd_cache(args, out) -> int:
    from .compiler.serialize import FORMAT_VERSION
    from .experiments.reporting import format_table
    from .service import ResultCache

    with ResultCache(directory=args.dir, expected_version=FORMAT_VERSION) as cache:
        try:
            if args.action == "stats":
                rows = [
                    ["directory", args.dir],
                    ["entries", cache.disk_entries()],
                    ["bytes", cache.disk_bytes()],
                    ["format version", FORMAT_VERSION],
                ]
                print(format_table(["cache", "value"], rows), file=out)
            elif args.action == "prune":
                pruned = cache.prune_stale()
                print(
                    f"pruned {pruned} stale entr{'y' if pruned == 1 else 'ies'} "
                    f"({cache.disk_entries()} remain)",
                    file=out,
                )
            else:
                before = cache.disk_entries()
                cache.clear(disk=True)
                print(f"cleared {before} entries from {args.dir}", file=out)
        except OSError as exc:  # the database is locked, unreadable or unwritable
            print(f"error: cache directory {args.dir}: {exc}", file=sys.stderr)
            return 2
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "devices":
        return _cmd_devices(out)
    if args.command == "profile":
        return _cmd_profile(args, out)
    if args.command == "compile":
        return _cmd_compile(args, out)
    if args.command == "experiment":
        return _cmd_experiment(args, out)
    if args.command == "analyze":
        return _cmd_analyze(args, out)
    if args.command == "arg":
        return _cmd_arg(args, out)
    if args.command == "evaluate":
        return _cmd_evaluate(args, out)
    if args.command == "optimize":
        return _cmd_optimize(args, out)
    if args.command == "batch":
        return _cmd_batch(args, out)
    if args.command == "chaos":
        return _cmd_chaos(args, out)
    if args.command == "cache":
        return _cmd_cache(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")
