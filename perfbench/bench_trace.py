"""Traced run: spans around calls into each layer's public functions.

Nothing in the program changes.  :func:`install` replaces, from outside,

* module attributes where the caller looks them up at call time (for
  example ``repro.compiler.metrics.decompose_to_basis``, or the names
  ``execute_job`` imports locally);
* the ``run`` method of every pipeline pass class;
* ``Instruction.__post_init__`` (counted and timed in aggregate: it runs
  thousands of times per job, so it keeps no span list of its own).

A span is ``(name, parent, start, end, self seconds, job id)``; self time is
the span's duration minus its child spans.  Spans stay in memory and are
written out when the run ends.  Every engine runs serially, so all spans are
recorded in the client process.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict

_NULL = contextlib.nullcontext()

#: The installed tracer, found by the module-level ``execute_fn`` wrappers.
TRACER = None

PASS_NAMES = (
    "place/qaim",
    "place/random",
    "place/linear",
    "order/random",
    "order/ip",
    "distance/vic",
    "route/layered",
    "route/ic",
    "route/vic",
    "route/swap_network",
)

# span name -> per-layer metric fed by the span's mean self time per job
SELF_MS = {
    "service.parse": "service.parse.ms",
    "service.hash": "service.hash.ms",
    "service.cache.get": "service.cache.get_ms",
    "service.cache.put": "service.cache.put_ms",
    "service.engine": "service.engine.self_ms",
    "service.execute": "service.execute.self_ms",
    "service.envelope.encode": "service.envelope.encode_ms",
    "service.envelope.decode": "service.envelope.decode_ms",
    "service.record": "service.record.ms",
    "hardware.resolve_env": "hardware.resolve_env.ms",
    "hardware.target.intern": "hardware.target.intern_ms",
    "hardware.target.vic": "hardware.target.vic_ms",
    "compiler.compile": "compiler.compile.ms",
    "compiler.metrics": "compiler.metrics.ms",
    "compiler.serialize.to_json": "compiler.serialize.to_json_ms",
    "compiler.serialize.from_json": "compiler.serialize.from_json_ms",
    "circuits.decompose": "circuits.decompose.ms",
    "circuits.qasm.dumps": "circuits.qasm.dumps_ms",
    "circuits.qasm.loads": "circuits.qasm.loads_ms",
    "sim.diagonal": "sim.diagonal.ms",
    "sim.plan": "sim.plan.ms",
    "sim.statevector": "sim.statevector.ms",
    "sim.trajectory": "sim.trajectory.ms",
    "sim.evaluate": "sim.evaluate.self_ms",
    "sim.fallback": "sim.fallback.ms",
    "sim.batch": "sim.batch.ms",
    "qaoa.optimize": "qaoa.optimize.self_ms",
}
for _p in PASS_NAMES:
    SELF_MS["compiler.pass." + _p.replace("/", "_")] = (
        "compiler.pass." + _p.replace("/", "_") + ".ms"
    )


def per_layer_names():
    """Every per-layer metric a traced run reports, with unit and direction."""
    names = [(m, "ms", "lower") for m in SELF_MS.values()]
    names += [
        ("service.cache.hit_ratio", "ratio", "higher"),
        ("service.cache.disk_hit_ratio", "ratio", "lower"),
        ("service.engine.retries", "count", "lower"),
        ("service.envelope.kb", "KB", "lower"),
        ("hardware.target.hit_ratio", "ratio", "higher"),
        ("store.registry.hit_ratio", "ratio", "higher"),
        ("store.shm.publishes", "count", "lower"),
        ("compiler.serialize.kb", "KB", "lower"),
        ("circuits.decompose.calls", "count", "lower"),
        ("circuits.instruction.count", "count", "lower"),
        ("circuits.instruction.ms", "ms", "lower"),
        ("sim.diagonal.hit_ratio", "ratio", "higher"),
        ("sim.plan.accept_ratio", "ratio", "higher"),
        ("sim.trajectory.calls", "count", "lower"),
        ("sim.fallback.calls", "count", "lower"),
        ("sim.batch.points", "count", "lower"),
        ("qaoa.optimize.ms", "ms", "lower"),
        ("qaoa.optimize.evaluations", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.uncovered_frac", "ratio", "lower"),
    ]
    names += [
        ("compiler.pass." + p.replace("/", "_") + ".ir_after", "count", "lower")
        for p in PASS_NAMES
    ]
    return names


class NullTracer:
    """The untraced run: every hook is free."""

    active = False

    def span(self, name):
        return _NULL

    def request(self, rid):
        return _NULL

    def run_engine(self, engine, jobs):
        return engine.run(jobs)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.spans = []
        self.stack = []  # [name, start, child seconds]
        self.key = None
        self.counts = Counter()
        self.instr_count = 0
        self.instr_s = 0.0
        self.request_s = 0.0
        self.covered_s = 0.0
        self.registry = Counter()

    # -- spans -----------------------------------------------------------
    def enter(self, name: str) -> None:
        self.stack.append([name, time.monotonic(), 0.0])

    def exit(self) -> None:
        end = time.monotonic()
        name, start, child = self.stack.pop()
        duration = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
            if parent[0] == "request":
                self.covered_s += duration
        elif name == "request":
            self.request_s += duration
        self.spans.append(
            (name, parent[0] if parent else None, start, end, duration - child, self.key)
        )

    @contextlib.contextmanager
    def span(self, name):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @contextlib.contextmanager
    def request(self, rid):
        """One client request: the span root, plus registry and cache
        counter deltas taken around it (so oracle work between requests
        never counts)."""
        self.key = rid
        before = counter_snapshot()
        self.active = True
        self.enter("request")
        try:
            yield
        finally:
            self.exit()
            self.active = False
            self.registry.update(counter_delta(before, counter_snapshot()))
            self.key = None

    def run_engine(self, engine, jobs):
        """``engine.run`` inside a ``service.engine`` span."""
        with self.span("service.engine"):
            return engine.run(jobs)


def counter_snapshot():
    from repro.hardware.target import target_registry_stats
    from repro.sim.fastpath import diagonal_registry_stats
    from repro.store import store_stats

    store = store_stats()
    registries = store["registries"].values()
    targets, diagonals = target_registry_stats(), diagonal_registry_stats()
    return {
        "target_hits": targets["target_hits"],
        "target_misses": targets["target_misses"],
        "diagonal_hits": diagonals["hits"],
        "diagonal_misses": diagonals["misses"],
        "registry_hits": sum(r["hits"] for r in registries),
        "registry_misses": sum(r["misses"] for r in registries),
        "shm_publishes": store["shm"].get("publishes", 0),
    }


def counter_delta(before, after):
    return {k: after[k] - before[k] for k in after}


# ----------------------------------------------------------------------
# execute_fn wrappers
# ----------------------------------------------------------------------
def _traced_execute(fn, job):
    tracer = TRACER
    request_key, tracer.key = tracer.key, job.job_id
    tracer.enter("service.execute")
    try:
        return fn(job)
    finally:
        tracer.exit()
        tracer.key = request_key


def traced_execute_job(job):
    from repro.service.job import execute_job

    return _traced_execute(execute_job, job)


def traced_execute_eval_job(job):
    from repro.service.evaluate import execute_eval_job

    return _traced_execute(execute_eval_job, job)


def traced_execute_optimize_job(job):
    from repro.service.optimize import execute_optimize_job

    return _traced_execute(execute_optimize_job, job)


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------
def _wrap(tracer, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, result, args)
        return result

    return wrapper


def _patch(tracer, owner, attr, name, after=None):
    setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), after))


def _count(key, amount):
    def after(tracer, result, args):
        tracer.counts[key] += amount(result, args)

    return after


def install() -> Tracer:
    """Wrap every traced public call; returns the (inactive) tracer."""
    global TRACER
    import repro.compiler.flow as flow
    import repro.compiler.metrics as metrics
    import repro.compiler.pipeline as pipeline
    import repro.compiler.serialize as serialize
    import repro.compiler.swap_network as swap_network
    import repro.hardware.target as target
    import repro.qaoa.optimizer as optimizer
    import repro.service.engine as engine
    import repro.service.evaluate as evaluate
    import repro.service.job as job
    import repro.service.optimize as optimize
    import repro.sim.fastpath as fastpath
    from repro.circuits.gates import Instruction
    from repro.service.cache import ResultCache
    from repro.sim.noise import NoisySimulator
    from repro.sim.statevector import StatevectorSimulator

    tracer = Tracer()
    TRACER = tracer

    for cls in (job.CompileJob, evaluate.EvalJob, optimize.OptimizeJob):
        _patch(tracer, cls, "content_hash", "service.hash")
    _patch(tracer, ResultCache, "get", "service.cache.get")
    _patch(tracer, ResultCache, "put", "service.cache.put")

    encoded = _count("envelope.bytes", lambda result, args: len(result))
    decoded = _count("envelope.bytes", lambda result, args: len(args[0]))
    for module in (job, evaluate, optimize):
        _patch(tracer, module, "encode_envelope", "service.envelope.encode", encoded)
    for module in (job, engine):
        _patch(tracer, module, "decode_envelope", "service.envelope.decode", decoded)
    for module in (job, evaluate):
        _patch(tracer, module, "resolve_job_environment", "hardware.resolve_env")

    _patch(tracer, target, "intern_target", "hardware.target.intern")
    _patch(tracer, target.Target, "vic_distances", "hardware.target.vic")

    _patch(tracer, flow, "compile_with_method", "compiler.compile")
    _patch(tracer, metrics, "measure_compiled", "compiler.metrics")
    for module in (metrics, flow, pipeline):
        _patch(tracer, module, "decompose_to_basis", "circuits.decompose")
    _patch(
        tracer, serialize, "to_json", "compiler.serialize.to_json",
        _count("serialize.bytes", lambda result, args: len(result)),
    )
    _patch(
        tracer, serialize, "from_json", "compiler.serialize.from_json",
        _count("serialize.bytes", lambda result, args: len(args[0])),
    )
    _patch(tracer, serialize, "qasm_dumps", "circuits.qasm.dumps")
    _patch(tracer, serialize, "qasm_loads", "circuits.qasm.loads")

    for cls in (
        pipeline.PlacementPass,
        pipeline.RandomOrderingPass,
        pipeline.IPOrderingPass,
        pipeline.VICDistancePass,
        pipeline.RoutingPass,
        pipeline.IncrementalRoutingPass,
        swap_network.SwapNetworkPass,
    ):
        _patch_pass(tracer, cls)

    def post_init(self, _orig=Instruction.__post_init__, _clock=time.monotonic):
        if not tracer.active:
            return _orig(self)
        start = _clock()
        _orig(self)
        elapsed = _clock() - start
        tracer.instr_count += 1
        tracer.instr_s += elapsed
        if tracer.stack:
            tracer.stack[-1][2] += elapsed

    Instruction.__post_init__ = post_init

    _patch(tracer, fastpath, "cost_diagonal", "sim.diagonal")
    _patch(
        tracer, fastpath, "fastpath_plan", "sim.plan",
        _count("plan.accepted", lambda result, args: int(bool(result.ok))),
    )
    _patch(tracer, fastpath, "qaoa_statevector", "sim.statevector")
    _patch(tracer, fastpath, "logical_trajectory", "sim.trajectory")
    _patch(tracer, fastpath, "evaluate_fast", "sim.evaluate")
    for cls, attrs in (
        (StatevectorSimulator, ("run", "probabilities", "sample_indices")),
        (NoisySimulator, ("run_trajectory", "sample_indices")),
    ):
        for attr in attrs:
            _patch(tracer, cls, attr, "sim.fallback")
    _patch(
        tracer, optimizer, "expectation_batch", "sim.batch",
        _count("batch.points", lambda result, args: len(result)),
    )
    _patch(
        tracer, optimizer, "optimize_problem", "qaoa.optimize",
        _count("optimize.evaluations", lambda result, args: result.evaluations),
    )
    return tracer


def _patch_pass(tracer, cls):
    orig = cls.run

    @functools.wraps(orig)
    def run(self, context):
        if not tracer.active:
            return orig(self, context)
        name = "compiler.pass." + self.name.replace("/", "_")
        tracer.enter(name)
        try:
            orig(self, context)
        finally:
            tracer.exit()
        circuit = context.circuit
        tracer.counts[name + ".ir_after"] += len(circuit) if circuit is not None else 0

    cls.run = run


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, jobs: int, cache_stats: dict, extra: dict) -> dict:
    """Mean per job of the traced window, by per-layer metric name.

    ``cache_stats`` holds the cache counter deltas of the traced requests;
    ``extra`` holds metrics the client measured (retries, overhead).
    """
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = Counter()
    for name, parent, start, end, own, _ in tracer.spans:
        self_s[name] += own
        total_s[name] += end - start
        if parent != name:
            calls[name] += 1
    per_job = max(jobs, 1)
    out = {metric: 1e3 * self_s[span] / per_job for span, metric in SELF_MS.items()}
    counts, reg = tracer.counts, tracer.registry
    plan_calls = sum(1 for s in tracer.spans if s[0] == "sim.plan")
    out.update(
        {
            "service.cache.hit_ratio": _ratio(
                cache_stats["hits"], cache_stats["hits"] + cache_stats["misses"]
            ),
            "service.cache.disk_hit_ratio": _ratio(
                cache_stats["disk_hits"], cache_stats["hits"]
            ),
            "service.envelope.kb": _ratio(
                counts["envelope.bytes"] / 1024,
                calls["service.envelope.encode"] + calls["service.envelope.decode"],
            ),
            "hardware.target.hit_ratio": _ratio(
                reg["target_hits"], reg["target_hits"] + reg["target_misses"]
            ),
            "store.registry.hit_ratio": _ratio(
                reg["registry_hits"], reg["registry_hits"] + reg["registry_misses"]
            ),
            "store.shm.publishes": reg["shm_publishes"] / per_job,
            "compiler.serialize.kb": _ratio(
                counts["serialize.bytes"] / 1024,
                calls["compiler.serialize.to_json"] + calls["compiler.serialize.from_json"],
            ),
            "circuits.decompose.calls": calls["circuits.decompose"] / per_job,
            "circuits.instruction.count": tracer.instr_count / per_job,
            "circuits.instruction.ms": 1e3 * tracer.instr_s / per_job,
            "sim.diagonal.hit_ratio": _ratio(
                reg["diagonal_hits"], reg["diagonal_hits"] + reg["diagonal_misses"]
            ),
            "sim.plan.accept_ratio": _ratio(counts["plan.accepted"], plan_calls),
            "sim.trajectory.calls": calls["sim.trajectory"] / per_job,
            "sim.fallback.calls": calls["sim.fallback"] / per_job,
            "sim.batch.points": counts["batch.points"] / per_job,
            "qaoa.optimize.ms": 1e3 * total_s["qaoa.optimize"] / per_job,
            "qaoa.optimize.evaluations": counts["optimize.evaluations"] / per_job,
            "trace.uncovered_frac": 1.0 - _ratio(tracer.covered_s, tracer.request_s),
        }
    )
    for p in PASS_NAMES:
        key = "compiler.pass." + p.replace("/", "_") + ".ir_after"
        out[key] = counts[key] / per_job
    out.update(extra)
    return out


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w") as fh:
        for name, parent, start, end, own, key in tracer.spans:
            fh.write(
                json.dumps(
                    {"name": name, "parent": parent, "start": start,
                     "end": end, "self_s": own, "job": key}
                )
                + "\n"
            )
