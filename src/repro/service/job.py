"""The service job model: one :class:`Job` base, three kinds.

A job is the unit of work the service layer schedules.  Its kinds are
siblings under :class:`Job`:

* :class:`CompileJob` — one QAOA program, one target device, one flow
  configuration;
* :class:`~repro.service.evaluate.EvalJob` — a compile job plus the
  evaluation knobs (``r0``/``rh``/ARG through the fast path);
* :class:`~repro.service.optimize.OptimizeJob` — a problem plus the
  variational-search knobs.

Jobs are plain data — serialisable to JSON lines — so the cache can
address their results by content.  :func:`execute_job` runs a job of any
kind.

**Content addressing.**  :meth:`Job.content_hash` digests a kind's
canonical form, which carries the kind's own version constant
(:data:`HASH_VERSION` for compile jobs).  Because a QAOA cost layer is a
product of mutually commuting CPHASE terms, two compile jobs whose edge
lists differ only in term order (or in the endpoint order within a term)
describe the same compilation problem; the canonical form sorts
normalised ``(min, max, weight)`` triples so they hash identically.
Everything that *does* change the output — device, method, packing
limit, router, seed, calibration, level parameters — feeds the digest,
so distinct configurations never collide.

A :class:`JobResult` carries the outcome: the cache key, the result
envelope (the :mod:`repro.compiler.serialize` JSON document, or
``null`` for eval and optimize jobs, wrapped with the metrics), headline
metrics, and structured error information when the job failed.  Failed
jobs are data, not exceptions — a batch always yields one result per
job.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..compiler.pipeline import PipelineSpec
from ..hardware.calibration import Calibration, random_calibration
from ..hardware.coupling import CouplingGraph
from ..qaoa.problems import Level, QAOAProgram
from ..store.registry import FingerprintRegistry

__all__ = [
    "HASH_VERSION",
    "Job",
    "CompileJob",
    "JobResult",
    "execute_job",
    "resolve_job_environment",
    "job_from_dict",
    "job_to_dict",
    "method_label",
    "load_jobs_jsonl",
    "encode_envelope",
    "decode_envelope",
    "envelope_metrics",
]

#: Bumped whenever the canonical form changes, so stale hashes cannot alias.
#: v2: inline devices canonicalise to their Target-layer content
#: fingerprint instead of an embedded edge list.
HASH_VERSION = 2

DeviceSpec = Union[str, CouplingGraph]
CalibrationSpec = Union[None, str, Dict, Calibration]
MethodSpec = Union[str, PipelineSpec]


def method_label(method: MethodSpec) -> str:
    """Human-readable method label for records and telemetry — the
    registry name, or the flow label of an inline spec."""
    if isinstance(method, PipelineSpec):
        return method.method
    return str(method)


class Job:
    """The base of every job kind: owns the content hash, and
    :func:`execute_job` runs any kind.

    A kind supplies ``canonical()`` (the hash pre-image, tagged with the
    kind's own version constant), ``_run()`` (the work) and the record
    fields :meth:`JobResult.to_record` reads (``job_id``, ``device``,
    ``method``, ``packing_limit``, ``seed``).
    """

    def canonical(self) -> dict:
        raise NotImplementedError

    def content_hash(self) -> str:
        """Hex SHA-256 of the canonical form (the cache key)."""
        text = json.dumps(
            self.canonical(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def _run(self) -> Tuple[Optional[dict], dict, List[str]]:
        """Do the work: ``(compiled document or None, metrics,
        warnings)``."""
        raise NotImplementedError


@dataclasses.dataclass
class CompileJob(Job):
    """One compilation request.

    Attributes:
        program: The QAOA program to compile.
        device: Library device name (resolved via
            :func:`repro.hardware.devices.get_device`) or an inline
            :class:`CouplingGraph`.
        method: A registered method name (see
            :func:`repro.compiler.available_methods`) or an inline
            :class:`~repro.compiler.pipeline.PipelineSpec` compiled
            directly (content-addressed by its fingerprint).
        packing_limit: Layer-packing cap (None = unlimited).
        router: Backend router (``"layered"`` or ``"sabre"``).
        seed: Seed for the flow's stochastic tie-breaks.
        calibration: ``None``, ``"auto"`` (device calibration when the
            target is melbourne, else a random calibration seeded by
            ``seed``), ``{"seed": n}`` for an explicit random calibration,
            or a concrete :class:`Calibration`.
        job_id: Free-form correlation label; excluded from the content hash.
    """

    program: QAOAProgram
    device: DeviceSpec
    method: MethodSpec = "ic"
    packing_limit: Optional[int] = None
    router: str = "layered"
    seed: int = 0
    calibration: CalibrationSpec = None
    job_id: Optional[str] = None

    def __post_init__(self) -> None:
        # A spec form that cannot resolve is rejected here, where the job
        # is built (one bad JSONL line), not in the middle of a batch.
        spec = self.calibration
        if not (
            spec is None
            or (isinstance(spec, str) and spec == "auto")
            or isinstance(spec, Calibration)
            or (isinstance(spec, dict) and ("cnot_error" in spec or "seed" in spec))
        ):
            raise ValueError(f"unsupported calibration spec {spec!r}")

    # ------------------------------------------------------------------
    # content addressing
    # ------------------------------------------------------------------
    def canonical(self) -> dict:
        """The hash pre-image: order-independent program terms plus every
        output-affecting knob."""
        program = self.program
        edges = sorted(
            (min(a, b), max(a, b), float(w)) for a, b, w in program.edges
        )
        return {
            "hash_version": HASH_VERSION,
            "program": {
                "num_qubits": program.num_qubits,
                "edges": [[a, b, repr(w)] for a, b, w in edges],
                "levels": [
                    [repr(lv.gamma), repr(lv.beta)] for lv in program.levels
                ],
                "linear": [
                    [q, repr(h)] for q, h in sorted(program.linear.items())
                ],
            },
            "device": _device_canonical(self.device),
            "method": (
                {"spec_fingerprint": self.method.fingerprint()}
                if isinstance(self.method, PipelineSpec)
                else self.method
            ),
            "packing_limit": self.packing_limit,
            "router": self.router,
            "seed": self.seed,
            "calibration": _calibration_canonical(self.calibration),
        }

    # ------------------------------------------------------------------
    # resolution and execution
    # ------------------------------------------------------------------
    def resolve_device(self) -> CouplingGraph:
        """The concrete coupling graph this job targets."""
        if isinstance(self.device, CouplingGraph):
            return self.device
        from ..hardware.devices import get_device

        return get_device(self.device)

    def resolve_calibration(
        self, device: Optional[CouplingGraph] = None
    ) -> Optional[Calibration]:
        """The concrete calibration (sampling random ones as specified)."""
        spec = self.calibration
        if spec is None or isinstance(spec, Calibration):
            return spec
        device = device if device is not None else self.resolve_device()
        if spec == "auto":
            from ..hardware.devices import auto_calibration

            return auto_calibration(device, self.seed)
        if isinstance(spec, dict):
            if "cnot_error" in spec:
                return _calibration_from_payload(spec, device)
            if "seed" in spec:
                return random_calibration(
                    device, rng=np.random.default_rng(int(spec["seed"]))
                )
        raise ValueError(f"unsupported calibration spec {spec!r}")

    def _compile(self):
        """``(compiled, calibration)``: the program compiled against the
        job's environment, with the calibration repairs prepended to the
        compiled result's warnings so the serialised document (and thus
        the cache) carries the full degradation story."""
        from ..compiler.flow import compile_with_method

        calibration, warnings, target = _job_environment(self)
        compiled = compile_with_method(
            self.program,
            target,
            self.method,
            packing_limit=self.packing_limit,
            rng=np.random.default_rng(self.seed),
            router=self.router,
        )
        compiled.warnings = list(warnings) + compiled.warnings
        return compiled, calibration

    def _run(self):
        from ..compiler.metrics import measure_compiled
        from ..compiler.serialize import to_document

        compiled, calibration = self._compile()
        measured = measure_compiled(compiled, calibration=calibration)
        metrics = {
            "depth": measured.depth,
            "gate_count": measured.gate_count,
            "cnot_count": measured.cnot_count,
            "swap_count": measured.swap_count,
            "compile_time": measured.compile_time,
            "success_probability": measured.success_probability,
            "warnings": list(compiled.warnings),
            "pass_trace": [r.to_dict() for r in compiled.pass_trace],
            "target_fingerprint": compiled.target_fingerprint,
        }
        return to_document(compiled), metrics, list(compiled.warnings)


def resolve_job_environment(job: CompileJob):
    """Resolve ``(device, calibration, warnings)`` for one job, repairing
    dirty calibration feeds instead of failing them.

    A calibration payload that :class:`~repro.hardware.calibration.
    Calibration` rejects (NaN entries, out-of-range rates, missing or
    unknown edges, dead couplers) is routed through
    :func:`repro.hardware.faults.repair_calibration`; the returned device
    is then the possibly-pruned coupling and ``warnings`` records every
    repair taken.  Feeds that are beyond repair re-raise as ``ValueError``
    so the engine classifies the job ``invalid``.
    """
    device = job.resolve_device()
    warnings: List[str] = []
    try:
        return device, job.resolve_calibration(device), warnings
    except ValueError as exc:
        spec = job.calibration
        if not (isinstance(spec, dict) and "cnot_error" in spec):
            raise
        from ..hardware.faults import repair_calibration

        raw = _raw_calibration_from_payload(spec, device)
        repair = repair_calibration(raw)  # CalibrationError -> ValueError
        warnings.append(
            f"calibration repaired: {repair.report.summary()} "
            f"(rejected as-is: {exc})"
        )
        warnings.extend(repair.warnings)
        return repair.coupling, repair.calibration, warnings


@dataclasses.dataclass
class JobResult:
    """Outcome of one job (success, cache hit, or structured failure).

    Attributes:
        job: The originating job.
        key: Content hash (the cache key).
        ok: Whether a compiled circuit was produced.
        cached: Whether the result came from the cache.
        attempts: Executions performed (0 for a cache hit).
        latency: Seconds from scheduling to completion of this job.
        metrics: Headline numbers (depth, gates, cnots, swaps,
            compile_time, success_probability when calibrated) plus the
            per-pass ``pass_trace`` (name/seconds/swaps/deltas per
            pipeline stage).
        payload: Envelope string (see :func:`encode_envelope`) holding the
            serialised compiled circuit; ``None`` on failure.
        error: Human-readable failure description.
        error_kind: Machine-readable category: ``"invalid"`` (the job
            itself is bad; never retried) or ``"exception"`` (anything
            else; retried).
        warnings: Degradation provenance — every calibration repair and
            compile-path fallback taken while producing this result.  A
            populated list on an ``ok`` result means the job succeeded in
            degraded mode.
    """

    job: Job
    key: str
    ok: bool
    cached: bool = False
    attempts: int = 0
    latency: float = 0.0
    metrics: Optional[dict] = None
    payload: Optional[str] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None
    warnings: List[str] = dataclasses.field(default_factory=list)

    def compiled(self):
        """Deserialise the compiled circuit (raises on failed jobs)."""
        if not self.ok or self.payload is None:
            raise ValueError(
                f"job {self.job.job_id or self.key[:12]} has no compiled "
                f"result ({self.error_kind}: {self.error})"
            )
        from ..compiler.serialize import from_document

        return from_document(_read_envelope(self.payload)["compiled"])

    def to_record(self, include_payload: bool = False) -> dict:
        """JSONL-friendly dict (one line of ``repro batch`` output)."""
        record = {
            "id": self.job.job_id,
            "key": self.key,
            "device": _device_label(self.job.device),
            "method": method_label(self.job.method),
            "packing_limit": self.job.packing_limit,
            "seed": self.job.seed,
            "ok": self.ok,
            "cached": self.cached,
            "attempts": self.attempts,
            "latency_ms": round(self.latency * 1e3, 3),
            "metrics": self.metrics,
            "error": self.error,
            "error_kind": self.error_kind,
            "warnings": list(self.warnings),
        }
        if include_payload:
            record["payload"] = self.payload
        return record


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def execute_job(job: Job) -> JobResult:
    """Run one job of any kind synchronously; never raises for job-level
    faults.  ``KeyError``/``ValueError`` (the job itself is bad) fail it
    ``invalid``; anything else fails it ``exception``."""
    key = ""
    start = time.perf_counter()
    try:
        key = job.content_hash()
        document, metrics, warnings = job._run()
        # One encode: a compiled document goes in as a dict, the same bytes
        # as encode_envelope(to_json(compiled), metrics).
        payload = _envelope_text(document, metrics)
    except (KeyError, ValueError) as exc:
        error, kind = str(exc), "invalid"
    except Exception as exc:  # noqa: BLE001 — jobs degrade, batches survive
        error, kind = f"{type(exc).__name__}: {exc}", "exception"
    else:
        return JobResult(
            job=job,
            key=key,
            ok=True,
            attempts=1,
            latency=time.perf_counter() - start,
            metrics=metrics,
            payload=payload,
            warnings=warnings,
        )
    return JobResult(
        job=job,
        key=key,
        ok=False,
        attempts=1,
        latency=time.perf_counter() - start,
        error=error,
        error_kind=kind,
    )


#: Resolved environments by :func:`_environment_key` (bounded LRU, sized
#: like the Target registry).
_ENVIRONMENTS = FingerprintRegistry(
    "job_environments", env_var="REPRO_REGISTRY_CAPACITY", default_capacity=256
)


def _environment_key(job: CompileJob) -> str:
    """Everything :func:`resolve_job_environment` reads: the canonical
    device, the calibration spec, and the job seed when the spec draws a
    random calibration from it (``"auto"`` off melbourne)."""
    device = _device_canonical(job.device)
    spec = job.calibration
    draws_seed = (
        isinstance(spec, str)
        and spec == "auto"
        and device["name"] != "ibmq_16_melbourne"
    )
    return json.dumps(
        [
            device,
            _calibration_payload(spec) if isinstance(spec, Calibration) else spec,
            job.seed if draws_seed else None,
        ],
        sort_keys=True,
        separators=(",", ":"),
    )


def _job_environment(job: CompileJob):
    """``(calibration, warnings, target)`` for the job, resolved once per
    distinct environment: the calibration (repaired when dirty), the
    repair warnings, and the interned
    :class:`~repro.hardware.target.Target` over the device that every job
    sharing the environment compiles against.  A miss calls
    :func:`resolve_job_environment` and ``intern_target`` as looked up at
    call time; failures raise and are never stored."""

    def resolve():
        from ..hardware.target import intern_target

        device, calibration, warnings = resolve_job_environment(job)
        warnings = tuple(warnings)
        return calibration, warnings, intern_target(device, calibration, warnings=warnings)

    environment, _ = _ENVIRONMENTS.intern(_environment_key(job), resolve)
    return environment


# ----------------------------------------------------------------------
# result envelope (what the cache stores)
# ----------------------------------------------------------------------
def encode_envelope(compiled_json: str, metrics: dict) -> str:
    """Wrap a serialised compiled circuit with its metrics.

    The envelope repeats the serialisation format version at the top level
    so a disk cache can invalidate stale entries without parsing the whole
    compiled document.
    """
    return _envelope_text(json.loads(compiled_json), metrics)


def _envelope_text(document: Optional[dict], metrics: dict) -> str:
    """:func:`encode_envelope` for a compiled document already decoded
    (``None`` for envelopes that carry no compiled result)."""
    from ..compiler.serialize import FORMAT_VERSION

    return json.dumps(
        {
            "format_version": FORMAT_VERSION,
            "metrics": metrics,
            "compiled": document,
        },
        separators=(",", ":"),
    )


def decode_envelope(text: str) -> "tuple[dict, str]":
    """Return ``(metrics, compiled_json)`` from an envelope string."""
    payload = _read_envelope(text)
    return payload["metrics"], json.dumps(payload["compiled"])


def envelope_metrics(text: str) -> dict:
    """The metrics of an envelope string: one parse, and the compiled
    document is not encoded again (what a cache hit needs).  Raises
    ``ValueError`` unless the envelope is at the current format version."""
    return _read_envelope(text)["metrics"]


def _read_envelope(text: str) -> dict:
    """The decoded envelope; raises ``ValueError`` unless it is at the
    current format version."""
    from ..compiler.serialize import FORMAT_VERSION

    payload = json.loads(text)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"stale result envelope: format version {version!r} "
            f"(current {FORMAT_VERSION})"
        )
    return payload


# ----------------------------------------------------------------------
# JSONL job files
# ----------------------------------------------------------------------
def job_to_dict(job: CompileJob) -> dict:
    """Serialise a job for a JSONL job file."""
    program = job.program
    spec = {
        "id": job.job_id,
        "device": _device_payload(job.device),
        "method": (
            {"spec": dataclasses.asdict(job.method)}
            if isinstance(job.method, PipelineSpec)
            else job.method
        ),
        "packing_limit": job.packing_limit,
        "router": job.router,
        "seed": job.seed,
        "program": {
            "num_qubits": program.num_qubits,
            "edges": [[a, b, w] for a, b, w in program.edges],
            "gammas": [lv.gamma for lv in program.levels],
            "betas": [lv.beta for lv in program.levels],
            "linear": {str(q): h for q, h in program.linear.items()},
        },
    }
    calibration = job.calibration
    if isinstance(calibration, Calibration):
        spec["calibration"] = _calibration_payload(calibration)
    elif calibration is not None:
        spec["calibration"] = calibration
    return spec


def job_from_dict(spec: dict) -> CompileJob:
    """Build a job from one JSONL line.

    Four program forms are accepted:

    * explicit — ``"program": {"num_qubits", "edges", "gammas", "betas"}``;
    * generated — ``"problem": {"family", "nodes", "param", "seed"}``
      sampled through :func:`repro.experiments.harness.make_problem` (with
      optional ``"gammas"``/``"betas"``, defaulting to 0.7/0.35 at p=1) so
      job files can describe workload grids without embedding edge lists;
    * ``"qubo"`` / ``"ising"`` (and ``"maxcut"``) — the unified problem
      frontend forms of :func:`repro.qaoa.frontend.problem_from_spec`,
      with optional ``"gammas"``/``"betas"`` inside the form body.  The
      content hash is taken over the resulting program's canonical form,
      so term ordering in the spec never splits the cache.
    """
    if "program" in spec:
        prog = spec["program"]
        gammas = prog.get("gammas", [0.7])
        betas = prog.get("betas", [0.35])
        if len(gammas) != len(betas):
            raise ValueError("gammas and betas must have equal length")
        # QAOAProgram coerces (and range-checks) every field itself; only
        # the linear terms' JSON object keys need parsing here.
        program = QAOAProgram(
            num_qubits=prog["num_qubits"],
            edges=[(e[0], e[1], e[2] if len(e) > 2 else 1.0) for e in prog["edges"]],
            levels=[Level(g, b) for g, b in zip(gammas, betas)],
            linear={int(q): h for q, h in prog.get("linear", {}).items()},
        )
    elif "problem" in spec:
        from ..experiments.harness import make_problem

        prob = spec["problem"]
        problem = make_problem(
            prob["family"],
            int(prob["nodes"]),
            float(prob["param"]),
            np.random.default_rng(int(prob.get("seed", 0))),
        )
        gammas = prob.get("gammas", [0.7])
        betas = prob.get("betas", [0.35])
        program = problem.to_program(gammas, betas)
    elif any(form in spec for form in ("qubo", "ising", "maxcut")):
        from ..qaoa.frontend import problem_from_spec

        problem = problem_from_spec(spec)
        body = next(
            spec[form]
            for form in ("qubo", "ising", "maxcut")
            if form in spec
        )
        gammas = body.get("gammas", [0.7])
        betas = body.get("betas", [0.35])
        program = problem.to_program(gammas, betas)
    else:
        raise ValueError(
            "job spec needs a 'program', 'problem', 'qubo', 'ising' or "
            "'maxcut' entry"
        )

    device = spec.get("device", "ibmq_20_tokyo")
    if isinstance(device, dict):
        # Interned: N job lines naming the same inline device share one
        # CouplingGraph (and one eager Floyd–Warshall) per batch.
        from ..hardware.target import intern_coupling

        device = intern_coupling(
            int(device["num_qubits"]),
            [tuple(e) for e in device["edges"]],
            name=device.get("name", "inline"),
        )
    method = spec.get("method", "ic")
    if isinstance(method, dict):
        if "spec" not in method:
            raise ValueError(
                "inline method must be {'spec': {...PipelineSpec fields}}"
            )
        method = PipelineSpec(**method["spec"])
    else:
        from ..compiler.registry import available_methods, unknown_method_error

        if method not in available_methods():
            raise unknown_method_error(method)
    return CompileJob(
        program=program,
        device=device,
        method=method,
        packing_limit=spec.get("packing_limit"),
        router=spec.get("router", "layered"),
        seed=int(spec.get("seed", 0)),
        calibration=spec.get("calibration"),
        job_id=spec.get("id"),
    )


def load_jobs_jsonl(lines: Sequence[str]) -> List[CompileJob]:
    """Parse a JSONL job file (blank lines and ``#`` comments skipped)."""
    return _load_jsonl(lines, job_from_dict)


def _load_jsonl(lines: Sequence[str], parse: Callable[[dict], Job]) -> list:
    """One job per non-blank, non-``#`` line through ``parse``; a bad line
    raises ``ValueError`` naming its number."""
    jobs = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            jobs.append(parse(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"bad job on line {lineno}: {exc}") from exc
    return jobs


# ----------------------------------------------------------------------
# canonical helpers
# ----------------------------------------------------------------------
def _device_canonical(device: DeviceSpec):
    if isinstance(device, CouplingGraph):
        from ..hardware.target import coupling_fingerprint

        return {
            "name": device.name,
            "fingerprint": coupling_fingerprint(device),
        }
    return {"name": str(device)}


def _device_label(device: DeviceSpec) -> str:
    return device.name if isinstance(device, CouplingGraph) else str(device)


def _device_payload(device: DeviceSpec):
    if isinstance(device, CouplingGraph):
        return {
            "name": device.name,
            "num_qubits": device.num_qubits,
            "edges": sorted(list(e) for e in device.edges),
        }
    return str(device)


def _calibration_canonical(spec: CalibrationSpec):
    if spec is None or isinstance(spec, str):
        return spec
    if isinstance(spec, Calibration):
        payload = _calibration_payload(spec)
        payload.pop("timestamp", None)
        return payload
    if isinstance(spec, dict):
        return {k: spec[k] for k in sorted(spec) if k != "timestamp"}
    raise ValueError(f"unsupported calibration spec {spec!r}")


def _calibration_payload(calibration: Calibration) -> dict:
    return {
        "coupling": calibration.coupling.name,
        "cnot_error": {
            f"{a}-{b}": err
            for (a, b), err in sorted(calibration.cnot_error.items())
        },
        "single_qubit_error": {
            str(q): err
            for q, err in sorted(calibration.single_qubit_error.items())
        },
        "readout_error": {
            str(q): err
            for q, err in sorted(calibration.readout_error.items())
        },
        "timestamp": calibration.timestamp,
    }


def _maybe_float(value) -> float:
    """Parse a rate leniently: unparseable values become NaN so the fault
    layer can classify them instead of the parser crashing."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return float("nan")


def _raw_calibration_from_payload(payload: dict, device: CouplingGraph):
    """Parse a calibration payload without validation (the dirty feed)."""
    from ..hardware.faults import RawCalibration

    def _edge(key: str):
        a, b = str(key).split("-")
        return (int(a), int(b))

    return RawCalibration(
        coupling=device,
        cnot_error={
            _edge(k): _maybe_float(v)
            for k, v in payload.get("cnot_error", {}).items()
        },
        single_qubit_error={
            int(q): _maybe_float(v)
            for q, v in payload.get("single_qubit_error", {}).items()
        },
        readout_error={
            int(q): _maybe_float(v)
            for q, v in payload.get("readout_error", {}).items()
        },
        timestamp=str(payload.get("timestamp", "")),
    )


def _calibration_from_payload(
    payload: dict, device: CouplingGraph
) -> Calibration:
    def _edge(key: str):
        a, b = key.split("-")
        return (int(a), int(b))

    return Calibration(
        coupling=device,
        cnot_error={
            _edge(k): float(v) for k, v in payload["cnot_error"].items()
        },
        single_qubit_error={
            int(q): float(v)
            for q, v in payload.get("single_qubit_error", {}).items()
        },
        readout_error={
            int(q): float(v)
            for q, v in payload.get("readout_error", {}).items()
        },
        timestamp=payload.get("timestamp", ""),
    )
