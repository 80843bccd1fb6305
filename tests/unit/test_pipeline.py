"""Pass pipeline unit tests: trace accounting, pass assembly, records,
memoization, knob passthrough, and the trace's ride-alongs (JSON, CLI,
service metrics, batch telemetry)."""

import io

import numpy as np
import pytest

from repro.cli import main
from repro.compiler import (
    METHOD_PRESETS,
    PipelineSpec,
    build_pipeline,
    compile_with_method,
    from_json,
    to_json,
)
from repro.compiler.pipeline import PassRecord
from repro.hardware import ibmq_16_melbourne, ibmq_20_tokyo, melbourne_calibration
from repro.qaoa import MaxCutProblem
from repro.service import CompileJob, execute_job, run_batch

PROBLEM = MaxCutProblem(
    8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7),
        (1, 6), (2, 5)]
)


def _compile(method="ic", **kwargs):
    program = PROBLEM.to_program([0.7], [0.35])
    kwargs.setdefault("rng", np.random.default_rng(0))
    if method == "vic":
        kwargs.setdefault("calibration", melbourne_calibration())
        return compile_with_method(
            program, ibmq_16_melbourne(), method, **kwargs
        )
    return compile_with_method(program, ibmq_20_tokyo(), method, **kwargs)


class TestTraceAccounting:
    @pytest.mark.parametrize("method", sorted(METHOD_PRESETS))
    def test_pass_seconds_sum_to_compile_time(self, method):
        compiled = _compile(method)
        total = sum(r.seconds for r in compiled.pass_trace)
        # The pipeline loop's own overhead is the only unattributed time:
        # the per-pass sum can never exceed the wall total, and the gap
        # must stay a small fraction (plus a scheduling-noise floor).
        assert 0.0 <= compiled.compile_time - total
        assert compiled.compile_time - total <= max(
            0.25 * compiled.compile_time, 0.005
        )

    @pytest.mark.parametrize("method", sorted(METHOD_PRESETS))
    def test_pass_swaps_sum_to_swap_count(self, method):
        compiled = _compile(method)
        assert sum(r.swaps for r in compiled.pass_trace) == compiled.swap_count

    def test_gate_deltas_sum_to_circuit_length(self):
        compiled = _compile("ic")
        assert sum(
            r.gate_delta for r in compiled.pass_trace
        ) == len(compiled.circuit)


class TestPipelineAssembly:
    EXPECTED = {
        "naive": ["place/random", "order/random", "route/layered"],
        "greedy_v": ["place/greedy_v", "order/random", "route/layered"],
        "greedy_e": ["place/greedy_e", "order/random", "route/layered"],
        "qaim": ["place/qaim", "order/random", "route/layered"],
        "ip": ["place/qaim", "order/ip", "route/layered"],
        "ic": ["place/qaim", "route/ic"],
        "vic": ["place/qaim", "distance/vic", "route/vic"],
        "swap_network": ["place/linear", "route/swap_network"],
        "parity": ["encode/parity"],
    }

    @pytest.mark.parametrize("method", sorted(METHOD_PRESETS))
    def test_preset_pass_names(self, method):
        compiled = _compile(method)
        assert [r.name for r in compiled.pass_trace] == self.EXPECTED[method]

    def test_crosstalk_appends_a_pass(self):
        compiled = _compile("ic", crosstalk_conflicts=[((0, 1), (2, 3))])
        assert [r.name for r in compiled.pass_trace] == [
            "place/qaim", "route/ic", "crosstalk/sequentialize",
        ]

    def test_lower_spec_appends_peephole(self):
        program = PROBLEM.to_program([0.7], [0.35])
        spec = METHOD_PRESETS["ic"].replace(lower=True)
        compiled = compile_with_method(
            program, ibmq_20_tokyo(), spec, rng=np.random.default_rng(0)
        )
        assert compiled.pass_trace[-1].name == "lower/peephole"

    def test_sabre_router_renames_route_pass(self):
        compiled = _compile("qaim", router="sabre")
        assert compiled.pass_trace[-1].name == "route/sabre"

    def test_build_pipeline_rejects_unknown_ordering(self):
        with pytest.raises(ValueError, match="unknown ordering"):
            build_pipeline(PipelineSpec(ordering="bogus"))


class TestSpecCompat:
    def test_method_label(self):
        assert METHOD_PRESETS["vic"].method == "qaim+vic"

    def test_replace_makes_changed_copy(self):
        spec = METHOD_PRESETS["ip"].replace(router="sabre", qaim_radius=3)
        assert (spec.router, spec.qaim_radius) == ("sabre", 3)
        assert METHOD_PRESETS["ip"].router == "layered"


class TestPassRecord:
    def test_round_trip(self):
        record = PassRecord(
            name="route/ic", seconds=0.5, swaps=3,
            depth_delta=7, gate_delta=21, info={"router": "layered"},
        )
        assert PassRecord.from_dict(record.to_dict()) == record

    def test_json_round_trip_preserves_trace(self):
        compiled = _compile("vic")
        restored = from_json(to_json(compiled))
        assert restored.pass_trace == compiled.pass_trace


class TestNativeMemoization:
    def test_same_object_per_flag(self):
        compiled = _compile("ic")
        assert compiled.native() is compiled.native()
        assert compiled.native(optimize=True) is compiled.native(optimize=True)

    def test_flags_cached_independently(self):
        compiled = _compile("ic")
        assert compiled.native(optimize=True) is not compiled.native()


class TestKnobPassthrough:
    def test_qaim_radius_reaches_placement(self):
        wide = _compile("qaim", qaim_radius=3)
        assert wide.pass_trace[0].info["radius"] == 3

    def test_qaim_radius_changes_placement(self):
        r1 = _compile("qaim", qaim_radius=1)
        r3 = _compile("qaim", qaim_radius=3)
        assert r1.pass_trace[0].info["radius"] == 1
        assert r3.pass_trace[0].info["radius"] == 3

    def test_crosstalk_keeps_conflicts_apart(self):
        from repro.circuits import asap_layers

        conflicts = [((0, 1), (2, 3))]
        compiled = _compile("ic", crosstalk_conflicts=conflicts)
        for layer in asap_layers(compiled.circuit):
            pairs = {
                frozenset(inst.qubits) for inst in layer if inst.is_two_qubit
            }
            assert not (
                frozenset((0, 1)) in pairs and frozenset((2, 3)) in pairs
            )


class TestCLITrace:
    def _run(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_trace_flag_renders_table(self):
        code, text = self._run(
            ["compile", "--nodes", "8", "--method", "ic",
             "--seed", "1", "--trace"]
        )
        assert code == 0
        assert "pass trace:" in text
        assert "place/qaim" in text
        assert "route/ic" in text
        assert "(total)" in text

    def test_router_and_radius_flags(self):
        code, text = self._run(
            ["compile", "--nodes", "8", "--method", "ip", "--seed", "1",
             "--router", "sabre", "--qaim-radius", "3", "--trace"]
        )
        assert code == 0
        assert "route/sabre" in text

    def test_crosstalk_flag(self):
        code, text = self._run(
            ["compile", "--nodes", "8", "--method", "ic", "--seed", "1",
             "--crosstalk", "0-1:2-3", "--trace"]
        )
        assert code == 0
        assert "crosstalk/sequentialize" in text


class TestServiceTrace:
    def test_job_metrics_carry_pass_trace(self):
        job = CompileJob(
            program=PROBLEM.to_program([0.7], [0.35]),
            device="ibmq_20_tokyo", method="ic", seed=0,
        )
        result = execute_job(job)
        assert result.ok
        names = [r["name"] for r in result.metrics["pass_trace"]]
        assert names == ["place/qaim", "route/ic"]

    def test_batch_telemetry_aggregates_pass_times(self):
        jobs = [
            CompileJob(
                program=PROBLEM.to_program([0.7], [0.35]),
                device="ibmq_20_tokyo", method="ic", seed=i,
            )
            for i in range(3)
        ]
        report = run_batch(jobs)
        summary = report.stage_summary("pass")
        assert set(summary) == {"place/qaim", "route/ic"}
        for stats in summary.values():
            assert stats["count"] == 3
            assert stats["min"] <= stats["p50"] <= stats["max"]


class TestCouplingCheckedOnce:
    """A RoutingPass job checks coupling compliance once, on the final
    circuit; a direct backend compile still checks its own output."""

    @pytest.fixture
    def checks(self, monkeypatch):
        from repro.compiler import backend as backend_module
        from repro.compiler import flow as flow_module

        calls = []
        for module in (backend_module, flow_module):

            def counting(circuit, coupling, _orig=module._coupling_violation):
                calls.append(len(circuit))
                return _orig(circuit, coupling)

            monkeypatch.setattr(module, "_coupling_violation", counting)
        return calls

    @pytest.mark.parametrize("method", ["naive", "qaim", "ip"])
    @pytest.mark.parametrize("router", ["layered", "sabre"])
    def test_routing_pass_job_checks_the_final_circuit_once(
        self, checks, method, router
    ):
        compiled = _compile(method, router=router)
        assert checks == [len(compiled.circuit)]
        # The name the router's own compile() gives its output.
        suffix = "(sabre)" if router == "sabre" else ""
        assert compiled.circuit.name == f"qaoa@ibmq_20_tokyo{suffix}"

    def test_direct_backend_compile_still_checks(self, checks):
        from repro.circuits import QuantumCircuit
        from repro.compiler.backend import ConventionalBackend
        from repro.compiler.mapping import Mapping

        coupling = ibmq_20_tokyo()
        circuit = QuantumCircuit(3)
        circuit.cphase(0.5, 0, 2)
        ConventionalBackend(coupling).compile(circuit, Mapping.trivial(3, 20))
        assert len(checks) == 1
