"""Integration: every figure-reproduction module runs and reports sanely.

These run with tiny instance counts — the benchmark suite does the real
sweeps; here we verify plumbing, table shape and headline invariants.
"""

import pytest

from repro.compiler import ConventionalBackend
from repro.experiments.figures import (
    ablations,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11a,
    fig11b,
    fig12,
    sec6_planner,
)


class TestFig7:
    def test_runs_and_reports(self):
        result = fig7.run(instances=2, er_probs=(0.1, 0.5), degrees=(3, 8))
        assert result.figure == "fig7"
        assert "depth ratio" in result.table
        assert "qaim_vs_naive_depth_er0.1" in result.headline
        # Ratios are positive and NAIVE normalises to 1.
        assert result.raw["depth"][("er", 0.1)]["naive"] == pytest.approx(1.0)


class TestFig8:
    def test_runs_and_reports(self):
        result = fig8.run(instances=2, node_sizes=(12, 16))
        assert "qaim_vs_naive_depth_n12" in result.headline
        assert all(v > 0 for v in result.headline.values())


class TestFig9:
    def test_runs_and_reports(self):
        result = fig9.run(instances=2, er_probs=(0.3,), degrees=(3, 8))
        assert "ic_vs_qaim_depth_reg3" in result.headline
        # IC must reduce depth vs QAIM-only (the paper's central result).
        assert result.headline["ic_vs_qaim_depth_reg3"] < 1.0
        assert result.headline["ic_vs_qaim_depth_reg8"] < 1.0

    def test_denser_graphs_show_larger_ic_gain(self):
        result = fig9.run(instances=3, er_probs=(), degrees=(3, 8))
        assert (
            result.headline["ic_vs_qaim_depth_reg8"]
            < result.headline["ic_vs_qaim_depth_reg3"]
        )


class TestFig10:
    def test_vic_improves_success_probability(self):
        result = fig10.run(instances=3, node_sizes=(13,))
        assert result.headline["vic_over_ic_sp_er_n13"] >= 1.0


class TestFig11a:
    def test_summary_table_shape(self):
        result = fig11a.run(instances=1, er_probs=(0.3,), degrees=(4,))
        for method in ("naive", "qaim", "ip", "ic", "vic"):
            assert f"{method}_depth_norm" in result.headline
        assert result.headline["naive_depth_norm"] == pytest.approx(1.0)

    def test_ic_below_naive(self):
        result = fig11a.run(instances=2, er_probs=(0.3, 0.5), degrees=(4, 6))
        assert result.headline["ic_depth_norm"] < 1.0
        assert result.headline["ic_gates_norm"] < 1.0


class TestFig11b:
    def test_arg_pipeline_runs(self):
        result = fig11b.run(
            instances=1, num_nodes=8, shots=1024, trajectories=8
        )
        for method in ("qaim", "ip", "ic", "vic"):
            assert f"arg_mean_{method}" in result.headline
            assert -20.0 < result.headline[f"arg_mean_{method}"] < 100.0


class TestFig12:
    def test_packing_sweep_runs(self):
        result = fig12.run(
            instances=1, num_nodes=16, packing_limits=(1, 4, 8)
        )
        assert "er_depth_limit1_over_limit8" in result.headline
        # Packing limit 1 serialises everything: depth must exceed limit 8.
        assert result.headline["er_depth_limit1_over_limit8"] > 1.0

    def test_compile_time_falls_with_packing(self, monkeypatch):
        """Compile time falls because a higher limit packs more CPHASEs
        per layer, so IC forms fewer layers and routes each with one
        backend call.  Count those calls at limits 1 and 8 on the same
        instances; the wall clock the figure reports varies by host."""
        calls = []
        route = ConventionalBackend.continue_compile

        def counted(self, *args, **kwargs):
            calls.append(None)
            return route(self, *args, **kwargs)

        monkeypatch.setattr(ConventionalBackend, "continue_compile", counted)
        counts = {}
        for limit in (1, 8):
            calls.clear()
            result = fig12.run(
                instances=2, num_nodes=16, packing_limits=(limit,)
            )
            assert f"er_time_limit{limit}_over_limit{limit}" in result.headline
            counts[limit] = len(calls)
        assert counts[1] > counts[8] > 0


class TestSec6:
    def test_ic_beats_naive_on_planner_workload(self):
        result = sec6_planner.run(instances=6)
        assert result.headline["ic_depth_reduction_vs_naive"] > 0.0
        assert result.headline["ic_gate_reduction_vs_naive"] > 0.0
        # Scalability claim: milliseconds, not the planner's 70 s.
        assert result.headline["ic_mean_compile_seconds"] < 1.0


class TestAblations:
    def test_qaim_radius(self):
        result = ablations.qaim_radius_ablation(instances=2, radii=(1, 2))
        assert any("r1_depth_vs_r2" in k for k in result.headline)

    def test_ic_dynamic(self):
        result = ablations.ic_dynamic_ablation(instances=3)
        # Frozen ordering should not beat dynamic on SWAP-driven gates.
        assert result.headline["er_frozen_over_dynamic_gates"] >= 0.95

    def test_vic_weight(self):
        result = ablations.vic_weight_ablation(instances=2)
        assert "er_neglog_over_inv_sp" in result.headline
        # -log R is the principled weighting (path weight = -log of path
        # success); it should never be drastically worse than 1/R.
        assert result.headline["er_neglog_over_inv_sp"] > 0.5


class TestFigureResultRendering:
    def test_render_contains_everything(self):
        result = sec6_planner.run(instances=3)
        text = result.render()
        assert "[sec6_planner]" in text
        assert "mean depth" in text
        assert "ic_depth_reduction_vs_naive" in text
