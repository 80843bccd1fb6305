"""Unit tests for the Target layer: memoized oracles, fingerprints,
interning, and the compile entry-point integration."""

import pickle

import numpy as np
import pytest

from repro.compiler.flow import compile_with_method
from repro.compiler.pipeline import PipelineSpec
from repro.compiler.serialize import from_json, to_json
from repro.hardware.devices import (
    figure6_calibration,
    figure6_device,
    ibmq_20_tokyo,
    linear_device,
)
from repro.hardware.target import (
    Target,
    as_target,
    clear_target_registry,
    coupling_fingerprint,
    intern_coupling,
    intern_target,
    normalise_conflicts,
    target_registry_stats,
)
from repro.qaoa.problems import Level, QAOAProgram


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_target_registry()
    yield
    clear_target_registry()


class _DuckCalibration:
    """Calibration stand-in without canonical error tables."""

    def __init__(self, coupling):
        self.coupling = coupling

    def vic_distance_matrix(self):
        return np.array(self.coupling.distance_matrix(), dtype=float)


class TestFingerprint:
    def test_stable_hex_digest(self):
        t = Target(figure6_device(), figure6_calibration())
        fp = t.fingerprint
        assert isinstance(fp, str) and len(fp) == 64
        assert fp == t.fingerprint  # memoized, stable

    def test_content_equal_instances_agree(self):
        a = Target(figure6_device(), figure6_calibration())
        b = Target(figure6_device(), figure6_calibration())
        assert a is not b
        assert a.fingerprint == b.fingerprint

    def test_calibration_changes_fingerprint(self):
        bare = Target(figure6_device())
        calibrated = Target(figure6_device(), figure6_calibration())
        assert bare.fingerprint != calibrated.fingerprint

    def test_timestamp_excluded(self):
        cal_a = figure6_calibration()
        cal_b = figure6_calibration()
        cal_b.timestamp = "some other day"
        a = Target(cal_a.coupling, cal_a)
        b = Target(cal_b.coupling, cal_b)
        assert a.fingerprint == b.fingerprint

    def test_warnings_change_fingerprint(self):
        g = figure6_device()
        clean = Target(g)
        degraded = Target(g, warnings=("pruned dead coupler (0, 1)",))
        assert clean.fingerprint != degraded.fingerprint

    def test_conflicts_change_fingerprint(self):
        g = ibmq_20_tokyo()
        plain = Target(g)
        conflicted = Target(g, crosstalk_conflicts=[((0, 1), (5, 6))])
        assert plain.fingerprint != conflicted.fingerprint

    def test_duck_typed_calibration_has_no_fingerprint(self):
        g = linear_device(4)
        t = Target(g, _DuckCalibration(g))
        assert t.fingerprint is None

    def test_coupling_fingerprint_distinguishes_topologies(self):
        assert coupling_fingerprint(linear_device(4)) != coupling_fingerprint(
            linear_device(5)
        )
        assert coupling_fingerprint(linear_device(4)) == coupling_fingerprint(
            linear_device(4)
        )

    def test_mismatched_calibration_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            Target(linear_device(4), figure6_calibration())


class TestOracles:
    def test_hop_distances_is_coupling_view(self):
        g = figure6_device()
        t = Target(g)
        assert t.hop_distances() is g.distance_matrix()
        assert not t.hop_distances().flags.writeable

    def test_vic_oracles_match_calibration(self):
        cal = figure6_calibration()
        t = Target(cal.coupling, cal)
        np.testing.assert_array_equal(
            t.vic_distance_matrix(), cal.vic_distance_matrix()
        )
        assert dict(t.vic_edge_weights()) == dict(cal.vic_edge_weights())

    def test_vic_oracles_require_calibration(self):
        t = Target(figure6_device())
        with pytest.raises(ValueError, match="calibration"):
            t.vic_edge_weights()
        with pytest.raises(ValueError, match="calibration"):
            t.vic_distance_matrix()
        with pytest.raises(ValueError, match="calibration"):
            t.vic_distances()

    def test_vic_distances_memoized_with_fresh_warning_lists(self):
        cal = figure6_calibration()
        t = Target(cal.coupling, cal)
        matrix_a, warnings_a = t.vic_distances()
        matrix_b, warnings_b = t.vic_distances()
        assert matrix_a is matrix_b
        assert warnings_a == warnings_b == []
        warnings_a.append("mutated")
        assert t.vic_distances()[1] == []

    def test_vic_distances_degraded_fallback(self):
        g = linear_device(4)
        t = Target(g, _DuckCalibration(g))
        t.calibration.vic_distance_matrix = lambda: (_ for _ in ()).throw(
            ValueError("synthetic failure")
        )
        matrix, warnings = t.vic_distances()
        assert matrix is None
        assert len(warnings) == 1
        assert "falling back to hop distances" in warnings[0]
        # Fallback steers routing back to hop distances.
        assert t.routing_distances("vic") is None

    def test_routing_distances(self):
        cal = figure6_calibration()
        t = Target(cal.coupling, cal)
        assert t.routing_distances("hop") is None
        np.testing.assert_array_equal(
            t.routing_distances("vic"), cal.vic_distance_matrix()
        )
        with pytest.raises(ValueError, match="unknown distance metric"):
            t.routing_distances("bogus")

    def test_weighted_distances_memoized_readonly(self):
        g = figure6_device()
        t = Target(g)
        weights = {e: 1.5 for e in g.edges}
        m = t.weighted_distances(weights)
        assert m is t.weighted_distances(dict(weights))
        assert not m.flags.writeable
        np.testing.assert_array_equal(m, g.weighted_distance_matrix(weights))
        other = t.weighted_distances({e: 2.0 for e in g.edges})
        assert other is not m

    def test_neighbourhood_oracles_match_coupling(self):
        g = ibmq_20_tokyo()
        t = Target(g)
        profile = g.connectivity_profile(radius=2)
        for q in range(g.num_qubits):
            assert set(t.neighbours(q)) == set(g.neighbours(q))
            assert t.connectivity_strength(q) == profile[q]
            assert t.neighbourhood(q, 1) == frozenset(g.neighbours(q))
            assert t.second_neighbours(q) == t.neighbourhood(q, 2) - frozenset(
                g.neighbours(q)
            )

    def test_connectivity_profile_memoized_readonly(self):
        t = Target(ibmq_20_tokyo())
        profile = t.connectivity_profile(radius=2)
        assert profile is t.connectivity_profile(radius=2)
        with pytest.raises(TypeError):
            profile[0] = 99

    def test_neighbourhood_radius_validated(self):
        with pytest.raises(ValueError, match="radius"):
            Target(linear_device(3)).neighbourhood(0, radius=0)

    def test_shortest_path_memoized_fresh_lists(self):
        g = figure6_device()
        t = Target(g)
        path = t.shortest_path(0, 3)
        assert path == g.shortest_path(0, 3)
        other = t.shortest_path(0, 3)
        assert other == path and other is not path
        other.append(99)
        assert t.shortest_path(0, 3) == path

    def test_path_oracle_steers_by_vic(self):
        cal = figure6_calibration()
        t = Target(cal.coupling, cal)
        oracle = t.path_oracle("vic")
        assert oracle(0, 3) == cal.coupling.shortest_path(
            0, 3, dist=cal.vic_distance_matrix()
        )

    def test_conflict_sets_normalised(self):
        t = Target(
            ibmq_20_tokyo(), crosstalk_conflicts=[((1, 0), (6, 5))]
        )
        assert t.conflict_sets() == normalise_conflicts(
            [((0, 1), (5, 6))]
        )


class TestInterning:
    def test_content_equal_targets_intern_to_one(self):
        a = intern_target(figure6_device(), figure6_calibration())
        b = intern_target(figure6_device(), figure6_calibration())
        assert a is b
        stats = target_registry_stats()
        assert stats["target_hits"] == 1
        assert stats["target_misses"] == 1
        assert stats["targets"] == 1

    def test_duck_typed_not_interned(self):
        g = linear_device(4)
        a = intern_target(g, _DuckCalibration(g))
        b = intern_target(g, _DuckCalibration(g))
        assert a is not b
        assert target_registry_stats()["targets"] == 0

    def test_intern_coupling_dedupes_content(self):
        a = intern_coupling(4, [(0, 1), (1, 2), (2, 3)], name="chain")
        b = intern_coupling(4, [(2, 3), (0, 1), (1, 2)], name="chain")
        assert a is b
        assert intern_coupling(4, [(0, 1), (1, 2), (2, 3)]) is not a

    def test_as_target_coercions(self):
        g = figure6_device()
        cal = figure6_calibration()
        t = intern_target(cal.coupling, cal)
        assert as_target(t) is t
        assert as_target(g).coupling is g
        assert as_target(cal) is t
        with pytest.raises(TypeError, match="cannot build a Target"):
            as_target(42)

    def test_pickle_round_trips_to_interned_target(self):
        t = intern_target(figure6_device(), figure6_calibration())
        clone = pickle.loads(pickle.dumps(t))
        assert clone is t

    def test_pickled_coupling_reinterns(self):
        g = intern_coupling(3, [(0, 1), (1, 2)], name="chain3")
        assert pickle.loads(pickle.dumps(g)) is g


def _program():
    return QAOAProgram(
        num_qubits=4,
        edges=[(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)],
        levels=[Level(0.7, 0.35)],
    )


class TestCompileIntegration:
    def test_target_keyword_equals_loose_arguments(self):
        cal = figure6_calibration()
        program = _program()
        loose = compile_with_method(
            program,
            cal.coupling,
            "vic",
            calibration=cal,
            rng=np.random.default_rng(7),
        )
        via_target = compile_with_method(
            program,
            method="vic",
            rng=np.random.default_rng(7),
            target=intern_target(cal.coupling, cal),
        )
        assert [
            (i.name, i.qubits, i.params) for i in loose.circuit
        ] == [(i.name, i.qubits, i.params) for i in via_target.circuit]
        assert loose.target_fingerprint == via_target.target_fingerprint

    def test_fingerprint_stamped_and_serialised(self):
        compiled = compile_with_method(_program(), figure6_device(), PipelineSpec())
        assert compiled.target_fingerprint
        restored = from_json(to_json(compiled))
        assert restored.target_fingerprint == compiled.target_fingerprint

    def test_conflicting_target_and_calibration_rejected(self):
        cal = figure6_calibration()
        other = figure6_calibration()
        other.cnot_error = {
            e: err * 0.5 for e, err in other.cnot_error.items()
        }
        target = intern_target(cal.coupling, cal)
        with pytest.raises(ValueError, match="conflicts"):
            compile_with_method(
                _program(), target, PipelineSpec(), calibration=other
            )

    def test_target_warnings_reach_nothing_implicitly(self):
        # Target warnings are provenance for the fingerprint; compiles
        # do not inject them into the result (callers own that policy).
        t = intern_target(figure6_device(), warnings=("degraded",))
        compiled = compile_with_method(_program(), t, PipelineSpec())
        assert "degraded" not in compiled.warnings
