"""Unit tests for the public method registry.

The registry is the single source of truth for method-name resolution:
``register_method`` / ``get_method`` / ``available_methods``, the
read-only ``METHOD_PRESETS`` view, and the shared unknown-method error
used by every entry point.
"""

import warnings

import pytest

from repro.compiler import (
    METHOD_PRESETS,
    PipelineSpec,
    available_methods,
    get_method,
    register_method,
    unregister_method,
)
from repro.compiler.registry import unknown_method_error


class TestRegistryBasics:
    def test_paper_presets_registered(self):
        names = available_methods()
        for name in (
            "naive", "greedy_v", "greedy_e", "qaim", "ip", "ic", "vic",
            "swap_network", "parity",
        ):
            assert name in names

    def test_available_methods_sorted_tuple(self):
        names = available_methods()
        assert isinstance(names, tuple)
        assert list(names) == sorted(names)

    def test_get_method_returns_spec(self):
        spec = get_method("swap_network")
        assert isinstance(spec, PipelineSpec)
        assert spec.placement == "linear"
        assert spec.ordering == "swap_network"

    def test_get_method_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown method 'nope'"):
            get_method("nope")

    def test_unknown_error_lists_options_sorted(self):
        err = unknown_method_error("nope")
        assert isinstance(err, ValueError)
        message = str(err)
        assert "options:" in message
        for name in available_methods():
            assert repr(name)[1:-1] in message


class TestRegisterUnregister:
    def test_register_roundtrip(self):
        spec = PipelineSpec(placement="linear", ordering="swap_network")
        register_method("custom_sn", spec)
        try:
            assert "custom_sn" in available_methods()
            assert get_method("custom_sn") == spec
        finally:
            unregister_method("custom_sn")
        assert "custom_sn" not in available_methods()

    def test_register_collision_needs_overwrite(self):
        register_method("custom_x", get_method("ic"))
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_method("custom_x", get_method("ip"))
            register_method("custom_x", get_method("ip"), overwrite=True)
            assert get_method("custom_x") == get_method("ip")
        finally:
            unregister_method("custom_x")

    def test_register_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            register_method("", get_method("ic"))
        with pytest.raises(TypeError):
            register_method("bad", {"placement": "ic"})

    def test_unregister_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            unregister_method("never_registered")


class TestPresetsCompatibilityView:
    def test_reads_are_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert METHOD_PRESETS["ic"].ordering == "ic"
            assert len(METHOD_PRESETS) == len(available_methods())
            assert set(METHOD_PRESETS) == set(available_methods())

    def test_view_is_read_only(self):
        spec = PipelineSpec(placement="linear", ordering="swap_network")
        with pytest.raises(TypeError):
            METHOD_PRESETS["legacy_custom"] = spec
        assert "legacy_custom" not in available_methods()
        with pytest.raises(TypeError):
            del METHOD_PRESETS["ic"]
        assert get_method("ic").ordering == "ic"

    def test_view_tracks_registry(self):
        register_method("tracked", get_method("naive"))
        try:
            assert "tracked" in METHOD_PRESETS
        finally:
            unregister_method("tracked")
        assert "tracked" not in METHOD_PRESETS


class TestUnifiedErrors:
    """Every entry point reports the same unknown-method error."""

    def _expected(self):
        return str(unknown_method_error("bogus"))

    def test_api_compile(self):
        import repro

        problem = repro.MaxCutProblem(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError) as exc:
            repro.compile(
                problem,
                target="ring_8",
                method="bogus",
                gammas=[0.1],
                betas=[0.2],
            )
        assert str(exc.value) == self._expected()

    def test_compile_with_method(self):
        import numpy as np

        from repro.compiler import compile_with_method
        from repro.hardware import ring_device
        from repro.qaoa import MaxCutProblem

        program = MaxCutProblem(3, [(0, 1), (1, 2)]).to_program([0.1], [0.2])
        with pytest.raises(ValueError) as exc:
            compile_with_method(
                program, ring_device(4), "bogus", rng=np.random.default_rng(0)
            )
        assert str(exc.value) == self._expected()

    def test_job_from_dict(self):
        from repro.service.job import job_from_dict

        with pytest.raises(ValueError) as exc:
            job_from_dict(
                {
                    "program": {
                        "num_qubits": 3,
                        "edges": [[0, 1], [1, 2]],
                        "gammas": [0.1],
                        "betas": [0.2],
                    },
                    "device": "ring_8",
                    "method": "bogus",
                }
            )
        assert str(exc.value) == self._expected()

    def test_cli_compile(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["compile", "--method", "bogus", "--device", "ring_8"])
        err = capsys.readouterr().err
        assert "bogus" in err
