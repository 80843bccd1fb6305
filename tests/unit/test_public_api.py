"""Public-API consistency checks.

Guards against export drift: every name in each package's ``__all__`` must
resolve, and the top-level convenience namespace must expose the documented
entry points.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.api",
    "repro.circuits",
    "repro.hardware",
    "repro.sim",
    "repro.sim.fastpath",
    "repro.compiler",
    "repro.qaoa",
    "repro.experiments",
    "repro.service",
    "repro.service.evaluate",
]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        assert hasattr(module, "__all__"), f"{package} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_duplicate_exports(self, package):
        module = importlib.import_module(package)
        assert len(module.__all__) == len(set(module.__all__))

    def test_documented_quickstart_names(self):
        import repro

        for name in (
            "MaxCutProblem",
            "optimize_qaoa",
            "compile",
            "evaluate",
            "ibmq_20_tokyo",
            "melbourne_calibration",
            "StatevectorSimulator",
            "NoisySimulator",
        ):
            assert hasattr(repro, name)

    def test_version_string(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_pyproject_reads_the_package_version(self):
        """One version number: packaging takes ``repro.__version__``."""
        import pathlib
        import re

        text = (
            pathlib.Path(__file__).resolve().parents[2] / "pyproject.toml"
        ).read_text()
        assert 'dynamic = ["version"]' in text
        assert 'version = { attr = "repro.__version__" }' in text
        project = text.split("[project]", 1)[1].split("\n[", 1)[0]
        assert not re.search(r"^version\s*=", project, re.MULTILINE)

    def test_method_presets_cover_paper(self):
        from repro import METHOD_PRESETS

        assert {
            "naive", "greedy_v", "greedy_e", "qaim", "ip", "ic", "vic",
            "swap_network", "parity",
        } <= set(METHOD_PRESETS)

    def test_method_presets_match_registry(self):
        from repro import METHOD_PRESETS
        from repro.compiler import available_methods

        assert tuple(sorted(METHOD_PRESETS)) == available_methods()

    def test_every_public_callable_has_a_docstring(self):
        import inspect

        for package in PACKAGES:
            module = importlib.import_module(package)
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj) or inspect.isclass(obj):
                    assert obj.__doc__, f"{package}.{name} lacks a docstring"
