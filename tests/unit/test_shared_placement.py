"""The shared QAIM placement: a warm registry must change no output.

``qaim_placement`` keeps its results in the ``"placements"`` registry,
keyed on every input it reads (coupling content, the exact pairs,
``num_logical``, radius, weighting and the generator's full state).  A hit
restores the generator state the cold placement left, so every later draw
is unchanged.
"""

import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

from repro.compiler import available_methods, compile_with_method, get_method
from repro.compiler.qaim import QAIMConfig, qaim_placement
from repro.hardware.calibration import random_calibration
from repro.hardware.devices import get_device
from repro.hardware.target import intern_target
from repro.qaoa import MaxCutProblem
from repro.store import all_registries, store_stats

DEVICES = ("ibmq_20_tokyo", "ibmq_16_melbourne")
SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _registry():
    return all_registries()["placements"]


def _program(num_nodes=10, seed=4):
    rng = np.random.default_rng(seed)
    edges = [
        (a, b)
        for a in range(num_nodes)
        for b in range(a + 1, num_nodes)
        if rng.random() < 0.4
    ]
    return MaxCutProblem(num_nodes, edges).to_program([0.6], [0.3])


def _trace(compiled):
    return [
        {k: v for k, v in record.to_dict().items() if k != "seconds"}
        for record in compiled.pass_trace
    ]


def _compile(program, target, method, seed=11):
    rng = np.random.default_rng(seed)
    compiled = compile_with_method(program, target, method, rng=rng)
    return compiled, rng.random()


@pytest.fixture(autouse=True)
def _cold_registry():
    _registry().clear()
    yield
    _registry().clear()


@pytest.mark.parametrize("calibrated", [False, True], ids=["bare", "calibrated"])
@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("method", available_methods())
def test_warm_placement_compiles_identically(method, device, calibrated):
    if method == "vic" and not calibrated:
        pytest.skip("vic needs a calibration")
    coupling = get_device(device)
    calibration = (
        random_calibration(coupling, rng=np.random.default_rng(3)) if calibrated else None
    )
    target = intern_target(coupling, calibration)
    program = _program()

    cold, cold_next = _compile(program, target, method)

    # Warm the registry the way a method sweep does: the qaim job on the
    # bare device runs first, with the same program and seed.
    _registry().clear()
    _compile(program, intern_target(coupling), "qaim")
    hits = _registry().stats()["hits"]
    warm, warm_next = _compile(program, target, method)

    shares = get_method(method).placement == "qaim"
    assert _registry().stats()["hits"] == hits + (1 if shares else 0)
    assert warm.circuit.instructions == cold.circuit.instructions
    assert list(warm.initial_mapping.items()) == list(cold.initial_mapping.items())
    assert list(warm.final_mapping.items()) == list(cold.final_mapping.items())
    assert warm.swap_count == cold.swap_count
    assert warm.warnings == cold.warnings
    assert _trace(warm) == _trace(cold)
    assert warm_next == cold_next


def _pairs_and_size():
    program = _program(num_nodes=12, seed=9)
    return program.pairs(), program.num_qubits


def _place(pairs, num_logical, device="ibmq_20_tokyo", rng_seed=1, **kwargs):
    target = intern_target(get_device(device))
    rng = kwargs.pop("rng", np.random.default_rng(rng_seed))
    return qaim_placement(pairs, num_logical, target.coupling, rng=rng, target=target, **kwargs)


def test_every_key_input_splits_the_registry():
    pairs, n = _pairs_and_size()
    _place(pairs, n)
    assert _registry().stats()["misses"] == 1
    variants = {
        "seed": lambda: _place(pairs, n, rng_seed=2),
        "device": lambda: _place(pairs, n, device="ibmq_16_melbourne"),
        "radius": lambda: _place(pairs, n, config=QAIMConfig(radius=3)),
        "weighted": lambda: _place(pairs, n, config=QAIMConfig(weighted=True)),
        "pair order": lambda: _place(list(reversed(pairs)), n),
        "num_logical": lambda: _place(pairs, n + 1),
        "unseeded": lambda: _place(pairs, n, rng=None),
    }
    for name, place in variants.items():
        before = _registry().stats()
        place()
        after = _registry().stats()
        assert after["misses"] == before["misses"] + 1, name
        assert after["hits"] == before["hits"], name
    # Each stored variant is now a hit.
    before = _registry().stats()["hits"]
    for place in variants.values():
        place()
    assert _registry().stats()["hits"] == before + len(variants)


@pytest.mark.parametrize("bit_generator", ["PCG64", "MT19937", "Philox", "SFC64"])
def test_array_states_share_exactly(bit_generator):
    """States that hold arrays are keyed by their bytes: the same state
    reuses its placement, another state misses, and the generator leaves
    the placement where a cold run leaves it."""
    pairs, n = _pairs_and_size()
    target = intern_target(get_device("ibmq_20_tokyo"))
    make = getattr(np.random, bit_generator)

    def run(seed, shared):
        rng = np.random.Generator(make(seed))
        mapping = qaim_placement(
            pairs, n, target.coupling, rng=rng, target=target if shared else None
        )
        return mapping.as_dict(), rng.random(4).tolist()

    cold = run(5, shared=False)
    assert run(5, shared=True) == cold
    hits = _registry().stats()["hits"]
    assert run(5, shared=True) == cold
    assert _registry().stats()["hits"] == hits + 1
    misses = _registry().stats()["misses"]
    assert run(6, shared=True) == run(6, shared=False)
    assert _registry().stats()["misses"] == misses + 1


def test_a_state_that_cannot_be_frozen_skips_the_registry():
    pairs, n = _pairs_and_size()
    target = intern_target(get_device("ibmq_20_tokyo"))

    class ListState:
        """A generator whose bit-generator state holds a list."""

        def __init__(self, seed):
            self._rng = np.random.default_rng(seed)
            self.bit_generator = types.SimpleNamespace(state={"buffer": [1, 2]})

        def integers(self, high):
            return self._rng.integers(high)

    shared = qaim_placement(pairs, n, target.coupling, rng=ListState(3), target=target)
    alone = qaim_placement(pairs, n, target.coupling, rng=ListState(3))
    assert shared == alone
    assert _registry().stats()["misses"] == 0 and len(_registry()) == 0


def test_a_placement_that_raises_is_never_stored():
    pairs, n = _pairs_and_size()
    with pytest.raises(KeyError):
        _place(pairs + [(0, n + 3)], n)
    assert len(_registry()) == 0


def test_registry_is_bounded_and_reported():
    pairs, n = _pairs_and_size()
    registry = _registry()
    capacity = registry.capacity
    registry.set_capacity(3)
    try:
        for seed in range(8):
            _place(pairs, n, rng_seed=seed)
        assert len(registry) == 3
        stats = store_stats()["registries"]["placements"]
        assert stats["size"] == 3
        assert stats["capacity"] == 3
        assert stats["misses"] == 8
        assert stats["evictions"] == 5
    finally:
        registry.set_capacity(capacity)


def test_capacity_comes_from_the_registry_setting():
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_REGISTRY_CAPACITY="7")
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.store import all_registries; import repro.compiler.qaim; "
            "print(all_registries()['placements'].capacity)",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "7"
