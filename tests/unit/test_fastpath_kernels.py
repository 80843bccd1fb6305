"""Exactness of the fast path's two inner kernels.

The support sampler must draw what ``Generator.choice`` draws over the
dense physical register, index for index and generator state included,
and the single-qubit kernel must equal the tensor-axis (``moveaxis``)
form it replaced, bit for bit.  Both references live only here.
"""

import numpy as np
import pytest

from repro.sim.fastpath import (
    _HADAMARD,
    _PAULI_X,
    _PAULI_Y,
    _apply_single,
    _physical_index_map,
    _rx_matrix,
    _sample_support,
)


def _choice_reference(rng, weights, positions, n_phys, size):
    dense = np.zeros(1 << n_phys)
    dense[positions] = weights
    dense /= dense.sum()
    return rng.choice(1 << n_phys, size=size, p=dense)


def _random_case(seed):
    """Weights with exact zeros on a random injective layout, plus a dirt
    mask on the unmapped qubits."""
    g = np.random.default_rng(seed)
    n_phys = int(g.integers(2, 15))
    n = int(g.integers(1, n_phys + 1))
    homes = [int(p) for p in g.permutation(n_phys)[:n]]
    phys_map = _physical_index_map(dict(enumerate(homes)), n)
    dirt = 0
    for p in set(range(n_phys)) - set(homes):
        if g.random() < 0.4:
            dirt |= 1 << p
    amps = g.normal(size=1 << n) + 1j * g.normal(size=1 << n)
    amps[g.random(1 << n) < 0.25] = 0.0
    amps[int(g.integers(1 << n))] = 1.0
    return n_phys, phys_map, dirt, np.abs(amps) ** 2, int(g.integers(1, 700))


@pytest.mark.parametrize("block", range(5))
def test_support_sampler_draws_what_choice_draws(block):
    for seed in range(100 * block, 100 * block + 100):
        n_phys, phys_map, dirt, weights, size = _random_case(seed)
        reference = np.random.default_rng(seed)
        expected = _choice_reference(
            reference, weights, phys_map | dirt, n_phys, size
        )
        order = np.argsort(phys_map)
        rng = np.random.default_rng(seed)
        picks = _sample_support(
            rng, weights[order], phys_map[order] | dirt, n_phys, size
        )
        assert np.array_equal(phys_map[order][picks] | dirt, expected)
        assert rng.random() == reference.random()


@pytest.mark.parametrize(
    "weights", [[0.5, np.nan], [0.0, 0.0], [1.0, -0.5], [np.inf, 1.0]]
)
def test_support_sampler_keeps_choice_checks(weights):
    weights = np.array(weights)
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(ValueError):
            _choice_reference(
                np.random.default_rng(0), weights, np.array([0, 2]), 2, 4
            )
        with pytest.raises(ValueError):
            _sample_support(
                np.random.default_rng(0), weights, np.array([0, 2]), 2, 4
            )


def _apply_single_moveaxis(state, matrix, qubit, num_qubits):
    """The tensor-axis kernel the fast path used before."""
    axis = num_qubits - 1 - qubit
    tensor = np.moveaxis(state.reshape((2,) * num_qubits), axis, 0)
    out = np.empty_like(tensor)
    out[0] = matrix[0, 0] * tensor[0] + matrix[0, 1] * tensor[1]
    out[1] = matrix[1, 0] * tensor[0] + matrix[1, 1] * tensor[1]
    return np.moveaxis(out, 0, axis).reshape(-1)


@pytest.mark.parametrize("num_qubits", range(1, 11))
def test_single_qubit_kernel_is_bit_identical_to_moveaxis(num_qubits):
    g = np.random.default_rng(num_qubits)
    matrices = [_HADAMARD, _PAULI_X, _PAULI_Y] + [
        _rx_matrix(theta) for theta in g.uniform(-np.pi, np.pi, 3)
    ]
    for _ in range(3):
        state = g.normal(size=1 << num_qubits) + 1j * g.normal(
            size=1 << num_qubits
        )
        for matrix in matrices:
            for qubit in range(num_qubits):
                assert np.array_equal(
                    _apply_single(state, matrix, qubit),
                    _apply_single_moveaxis(state, matrix, qubit, num_qubits),
                )
