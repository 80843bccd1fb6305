"""Property tests for the unified QUBO/Ising frontend and angle batching.

Two exactness claims back the frontend:

* :meth:`IsingProblem.from_qubo` preserves energies — for any random
  QUBO matrix the Ising problem's dense cost vector equals a direct
  brute-force evaluation of ``x^T Q x`` over every bit assignment;
* :func:`expectation_batch` is just a layout change — a whole grid of
  angle points must agree with one-at-a-time exact evaluation
  (:func:`qaoa_statevector` + diagonal expectation, and the compiled
  ``evaluate_fast(mode="exact")`` path) to 1e-9.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_with_method
from repro.hardware.devices import get_device
from repro.qaoa.frontend import cost_values, problem_fingerprint
from repro.qaoa.ising import IsingProblem
from repro.sim.fastpath import (
    cost_diagonal,
    evaluate_fast,
    expectation_batch,
    qaoa_statevector,
    qaoa_statevector_batch,
)

ATOL = 1e-9

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _ring_with_chords(n: int) -> IsingProblem:
    """A fixed weighted Ising ring on ``n`` spins with chords and fields."""
    rng = np.random.default_rng(n)
    pairs = {tuple(sorted((q, (q + 1) % n))) for q in range(n)}
    pairs |= {tuple(sorted((q, (q + n // 2) % n))) for q in range(0, n, 3)}
    quadratic = {
        pair: float(rng.uniform(-2.0, 2.0)) for pair in sorted(pairs) if pair[0] != pair[1]
    }
    linear = {q: float(rng.uniform(-1.0, 1.0)) for q in range(0, n, 2)}
    return IsingProblem(n, quadratic, linear, 0.5)


@st.composite
def qubo_matrices(draw):
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.uniform(-2.0, 2.0, size=(n, n))
    # from_qubo symmetrises, so feed it arbitrary (non-symmetric) input.
    return matrix


@st.composite
def ising_problems(draw):
    n = draw(st.integers(2, 8))
    pair_pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(pair_pool), min_size=1, max_size=12, unique=True
        )
    )
    quadratic = {
        pair: draw(st.floats(-2.0, 2.0, allow_nan=False)) for pair in chosen
    }
    linear = {
        q: draw(st.floats(-1.0, 1.0, allow_nan=False))
        for q in draw(
            st.lists(st.integers(0, n - 1), max_size=n, unique=True)
        )
    }
    offset = draw(st.floats(-3.0, 3.0, allow_nan=False))
    return IsingProblem(n, quadratic, linear, offset)


class TestQuboEnergies:
    @given(qubo_matrices(), st.sampled_from(["max", "min"]))
    @settings(max_examples=60, deadline=None)
    def test_from_qubo_matches_brute_force(self, matrix, sense):
        n = matrix.shape[0]
        problem = IsingProblem.from_qubo(matrix, sense=sense)
        values = problem.values()
        sign = 1.0 if sense == "max" else -1.0
        for z in range(2**n):
            x = np.array([(z >> i) & 1 for i in range(n)], dtype=float)
            direct = sign * float(x @ matrix @ x)
            assert abs(values[z] - direct) < ATOL, (z, values[z], direct)

    @given(qubo_matrices())
    @settings(max_examples=30, deadline=None)
    def test_optimum_is_max_of_cost_vector(self, matrix):
        problem = IsingProblem.from_qubo(matrix)
        assert problem.optimum() == float(problem.values().max())
        assert np.array_equal(cost_values(problem), problem.values())

    @given(ising_problems())
    @settings(max_examples=40, deadline=None)
    def test_cost_vector_is_diagonal_phase_plus_offset(self, problem):
        """The interned diagonal reproduces the classical cost exactly:
        ``C(z) = phase(z) + offset`` — the identity the batched
        expectation path and the service optimizer both rely on."""
        diag = cost_diagonal(problem)
        delta = problem.values() - (diag.phase + problem.offset)
        assert np.max(np.abs(delta)) < ATOL


class TestBatchedAgainstLooped:
    @given(ising_problems(), st.integers(1, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batch_statevectors_match_looped(self, problem, p, seed):
        rng = np.random.default_rng(seed)
        gammas = rng.uniform(-np.pi, np.pi, size=(5, p))
        betas = rng.uniform(-np.pi / 2, np.pi / 2, size=(5, p))
        batch = qaoa_statevector_batch(problem, gammas, betas)
        for k in range(5):
            single = qaoa_statevector(problem.to_program(gammas[k], betas[k]))
            assert np.max(np.abs(batch[k] - single)) < ATOL

    @given(ising_problems(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batch_expectations_match_looped(self, problem, seed):
        rng = np.random.default_rng(seed)
        gammas = rng.uniform(-np.pi, np.pi, 7)
        betas = rng.uniform(-np.pi / 2, np.pi / 2, 7)
        batch = expectation_batch(problem, gammas, betas)
        values = problem.values()
        for k in range(7):
            state = qaoa_statevector(
                problem.to_program([gammas[k]], [betas[k]])
            )
            looped = float(np.abs(state) ** 2 @ values)
            assert abs(batch[k] - looped) < ATOL

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_compiled_evaluate_fast(self, seed):
        """Grid sweep == looped exact compiled evaluation, the contract
        the CI angle-batch bench gates at >=5x."""
        from repro.experiments.harness import make_problem

        rng = np.random.default_rng(seed)
        problem = make_problem("er", 8, 0.6, np.random.default_rng(seed))
        max_cut = problem.max_cut_value()
        gammas = rng.uniform(-np.pi, np.pi, 4)
        betas = rng.uniform(-np.pi / 2, np.pi / 2, 4)
        batch = expectation_batch(problem, gammas, betas)
        coupling = get_device("ibmq_20_tokyo")
        for k in range(4):
            compiled = compile_with_method(
                problem.to_program([gammas[k]], [betas[k]]),
                coupling,
                "ic",
                rng=np.random.default_rng(seed),
            )
            outcome = evaluate_fast(compiled, noise=None, mode="exact")
            assert abs(batch[k] - outcome.r0 * max_cut) < ATOL

    @given(ising_problems(), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_chunked_grid_is_bit_identical(self, problem, seed):
        rng = np.random.default_rng(seed)
        gammas = rng.uniform(-np.pi, np.pi, 6)
        betas = rng.uniform(-np.pi / 2, np.pi / 2, 6)
        whole = expectation_batch(problem, gammas, betas)
        chunked = expectation_batch(
            problem, gammas, betas, max_batch_amplitudes=1
        )
        assert np.array_equal(whole, chunked)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_every_mixer_group_count(self, n):
        """n = 1..16 spans one to four groups of the batched mixer: every
        row matches the exact single-point kernel, equals its own
        one-row call bit for bit, and a chunked grid equals the whole."""
        problem = _ring_with_chords(n)
        rng = np.random.default_rng(100 + n)
        for p in (1, 2):
            gammas = rng.uniform(-np.pi, np.pi, size=(6, p))
            betas = rng.uniform(-np.pi / 2, np.pi / 2, size=(6, p))
            batch = qaoa_statevector_batch(problem, gammas, betas)
            for k in range(6):
                single = qaoa_statevector(problem.to_program(gammas[k], betas[k]))
                assert np.max(np.abs(batch[k] - single)) < ATOL
                alone = qaoa_statevector_batch(
                    problem, gammas[k : k + 1], betas[k : k + 1]
                )
                assert np.array_equal(alone[0], batch[k])
        gammas = rng.uniform(-np.pi, np.pi, 6)
        betas = rng.uniform(-np.pi / 2, np.pi / 2, 6)
        whole = expectation_batch(problem, gammas, betas)
        chunked = expectation_batch(problem, gammas, betas, max_batch_amplitudes=1)
        assert np.array_equal(whole, chunked)

    def test_grid_bits_do_not_depend_on_blas_threads(self):
        """The batched mixer runs through numpy's BLAS: one fixed grid at
        n = 10 and 14 hashes the same with one BLAS thread and with two."""
        script = textwrap.dedent(
            """
            import hashlib
            import numpy as np
            from repro.qaoa.ising import IsingProblem
            from repro.sim.fastpath import expectation_batch, qaoa_statevector_batch
            digest = hashlib.sha256()
            gammas = np.linspace(-np.pi, np.pi, 16).reshape(8, 2)
            betas = np.linspace(-np.pi / 2, np.pi / 2, 16).reshape(8, 2)
            for n in (10, 14):
                rng = np.random.default_rng(n)
                quadratic = {(q, q + 1): rng.uniform(-2, 2) for q in range(n - 1)}
                quadratic[(0, n - 1)] = 1.0
                linear = {q: rng.uniform(-1, 1) for q in range(0, n, 2)}
                problem = IsingProblem(n, quadratic, linear, 0.0)
                digest.update(expectation_batch(problem, gammas, betas).tobytes())
                digest.update(qaoa_statevector_batch(problem, gammas, betas).tobytes())
            print(digest.hexdigest())
            """
        )
        hashes = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONPATH=SRC,
                OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads,
            )
            out = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            )
            hashes.append(out.stdout.strip())
        assert len(hashes[0]) == 64
        assert hashes[0] == hashes[1]


class TestFingerprints:
    @given(ising_problems())
    @settings(max_examples=30, deadline=None)
    def test_fingerprint_stable_under_term_order(self, problem):
        shuffled = IsingProblem(
            problem.num_spins,
            dict(reversed(list(problem.quadratic.items()))),
            dict(reversed(list(problem.linear.items()))),
            problem.offset,
        )
        assert problem_fingerprint(shuffled) == problem_fingerprint(problem)
        assert shuffled.content_fingerprint() == problem.content_fingerprint()
