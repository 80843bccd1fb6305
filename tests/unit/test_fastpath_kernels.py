"""Exactness of the fast path's inner kernels.

The support sampler must draw what ``Generator.choice`` draws over the
dense physical register, index for index and generator state included;
the single-qubit kernel must equal the tensor-axis (``moveaxis``) form it
replaced, bit for bit, on one state or a stack of them; and the noisy
trajectory kernel, which evolves an evaluation's trajectories together
from one shared noiseless row, must give every trajectory the state,
dirt mask and sample uniforms of one trajectory replayed alone, and
leave the generator where the lone replays leave it.  On parity circuits,
whose CNOT ladders move each wire's frame off a single slot, the kernel
is held against the gate-level ``NoisySimulator.run_trajectory`` over
the whole physical register instead.  Every reference lives only here.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.circuits import QuantumCircuit
from repro.circuits.gates import Instruction
from repro.qaoa.problems import MaxCutProblem
from repro.sim import NoiseModel, NoisySimulator, fastpath
from repro.sim.fastpath import (
    _HADAMARD,
    _apply_single,
    _physical_index_map,
    _rx_matrix,
    _sample_support,
    cost_diagonal,
    decode_indices,
    evaluate_fast,
    fastpath_plan,
    logical_trajectory,
    qaoa_statevector,
)
from repro.sim.noise import _ONE_QUBIT_PAULIS, _TWO_QUBIT_PAULIS

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


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
            rng.random(size), weights[order], phys_map[order] | dirt, n_phys
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
                np.random.default_rng(0).random(4), weights, np.array([0, 2]), 2
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


@pytest.mark.parametrize("rows", [1, 2, 5, 9])
def test_single_qubit_kernel_on_a_stack_matches_each_row(rows):
    """A ``(rows, 2^n)`` stack, or a prefix of one, takes the same
    products per row as each row does alone."""
    g = np.random.default_rng(rows)
    matrices = [_HADAMARD, _PAULI_X, _PAULI_Y, _rx_matrix(0.9)]
    for num_qubits in range(1, 9):
        stack = g.normal(size=(rows + 1, 1 << num_qubits)) + 1j * g.normal(
            size=(rows + 1, 1 << num_qubits)
        )
        for matrix in matrices:
            for qubit in range(num_qubits):
                out = _apply_single(stack[:rows], matrix, qubit)
                assert out.shape == (rows, 1 << num_qubits)
                for row in range(rows):
                    alone = _apply_single(stack[row].copy(), matrix, qubit)
                    assert np.array_equal(out[row], alone)


# ----------------------------------------------------------------------
# the noisy trajectory kernel against lone trajectories
# ----------------------------------------------------------------------
def _lone_trajectory(compiled, noise, rng, diag, log):
    """One noisy trajectory replayed alone in the logical frame: the
    single-trajectory kernel the shared-row kernel replaced, kept as its
    reference.  Appends ``(gate, pauli, mapped)`` to ``log`` for every
    Pauli it applies."""
    circuit = compiled.circuit
    n = compiled.program.num_qubits
    n_phys = circuit.num_qubits
    track_time = noise.t2_ns is not None
    if track_time:
        from repro.circuits.timing import DurationModel

        durations = DurationModel()
    owner = {int(p): int(q) for q, p in compiled.initial_mapping.items()}
    dirt = {}
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    acc = None
    gate = None

    def flush():
        nonlocal state, acc
        if acc is not None:
            state = state * np.exp(-1j * acc)
            acc = None

    def add_diag(coeff, vector):
        nonlocal acc
        if acc is None:
            acc = coeff * vector
        else:
            acc += coeff * vector

    def apply_pauli(pauli, phys):
        nonlocal state
        q = owner.get(phys)
        log.append((gate, pauli, q is not None))
        if q is None:
            if pauli in ("x", "y"):
                dirt[phys] = dirt.get(phys, 0) ^ 1
            return
        if pauli == "z":
            state = state * diag.signs[1 << q]
            return
        flush()
        state = _apply_single(state, _PAULI_X if pauli == "x" else _PAULI_Y, q)

    clocks = [0.0] * n_phys if track_time else None

    def dephase(phys, idle_ns):
        if idle_ns <= 0.0:
            return
        p_flip = 0.5 * (1.0 - np.exp(-idle_ns / noise.t2_ns))
        if rng.random() < p_flip:
            apply_pauli("z", phys)

    for inst in circuit:
        if inst.is_directive or inst.is_measurement:
            if track_time and inst.is_directive and inst.qubits:
                sync = max(clocks[q] for q in inst.qubits)
                for q in inst.qubits:
                    clocks[q] = sync
            continue
        gate = "idle"
        if track_time:
            start = max(clocks[q] for q in inst.qubits)
            for q in inst.qubits:
                dephase(q, start - clocks[q])
            duration = durations.duration(inst)
            for q in inst.qubits:
                clocks[q] = start + duration
        name = gate = inst.name
        if name == "swap":
            pa, pb = inst.qubits
            oa, ob = owner.pop(pa, None), owner.pop(pb, None)
            da, db = dirt.pop(pa, 0), dirt.pop(pb, 0)
            if ob is not None:
                owner[pa] = ob
            elif db:
                dirt[pa] = db
            if oa is not None:
                owner[pb] = oa
            elif da:
                dirt[pb] = da
        elif name == "cphase":
            qa, qb = owner[inst.qubits[0]], owner[inst.qubits[1]]
            add_diag(0.5 * inst.params[0], diag.signs[1 << qa | 1 << qb])
        elif name == "rz":
            add_diag(0.5 * inst.params[0], diag.signs[1 << owner[inst.qubits[0]]])
        elif name == "h":
            flush()
            state = _apply_single(state, _HADAMARD, owner[inst.qubits[0]])
        elif name == "rx":
            flush()
            state = _apply_single(
                state, _rx_matrix(inst.params[0]), owner[inst.qubits[0]]
            )
        if inst.is_two_qubit:
            p = noise.two_qubit_prob(*inst.qubits)
            if p > 0.0 and rng.random() < p:
                pauli_a, pauli_b = _TWO_QUBIT_PAULIS[int(rng.integers(15))]
                if pauli_a != "i":
                    apply_pauli(pauli_a, inst.qubits[0])
                if pauli_b != "i":
                    apply_pauli(pauli_b, inst.qubits[1])
        else:
            q = inst.qubits[0]
            p = noise.single_qubit_depol.get(q, 0.0)
            if p > 0.0 and rng.random() < p:
                apply_pauli(_ONE_QUBIT_PAULIS[int(rng.integers(3))], q)
    gate = "idle"
    if track_time:
        end = max(clocks) if clocks else 0.0
        for q in range(n_phys):
            dephase(q, end - clocks[q])
    flush()
    dirt_mask = 0
    for phys, bit in dirt.items():
        if bit:
            dirt_mask |= 1 << phys
    return state, dirt_mask


# 3-regular graphs, the degree of the variational workload's programs: a
# ring of 10 or 16 nodes with each node joined to the one opposite.
_GRAPH = [(i, (i + 1) % 10) for i in range(10)] + [(i, i + 5) for i in range(5)]
_GRAPH_16 = [(i, (i + 1) % 16) for i in range(16)] + [(i, i + 8) for i in range(8)]


def _case(device, method, p=1, seed=3, nodes=10):
    gammas, betas = [0.61, 0.37][:p], [0.29, 0.53][:p]
    result = repro.compile(
        MaxCutProblem(nodes, _GRAPH if nodes == 10 else _GRAPH_16),
        target=device,
        method=method,
        calibration="auto",
        seed=seed,
        gammas=gammas,
        betas=betas,
    )
    return result.compiled, result.target.calibration


def _heavy(noise):
    """Errors on most gates: forks inside the H layer, X/Y on unmapped
    wires, several errors per row."""
    return NoiseModel(
        two_qubit_depol={e: 0.35 for e in noise.two_qubit_depol},
        single_qubit_depol={q: 0.25 for q in noise.single_qubit_depol},
        readout_flip=dict(noise.readout_flip),
        t2_ns=noise.t2_ns,
    )


def _noises(calibration):
    base = NoiseModel.from_calibration(calibration)
    return {
        "calibrated": base,
        "t2": NoiseModel.from_calibration(calibration, t2_ns=40_000.0),
        "x3": base.scaled(3.0),
        "x3_t2": NoiseModel.from_calibration(calibration, t2_ns=40_000.0).scaled(3.0),
        "heavy": _heavy(base),
        "heavy_t2": _heavy(NoiseModel.from_calibration(calibration, t2_ns=20_000.0)),
        "ideal": NoiseModel.ideal(calibration.coupling.num_qubits),
    }


def _lone_run(compiled, noise, seed, trajectories, shots, log):
    """``trajectories`` lone replays, each followed (with ``shots``) by its
    sample uniforms, as the evaluation drew them one trajectory at a
    time."""
    rng = np.random.default_rng(seed)
    diag = cost_diagonal(compiled.program)
    runs = []
    for t in range(trajectories):
        state, dirt_mask = _lone_trajectory(compiled, noise, rng, diag, log)
        uniforms = None
        if shots is not None:
            base, extra = divmod(shots, trajectories)
            uniforms = rng.random(base + (1 if t < extra else 0))
        runs.append((state, dirt_mask, uniforms))
    return runs, rng


def _assert_kernel_matches(compiled, noise, seed, trajectories, shots=None):
    log = []
    expected, reference = _lone_run(compiled, noise, seed, trajectories, shots, log)
    rng = np.random.default_rng(seed)
    got = logical_trajectory(
        compiled, noise, rng, trajectories=trajectories, shots=shots
    )
    assert len(got) == trajectories
    for (state, dirt_mask, uniforms), (e_state, e_dirt, e_uniforms) in zip(
        got, expected
    ):
        assert np.array_equal(state, e_state)
        assert dirt_mask == e_dirt
        if shots is None:
            assert uniforms is None
        else:
            assert np.array_equal(uniforms, e_uniforms)
    assert rng.bit_generator.state == reference.bit_generator.state
    return log


_CASES = {
    "melbourne-naive": ("ibmq_16_melbourne", "naive", 1),
    "melbourne-qaim": ("ibmq_16_melbourne", "qaim", 1),
    "melbourne-ip": ("ibmq_16_melbourne", "ip", 1),
    "melbourne-ic": ("ibmq_16_melbourne", "ic", 1),
    "melbourne-vic": ("ibmq_16_melbourne", "vic", 1),
    "melbourne-ic-p2": ("ibmq_16_melbourne", "ic", 2),
    "tokyo-vic": ("ibmq_20_tokyo", "vic", 1),
    "tokyo-naive-p2": ("ibmq_20_tokyo", "naive", 2),
}
#: Cases whose router SWAPs logical qubits through unmapped wires, so noise
#: there can leave dirt on the wires measured at the end.
_UNMAPPED_SWAPS = {"melbourne-naive", "tokyo-naive-p2"}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_trajectory_kernel_matches_lone_trajectories(case):
    """States, dirt masks, sample uniforms and the generator's end state
    equal those of lone replays, in sampled and exact form, across noise
    levels with and without T2; the heavy models make errors inside the
    H layer and X/Y errors on unmapped wires certain."""
    compiled, calibration = _case(*_CASES[case])
    log = []
    for k, (_, noise) in enumerate(sorted(_noises(calibration).items())):
        log += _assert_kernel_matches(compiled, noise, 100 + k, 8, shots=4096)
        log += _assert_kernel_matches(compiled, noise, 200 + k, 6)
    # The errors the shared row must survive did happen.
    assert ("h", "x", True) in log or ("h", "y", True) in log
    assert any(mapped and pauli == "z" for _, pauli, mapped in log)
    if case in _UNMAPPED_SWAPS:
        assert ("swap", "x", False) in log or ("swap", "y", False) in log


def test_trajectory_kernel_on_a_large_state():
    """At 2^16 amplitudes numpy evaluates a lone trajectory's phase flush,
    ``state * np.exp(...)``, with its operands swapped (it reuses the
    large temporary in place), and a complex multiply rounds differently
    in the two orders; every row's flush must follow suit."""
    compiled, calibration = _case("ibmq_20_tokyo", "vic", nodes=16)
    noise = NoiseModel.from_calibration(calibration, t2_ns=40_000.0)
    _assert_kernel_matches(compiled, noise, 21, 6)
    _assert_kernel_matches(compiled, _heavy(noise), 22, 4, shots=64)


def test_trajectory_kernel_with_more_trajectories_than_shots():
    compiled, calibration = _case("ibmq_16_melbourne", "ic")
    noise = _heavy(NoiseModel.from_calibration(calibration))
    _assert_kernel_matches(compiled, noise, 7, 8, shots=5)
    _assert_kernel_matches(compiled, noise, 8, 32, shots=4096)


def test_ideal_noise_draws_nothing_and_shares_one_row():
    compiled, _ = _case("ibmq_16_melbourne", "vic")
    rng = np.random.default_rng(4)
    before = rng.bit_generator.state
    runs = logical_trajectory(
        compiled, NoiseModel.ideal(15), rng, trajectories=5
    )
    assert rng.bit_generator.state == before
    assert all(np.shares_memory(state, runs[0][0]) for state, _, _ in runs)
    assert all(dirt_mask == 0 for _, dirt_mask, _ in runs)
    # The noiseless row is the logical QAOA state, global phase included.
    assert np.allclose(runs[0][0], qaoa_statevector(compiled.program), atol=1e-12)


@pytest.mark.parametrize("cap_rows", [1, 2, 3, 5])
def test_trajectory_kernel_split_into_chunks(monkeypatch, cap_rows):
    """A row cap below the run's rows takes trajectories in order, in
    chunks, and changes no number."""
    compiled, calibration = _case("ibmq_16_melbourne", "qaim")
    monkeypatch.setattr(fastpath, "_MAX_ROW_AMPLITUDES", cap_rows << 10)
    noise = _heavy(NoiseModel.from_calibration(calibration, t2_ns=30_000.0))
    _assert_kernel_matches(compiled, noise, 11, 9, shots=1000)
    _assert_kernel_matches(compiled, noise, 12, 7)


def test_trajectory_kernel_hands_each_trajectory_to_reduce_in_order():
    compiled, calibration = _case("ibmq_16_melbourne", "ip")
    noise = _heavy(NoiseModel.from_calibration(calibration))
    seen = []

    def reduce(state, dirt_mask, uniforms):
        seen.append((state.copy(), dirt_mask))
        return len(seen)

    out = logical_trajectory(
        compiled, noise, np.random.default_rng(3), trajectories=6, reduce=reduce
    )
    assert out == [1, 2, 3, 4, 5, 6]
    plain = logical_trajectory(
        compiled, noise, np.random.default_rng(3), trajectories=6
    )
    for (state, dirt_mask), (p_state, p_dirt, _) in zip(seen, plain):
        assert np.array_equal(state, p_state) and dirt_mask == p_dirt
        assert not p_state.flags.writeable


def _choice_evaluate(compiled, noise, shots, trajectories, seed, mode):
    """r0, rh and ARG the way the gate-level pipeline draws them: lone
    trajectories, ``Generator.choice`` over the dense physical register,
    readout flips on physical bits, then decoding."""
    rng = np.random.default_rng(seed)
    program = compiled.program
    n = program.num_qubits
    n_phys = compiled.circuit.num_qubits
    mapping = {int(q): int(p) for q, p in compiled.final_mapping.items()}
    diag = cost_diagonal(program)
    cut, max_cut = diag.cut, diag.max_value
    phys_map = _physical_index_map(mapping, n)
    ideal = np.abs(qaoa_statevector(program, diag)) ** 2
    if mode == "exact":
        r0 = float(np.dot(ideal, cut)) / max_cut
        readout = diag.readout_adjusted(
            {q: noise.readout_flip.get(mapping[q], 0.0) for q in range(n)}
        )
        total = 0.0
        for _ in range(trajectories):
            state, _ = _lone_trajectory(compiled, noise, rng, diag, [])
            probs = np.abs(state) ** 2
            probs /= probs.sum()
            total += float(np.dot(probs, readout))
        rh = total / trajectories / max_cut
    else:
        picks = _choice_reference(rng, ideal, phys_map, n_phys, shots)
        r0 = float(cut[decode_indices(picks, mapping, n)].mean()) / max_cut
        n_traj = min(trajectories, shots)
        base, extra = divmod(shots, n_traj)
        chunks = []
        for t in range(n_traj):
            state, dirt_mask = _lone_trajectory(compiled, noise, rng, diag, [])
            chunks.append(
                _choice_reference(
                    rng,
                    np.abs(state) ** 2,
                    phys_map | dirt_mask,
                    n_phys,
                    base + (1 if t < extra else 0),
                )
            )
        indices = np.concatenate(chunks)
        for q in range(n_phys):
            p = noise.readout_flip.get(q, 0.0)
            if p > 0.0:
                indices[rng.random(len(indices)) < p] ^= 1 << q
        rh = float(cut[decode_indices(indices, mapping, n)].mean()) / max_cut
    return r0, rh, 100.0 * (r0 - rh) / r0, rng.bit_generator.state


@pytest.mark.parametrize("mode", ["sampled", "exact"])
@pytest.mark.parametrize(
    "case",
    ["melbourne-naive", "melbourne-qaim", "melbourne-vic", "melbourne-ic-p2", "tokyo-vic"],
)
def test_evaluate_fast_equals_lone_trajectory_evaluation(case, mode):
    compiled, calibration = _case(*_CASES[case])
    noises = _noises(calibration)
    settings = [
        ("calibrated", 4096, 8),
        ("t2", 4096, 8),
        ("x3_t2", 512, 32),
        ("heavy", 5, 8),
        ("ideal", 64, 4),
    ]
    for k, (name, shots, trajectories) in enumerate(settings):
        noise = noises[name]
        rng = np.random.default_rng(40 + k)
        outcome = evaluate_fast(
            compiled,
            noise=noise,
            shots=shots,
            trajectories=trajectories,
            rng=rng,
            mode=mode,
        )
        r0, rh, arg, state = _choice_evaluate(
            compiled, noise, shots, trajectories, 40 + k, mode
        )
        assert outcome.fastpath
        assert (outcome.r0, outcome.rh, outcome.arg) == (r0, rh, arg), name
        assert rng.bit_generator.state == state


# ----------------------------------------------------------------------
# the trajectory kernel on parity circuits against the gate-level path
# ----------------------------------------------------------------------
# A 6-node ring with the chord (0, 3): 7 parity slots and two 4-slot
# constraint cycles, so each cycle's gadget is a 3-CNOT ladder.
_PARITY_GRAPH = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]


def _parity_case(device, p):
    result = repro.compile(
        MaxCutProblem(6, _PARITY_GRAPH),
        target=device,
        method="parity",
        calibration="auto",
        seed=3,
        gammas=[0.61, 0.37][:p],
        betas=[0.29, 0.53][:p],
    )
    return result.compiled, result.target.calibration


def _assert_parity_kernel_matches(compiled, noise, seed, trajectories, shots=None):
    """Each trajectory's slot-register state equals the gate-level
    trajectory's physical state, gathered at the slots' final homes OR'd
    with the dirt mask, up to one global phase; dirt masks, sample
    uniforms and the generator's end state are equal."""
    reference = np.random.default_rng(seed)
    nsim = NoisySimulator(noise)
    expected = []
    for t in range(trajectories):
        state = nsim.run_trajectory(compiled.circuit, reference)
        uniforms = None
        if shots is not None:
            base, extra = divmod(shots, trajectories)
            uniforms = reference.random(base + (1 if t < extra else 0))
        expected.append((state, uniforms))
    rng = np.random.default_rng(seed)
    got = logical_trajectory(
        compiled, noise, rng, trajectories=trajectories, shots=shots
    )
    homes = compiled.final_mapping
    phys_map = _physical_index_map(homes, len(homes))
    unmapped = (1 << compiled.circuit.num_qubits) - 1
    for home in homes.values():
        unmapped &= ~(1 << home)
    for (state, dirt_mask, uniforms), (e_state, e_uniforms) in zip(
        got, expected
    ):
        # The unmapped wires hold one basis state, which every amplitude's
        # index carries.
        assert dirt_mask == int(np.argmax(np.abs(e_state))) & unmapped
        gathered = e_state[phys_map | dirt_mask]
        phase = np.vdot(state, gathered)
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.max(np.abs(gathered - phase * state)) < 1e-12
        if shots is None:
            assert uniforms is None
        else:
            assert np.array_equal(uniforms, e_uniforms)
    assert rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("device", ["ibmq_16_melbourne", "ibmq_20_tokyo"])
def test_parity_trajectory_kernel_matches_gate_level(monkeypatch, device, p):
    """Calibrated noise with T2 and the two heavy models.  The heavy ones
    make X and Y errors inside the CNOT ladders certain, where an X flips
    several slots at once: such an error must have happened."""
    compiled, calibration = _parity_case(device, p)
    assert fastpath_plan(compiled).ok
    drawn = []
    draw = fastpath._draw_errors

    def spy(checks, rng, shot_counts):
        out = draw(checks, rng, shot_counts)
        drawn.extend(hit for hits in out[0] for hit in hits)
        return out

    monkeypatch.setattr(fastpath, "_draw_errors", spy)
    noises = _noises(calibration)
    # The 2^20-amplitude tokyo register costs the gate-level side about
    # 0.3 s per trajectory, so it runs fewer.
    trajectories = 6 if device == "ibmq_16_melbourne" else 2
    for k, name in enumerate(("t2", "heavy", "heavy_t2")):
        _assert_parity_kernel_matches(
            compiled, noises[name], 300 + k, trajectories, shots=4096
        )
    _assert_parity_kernel_matches(compiled, noises["heavy_t2"], 310, trajectories)
    assert any(
        pauli in ("x", "y") and x & (x - 1) for _, pauli, (_, x) in drawn
    )


def _cphase_as_cnot_rz_cnot(compiled):
    """``compiled`` with every CPHASE(θ) on ``a, b`` rewritten as
    ``CNOT(a, b) · RZ(θ) on b · CNOT(a, b)``, the same unitary."""
    circuit = QuantumCircuit(compiled.circuit.num_qubits)
    for inst in compiled.circuit:
        if inst.name != "cphase":
            circuit.append(inst)
            continue
        a, b = inst.qubits
        circuit.append(Instruction("cnot", (a, b)))
        circuit.append(Instruction("rz", (b,), inst.params))
        circuit.append(Instruction("cnot", (a, b)))
    return dataclasses.replace(compiled, circuit=circuit)


@pytest.mark.parametrize("mode", ["sampled", "exact"])
def test_direct_circuit_with_cnot_ladders_takes_the_fast_path(mode):
    compiled, calibration = _case("ibmq_16_melbourne", "ic")
    rewritten = _cphase_as_cnot_rz_cnot(compiled)
    assert "cnot" in {inst.name for inst in rewritten.circuit}
    assert fastpath_plan(rewritten).ok
    noise = NoiseModel.from_calibration(calibration, t2_ns=40_000.0)
    fast, slow = (
        evaluate_fast(
            rewritten,
            noise=noise,
            shots=2048,
            trajectories=6,
            rng=np.random.default_rng(5),
            mode=mode,
            use_fastpath=use_fastpath,
        )
        for use_fastpath in (True, False)
    )
    assert fast.fastpath and not slow.fastpath
    if mode == "sampled":
        assert (fast.r0, fast.rh) == (slow.r0, slow.rh)
    else:
        assert abs(fast.r0 - slow.r0) < 1e-12
        assert abs(fast.rh - slow.rh) < 1e-12
