"""Tests for high-level quantum operations, including the swap law.

The most load-bearing test here verifies — for all 64 combinations of input
Bell states and measurement outcomes — that the XOR composition law used by
the QNP's entanglement tracking agrees with the exact density-matrix engine.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quantum import (
    FORMALISMS,
    H,
    PAULI_FRAME,
    NoisyOpParams,
    QState,
    Qubit,
    X,
    apply_gate,
    apply_two_qubit_gate,
    averaged_swap_dm,
    bell_dm,
    bell_fidelity,
    bell_state_measurement,
    create_pair,
    discard,
    get_backend,
    measure_qubit,
    pair_fidelity,
    pauli_correct,
    swap_combine,
    teleport,
    two_qubit_depolarizing_kraus,
    werner_dm,
    CNOT,
    depolarizing_kraus,
)
from repro.quantum import fidelity, operations


def test_create_pair_holds_given_dm():
    dm = werner_dm(0.9)
    qa, qb = create_pair(dm)
    assert np.allclose(qa.state.reduced_dm([qa, qb]), dm)
    assert qa.state is qb.state


def test_create_bell_pair_fidelity():
    qa, qb = create_pair(werner_dm(0.85, index=1))
    assert pair_fidelity(qa, qb, 1) == pytest.approx(0.85)


def test_swap_law_matches_exact_engine():
    """The Appendix C combine_state law, checked exhaustively."""
    for state_a in range(4):
        for state_b in range(4):
            seen = set()
            attempts = 0
            # Sample outcomes until we've seen all four (they are uniform).
            rng = random.Random(state_a * 7 + state_b)
            while len(seen) < 4 and attempts < 500:
                attempts += 1
                qa, q_mid1 = create_pair(bell_dm(state_a))
                q_mid2, qc = create_pair(bell_dm(state_b))
                outcome = bell_state_measurement(q_mid1, q_mid2, rng)
                seen.add(outcome)
                expected_index = swap_combine(state_a, state_b, outcome)
                fidelity = pair_fidelity(qa, qc, expected_index)
                assert fidelity == pytest.approx(1.0), (
                    f"inputs B{state_a},B{state_b} outcome {outcome}")
            assert seen == {0, 1, 2, 3}


def test_swap_outcomes_uniform():
    rng = random.Random(9)
    counts = [0] * 4
    for _ in range(400):
        qa, q_mid1 = create_pair(bell_dm(0))
        q_mid2, qc = create_pair(bell_dm(0))
        counts[bell_state_measurement(q_mid1, q_mid2, rng)] += 1
    for count in counts:
        assert 60 < count < 140


def test_swap_of_werner_pairs_reduces_fidelity():
    rng = random.Random(3)
    fidelities = []
    for _ in range(60):
        qa, q_mid1 = create_pair(werner_dm(0.95))
        q_mid2, qc = create_pair(werner_dm(0.95))
        outcome = bell_state_measurement(q_mid1, q_mid2, rng)
        fidelities.append(pair_fidelity(qa, qc, swap_combine(0, 0, outcome)))
    mean_fidelity = np.mean(fidelities)
    # Werner swap analytics: F' = F² + (1−F)²/3 ≈ 0.903 for F=0.95.
    expected = 0.95 ** 2 + 3 * ((0.05 / 3) ** 2)
    assert mean_fidelity == pytest.approx(expected, abs=1e-9)


def test_noisy_swap_lowers_fidelity_further():
    rng = random.Random(5)
    ops = NoisyOpParams(two_qubit_gate_fidelity=0.99)
    qa, q_mid1 = create_pair(bell_dm(0))
    q_mid2, qc = create_pair(bell_dm(0))
    outcome = bell_state_measurement(q_mid1, q_mid2, rng, ops)
    fidelity = pair_fidelity(qa, qc, swap_combine(0, 0, outcome))
    assert fidelity < 1.0
    assert fidelity > 0.9


def test_readout_error_mislabels_outcome():
    # With readout error 1.0 on both outcomes, both reported bits flip: the
    # reported outcome is the true outcome XOR 0b11.
    rng = random.Random(11)
    ops = NoisyOpParams(readout_error0=1.0, readout_error1=1.0)
    qa, q_mid1 = create_pair(bell_dm(0))
    q_mid2, qc = create_pair(bell_dm(0))
    reported = bell_state_measurement(q_mid1, q_mid2, rng, ops)
    true_outcome = reported ^ 0b11
    assert pair_fidelity(qa, qc, swap_combine(0, 0, true_outcome)) == pytest.approx(1.0)


def test_pauli_correct_rotates_frames():
    for start in range(4):
        for target in range(4):
            qa, qb = create_pair(bell_dm(start))
            pauli_correct(qb, start ^ target)
            assert pair_fidelity(qa, qb, target) == pytest.approx(1.0)


def test_pauli_correct_identity_frame_is_noop():
    qa, qb = create_pair(bell_dm(0))
    before = qa.state.dm.copy()
    pauli_correct(qb, 0)
    assert np.allclose(qa.state.dm, before)


def test_measure_qubit_bases():
    rng = random.Random(2)
    # |+⟩ measured in X is deterministic 0.
    qubit = Qubit()
    QState.ground(qubit)
    apply_gate(qubit, H)
    assert measure_qubit(qubit, rng, basis="X") == 0
    # |0⟩ in Z is deterministic 0.
    qubit = Qubit()
    QState.ground(qubit)
    assert measure_qubit(qubit, rng, basis="Z") == 0


def test_measure_qubit_y_basis_statistics():
    rng = random.Random(4)
    outcomes = []
    for _ in range(200):
        qubit = Qubit()
        QState.ground(qubit)
        outcomes.append(measure_qubit(qubit, rng, basis="Y"))
    # |0⟩ in Y basis is uniform.
    assert 60 < sum(outcomes) < 140


def test_measure_qubit_unknown_basis():
    rng = random.Random(0)
    qubit = Qubit()
    QState.ground(qubit)
    with pytest.raises(ValueError):
        measure_qubit(qubit, rng, basis="W")


def test_measure_freed_qubit_raises():
    rng = random.Random(0)
    qubit = Qubit()
    QState.ground(qubit)
    measure_qubit(qubit, rng)
    with pytest.raises(ValueError):
        measure_qubit(qubit, rng)


def test_bell_measurement_correlations_of_pair():
    # Measuring both halves of Φ+ in Z gives equal bits; Ψ+ gives opposite.
    rng = random.Random(8)
    for _ in range(50):
        qa, qb = create_pair(bell_dm(0))
        assert measure_qubit(qa, rng) == measure_qubit(qb, rng)
    for _ in range(50):
        qa, qb = create_pair(bell_dm(1))
        assert measure_qubit(qa, rng) != measure_qubit(qb, rng)


def test_discard_frees_qubit_and_keeps_partner_valid():
    qa, qb = create_pair(bell_dm(0))
    state = qa.state
    discard(qa)
    assert qa.state is None
    assert qb.state is state
    assert state.is_valid()
    # Partner is maximally mixed now.
    assert np.allclose(state.reduced_dm([qb]), np.eye(2) / 2, atol=1e-12)


def test_discard_idempotent():
    qa, qb = create_pair(bell_dm(0))
    discard(qa)
    discard(qa)
    assert qa.state is None


@pytest.mark.parametrize("formalism", FORMALISMS)
def test_discard_both_halves_leaves_both_stateless(formalism):
    qa, qb = get_backend(formalism).create_pair_from_weights(
        [0.85, 0.07, 0.05, 0.03])
    state = qa.state
    discard(qa, qb)
    assert qa.state is None
    assert qb.state is None
    assert state.qubits == []
    discard(qa, qb)  # already stateless: a no-op
    assert qa.state is None and qb.state is None


def _random_dm(rng, n_qubits):
    dim = 2 ** n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_discard_one_half_of_dm_pair_keeps_exact_partner_state():
    # A generic (non-Bell-diagonal) pair, so the partner's reduced state
    # is not simply I/2.
    rho = _random_dm(np.random.default_rng(3), 2)
    want = np.trace(rho.reshape(2, 2, 2, 2), axis1=0, axis2=2)
    qa, qb = create_pair(rho)
    state = qa.state
    discard(qa)
    assert qa.state is None
    assert qb.state is state
    np.testing.assert_allclose(state.reduced_dm([qb]), want, atol=1e-12)


def test_discard_traces_out_when_part_of_the_state_survives():
    rho = _random_dm(np.random.default_rng(5), 3)
    qa, qb, qc = Qubit(), Qubit(), Qubit()
    state = QState(rho, [qa, qb, qc])
    want = np.einsum("abcabd->cd", rho.reshape([2] * 6))
    discard(qa, qb)
    assert qa.state is None and qb.state is None
    assert qc.state is state
    np.testing.assert_allclose(state.reduced_dm([qc]), want, atol=1e-12)


def test_averaged_swap_dm_perfect_inputs():
    result = averaged_swap_dm(bell_dm(0), bell_dm(0))
    assert bell_fidelity(result, 0) == pytest.approx(1.0)


def test_averaged_swap_dm_werner_matches_analytics():
    result = averaged_swap_dm(werner_dm(0.9), werner_dm(0.9))
    # Werner ⋆ Werner fidelity: F² + 3((1−F)/3)².
    expected = 0.9 ** 2 + 3 * ((0.1 / 3) ** 2)
    assert bell_fidelity(result, 0) == pytest.approx(expected, abs=1e-9)
    assert np.trace(result) == pytest.approx(1.0)


def test_averaged_swap_dm_with_gate_noise_is_worse():
    clean = averaged_swap_dm(werner_dm(0.95), werner_dm(0.95))
    noisy = averaged_swap_dm(werner_dm(0.95), werner_dm(0.95),
                             NoisyOpParams(two_qubit_gate_fidelity=0.99))
    assert bell_fidelity(noisy, 0) < bell_fidelity(clean, 0)


def test_averaged_swap_dm_with_readout_error_is_worse():
    clean = averaged_swap_dm(werner_dm(0.95), werner_dm(0.95))
    noisy = averaged_swap_dm(werner_dm(0.95), werner_dm(0.95),
                             NoisyOpParams(readout_error0=0.05, readout_error1=0.05))
    assert bell_fidelity(noisy, 0) < bell_fidelity(clean, 0)


def reference_averaged_swap_dm(rho_ab, rho_bc, ops):
    """The swap map run through the general QState engine — the oracle
    :func:`averaged_swap_dm`'s precomputed kernel is pinned against.

    Builds the joint 4-qubit state (A, B1, B2, C), applies the noisy BSM on
    (B1, B2) with the single-qubit depolarizing on B1, projects onto each
    outcome, traces B1 B2 out and averages the A-C branches over reported
    outcomes, each rotated back to Φ+ by the frame its reported outcome
    implies.
    """
    qubits = [Qubit(str(i)) for i in range(4)]
    state = QState(np.kron(rho_ab, rho_bc), qubits)
    if ops.two_qubit_depolar_prob > 0:
        state.apply_channel(two_qubit_depolarizing_kraus(ops.two_qubit_depolar_prob),
                            [qubits[1], qubits[2]])
    state.apply_unitary(CNOT, [qubits[1], qubits[2]])
    state.apply_unitary(H, [qubits[1]])
    if ops.single_qubit_depolar_prob > 0:
        state.apply_channel(depolarizing_kraus(ops.single_qubit_depolar_prob),
                            [qubits[1]])

    def report_probability(outcome, reported):
        prob = 1.0
        for shift in (1, 0):
            true_bit = (outcome >> shift) & 1
            error = ops.readout_error0 if true_bit == 0 else ops.readout_error1
            prob *= error if true_bit != (reported >> shift) & 1 else 1.0 - error
        return prob

    result = np.zeros((4, 4), dtype=complex)
    for outcome in range(4):
        phase_bit, parity_bit = (outcome >> 1) & 1, outcome & 1
        # Projector onto the outcome on B1 B2, identity on A and C.
        proj = np.kron(np.kron(np.eye(2), np.diag([1 - phase_bit, phase_bit])),
                       np.kron(np.diag([1 - parity_bit, parity_bit]), np.eye(2)))
        branch = proj @ state.dm @ proj
        if np.real(np.trace(branch)) <= 1e-15:
            continue
        tensor = branch.reshape([2] * 8)
        # Trace out B1 (axis 1/5) then B2 (now axis 1/4).
        tensor = np.trace(tensor, axis1=1, axis2=5)
        rho_ac = np.trace(tensor, axis1=1, axis2=4).reshape(4, 4)
        for reported in range(4):
            frame = np.kron(np.eye(2), PAULI_FRAME[swap_combine(0, 0, reported)])
            result += (report_probability(outcome, reported)
                       * frame.conj().T @ rho_ac @ frame)
    return result


def _density_matrix(entries):
    """A full-rank two-qubit density matrix from 32 real numbers (Ginibre)."""
    ginibre = (np.array(entries[:16]) + 1j * np.array(entries[16:])).reshape(4, 4)
    rho = ginibre @ ginibre.conj().T + 1e-3 * np.eye(4)
    return rho / np.trace(rho)


_entries = st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)
_gate_fidelity = st.one_of(st.just(1.0), st.floats(0.7, 1.0))
_readout_error = st.one_of(st.just(0.0), st.floats(0.0, 0.5))
_noise = st.builds(
    NoisyOpParams,
    two_qubit_gate_fidelity=_gate_fidelity,
    single_qubit_gate_fidelity=_gate_fidelity,
    readout_error0=_readout_error,
    readout_error1=_readout_error,
)


@settings(max_examples=60, deadline=None)
@given(_entries, _entries, _noise)
def test_averaged_swap_dm_matches_qstate_reference(entries_ab, entries_bc, ops):
    rho_ab, rho_bc = _density_matrix(entries_ab), _density_matrix(entries_bc)
    expected = reference_averaged_swap_dm(rho_ab, rho_bc, ops)
    assert np.abs(averaged_swap_dm(rho_ab, rho_bc, ops) - expected).max() <= 1e-12


def _swap_inputs(rho_ab, rho_bc, b1_first, c_first):
    """Qubits (A, B1, B2, C) on two separate 2-qubit states holding
    ``rho_ab`` over (A, B1) and ``rho_bc`` over (B2, C), each stored in the
    drawn qubit order."""
    a, b1, b2, c = (Qubit(name) for name in ("A", "B1", "B2", "C"))
    swapped = lambda rho: rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    QState(swapped(rho_ab) if b1_first else rho_ab, [b1, a] if b1_first else [a, b1])
    QState(swapped(rho_bc) if c_first else rho_bc, [c, b2] if c_first else [b2, c])
    return a, b1, b2, c


def _merged_measurement(b1, b2, rng, ops):
    """The BSM on the exact engine's general path: the two states merged
    into one 4-qubit state first, as the merge inside the BSM would."""
    QState.merge(b1.state, b2.state)
    return bell_state_measurement(b1, b2, rng, ops)


def _full_rank_dm(seed, purity):
    """A random full-rank 2-qubit dm: a random pure state at weight
    ``purity`` over a Ginibre dm, so its reduced states are far from I/2
    and the four swap outcomes far from equally likely."""
    rng = np.random.default_rng(seed)
    vector = rng.normal(size=4) + 1j * rng.normal(size=4)
    vector /= np.linalg.norm(vector)
    return purity * np.outer(vector, vector.conj()) + (1 - purity) * _random_dm(rng, 2)


_full_rank_dms = st.builds(_full_rank_dm, st.integers(0, 2 ** 32 - 1),
                           st.floats(0.0, 0.99))


@settings(max_examples=150, deadline=None)
@given(_full_rank_dms, _full_rank_dms, st.booleans(), st.booleans(), _noise,
       st.integers(0, 2 ** 32 - 1))
def test_unmerged_swap_matches_merged_path(rho_ab, rho_bc, b1_first, c_first,
                                           ops, seed):
    """Two separate 2-qubit dms swap through the bilinear kernel: same
    reported outcome, same next draw and the same remote state as merging
    them and measuring on the exact engine."""
    a, b1, b2, c = _swap_inputs(rho_ab, rho_bc, b1_first, c_first)
    rng = random.Random(seed)
    outcome = bell_state_measurement(b1, b2, rng, ops)
    kernel_next = rng.random()
    kernel_state = a.state
    ref_a, ref_b1, ref_b2, ref_c = _swap_inputs(rho_ab, rho_bc, b1_first, c_first)
    ref_rng = random.Random(seed)
    assert outcome == _merged_measurement(ref_b1, ref_b2, ref_rng, ops)
    assert kernel_next == ref_rng.random()
    assert kernel_state is c.state and kernel_state.qubits == [a, c]
    assert ref_a.state.qubits == [ref_a, ref_c]
    assert b1.state is None and b2.state is None
    assert np.abs(kernel_state.dm - ref_a.state.dm).max() <= 1e-12


def _refuse(*args, **kwargs):
    raise AssertionError("this configuration must not take this path")


def test_separate_dm_pairs_swap_without_merging(monkeypatch):
    monkeypatch.setattr(QState, "merge", staticmethod(_refuse))
    a, b1, b2, c = _swap_inputs(werner_dm(0.9), werner_dm(0.8), False, True)
    outcome = bell_state_measurement(b1, b2, random.Random(1))
    assert a.state is c.state and a.state.qubits == [a, c]
    expected = 0.9 * 0.8 + (0.1 * 0.2) / 3
    assert pair_fidelity(a, c, swap_combine(0, 0, outcome)) == pytest.approx(expected)


def _random_state(rng, qubits):
    return QState(_random_dm(rng, len(qubits)), qubits)


@pytest.mark.parametrize("layout", ["shared", "three_qubits", "bell_with_dm"])
def test_other_configurations_take_the_merged_path(monkeypatch, layout):
    monkeypatch.setattr(operations, "_kernel_swap_measure", _refuse)
    rng = np.random.default_rng(7)
    a, b1, b2, c, x = (Qubit(name) for name in ("A", "B1", "B2", "C", "X"))
    if layout == "shared":
        _random_state(rng, [a, b1, b2, c])
    elif layout == "three_qubits":
        _random_state(rng, [a, x, b1])
        _random_state(rng, [b2, c])
    else:
        a, b1 = get_backend("bell").create_pair_from_weights([0.85, 0.07, 0.05, 0.03])
        _random_state(rng, [b2, c])
    bell_state_measurement(b1, b2, random.Random(3), NoisyOpParams(0.95, 0.97, 0.1, 0.2))
    assert b1.state is None and b2.state is None
    assert a.state is c.state and a.state.is_valid()


@settings(max_examples=60, deadline=None)
@given(_entries, st.booleans())
def test_pair_fidelity_reads_the_pair_dm_exactly(entries, reversed_order):
    """A pair that is its whole state is read without a partial trace, bit
    for bit the dm ``reduced_dm`` gives, in either qubit order."""
    qa, qb = create_pair(_density_matrix(entries))
    if reversed_order:
        qa, qb = qb, qa
    read = []
    original = fidelity.bell_fidelity

    def recording(dm, bell_index=0):
        read.append(dm)
        return original(dm, bell_index)

    fidelity.bell_fidelity = recording
    try:
        for bell_index in range(4):
            pair_fidelity(qa, qb, bell_index)
    finally:
        fidelity.bell_fidelity = original
    expected = qa.state.reduced_dm([qa, qb])
    assert len(read) == 4
    for dm in read:
        assert dm.dtype == expected.dtype and dm.shape == expected.shape
        assert dm.tobytes() == expected.tobytes()


def test_teleportation_moves_arbitrary_state():
    rng = random.Random(6)
    for _ in range(10):
        # Random data qubit state.
        theta = rng.random() * np.pi
        data = Qubit()
        state = QState.ground(data)
        rotation = np.array([[np.cos(theta / 2), -np.sin(theta / 2)],
                             [np.sin(theta / 2), np.cos(theta / 2)]], dtype=complex)
        state.apply_unitary(rotation, [data])
        expected_vector = rotation @ np.array([1.0, 0.0], dtype=complex)

        near, far = create_pair(bell_dm(0))
        out = teleport(data, near, far, rng)
        dm = out.state.reduced_dm([out])
        fidelity = float(np.real(expected_vector.conj() @ dm @ expected_vector))
        assert fidelity == pytest.approx(1.0)


def test_apply_two_qubit_gate_merges_states():
    qa, qb = Qubit(), Qubit()
    QState.ground(qa), QState.ground(qb)
    apply_gate(qa, H)
    apply_two_qubit_gate(qa, qb, CNOT)
    assert qa.state is qb.state
    assert pair_fidelity(qa, qb, 0) == pytest.approx(1.0)


def test_noisy_op_params_depolar_probability_mapping():
    ops = NoisyOpParams(two_qubit_gate_fidelity=0.998)
    assert ops.two_qubit_depolar_prob == pytest.approx(0.0025)
    perfect = NoisyOpParams()
    assert perfect.two_qubit_depolar_prob == 0.0
    floor = NoisyOpParams(two_qubit_gate_fidelity=0.0)
    assert floor.two_qubit_depolar_prob == 1.0
