"""Tests for Bell states and the Pauli-frame algebra."""

import numpy as np
import pytest

from repro.quantum import (
    BellIndex,
    bell_diagonal_dm,
    bell_diagonal_weights,
    bell_dm,
    bell_vector,
    combine,
    swap_combine,
    werner_dm,
)
from repro.quantum.gates import PAULI_FRAME
from repro.services.fidelity_test import expected_xor


def test_bell_vectors_are_normalised():
    for index in range(4):
        assert np.linalg.norm(bell_vector(index)) == pytest.approx(1.0)


def test_bell_vectors_are_orthogonal():
    basis = np.column_stack([bell_vector(i) for i in range(4)])
    gram = basis.conj().T @ basis
    assert np.allclose(gram, np.eye(4), atol=1e-12)


def test_bell_vector_contents():
    phi_plus = bell_vector(BellIndex.PHI_PLUS)
    assert phi_plus[0] == pytest.approx(1 / np.sqrt(2))
    assert phi_plus[3] == pytest.approx(1 / np.sqrt(2))
    psi_minus = bell_vector(BellIndex.PSI_MINUS)
    assert psi_minus[1] == pytest.approx(1 / np.sqrt(2))
    assert psi_minus[2] == pytest.approx(-1 / np.sqrt(2))


def test_bell_index_bits():
    # Same-basis outcomes XOR to the parity bit in Z, the phase bit in X.
    assert expected_xor(BellIndex.PHI_PLUS, "X") == 0
    assert expected_xor(BellIndex.PHI_PLUS, "Z") == 0
    assert expected_xor(BellIndex.PSI_PLUS, "Z") == 1
    assert expected_xor(BellIndex.PHI_MINUS, "X") == 1
    assert expected_xor(BellIndex.PSI_MINUS, "X") == 1
    assert expected_xor(BellIndex.PSI_MINUS, "Z") == 1


def test_pauli_frame_generates_bell_states():
    # |B_i> = (I ⊗ P_i)|Φ+> up to global phase.
    phi_plus = bell_vector(0)
    for index in range(4):
        op = np.kron(np.eye(2), PAULI_FRAME[index])
        produced = op @ phi_plus
        overlap = abs(np.vdot(bell_vector(index), produced))
        assert overlap == pytest.approx(1.0)


def test_combine_is_xor():
    for i in range(4):
        for j in range(4):
            assert combine(i, j) == (i ^ j)


def test_combine_group_laws():
    for i in range(4):
        assert combine(i, 0) == i          # identity
        assert combine(i, i) == 0          # self-inverse
        for j in range(4):
            assert combine(i, j) == combine(j, i)  # commutative


def test_swap_combine_examples():
    # Two Φ+ pairs, outcome m → pair in B_m.
    for m in range(4):
        assert swap_combine(0, 0, m) == m
    assert swap_combine(1, 2, 3) == (1 ^ 2 ^ 3)


def test_correction_pauli_maps_frames():
    # The Pauli frame that corrects Bell state i into j is i XOR j.
    for i in range(4):
        for j in range(4):
            assert combine(i, i ^ j) == j


def test_bell_diagonal_dm_weights_roundtrip():
    weights = np.array([0.7, 0.1, 0.15, 0.05])
    dm = bell_diagonal_dm(weights)
    assert np.allclose(bell_diagonal_weights(dm), weights)


def test_bell_diagonal_dm_validation():
    with pytest.raises(ValueError):
        bell_diagonal_dm([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        bell_diagonal_dm([0.5, 0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        bell_diagonal_dm([1.0, 0.0, 0.0])


def test_werner_dm_fidelity():
    dm = werner_dm(0.9, index=2)
    weights = bell_diagonal_weights(dm)
    assert weights[2] == pytest.approx(0.9)
    assert weights[0] == pytest.approx(0.1 / 3)
    assert np.trace(dm) == pytest.approx(1.0)


def test_werner_dm_validates_fidelity():
    with pytest.raises(ValueError):
        werner_dm(1.5)


def test_bell_dm_is_projector():
    for index in range(4):
        dm = bell_dm(index)
        assert np.allclose(dm @ dm, dm, atol=1e-12)
        assert np.trace(dm) == pytest.approx(1.0)


def test_bell_index_str():
    assert str(BellIndex.PHI_PLUS) == "Φ+"
    assert str(BellIndex.PSI_MINUS) == "Ψ−"
