"""Tests for the density-matrix state container.

The engine applies every channel and gate as one superoperator contraction
and every Z measurement as a slice of the density matrix; the oracles at the
end pin both against the textbook forms they replaced: the per-Kraus loop
``Σ K ρ K†`` and the projector sandwich ``P ρ P`` with a partial trace.
"""

import ast
import gc
import random
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.quantum
from repro.quantum import (
    CNOT,
    H,
    QState,
    Qubit,
    X,
    Z,
    bell_vector,
    decoherence_kraus,
    depolarizing_kraus,
)


def fresh(n):
    return [Qubit(f"q{i}") for i in range(n)]


def test_ground_state():
    (qubit,) = fresh(1)
    state = QState.ground(qubit)
    assert state.num_qubits == 1
    assert state.dm[0, 0] == pytest.approx(1.0)
    assert qubit.state is state
    assert state.index_of(qubit) == 0


def test_from_pure_rejects_unnormalised():
    (qubit,) = fresh(1)
    with pytest.raises(ValueError):
        QState.from_pure(np.array([1.0, 1.0]), [qubit])


def test_dm_shape_must_match_qubits():
    qubits = fresh(2)
    with pytest.raises(ValueError):
        QState(np.eye(2) / 2, qubits)


def test_qubit_cannot_join_two_states():
    (qubit,) = fresh(1)
    QState.ground(qubit)
    with pytest.raises(ValueError):
        QState.ground(qubit)


def test_hadamard_then_cnot_builds_phi_plus():
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    state.apply_unitary(H, [qa])
    state.apply_unitary(CNOT, [qa, qb])
    expected = np.outer(bell_vector(0), bell_vector(0).conj())
    assert np.allclose(state.dm, expected, atol=1e-12)


def test_apply_unitary_respects_target_order():
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    state.apply_unitary(H, [qb])
    state.apply_unitary(CNOT, [qb, qa])  # control qb, target qa
    # Measuring both should be perfectly correlated.
    dm = state.dm
    assert dm[0b00, 0b00] == pytest.approx(0.5)
    assert dm[0b11, 0b11] == pytest.approx(0.5)


def test_apply_channel_depolarizes():
    (qubit,) = fresh(1)
    state = QState.ground(qubit)
    state.apply_channel(depolarizing_kraus(1.0), [qubit])
    # Full depolarizing with p=1 applies X/Y/Z uniformly: populations 1/3, 2/3.
    assert state.dm[0, 0] == pytest.approx(1.0 / 3.0)
    assert state.dm[1, 1] == pytest.approx(2.0 / 3.0)
    assert state.is_valid()


def test_measure_collapses_and_removes():
    rng = random.Random(1)
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    state.apply_unitary(H, [qa])
    state.apply_unitary(CNOT, [qa, qb])
    outcome_a = state.measure(qa, rng)
    assert qa.state is None
    assert state.num_qubits == 1
    outcome_b = state.measure(qb, rng)
    assert outcome_a == outcome_b  # Φ+ correlations


def test_measure_statistics_on_plus_state():
    rng = random.Random(42)
    counts = [0, 0]
    for _ in range(400):
        (qubit,) = fresh(1)
        state = QState.ground(qubit)
        state.apply_unitary(H, [qubit])
        counts[state.measure(qubit, rng)] += 1
    assert 140 < counts[0] < 260


def test_remove_traces_out():
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    state.apply_unitary(H, [qa])
    state.apply_unitary(CNOT, [qa, qb])
    state.remove(qa)
    # Remaining qubit is maximally mixed.
    assert np.allclose(state.dm, np.eye(2) / 2, atol=1e-12)
    assert state.index_of(qb) == 0


def test_reduced_dm_of_pair_inside_larger_state():
    qa, qb, qc = fresh(3)
    state = QState.merge(QState.merge(QState.ground(qa), QState.ground(qb)),
                         QState.ground(qc))
    state.apply_unitary(H, [qa])
    state.apply_unitary(CNOT, [qa, qb])
    reduced = state.reduced_dm([qa, qb])
    expected = np.outer(bell_vector(0), bell_vector(0).conj())
    assert np.allclose(reduced, expected, atol=1e-12)
    # And the spectator is |0⟩.
    spectator = state.reduced_dm([qc])
    assert spectator[0, 0] == pytest.approx(1.0)


def test_reduced_dm_order_matters():
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    state.apply_unitary(X, [qb])  # |01⟩
    dm_ab = state.reduced_dm([qa, qb])
    dm_ba = state.reduced_dm([qb, qa])
    assert dm_ab[0b01, 0b01] == pytest.approx(1.0)
    assert dm_ba[0b10, 0b10] == pytest.approx(1.0)


def test_merge_preserves_validity_and_handles():
    qa, qb = fresh(2)
    sa, sb = QState.ground(qa), QState.ground(qb)
    merged = QState.merge(sa, sb)
    assert merged.num_qubits == 2
    assert qa.state is merged and qb.state is merged
    assert merged.is_valid()


def test_merge_same_state_is_noop():
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    assert QState.merge(state, state) is state


def test_is_valid_detects_bad_trace():
    (qubit,) = fresh(1)
    state = QState.ground(qubit)
    state.dm = state.dm * 2.0
    assert not state.is_valid()


def test_z_phase_visible_in_coherences():
    (qubit,) = fresh(1)
    state = QState.ground(qubit)
    state.apply_unitary(H, [qubit])
    state.apply_unitary(Z, [qubit])
    assert state.dm[0, 1] == pytest.approx(-0.5)


# ----------------------------------------------------------------------
# Oracles for the superoperator engine
# ----------------------------------------------------------------------

def _embed(op, indices, n):
    """``op`` acting on qubits ``indices`` (in that order) as a 2^n × 2^n matrix."""
    order = list(indices) + [q for q in range(n) if q not in indices]
    full = np.kron(op, np.eye(2 ** (n - len(indices)))).reshape([2] * (2 * n))
    perm = [order.index(q) for q in range(n)]
    return full.transpose(perm + [p + n for p in perm]).reshape(2 ** n, 2 ** n)


def reference_apply_channel(dm, kraus_ops, indices, n):
    """The per-Kraus loop ``Σ K ρ K†`` that the superoperator engine replaced."""
    result = np.zeros_like(dm)
    for op in kraus_ops:
        full = _embed(op, indices, n)
        result += full @ dm @ full.conj().T
    return result


def _random_dm(rng, n):
    ginibre = rng.normal(size=(2 ** n, 2 ** n)) + 1j * rng.normal(size=(2 ** n, 2 ** n))
    rho = ginibre @ ginibre.conj().T
    return rho / np.trace(rho)


def _random_isometry(rng, rows, cols):
    matrix = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(matrix)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_channel(rng, k, rank):
    """``rank`` Kraus operators of a random CPTP map on ``k`` qubits (Stinespring)."""
    d = 2 ** k
    isometry = _random_isometry(rng, rank * d, d)
    return [isometry[i * d:(i + 1) * d] for i in range(rank)]


@st.composite
def _registers(draw, max_targets=2):
    """(seed, n, targets): 1–4 qubits and 1–2 distinct targets in any order."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, min(n, max_targets)))
    targets = draw(st.permutations(range(n)))[:k]
    return draw(st.integers(0, 2 ** 32 - 1)), n, list(targets)


@settings(max_examples=150, deadline=None)
@given(_registers(), st.integers(1, 6))
def test_apply_channel_matches_per_kraus_reference(register, rank):
    seed, n, targets = register
    rng = np.random.default_rng(seed)
    dm = _random_dm(rng, n)
    kraus_ops = _random_channel(rng, len(targets), rank)
    qubits = fresh(n)
    state = QState(dm, qubits)
    state.apply_channel(kraus_ops, [qubits[t] for t in targets])
    expected = reference_apply_channel(dm, kraus_ops, targets, n)
    assert np.abs(state.dm - expected).max() <= 1e-12


@settings(max_examples=100, deadline=None)
@given(_registers())
def test_apply_unitary_matches_u_rho_u_dagger(register):
    seed, n, targets = register
    rng = np.random.default_rng(seed)
    dm = _random_dm(rng, n)
    unitary = _random_isometry(rng, 2 ** len(targets), 2 ** len(targets))
    qubits = fresh(n)
    state = QState(dm, qubits)
    state.apply_unitary(unitary, [qubits[t] for t in targets])
    full = _embed(unitary, targets, n)
    assert np.abs(state.dm - full @ dm @ full.conj().T).max() <= 1e-12


def test_cached_channels_match_per_kraus_reference():
    rng = np.random.default_rng(3)
    for kraus_ops in (decoherence_kraus(2e6, 3.6e12, 6e10), depolarizing_kraus(0.1)):
        dm = _random_dm(rng, 3)
        qubits = fresh(3)
        state = QState(dm, qubits)
        state.apply_channel(kraus_ops, [qubits[2]])
        expected = reference_apply_channel(dm, kraus_ops, [2], 3)
        assert np.abs(state.dm - expected).max() <= 1e-12


class _FixedDraw:
    """An RNG stub whose every draw is ``u``; counts how often it is asked."""

    def __init__(self, u):
        self.u = u
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.u


def reference_measure(dm, position, n, u):
    """Z measurement as projector sandwich, normalisation and partial trace."""
    projectors = [_embed(np.diag([1.0, 0.0]), [position], n),
                  _embed(np.diag([0.0, 1.0]), [position], n)]
    prob0 = float(np.real(np.trace(projectors[0] @ dm)))
    outcome = 0 if u < min(max(prob0, 0.0), 1.0) else 1
    branch = projectors[outcome] @ dm @ projectors[outcome]
    branch = branch / float(np.real(np.trace(branch)))
    tensor = np.trace(branch.reshape([2] * (2 * n)), axis1=position, axis2=position + n)
    return outcome, tensor.reshape(2 ** (n - 1), 2 ** (n - 1))


@settings(max_examples=150, deadline=None)
@given(_registers(max_targets=1), st.floats(0.0, 1.0, exclude_max=True))
def test_measure_slice_is_bit_equal_to_projector_sandwich(register, u):
    seed, n, (position,) = register
    dm = _random_dm(np.random.default_rng(seed), n)
    qubits = fresh(n)
    state = QState(dm, qubits)
    rng = _FixedDraw(u)
    outcome = state.measure(qubits[position], rng)
    expected_outcome, expected_dm = reference_measure(dm, position, n, u)
    assert rng.draws == 1
    assert outcome == expected_outcome
    assert qubits[position].state is None
    assert state.qubits == qubits[:position] + qubits[position + 1:]
    if n > 1:
        assert np.array_equal(state.dm, expected_dm)
    else:
        assert np.array_equal(state.dm, np.array([[1.0]]))


def test_measure_zero_probability_branch_raises():
    qa, qb = fresh(2)
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    # A draw of 1.0 never falls below P(0) = 1, forcing the empty branch.
    with pytest.raises(RuntimeError, match="zero-probability"):
        state.measure(qa, _FixedDraw(1.0))


def test_superoperator_cache_stays_bounded():
    """10,000 distinct idle times: the cached superoperators live and die
    with their builder's ``lru_cache`` entries, so the cache never exceeds
    its ``maxsize`` and an evicted channel's superoperator is freed."""
    (qubit,) = fresh(1)
    state = QState.ground(qubit)
    first = decoherence_kraus(0.5, 1e9, 5e8)
    state.apply_channel(first, [qubit])
    evicted = weakref.ref(first.superop)
    del first
    for step in range(10_000):
        state.apply_decoherence(1.0 + step, 1e9, 5e8, qubit)
    info = decoherence_kraus.cache_info()
    assert info.currsize <= info.maxsize
    gc.collect()
    assert evicted() is None
    assert state.is_valid()


def test_quantum_package_keys_no_cache_on_id():
    """``id()`` keys can be reused after garbage collection, and a dict
    holding the keyed objects grows without bound."""
    package = Path(repro.quantum.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id != "id", f"{path.name}:{node.lineno} calls id()"
