"""Property-based tests (hypothesis) for the quantum engine invariants."""

import math
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.quantum import (
    NoisyOpParams,
    QState,
    Qubit,
    averaged_swap_dm,
    bell_diagonal_dm,
    bell_diagonal_weights,
    bell_dm,
    bell_fidelity,
    bell_state_measurement,
    create_pair,
    decoherence_kraus,
    depolarizing_kraus,
    is_trace_preserving,
    pair_fidelity,
    pure_state_fidelity,
    state_fidelity,
    swap_combine,
    werner_dm,
)

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
fidelities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
bell_indices = st.integers(min_value=0, max_value=3)


@given(bell_indices, bell_indices, bell_indices)
def test_swap_combine_is_associative_and_commutative(i, j, m):
    assert swap_combine(i, j, m) == swap_combine(j, i, m)
    assert swap_combine(swap_combine(i, j, 0), m, 0) == swap_combine(i, swap_combine(j, m, 0), 0)


@given(bell_indices, bell_indices)
def test_swap_combine_inverse(i, m):
    # Combining with itself and the outcome twice returns to start.
    once = swap_combine(i, 0, m)
    assert swap_combine(once, 0, m) == i


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4))
def test_bell_diagonal_roundtrip(raw_weights):
    weights = np.array(raw_weights) / sum(raw_weights)
    dm = bell_diagonal_dm(weights)
    assert np.allclose(bell_diagonal_weights(dm), weights, atol=1e-9)
    assert np.trace(dm).real == np.float64(1.0) or abs(np.trace(dm) - 1) < 1e-9


@given(fidelities, bell_indices)
def test_werner_dm_is_valid_state(fidelity, index):
    dm = werner_dm(fidelity, index)
    eigenvalues = np.linalg.eigvalsh(dm)
    assert eigenvalues.min() > -1e-12
    assert abs(np.trace(dm) - 1.0) < 1e-9
    assert bell_fidelity(dm, index) == np.float64(fidelity) or \
        abs(bell_fidelity(dm, index) - fidelity) < 1e-9


@given(probabilities)
def test_depolarizing_always_trace_preserving(p):
    assert is_trace_preserving(depolarizing_kraus(p))


@given(st.floats(min_value=0.0, max_value=1e12),
       st.floats(min_value=1e3, max_value=1e12),
       st.floats(min_value=1e3, max_value=1e12))
def test_decoherence_channel_valid_for_any_times(elapsed, t1, t2):
    ops = decoherence_kraus(elapsed, t1, t2)
    assert is_trace_preserving(ops)


@given(st.floats(min_value=1e3, max_value=1e10),
       st.floats(min_value=1e3, max_value=1e10))
def test_decoherence_composes_in_time(t_a, t_b):
    """Applying noise for t_a then t_b equals applying it for t_a + t_b."""
    t1, t2 = 5e9, 1e8
    qubit1 = Qubit()
    state1 = QState.from_pure(np.array([1, 1]) / math.sqrt(2), [qubit1])
    state1.apply_channel(decoherence_kraus(t_a, t1, t2), [qubit1])
    state1.apply_channel(decoherence_kraus(t_b, t1, t2), [qubit1])

    qubit2 = Qubit()
    state2 = QState.from_pure(np.array([1, 1]) / math.sqrt(2), [qubit2])
    state2.apply_channel(decoherence_kraus(t_a + t_b, t1, t2), [qubit2])

    assert np.allclose(state1.dm, state2.dm, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(fidelities.filter(lambda f: f >= 0.25), fidelities.filter(lambda f: f >= 0.25),
       st.integers(min_value=0, max_value=10_000))
def test_swap_preserves_state_validity(f_a, f_b, seed):
    rng = random.Random(seed)
    qa, q_mid1 = create_pair(werner_dm(f_a))
    q_mid2, qc = create_pair(werner_dm(f_b))
    bell_state_measurement(q_mid1, q_mid2, rng)
    state = qa.state
    assert state is qc.state
    assert state.is_valid()
    fid = pair_fidelity(qa, qc, 0)
    assert 0.0 <= fid <= 1.0


@settings(max_examples=20, deadline=None)
@given(fidelities.filter(lambda f: f >= 0.5), fidelities.filter(lambda f: f >= 0.5))
def test_averaged_swap_fidelity_below_inputs(f_a, f_b):
    """Swapping never increases fidelity (P2 of Sec 2.3)."""
    result = averaged_swap_dm(werner_dm(f_a), werner_dm(f_b))
    out_fidelity = bell_fidelity(result, 0)
    assert out_fidelity <= min(f_a, f_b) + 1e-9
    assert abs(np.trace(result) - 1.0) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.9, max_value=1.0), st.floats(min_value=0.0, max_value=0.05))
def test_averaged_swap_monotone_in_gate_noise(fidelity, noise):
    clean = bell_fidelity(averaged_swap_dm(werner_dm(fidelity), werner_dm(fidelity)), 0)
    noisy = bell_fidelity(
        averaged_swap_dm(werner_dm(fidelity), werner_dm(fidelity),
                         NoisyOpParams(two_qubit_gate_fidelity=1.0 - noise)), 0)
    assert noisy <= clean + 1e-9


@settings(max_examples=30, deadline=None)
@given(bell_indices, st.integers(min_value=0, max_value=10_000))
def test_bsm_on_pure_bell_inputs_keeps_purity(index, seed):
    rng = random.Random(seed)
    qa, q_mid1 = create_pair(bell_dm(index))
    q_mid2, qc = create_pair(bell_dm(0))
    outcome = bell_state_measurement(q_mid1, q_mid2, rng)
    expected = swap_combine(index, 0, outcome)
    assert pair_fidelity(qa, qc, expected) > 1.0 - 1e-9


# ----------------------------------------------------------------------
# Uhlmann fidelity between mixed states
# ----------------------------------------------------------------------

FIDELITY_TOL = 1e-7


def _ginibre_dm(rng, dim, rank):
    """A random ``dim``-dimensional density matrix of the given rank
    (rank 1 is a pure state, rank < dim a rank-deficient one)."""
    ginibre = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = ginibre @ ginibre.conj().T
    return rho / np.trace(rho).real


@st.composite
def _state_pairs(draw):
    """(ρ, σ, rng): two random 1–2-qubit dms of one dimension, any ranks."""
    dim = 2 ** draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rho = _ginibre_dm(rng, dim, draw(st.integers(1, dim)))
    sigma = _ginibre_dm(rng, dim, draw(st.integers(1, dim)))
    return rho, sigma, rng


@settings(max_examples=100, deadline=None)
@given(_state_pairs())
def test_state_fidelity_of_a_state_with_itself_is_one(states):
    rho, _, _ = states
    assert abs(state_fidelity(rho, rho) - 1.0) <= FIDELITY_TOL


@settings(max_examples=100, deadline=None)
@given(_state_pairs())
def test_state_fidelity_is_symmetric_and_bounded(states):
    rho, sigma, _ = states
    forward, backward = state_fidelity(rho, sigma), state_fidelity(sigma, rho)
    assert abs(forward - backward) <= FIDELITY_TOL
    assert 0.0 <= forward <= 1.0


@settings(max_examples=100, deadline=None)
@given(_state_pairs())
def test_state_fidelity_to_a_pure_state_is_the_overlap(states):
    rho, _, rng = states
    dim = rho.shape[0]
    vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vector /= np.linalg.norm(vector)
    sigma = np.outer(vector, vector.conj())
    expected = pure_state_fidelity(rho, vector)
    assert abs(state_fidelity(rho, sigma) - expected) <= FIDELITY_TOL
    assert abs(state_fidelity(sigma, rho) - expected) <= FIDELITY_TOL


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(
    *[st.lists(st.floats(0.0, 1.0), min_size=2 ** n, max_size=2 ** n)
      .filter(lambda w: sum(w) > 1e-3)] * 2)))
def test_state_fidelity_of_commuting_states_is_classical(weights):
    """Diagonal (commuting) states: F = (Σ √(p_i q_i))², zeros included."""
    p, q = (np.array(w) / sum(w) for w in weights)
    expected = float(np.sqrt(p * q).sum() ** 2)
    assert abs(state_fidelity(np.diag(p), np.diag(q)) - expected) <= FIDELITY_TOL
