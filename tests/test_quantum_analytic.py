"""Property tests pinning the closed-form analytics to the exact engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quantum import (
    averaged_swap_dm,
    bell_diagonal_dm,
    bell_diagonal_weights,
    bell_fidelity,
    decoherence_kraus,
    QState,
    Qubit,
    werner_dm,
)
from analytic import (
    chain_fidelity,
    chain_weights,
    dephased_weights,
    depolarized_weights,
    fidelity_after_storage,
    qber_x,
    qber_z,
    required_link_fidelity,
    swap_fidelity,
    swap_weights,
    validate_weights,
    werner_weights,
)

fidelities = st.floats(min_value=0.3, max_value=1.0)
weight_lists = st.lists(st.floats(min_value=0.01, max_value=1.0),
                        min_size=4, max_size=4)


def normalised(raw):
    weights = np.array(raw)
    return weights / weights.sum()


@given(fidelities, fidelities)
@settings(max_examples=30, deadline=None)
def test_swap_weights_match_engine(f_a, f_b):
    """XOR-convolution vs the exact outcome-averaged swap map."""
    analytic = swap_weights(werner_weights(f_a), werner_weights(f_b))
    engine = bell_diagonal_weights(
        averaged_swap_dm(werner_dm(f_a), werner_dm(f_b)))
    assert np.allclose(analytic, engine, atol=1e-9)


@given(weight_lists, weight_lists)
@settings(max_examples=30, deadline=None)
def test_swap_weights_general_bell_diagonal(raw_a, raw_b):
    weights_a, weights_b = normalised(raw_a), normalised(raw_b)
    analytic = swap_weights(weights_a, weights_b)
    engine = bell_diagonal_weights(
        averaged_swap_dm(bell_diagonal_dm(weights_a),
                         bell_diagonal_dm(weights_b)))
    assert np.allclose(analytic, engine, atol=1e-9)
    assert analytic.sum() == pytest.approx(1.0)


@given(fidelities)
@settings(max_examples=20, deadline=None)
def test_swap_fidelity_closed_form(fidelity):
    expected = fidelity ** 2 + (1 - fidelity) ** 2 / 3.0
    assert swap_fidelity(fidelity, fidelity) == pytest.approx(expected)


@given(fidelities, st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_chain_fidelity_matches_iterated_weights(fidelity, num_links):
    via_weights = chain_weights(werner_weights(fidelity), num_links)[0]
    assert chain_fidelity(fidelity, num_links) == pytest.approx(via_weights)


def test_chain_fidelity_decays_towards_quarter():
    assert chain_fidelity(0.9, 1) == pytest.approx(0.9)
    long_chain = chain_fidelity(0.9, 50)
    assert 0.25 < long_chain < 0.3


@given(st.floats(min_value=0.3, max_value=0.95),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_required_link_fidelity_inverts_chain(target, num_links):
    link = required_link_fidelity(target, num_links)
    assert chain_fidelity(link, num_links) == pytest.approx(target, abs=1e-9)


@given(fidelities, st.floats(min_value=0.0, max_value=5e9))
@settings(max_examples=30, deadline=None)
def test_dephasing_matches_engine(fidelity, elapsed):
    """Analytic storage decay vs the Kraus channel on the dm (one side)."""
    t2 = 1e9
    analytic = dephased_weights(werner_weights(fidelity), elapsed, t2,
                                both_sides=False)
    qa, qb = Qubit(), Qubit()
    state = QState(werner_dm(fidelity), [qa, qb])
    state.apply_channel(decoherence_kraus(elapsed, math.inf, t2), [qa])
    engine = bell_diagonal_weights(state.dm)
    assert np.allclose(analytic, engine, atol=1e-9)


@given(fidelities, st.floats(min_value=0.0, max_value=5e9))
@settings(max_examples=30, deadline=None)
def test_dephasing_both_sides_matches_engine(fidelity, elapsed):
    t2 = 1e9
    analytic = dephased_weights(werner_weights(fidelity), elapsed, t2,
                                both_sides=True)
    qa, qb = Qubit(), Qubit()
    state = QState(werner_dm(fidelity), [qa, qb])
    channel = decoherence_kraus(elapsed, math.inf, t2)
    state.apply_channel(channel, [qa])
    state.apply_channel(channel, [qb])
    engine = bell_diagonal_weights(state.dm)
    assert np.allclose(analytic, engine, atol=1e-9)


def test_fidelity_after_storage_monotone_decreasing():
    previous = 1.0
    for elapsed in (0.0, 1e8, 1e9, 5e9):
        current = fidelity_after_storage(0.95, elapsed, t2=1e9)
        assert current <= previous + 1e-12
        previous = current
    # Long storage converges to the equal mixture of B0 and its
    # phase-flipped partner B2: (p0 + p2)/2.
    rest = 0.05 / 3
    assert fidelity_after_storage(0.95, 1e12, t2=1e9) == pytest.approx(
        (0.95 + rest) / 2, abs=1e-6)


@given(weight_lists, st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=30, deadline=None)
def test_depolarized_weights_valid(raw, p):
    out = depolarized_weights(normalised(raw), p)
    assert out.sum() == pytest.approx(1.0)
    assert np.all(out >= -1e-12)


def test_depolarized_full_noise_is_uniform():
    out = depolarized_weights(werner_weights(1.0), 15.0 / 16.0)
    assert np.allclose(out, 0.25)


def test_qber_definitions():
    weights = np.array([0.7, 0.1, 0.15, 0.05])
    assert qber_z(weights) == pytest.approx(0.15)
    assert qber_x(weights) == pytest.approx(0.20)
    # Fidelity bound used by the test-round service.
    assert 1 - qber_z(weights) - qber_x(weights) <= weights[0]


def test_validation_errors():
    with pytest.raises(ValueError):
        werner_weights(1.5)
    with pytest.raises(ValueError):
        validate_weights([0.5, 0.5, 0.5, -0.5])
    with pytest.raises(ValueError):
        chain_weights(werner_weights(0.9), 0)
    with pytest.raises(ValueError):
        required_link_fidelity(0.1, 2)
    with pytest.raises(ValueError):
        dephased_weights(werner_weights(0.9), -1.0, 1e9)
    with pytest.raises(ValueError):
        depolarized_weights(werner_weights(0.9), 1.5)


def test_engine_chain_vs_analytic_chain():
    """Three-link chain: engine composition equals analytic composition."""
    link = werner_weights(0.92)
    analytic = chain_weights(link, 3)
    rho = bell_diagonal_dm(link)
    for _ in range(2):
        rho = averaged_swap_dm(rho, bell_diagonal_dm(link))
    assert np.allclose(bell_diagonal_weights(rho), analytic, atol=1e-9)
    assert bell_fidelity(rho, 0) == pytest.approx(analytic[0])
