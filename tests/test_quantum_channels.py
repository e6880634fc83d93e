"""Tests for Kraus channels and the readout error model."""

import math
import random

import numpy as np
import pytest

from repro.quantum import (
    QState,
    Qubit,
    amplitude_damping_kraus,
    decoherence_kraus,
    dephasing_kraus,
    depolarizing_kraus,
    is_trace_preserving,
    two_qubit_depolarizing_kraus,
    H,
    NoisyOpParams,
)
from repro.quantum.bellstate import readout_flip


@pytest.mark.parametrize("factory,arg", [
    (dephasing_kraus, 0.3),
    (depolarizing_kraus, 0.7),
    (two_qubit_depolarizing_kraus, 0.4),
    (amplitude_damping_kraus, 0.5),
])
def test_channels_are_trace_preserving(factory, arg):
    assert is_trace_preserving(factory(arg))


@pytest.mark.parametrize("factory", [dephasing_kraus, depolarizing_kraus,
                                     amplitude_damping_kraus])
def test_probability_validation(factory):
    with pytest.raises(ValueError):
        factory(-0.1)
    with pytest.raises(ValueError):
        factory(1.1)


def plus_state():
    qubit = Qubit()
    state = QState.ground(qubit)
    state.apply_unitary(H, [qubit])
    return qubit, state


def test_dephasing_kills_coherence():
    qubit, state = plus_state()
    state.apply_channel(dephasing_kraus(0.5), [qubit])
    assert abs(state.dm[0, 1]) < 1e-12
    assert state.dm[0, 0] == pytest.approx(0.5)


def test_dephasing_partial():
    qubit, state = plus_state()
    state.apply_channel(dephasing_kraus(0.1), [qubit])
    # Coherence scales by (1 - 2p).
    assert state.dm[0, 1] == pytest.approx(0.5 * 0.8)


def test_amplitude_damping_decays_excited_population():
    qubit = Qubit()
    state = QState.from_pure(np.array([0.0, 1.0]), [qubit])
    state.apply_channel(amplitude_damping_kraus(0.25), [qubit])
    assert state.dm[1, 1] == pytest.approx(0.75)
    assert state.dm[0, 0] == pytest.approx(0.25)


def test_decoherence_kraus_zero_time_is_identity():
    ops = decoherence_kraus(0.0, t1=1e9, t2=1e6)
    assert len(ops) == 1
    assert np.allclose(ops[0], np.eye(2))


def test_decoherence_kraus_negative_time_rejected():
    with pytest.raises(ValueError):
        decoherence_kraus(-1.0, 1e9, 1e6)


def test_decoherence_matches_t2_envelope():
    # Coherence of |+⟩ must decay as exp(-t/T2).
    t1, t2 = 5e9, 1e6
    for elapsed in (1e5, 1e6, 3e6):
        qubit, state = plus_state()
        state.apply_channel(decoherence_kraus(elapsed, t1, t2), [qubit])
        expected = 0.5 * math.exp(-elapsed / t2)
        assert state.dm[0, 1] == pytest.approx(expected, rel=1e-6)


def test_decoherence_matches_t1_population():
    t1, t2 = 1e6, 1e6  # T2 = T1 regime
    elapsed = 2e6
    qubit = Qubit()
    state = QState.from_pure(np.array([0.0, 1.0]), [qubit])
    state.apply_channel(decoherence_kraus(elapsed, t1, t2), [qubit])
    assert state.dm[1, 1] == pytest.approx(math.exp(-elapsed / t1), rel=1e-6)


def test_decoherence_infinite_times_are_noiseless():
    qubit, state = plus_state()
    before = state.dm.copy()
    state.apply_channel(decoherence_kraus(1e12, math.inf, math.inf), [qubit])
    assert np.allclose(state.dm, before, atol=1e-12)


def test_decoherence_is_trace_preserving():
    assert is_trace_preserving(decoherence_kraus(2e6, 1e9, 1e6))


def test_readout_povm_probabilities():
    """A true 0 reads 1 with probability error0, a true 1 reads 0 with
    probability error1; every measurement path shares this layer."""
    ops = NoisyOpParams(readout_error0=0.02, readout_error1=0.05)
    rng = random.Random(3)
    n = 20000
    flips0 = sum(readout_flip(0, rng, ops) for _ in range(n)) / n
    flips1 = sum(readout_flip(1, rng, ops) for _ in range(n)) / n
    assert flips0 == pytest.approx(0.02, abs=0.005)
    assert flips1 == pytest.approx(0.05, abs=0.007)
    assert readout_flip(0, rng, NoisyOpParams()) == 0


def test_two_qubit_depolarizing_fully_mixes():
    ops = two_qubit_depolarizing_kraus(15.0 / 16.0)
    qa, qb = Qubit(), Qubit()
    state = QState.merge(QState.ground(qa), QState.ground(qb))
    state.apply_channel(ops, [qa, qb])
    # p = 15/16 with uniform Paulis is the fully depolarizing channel.
    assert np.allclose(state.dm, np.eye(4) / 4, atol=1e-9)
