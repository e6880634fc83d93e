"""Tests for the NV device model and lazy memory noise."""

import math

import numpy as np
import pytest

from repro.hardware import NEAR_TERM, NVDevice, SIMULATION, apply_memory_noise, stamp
from repro.netsim import S, Simulator
from repro.quantum import bell_dm, create_pair, pair_fidelity, swap_combine


def make_device(params=SIMULATION, seed=1):
    sim = Simulator(seed=seed)
    return sim, NVDevice(sim, params)


class TestMemoryNoise:
    def test_stamp_sets_parameters(self):
        qa, _ = create_pair(bell_dm(0))
        stamp(qa, now=5.0, t1=1e9, t2=1e6)
        assert qa.t1 == 1e9
        assert qa.t2 == 1e6
        assert qa.last_noise_time == 5.0

    def test_noise_applied_for_elapsed_time(self):
        qa, qb = create_pair(bell_dm(0))
        stamp(qa, 0.0, math.inf, 1e6)
        stamp(qb, 0.0, math.inf, math.inf)
        apply_memory_noise(qa, 2e6)
        fidelity = pair_fidelity(qa, qb, 0)
        # Dephasing of one half: F = (1 + exp(-t/T2))/2.
        assert fidelity == pytest.approx((1 + math.exp(-2.0)) / 2, rel=1e-6)
        assert qa.last_noise_time == 2e6

    def test_noise_is_incremental(self):
        qa, qb = create_pair(bell_dm(0))
        stamp(qa, 0.0, math.inf, 1e6)
        stamp(qb, 0.0, math.inf, math.inf)
        apply_memory_noise(qa, 1e6)
        apply_memory_noise(qa, 2e6)

        qc, qd = create_pair(bell_dm(0))
        stamp(qc, 0.0, math.inf, 1e6)
        stamp(qd, 0.0, math.inf, math.inf)
        apply_memory_noise(qc, 2e6)
        assert pair_fidelity(qa, qb, 0) == pytest.approx(pair_fidelity(qc, qd, 0))

    def test_backwards_time_rejected(self):
        qa, _ = create_pair(bell_dm(0))
        stamp(qa, 10.0, 1e9, 1e6)
        with pytest.raises(ValueError):
            apply_memory_noise(qa, 5.0)

    def test_freed_qubit_is_ignored(self):
        qa, qb = create_pair(bell_dm(0))
        stamp(qa, 0.0, 1e9, 1e6)
        qa.state.remove(qa)
        apply_memory_noise(qa, 1e9)  # no crash


class TestNVDevice:
    def test_bsm_returns_outcome_and_duration(self):
        sim, device = make_device()
        qa, q_mid1 = create_pair(bell_dm(0))
        q_mid2, qc = create_pair(bell_dm(0))
        for qubit in (qa, q_mid1, q_mid2, qc):
            device.adopt_comm_qubit(qubit)
        outcome, duration = device.bell_state_measurement(q_mid1, q_mid2)
        assert outcome in range(4)
        assert duration == SIMULATION.gates.bsm_duration
        # With simulation parameters noise is small: fidelity stays high.
        assert pair_fidelity(qa, qc, swap_combine(0, 0, outcome)) > 0.98

    def test_bsm_applies_memory_decoherence_first(self):
        sim, device = make_device(SIMULATION.with_t2(0.5 * S))
        qa, q_mid1 = create_pair(bell_dm(0))
        q_mid2, qc = create_pair(bell_dm(0))
        for qubit in (qa, q_mid1, q_mid2, qc):
            device.adopt_comm_qubit(qubit)
        # Let the qubits idle for a second of simulated time.
        sim.schedule(1 * S, lambda: None)
        sim.run()
        outcome, _ = device.bell_state_measurement(q_mid1, q_mid2)
        fidelity = pair_fidelity(qa, qc, swap_combine(0, 0, outcome))
        assert fidelity < 0.8

    def test_measure_consumes_qubit(self):
        sim, device = make_device()
        qa, qb = create_pair(bell_dm(0))
        device.adopt_comm_qubit(qa)
        device.adopt_comm_qubit(qb)
        bit, duration = device.measure(qa)
        assert bit in (0, 1)
        assert duration == SIMULATION.gates.electron_readout_duration
        assert qa.state is None

    def test_pauli_correct_duration(self):
        sim, device = make_device()
        qa, qb = create_pair(bell_dm(2))
        device.adopt_comm_qubit(qa)
        device.adopt_comm_qubit(qb)
        duration = device.pauli_correct(qb, 2)
        assert duration == SIMULATION.gates.electron_single_qubit_duration
        assert pair_fidelity(qa, qb, 0) > 0.99

    def test_discard(self):
        sim, device = make_device()
        qa, qb = create_pair(bell_dm(0))
        device.adopt_comm_qubit(qa)
        device.discard(qa)
        assert qa.state is None
        device.discard(qa)  # idempotent

    def test_move_to_storage_restamps_lifetimes(self):
        sim, device = make_device(NEAR_TERM)
        qa, qb = create_pair(bell_dm(0))
        device.adopt_comm_qubit(qa)
        assert qa.t2 == NEAR_TERM.electron_t2
        duration = device.move_to_storage(qa)
        assert qa.t2 == NEAR_TERM.carbon_t2
        assert duration == (NEAR_TERM.gates.two_qubit_gate_duration
                            + NEAR_TERM.gates.carbon_init_duration)
        assert len(device._stored) == 1

    def test_move_to_storage_adds_noise(self):
        sim, device = make_device(NEAR_TERM)
        qa, qb = create_pair(bell_dm(0))
        device.adopt_comm_qubit(qa)
        device.adopt_comm_qubit(qb)
        device.move_to_storage(qa)
        assert pair_fidelity(qa, qb, 0) < 1.0

    def test_charge_attempt_noise_dephases_stored(self):
        sim, device = make_device(NEAR_TERM)
        qa, qb = create_pair(bell_dm(0))
        device.adopt_comm_qubit(qa)
        device.adopt_comm_qubit(qb)
        device.move_to_storage(qa)
        before = pair_fidelity(qa, qb, 0)
        device.charge_attempt_noise(5000)
        after = pair_fidelity(qa, qb, 0)
        assert after < before

    def test_charge_attempt_noise_noop_without_storage(self):
        sim, device = make_device(NEAR_TERM)
        device.charge_attempt_noise(10_000)  # nothing stored: no crash

    def test_charge_attempt_noise_noop_in_simulation_model(self):
        sim, device = make_device(SIMULATION)
        qa, qb = create_pair(bell_dm(0))
        device.adopt_comm_qubit(qa)
        device.move_to_storage(qa)
        before_dm = qa.state.dm.copy()
        device.charge_attempt_noise(10_000)
        assert np.allclose(qa.state.dm, before_dm)

    def test_bsm_releases_storage(self):
        sim, device = make_device(NEAR_TERM)
        qa, q_mid1 = create_pair(bell_dm(0))
        q_mid2, qc = create_pair(bell_dm(0))
        for qubit in (qa, q_mid1, q_mid2, qc):
            device.adopt_comm_qubit(qubit)
        device.move_to_storage(q_mid1)
        device.bell_state_measurement(q_mid1, q_mid2)
        assert len(device._stored) == 0
