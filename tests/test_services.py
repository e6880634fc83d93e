"""Tests for the services built on the QNP: distillation, QKD, test rounds.

Beyond the stack-level smoke tests, the analytic pins live here: the
BBM92 QBER of a Werner pair equals ``2(1−F)/3`` per basis on *both*
state backends (computed exactly from the represented state, 1e-6), and
a DEJMPS success on Werner inputs lands exactly on the Deutsch et al.
fidelity map across a grid of input fidelities.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.apps import AppContext, get_app
from repro.core import UserRequest
from repro.network.builder import build_chain_network
from repro.quantum import (
    BellPairState,
    NoisyOpParams,
    bell_dm,
    create_pair,
    pair_fidelity,
    werner_dm,
)
from repro.quantum.backends import get_backend
from repro.quantum.bellstate import create_bell_diagonal_pair, dejmps_joint
from repro.quantum import channels, gates, operations, states
from repro.quantum.gates import CNOT, rx
from repro.quantum.operations import (
    PERFECT_OPS,
    apply_gate,
    apply_two_qubit_gate,
    measure_qubit,
)
from repro.services import (
    DistillationModule,
    dejmps_round,
    pauli_twirl,
    run_bbm92,
    theoretical_dejmps_fidelity,
    theoretical_dejmps_success,
)
from repro.services.fidelity_test import expected_xor
from repro.services.qkd import BBM92Endpoint, sift


class TestDejmps:
    def test_perfect_pairs_always_succeed(self):
        rng = random.Random(1)
        for _ in range(20):
            pair_one = create_pair(bell_dm(0))
            pair_two = create_pair(bell_dm(0))
            outcome = dejmps_round(pair_one, pair_two, rng)
            assert outcome.success
            assert pair_fidelity(outcome.keep_a, outcome.keep_b, 0) == \
                pytest.approx(1.0)

    def test_failure_discards_pairs(self):
        rng = random.Random(2)
        # Low fidelity inputs fail often; find a failing round.
        for _ in range(200):
            pair_one = create_pair(werner_dm(0.6))
            pair_two = create_pair(werner_dm(0.6))
            outcome = dejmps_round(pair_one, pair_two, rng)
            if not outcome.success:
                assert outcome.keep_a is None
                assert pair_one[0].state is None
                return
        pytest.fail("no DEJMPS failure observed at F=0.6")

    def test_distillation_improves_werner_fidelity(self):
        rng = random.Random(3)
        input_fidelity = 0.8
        fidelities = []
        for _ in range(300):
            pair_one = create_pair(werner_dm(input_fidelity))
            pair_two = create_pair(werner_dm(input_fidelity))
            outcome = dejmps_round(pair_one, pair_two, rng)
            if outcome.success:
                fidelities.append(pair_fidelity(outcome.keep_a, outcome.keep_b, 0))
        measured = sum(fidelities) / len(fidelities)
        expected = theoretical_dejmps_fidelity(input_fidelity)
        assert measured == pytest.approx(expected, abs=0.02)
        assert measured > input_fidelity

    def test_success_rate_matches_theory(self):
        rng = random.Random(4)
        input_fidelity = 0.8
        successes = 0
        trials = 400
        for _ in range(trials):
            pair_one = create_pair(werner_dm(input_fidelity))
            pair_two = create_pair(werner_dm(input_fidelity))
            if dejmps_round(pair_one, pair_two, rng).success:
                successes += 1
        expected = theoretical_dejmps_success(input_fidelity)
        assert successes / trials == pytest.approx(expected, abs=0.07)

    def test_noisy_gates_reduce_gain(self):
        rng = random.Random(5)
        noisy_ops = NoisyOpParams(two_qubit_gate_fidelity=0.97)
        clean, noisy = [], []
        for _ in range(200):
            outcome = dejmps_round(create_pair(werner_dm(0.85)),
                                   create_pair(werner_dm(0.85)), rng)
            if outcome.success:
                clean.append(pair_fidelity(outcome.keep_a, outcome.keep_b, 0))
            outcome = dejmps_round(create_pair(werner_dm(0.85)),
                                   create_pair(werner_dm(0.85)), rng, noisy_ops)
            if outcome.success:
                noisy.append(pair_fidelity(outcome.keep_a, outcome.keep_b, 0))
        assert sum(noisy) / len(noisy) < sum(clean) / len(clean)

    def test_module_pairs_up_deliveries(self):
        rng = random.Random(6)
        module = DistillationModule(rng)
        for index in range(6):
            qa, qb = create_pair(bell_dm(1))  # Ψ+ deliveries, like the QNP
            module.absorb(qa, qb, bell_state=1)
        assert module.rounds_attempted == 3
        assert module.rounds_succeeded == 3  # pure inputs always succeed
        for keep_a, keep_b in module.distilled:
            assert pair_fidelity(keep_a, keep_b, 0) == pytest.approx(1.0)

    def test_theory_helpers_monotone(self):
        assert theoretical_dejmps_fidelity(0.9) > 0.9
        assert theoretical_dejmps_fidelity(0.7) > 0.7
        assert 0 < theoretical_dejmps_success(0.8) <= 1.0

    def test_module_validates_levels(self):
        with pytest.raises(ValueError):
            DistillationModule(random.Random(0), levels=0)

    def test_two_level_distillation_purifies_heralded_error_mix(self):
        """Single-click pairs carry p1 ≈ p3 errors: one DEJMPS round is
        neutral, two rounds purify strongly (the DEJMPS two-cycle)."""
        import numpy as np

        from repro.quantum import bell_diagonal_dm

        rng = random.Random(8)
        weights = np.array([0.83, 0.085, 0.0, 0.085])
        one = DistillationModule(rng, levels=1)
        two = DistillationModule(rng, levels=2)
        for module in (one, two):
            for _ in range(64):
                qa, qb = create_pair(bell_diagonal_dm(weights))
                module.absorb(qa, qb, bell_state=0)
        fidelity_one = sum(pair_fidelity(a, b, 0) for a, b in one.distilled) \
            / len(one.distilled)
        fidelity_two = sum(pair_fidelity(a, b, 0) for a, b in two.distilled) \
            / len(two.distilled)
        assert abs(fidelity_one - 0.83) < 0.03      # round 1 ≈ neutral
        assert fidelity_two > 0.92                  # round 2 purifies


bell_weights = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=4,
                        max_size=4)
noisy_ops = st.builds(
    NoisyOpParams,
    two_qubit_gate_fidelity=st.floats(min_value=0.8, max_value=1.0),
    single_qubit_gate_fidelity=st.floats(min_value=0.8, max_value=1.0),
    readout_error0=st.floats(min_value=0.0, max_value=0.5),
    readout_error1=st.floats(min_value=0.0, max_value=0.5))


def _normalised(raw):
    assume(sum(raw) > 0.1)
    return np.array(raw) / sum(raw)


def _refuse_promotion(state):
    raise AssertionError("a Bell-diagonal pair was promoted")


class TestDejmpsClosedForm:
    """The Bell formalism's closed-form twirl and DEJMPS round against the
    exact engine, which runs the same gates on the promoted pairs."""

    @settings(deadline=None)
    @given(bell_weights, bell_weights, noisy_ops,
           st.integers(min_value=0, max_value=2 ** 32))
    def test_matches_exact_engine(self, keep_raw, sacrifice_raw, ops, seed):
        keep_weights = _normalised(keep_raw)
        sacrifice_weights = _normalised(sacrifice_raw)
        runs = []
        for promote in (False, True):
            pair_one = create_bell_diagonal_pair(keep_weights)
            pair_two = create_bell_diagonal_pair(sacrifice_weights)
            if promote:
                pair_one[0].state.promote()
                pair_two[0].state.promote()
            rng = random.Random(seed)
            pauli_twirl(*pair_one, rng, ops)
            pauli_twirl(*pair_two, rng, ops)
            twirled = [pair_fidelity(*pair_one, k) for k in range(4)]
            outcome = dejmps_round(pair_one, pair_two, rng, ops)
            kept = None
            if outcome.success:
                # The closed form keeps the pair Bell-diagonal.
                assert isinstance(outcome.keep_a.state, BellPairState) is not promote
                kept = [pair_fidelity(outcome.keep_a, outcome.keep_b, k)
                        for k in range(4)]
            runs.append(((outcome.success, outcome.outcome_a, outcome.outcome_b),
                         rng.random(), twirled, kept))
        closed, exact = runs
        assert closed[0] == exact[0]
        assert closed[1] == exact[1]
        assert closed[2] == pytest.approx(exact[2], abs=1e-12)
        if closed[3] is not None:
            assert closed[3] == pytest.approx(exact[3], abs=1e-12)

    @pytest.mark.parametrize("fidelity", [0.25, 0.5, 0.7, 0.85, 1.0])
    def test_werner_inputs_follow_the_textbook_map(self, fidelity):
        p = (1.0 - fidelity) / 3.0
        weights = np.array([fidelity, p, p, p])
        joint = dejmps_joint(weights, weights, PERFECT_OPS)
        success = joint[:, 0].sum()
        assert success == pytest.approx(theoretical_dejmps_success(fidelity),
                                        abs=1e-12)
        expected = theoretical_dejmps_fidelity(fidelity)
        assert joint[0, 0] / success == pytest.approx(expected, abs=1e-12)
        rng = random.Random(11)
        while True:
            outcome = dejmps_round(create_bell_diagonal_pair(weights),
                                   create_bell_diagonal_pair(weights), rng)
            if outcome.success:
                break
        assert pair_fidelity(outcome.keep_a, outcome.keep_b, 0) == \
            pytest.approx(expected, abs=1e-12)

    def test_two_level_module_never_promotes(self, monkeypatch):
        monkeypatch.setattr(BellPairState, "promote", _refuse_promotion)
        ops = NoisyOpParams(two_qubit_gate_fidelity=0.99,
                            single_qubit_gate_fidelity=0.995,
                            readout_error0=0.01, readout_error1=0.02)
        module = DistillationModule(random.Random(9), ops, levels=2)
        for _ in range(16):
            # Ψ+ deliveries carrying the single-click error mix.
            qubit_a, qubit_b = create_bell_diagonal_pair([0.085, 0.83, 0.085, 0.0])
            module.absorb(qubit_a, qubit_b, bell_state=1)
        assert module.rounds_attempted > 8  # some second-level rounds ran
        assert module.distilled
        for keep_a, keep_b in module.distilled:
            assert isinstance(keep_a.state, BellPairState)
            assert keep_a.state is keep_b.state


def _random_pair(rng):
    """A full-rank 2-qubit dm pair, so every outcome has weight."""
    ginibre = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = ginibre @ ginibre.conj().T
    return create_pair(rho / np.trace(rho))


class TestDejmpsOnDensityMatrices:
    OPS = NoisyOpParams(two_qubit_gate_fidelity=0.97, single_qubit_gate_fidelity=0.99,
                        readout_error0=0.02, readout_error1=0.03)

    @staticmethod
    def _gate_by_gate(pair_one, pair_two, rng, ops):
        """DEJMPS with every gate's superoperator built from its unitary."""
        (keep_a, keep_b), (sac_a, sac_b) = pair_one, pair_two
        for qubit, theta in ((keep_a, np.pi / 2), (sac_a, np.pi / 2),
                             (keep_b, -np.pi / 2), (sac_b, -np.pi / 2)):
            apply_gate(qubit, rx(theta), ops)
        apply_two_qubit_gate(keep_a, sac_a, CNOT, ops)
        apply_two_qubit_gate(keep_b, sac_b, CNOT, ops)
        return measure_qubit(sac_a, rng, "Z", ops), measure_qubit(sac_b, rng, "Z", ops)

    def test_round_builds_no_superoperator(self, monkeypatch):
        """The rotations and CNOT use prebuilt superoperators, with outputs
        identical bit for bit to building each from its unitary."""
        # Fill the memoized noise channels' superoperators first.
        dejmps_round(_random_pair(np.random.default_rng(0)),
                     _random_pair(np.random.default_rng(1)), random.Random(0), self.OPS)
        built = []

        def counting(*ops):
            built.append(ops)
            return gates.superoperator(*ops)

        for module in (channels, operations, states):
            monkeypatch.setattr(module, "superoperator", counting)
        for seed in range(8):
            source = np.random.default_rng(seed)
            pair_one, pair_two = _random_pair(source), _random_pair(source)
            outcome = dejmps_round(pair_one, pair_two, random.Random(seed), self.OPS)
            assert built == []
            source = np.random.default_rng(seed)
            ref_one, ref_two = _random_pair(source), _random_pair(source)
            reference = self._gate_by_gate(ref_one, ref_two, random.Random(seed),
                                           self.OPS)
            assert (outcome.outcome_a, outcome.outcome_b) == reference
            built.clear()
            if outcome.success:
                kept = outcome.keep_a.state
                assert kept.qubits == [outcome.keep_a, outcome.keep_b]
                assert ref_one[0].state.qubits == list(ref_one)
                assert kept.dm.tobytes() == ref_one[0].state.dm.tobytes()


def _state_error_rates(qubit_a, qubit_b, bell_index: int):
    """Exact same-basis mismatch probabilities (e_Z, e_X) of a live pair.

    Computed from the state representation itself — weight sums on the
    Bell backend, Born-rule sums on the density matrix — so the result
    is deterministic, not sampled.
    """
    state = qubit_a.state
    if isinstance(state, BellPairState):
        weights = state.weights
        error_z = float(weights[bell_index ^ 1] + weights[bell_index ^ 3])
        error_x = float(weights[bell_index ^ 2] + weights[bell_index ^ 3])
        return error_z, error_x
    dm = state.dm
    assert dm.shape == (4, 4) and state.qubits == [qubit_a, qubit_b]
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)

    def mismatch(matrix, expected):
        odd = float(np.real(matrix[0b01, 0b01] + matrix[0b10, 0b10]))
        return odd if expected == 0 else 1.0 - odd

    rotated = np.kron(hadamard, hadamard)
    error_z = mismatch(dm, expected_xor(bell_index, "Z"))
    error_x = mismatch(rotated @ dm @ rotated.conj().T,
                       expected_xor(bell_index, "X"))
    return error_z, error_x


class TestQberWernerRelation:
    """Satellite pin: BBM92 QBER vs the analytic Werner relation."""

    FIDELITIES = [0.5, 0.55, 0.6211, 0.7, 0.75, 0.8, 0.8537, 0.9,
                  0.95, 0.975, 1.0]

    @pytest.mark.parametrize("backend_name", ["dm", "bell"])
    @pytest.mark.parametrize("bell_index", [0, 1, 2, 3])
    def test_state_error_rates_match_analytic(self, backend_name,
                                              bell_index):
        backend = get_backend(backend_name)
        for fidelity in self.FIDELITIES:
            p = (1.0 - fidelity) / 3.0
            weights = [p] * 4
            weights[bell_index] = fidelity
            qubit_a, qubit_b = backend.create_pair_from_weights(weights)
            error_z, error_x = _state_error_rates(qubit_a, qubit_b,
                                                  bell_index)
            analytic = 2.0 * (1.0 - fidelity) / 3.0
            assert error_z == pytest.approx(analytic, abs=1e-6)
            assert error_x == pytest.approx(analytic, abs=1e-6)

    @pytest.mark.parametrize("backend_name", ["dm", "bell"])
    def test_sifted_qber_converges_to_relation(self, backend_name):
        """The full measurement+sift path agrees statistically too."""
        from repro.quantum.operations import measure_qubit

        class Device:
            def __init__(self, rng):
                self.rng = rng

            def measure(self, qubit, basis="Z"):
                return measure_qubit(qubit, self.rng, basis), 0.0

        fidelity = 0.85
        backend = get_backend(backend_name)
        shared = random.Random(97)
        head = BBM92Endpoint(Device(random.Random(98)), shared)
        tail = BBM92Endpoint(Device(random.Random(99)), shared)
        from repro.core.requests import DeliveryStatus, PairDelivery

        p = (1.0 - fidelity) / 3.0
        for index in range(3000):
            qubit_a, qubit_b = backend.create_pair_from_weights(
                (fidelity, p, p, p))
            for endpoint, qubit in ((head, qubit_a), (tail, qubit_b)):
                endpoint.absorb(PairDelivery(
                    request_id="r", sequence=index,
                    status=DeliveryStatus.CONFIRMED, qubit=qubit,
                    measurement=None, bell_state=0,
                    pair_id=("s", index), t_created=0.0, t_delivered=0.0))
        key = sift(head, tail)
        analytic = 2.0 * (1.0 - fidelity) / 3.0
        assert key.sifted_rounds > 1000
        assert key.qber == pytest.approx(analytic, abs=0.02)
        assert key.qber_z == pytest.approx(analytic, abs=0.03)
        assert key.qber_x == pytest.approx(analytic, abs=0.03)
        assert key.errors_z + key.errors_x == round(key.qber
                                                    * key.sifted_rounds)


class TestDeutschFidelityMap:
    """Satellite pin: DEJMPS output fidelity on Werner inputs is exactly
    the Deutsch et al. closed form, across a grid of input fidelities."""

    @pytest.mark.parametrize("fidelity",
                             [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85,
                              0.9, 0.95])
    def test_success_lands_on_the_map(self, fidelity):
        rng = random.Random(int(fidelity * 1000))
        successes = 0
        for _ in range(80):
            pair_one = create_pair(werner_dm(fidelity))
            pair_two = create_pair(werner_dm(fidelity))
            outcome = dejmps_round(pair_one, pair_two, rng)
            if not outcome.success:
                continue
            successes += 1
            measured = pair_fidelity(outcome.keep_a, outcome.keep_b, 0)
            assert measured == pytest.approx(
                theoretical_dejmps_fidelity(fidelity), abs=1e-6)
            if successes >= 5:
                break
        assert successes >= 5, f"too few successes at F={fidelity}"

    def test_map_fixed_points(self):
        # F' = F at the F=1 and F=1/4 fixed points of the map
        assert theoretical_dejmps_fidelity(1.0) == pytest.approx(1.0)
        assert theoretical_dejmps_fidelity(0.25) == pytest.approx(0.25)


class TestQkdOverStack:
    def test_bbm92_produces_low_qber_key(self):
        net = build_chain_network(3, seed=21)
        circuit_id = net.establish_circuit("node0", "node2", 0.85)
        key = run_bbm92(net, circuit_id, num_pairs=60, timeout_s=600)
        # Roughly half the rounds survive sifting.
        assert key.sifted_rounds > 15
        assert 0.25 < key.sift_ratio < 0.75
        # F ≥ 0.85 pairs → QBER comfortably below the ~11% QKD limit.
        assert key.qber < 0.11
        assert len(key.key_bits) == key.sifted_rounds


class TestFidelityTestRounds:
    """Fidelity test rounds as the program runs them: the ``certify`` app
    sacrifices every ``probe_every``-th delivered pair of a circuit as a
    same-basis probe, alternating Z and X."""

    @staticmethod
    def certify(net, circuit_id, probes_per_basis, seed):
        app_cls = get_app("certify")
        ctx = AppContext(
            circuit_index=0, circuit_id=circuit_id, head="node0", tail="node2",
            head_device=net.node("node0").device,
            tail_device=net.node("node2").device,
            rng=random.Random(seed), estimated_fidelity=0.85,
            target_fidelity=0.85)
        app = app_cls(ctx)
        pairs = 2 * probes_per_basis * app_cls.probe_every
        handle = net.submit(circuit_id, UserRequest(num_pairs=pairs),
                            on_matched=app.consume)
        net.run_until_complete([handle], timeout_s=600)
        return app.estimate()

    def test_estimate_brackets_ground_truth(self):
        net = build_chain_network(3, seed=22)
        circuit_id = net.establish_circuit("node0", "node2", 0.85)
        estimate = self.certify(net, circuit_id, probes_per_basis=30, seed=22)
        assert estimate.rounds_z > 20
        assert estimate.rounds_x > 20
        # 1 − e_Z − e_X is a *lower* bound on fidelity (p0 − p3): it may sit
        # below the 0.85 target but must stay within statistical noise of
        # the plausible band and never exceed 1.
        noise = 3 * estimate.standard_error() + 0.03
        assert 0.70 <= estimate.fidelity_lower_bound <= 1.0
        assert estimate.fidelity_lower_bound >= 0.85 - 2 * (1 - 0.85) - noise

    def test_estimate_detects_bad_circuit(self):
        """Test rounds on a deliberately mis-budgeted circuit read low."""
        from repro.hardware import SIMULATION
        from repro.netsim.units import S

        net = build_chain_network(3, seed=23,
                                  params=SIMULATION.with_t2(0.02 * S))
        circuit_id = net.establish_circuit_manual(
            ["node0", "node1", "node2"], link_fidelity=0.9, cutoff=None,
            max_eer=100.0, estimated_fidelity=0.9)
        estimate = self.certify(net, circuit_id, probes_per_basis=25, seed=23)
        assert estimate.fidelity_lower_bound < 0.85
