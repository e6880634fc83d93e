"""Property tests pinning the Bell-diagonal backend to the exact engine.

The ``bell`` formalism claims exactness on the QNP hot path (Bell-diagonal
states under dephasing, depolarizing gate noise, entanglement swaps and
Pauli-basis measurements).  These tests enforce that claim against the
density-matrix engine and the closed forms of ``tests/analytic.py``,
plus the regression guarantees of the hot-path caches (memoized Kraus
operators and transpose permutations must never be mutated).
"""

import math
import random

import numpy as np
import pytest

import analytic
from repro.quantum.backends import (
    BellDiagonalBackend,
    DensityMatrixBackend,
    FORMALISMS,
    get_backend,
)
from repro.quantum.bell import BellIndex, swap_combine
from repro.quantum.bellstate import (
    XOR_IDX,
    BellPairState,
    create_bell_diagonal_pair,
    swap_measure,
)
from repro.quantum.channels import (
    decoherence_kraus,
    dephasing_kraus,
    depolarizing_kraus,
    two_qubit_depolarizing_kraus,
)
from repro.quantum.fidelity import pair_fidelity
from repro.quantum.operations import (
    NoisyOpParams,
    PERFECT_OPS,
    apply_gate,
    bell_state_measurement,
    measure_qubit,
    pauli_correct,
)
from repro.quantum.states import QState, _apply_left
from repro.quantum.gates import rx

WEIGHTS = (0.8, 0.1, 0.06, 0.04)

#: Gate noise without readout errors: the post-swap corrected fidelity is
#: then outcome-independent, so both engines must agree deterministically.
NOISY_GATES = NoisyOpParams(two_qubit_gate_fidelity=0.99,
                            single_qubit_gate_fidelity=0.995)


def _swap_chain_fidelity(backend, ops, elapsed=2e9, t2=60e9) -> float:
    """End-to-end fidelity of a 4-node swap chain with dephasing memory."""
    rng = random.Random(11)
    pairs = [backend.create_pair_from_weights(WEIGHTS) for _ in range(3)]
    # Every qubit idles in dephasing memory before its swap (T1 disabled so
    # both formalisms are exact).
    for qubit_a, qubit_b in pairs:
        qubit_a.state.apply_decoherence(elapsed, math.inf, t2, qubit_a)
        qubit_b.state.apply_decoherence(elapsed, math.inf, t2, qubit_b)
    outcome_1 = bell_state_measurement(pairs[0][1], pairs[1][0], rng, ops)
    outcome_2 = bell_state_measurement(pairs[1][1], pairs[2][0], rng, ops)
    # Lazy tracking: fold both outcomes into one frame correction at the end.
    pauli_correct(pairs[2][1], swap_combine(outcome_1, outcome_2, 0), ops)
    return pair_fidelity(pairs[0][0], pairs[2][1], 0)


def test_backend_registry():
    assert set(FORMALISMS) >= {"dm", "bell"}
    assert isinstance(get_backend("dm"), DensityMatrixBackend)
    assert isinstance(get_backend("bell"), BellDiagonalBackend)
    assert get_backend(None).name == "dm"
    backend = get_backend("bell")
    assert get_backend(backend) is backend
    with pytest.raises(ValueError, match="unknown state formalism"):
        get_backend("tensor-network")


def test_chain_fidelity_agreement_perfect_ops():
    fid_dm = _swap_chain_fidelity(get_backend("dm"), PERFECT_OPS)
    fid_bell = _swap_chain_fidelity(get_backend("bell"), PERFECT_OPS)
    assert fid_bell == pytest.approx(fid_dm, abs=1e-6)
    # And both match the closed form: dephase each link, then XOR-convolve.
    expected = analytic.chain_weights(
        analytic.dephased_weights(WEIGHTS, 2e9, 60e9, both_sides=True), 3)[0]
    assert fid_bell == pytest.approx(expected, abs=1e-9)


def test_chain_fidelity_agreement_noisy_gates():
    """The acceptance property: a 4-node swap chain with dephasing memory
    and noisy gates lands on the same end-to-end fidelity in both
    formalisms (within 1e-6), for several memory/noise settings."""
    for elapsed, t2 in ((0.0, 60e9), (1e9, 60e9), (5e9, 1.46e9)):
        fid_dm = _swap_chain_fidelity(get_backend("dm"), NOISY_GATES,
                                      elapsed, t2)
        fid_bell = _swap_chain_fidelity(get_backend("bell"), NOISY_GATES,
                                        elapsed, t2)
        assert fid_bell == pytest.approx(fid_dm, abs=1e-6), (elapsed, t2)


def test_dephased_storage_agreement():
    for backend_name in FORMALISMS:
        backend = get_backend(backend_name)
        qubit_a, qubit_b = backend.create_pair_from_weights(
            analytic.werner_weights(0.93))
        for qubit in (qubit_a, qubit_b):
            qubit.state.apply_decoherence(3e9, math.inf, 60e9, qubit)
        expected = analytic.fidelity_after_storage(0.93, 3e9, 60e9,
                                                   both_sides=True)
        assert pair_fidelity(qubit_a, qubit_b, 0) == pytest.approx(
            expected, abs=1e-9), backend_name


def test_qber_agreement():
    """Measured disagreement rates match the analytic QBER in Z and X for
    both backends (binomial tolerance)."""
    trials = 3000
    for basis, qber in (("Z", analytic.qber_z(WEIGHTS)),
                        ("X", analytic.qber_x(WEIGHTS))):
        for backend_name in FORMALISMS:
            rng = random.Random(17)
            backend = get_backend(backend_name)
            errors = 0
            for _ in range(trials):
                qubit_a, qubit_b = backend.create_pair_from_weights(WEIGHTS)
                if measure_qubit(qubit_a, rng, basis) != \
                        measure_qubit(qubit_b, rng, basis):
                    errors += 1
            tolerance = 4.0 * math.sqrt(qber * (1 - qber) / trials)
            assert abs(errors / trials - qber) < tolerance, (basis,
                                                             backend_name)


def test_measurement_collapses_partner_exactly():
    """After one half is measured, the partner holds the exact conditional
    single-qubit state in the measured basis."""
    qubit_a, qubit_b = get_backend("bell").create_pair_from_weights(WEIGHTS)
    rng = random.Random(3)
    bit = measure_qubit(qubit_a, rng, "Z")
    assert qubit_a.state is None
    partner_state = qubit_b.state
    assert isinstance(partner_state, QState)
    flip = analytic.qber_z(WEIGHTS)
    expected = np.diag([1 - flip, flip] if bit == 0 else [flip, 1 - flip])
    assert np.allclose(partner_state.dm, expected, atol=1e-12)


def test_promotion_on_exotic_operations():
    """Operations outside the Bell-diagonal family promote to the exact
    engine transparently — same handles, same fidelity."""
    qubit_a, qubit_b = get_backend("bell").create_pair_from_weights(WEIGHTS)
    assert isinstance(qubit_a.state, BellPairState)
    apply_gate(qubit_a, rx(0.3))
    assert isinstance(qubit_a.state, QState)
    assert qubit_a.state is qubit_b.state
    # Undo the rotation: the original weights must survive the round trip.
    apply_gate(qubit_a, rx(-0.3))
    for index, weight in enumerate(WEIGHTS):
        assert pair_fidelity(qubit_a, qubit_b, index) == pytest.approx(
            weight, abs=1e-9)


def test_remove_leaves_partner_maximally_mixed():
    qubit_a, qubit_b = get_backend("bell").create_pair_from_weights(WEIGHTS)
    qubit_a.state.remove(qubit_a)
    assert qubit_a.state is None
    assert np.allclose(qubit_b.state.dm, np.eye(2) / 2.0)


def test_bell_pauli_frame_permutes_weights():
    qubit_a, qubit_b = get_backend("bell").create_pair_from_weights(WEIGHTS)
    for frame in range(4):
        expected_index = frame  # X^b Z^a maps B0 weight onto B_frame
        qubit_a, qubit_b = get_backend("bell").create_pair_from_weights(
            analytic.werner_weights(0.9))
        pauli_correct(qubit_b, frame)
        assert pair_fidelity(qubit_a, qubit_b, expected_index) == \
            pytest.approx(0.9, abs=1e-12)


def test_swap_outcomes_uniform_and_tracked():
    """BSM outcomes are uniform and the tracked frame is consistent: the
    corrected fidelity never depends on the sampled outcome."""
    rng = random.Random(23)
    seen = set()
    fidelities = set()
    for _ in range(64):
        pair_one = get_backend("bell").create_pair_from_weights(WEIGHTS)
        pair_two = get_backend("bell").create_pair_from_weights(WEIGHTS)
        outcome = bell_state_measurement(pair_one[1], pair_two[0], rng)
        seen.add(outcome)
        pauli_correct(pair_two[1], outcome)
        fidelities.add(round(pair_fidelity(pair_one[0], pair_two[1], 0), 12))
    assert seen == {0, 1, 2, 3}
    assert len(fidelities) == 1
    assert fidelities.pop() == pytest.approx(
        analytic.swap_weights(WEIGHTS, WEIGHTS)[0], abs=1e-12)


class _FixedRng:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def _norm(weights):
    arr = np.asarray(weights, dtype=float)
    return arr / arr.sum()


class TestSwapMeasure:
    @pytest.mark.parametrize("outcome", [0, 1, 2, 3])
    @pytest.mark.parametrize("p2,p1", [(0.0, 0.0), (0.02, 0.005)])
    def test_swap_measure_matches_manual_convolution(self, outcome, p2, p1):
        wa = _norm((0.9, 0.04, 0.04, 0.02))
        wb = _norm((0.8, 0.1, 0.05, 0.05))
        qa0, qa1 = create_bell_diagonal_pair(wa)
        qb0, qb1 = create_bell_diagonal_pair(wb)
        # Manual closed form: XOR-convolution + gate noise + outcome frame.
        convolved = np.array([
            sum(wa[j] * wb[k ^ j] for j in range(4)) for k in range(4)])
        convolved = ((1 - 16 * p2 / 15) * convolved + (16 * p2 / 15) / 4)
        mix = 2 * p1 / 3
        convolved = (1 - mix) * convolved + mix * convolved[XOR_IDX[2]]
        expected = convolved[XOR_IDX[outcome]]

        got_outcome = swap_measure(qa1, qb0, _FixedRng(outcome / 4.0),
                                   two_qubit_depolar=p2,
                                   single_qubit_depolar=p1)
        assert got_outcome == outcome
        new_state = qa0.state
        assert isinstance(new_state, BellPairState)
        assert new_state is qb1.state
        np.testing.assert_allclose(new_state.weights, expected, atol=1e-9)
        assert new_state.weights.sum() == pytest.approx(1.0, abs=1e-9)
        new_state.remove(qa0)


def test_trusted_weights_are_copied():
    """Link pairs are built from memoised read-only weight arrays; every
    state must own a private copy that its channels evolve."""
    from repro.hardware import HeraldedConnection, SIMULATION, SingleClickModel

    model = SingleClickModel(SIMULATION, HeraldedConnection.lab(0.002))
    make_pair = get_backend("bell").link_pair_factory(model, 0.05)
    shared = model.produced_weights(0.05, BellIndex.PSI_PLUS)
    before = shared.copy()
    qubit_a, qubit_b = make_pair(BellIndex.PSI_PLUS, "a", "b")
    twin_a, twin_b = make_pair(BellIndex.PSI_PLUS, "c", "d")
    state = qubit_a.state
    assert state.weights is not shared
    assert state.weights is not twin_a.state.weights
    state.apply_dephasing(0.2, qubit_a)
    state.apply_pauli(1, qubit_b)
    np.testing.assert_array_equal(shared, before)
    np.testing.assert_array_equal(twin_a.state.weights, before)


# ----------------------------------------------------------------------
# Hot-path cache regressions
# ----------------------------------------------------------------------

def test_cached_kraus_operators_are_shared_and_immutable():
    for build, args in ((dephasing_kraus, (0.2,)),
                        (depolarizing_kraus, (0.1,)),
                        (two_qubit_depolarizing_kraus, (0.05,)),
                        (decoherence_kraus, (1e6, 3.6e12, 6e10))):
        first = build(*args)
        second = build(*args)
        assert first is second, build.__name__
        for op in first:
            assert not op.flags.writeable
            with pytest.raises(ValueError):
                op[0, 0] = 99.0


def test_cached_kraus_survive_channel_application():
    """Applying a cached channel must not corrupt the cached operators."""
    ops_before = [op.copy() for op in decoherence_kraus(2e6, 3.6e12, 6e10)]
    for _ in range(3):
        qubit_a, qubit_b = get_backend("dm").create_pair_from_weights(WEIGHTS)
        state = qubit_a.state
        state.apply_channel(decoherence_kraus(2e6, 3.6e12, 6e10), [qubit_a])
        state.measure(qubit_a, random.Random(1))
    for before, after in zip(ops_before, decoherence_kraus(2e6, 3.6e12, 6e10)):
        assert np.array_equal(before, after)


def test_cached_permutations_are_correct():
    """The memoized transpose permutations reproduce the direct contraction
    for every (n, targets) pair used by the engine."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 4):
        dm = rng.normal(size=(2 ** n, 2 ** n)) \
            + 1j * rng.normal(size=(2 ** n, 2 ** n))
        op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for target in range(n):
            expanded = [np.eye(2, dtype=complex)] * n
            expanded[target] = op
            full = expanded[0]
            for factor in expanded[1:]:
                full = np.kron(full, factor)
            direct = full @ dm
            via_engine = _apply_left(dm, op, [target], n)
            assert np.allclose(direct, via_engine, atol=1e-10), (n, target)


def test_produced_dm_memoized_and_read_only():
    from repro.hardware import HeraldedConnection, SIMULATION, SingleClickModel

    model = SingleClickModel(SIMULATION, HeraldedConnection.lab(0.002))
    dm_one = model.produced_dm(0.05, BellIndex.PSI_PLUS)
    dm_two = model.produced_dm(0.05, BellIndex.PSI_PLUS)
    assert dm_one is dm_two
    assert not dm_one.flags.writeable
    with pytest.raises(ValueError):
        dm_one[0, 0] = 1.0
    weights = model.produced_weights(0.05, BellIndex.PSI_PLUS)
    assert weights is model.produced_weights(0.05, BellIndex.PSI_PLUS)
    assert not weights.flags.writeable
    # The weights are the exact Bell diagonal of the produced dm.
    from repro.quantum.bell import bell_diagonal_weights

    assert np.allclose(weights, bell_diagonal_weights(dm_one), atol=1e-12)
    # Distinct parameters get distinct entries.
    assert model.produced_dm(0.06, BellIndex.PSI_MINUS) is not dm_one


def test_formalism_threads_through_the_stack():
    """The knob reaches every layer and the full stack delivers pairs whose
    oracle fidelity is a plain weight lookup."""
    from repro.core.requests import UserRequest
    from repro.network.builder import build_chain_network

    net = build_chain_network(3, seed=5, formalism="bell")
    assert net.formalism == "bell"
    for node in net.nodes.values():
        assert node.backend.name == "bell"
    for link in net.links.values():
        assert link.backend.name == "bell"
    circuit_id = net.establish_circuit("node0", "node2", 0.8)
    matched_pairs = []
    handle = net.submit(circuit_id, UserRequest(num_pairs=2),
                        on_matched=matched_pairs.append)
    net.run_until_complete([handle], timeout_s=120.0)
    assert len(matched_pairs) == 2
    for matched in matched_pairs:
        assert 0.5 < matched.fidelity <= 1.0


def test_alpha_for_fidelity_cached_and_unchanged():
    from repro.hardware import HeraldedConnection, SIMULATION, SingleClickModel

    model = SingleClickModel(SIMULATION, HeraldedConnection.lab(0.002))
    alpha = model.alpha_for_fidelity(0.9)
    assert model.alpha_for_fidelity(0.9) == alpha
    assert model.fidelity(alpha) >= 0.9
    # The cached scan agrees with the scalar fidelity formula on the grid.
    grid, fidelities = model._fidelity_grid
    sampled = [0, 57, 133, 250, 399]
    for index in sampled:
        assert fidelities[index] == pytest.approx(
            model.fidelity(float(grid[index])), abs=1e-12)
