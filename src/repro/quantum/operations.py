"""High-level quantum operations used by the protocol stack.

Everything protocols do to qubits goes through this module:

* creating entangled pairs from a density matrix (link layer),
* noisy Bell-state measurements (entanglement swaps, Alg. 7),
* Pauli frame corrections (head-end TRACK rule, Alg. 2),
* noisy single-qubit measurements in X/Y/Z (MEASURE requests, QKD,
  distillation),
* the outcome-averaged swap map used by the routing protocol's worst-case
  fidelity budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from .bellstate import (
    BellPairState,
    exact_state as _exact_state,
    readout_flip,
    swap_measure,
)
from .channels import two_qubit_depolarizing_kraus, depolarizing_kraus
from .gates import (
    BASIS_ROTATION_SUPEROPS,
    CNOT,
    CNOT_SUPEROP,
    H,
    H_SUPEROP,
    I2,
    PAULI_FRAME,
)
from .qubit import Qubit
from .states import QState


@dataclass(frozen=True)
class NoisyOpParams:
    """Noise knobs for a physical operation, mirroring Table 1.

    ``fidelity`` maps onto a depolarizing channel around the ideal unitary;
    readout errors flip the reported classical bit.
    """

    two_qubit_gate_fidelity: float = 1.0
    single_qubit_gate_fidelity: float = 1.0
    readout_error0: float = 0.0
    readout_error1: float = 0.0

    @property
    def two_qubit_depolar_prob(self) -> float:
        """Depolarizing probability equivalent to the two-qubit gate fidelity.

        For a two-qubit depolarizing channel the average gate fidelity is
        ``1 - 4p/5`` (d=4: F = 1 - p·d/(d+1)); we invert that relation and
        clamp to [0, 1].
        """
        p = (1.0 - self.two_qubit_gate_fidelity) * 5.0 / 4.0
        return min(max(p, 0.0), 1.0)

    @property
    def single_qubit_depolar_prob(self) -> float:
        """Depolarizing probability for single-qubit gates (F = 1 - 2p/3)."""
        p = (1.0 - self.single_qubit_gate_fidelity) * 3.0 / 2.0
        return min(max(p, 0.0), 1.0)


PERFECT_OPS = NoisyOpParams()


def create_pair(dm: np.ndarray, name_a: str = "", name_b: str = "") -> Tuple[Qubit, Qubit]:
    """Create two fresh qubits holding the given two-qubit density matrix."""
    qubit_a = Qubit(name_a)
    qubit_b = Qubit(name_b)
    QState(np.asarray(dm, dtype=complex), [qubit_a, qubit_b])
    return qubit_a, qubit_b


def create_bell_pair(index: int = 0, fidelity: float = 1.0,
                     name_a: str = "", name_b: str = "") -> Tuple[Qubit, Qubit]:
    """Create a (possibly Werner-noisy) Bell pair."""
    from .bell import werner_dm

    return create_pair(werner_dm(fidelity, index), name_a, name_b)


def _ensure_joint(qubit_a: Qubit, qubit_b: Qubit) -> QState:
    if qubit_a.state is None or qubit_b.state is None:
        raise ValueError("operation on freed qubit")
    if qubit_a.state is qubit_b.state:
        return _exact_state(qubit_a)
    return QState.merge(_exact_state(qubit_a), _exact_state(qubit_b))


def bell_state_measurement(qubit_a: Qubit, qubit_b: Qubit, rng,
                           ops: NoisyOpParams = PERFECT_OPS) -> int:
    """Perform a noisy Bell-state measurement on two co-located qubits.

    This is the physical core of the entanglement swap: the two qubits are
    consumed (measured out and removed from their state) and the packed
    two-bit outcome index is returned, with readout errors applied to the
    reported bits.  The remaining qubits of the merged state — the remote
    halves of the two input pairs — are left entangled with each other.

    When both qubits are halves of two distinct Bell-diagonal pairs the
    whole measurement collapses to the O(1) XOR-convolution fast path of
    :mod:`repro.quantum.bellstate`; any other configuration promotes to the
    exact engine.
    """
    if (isinstance(qubit_a.state, BellPairState)
            and isinstance(qubit_b.state, BellPairState)
            and qubit_a.state is not qubit_b.state):
        outcome = swap_measure(qubit_a, qubit_b, rng,
                               two_qubit_depolar=ops.two_qubit_depolar_prob,
                               single_qubit_depolar=ops.single_qubit_depolar_prob)
        phase_bit = (outcome >> 1) & 1
        parity_bit = outcome & 1
        phase_bit ^= readout_flip(phase_bit, rng, ops)
        parity_bit ^= readout_flip(parity_bit, rng, ops)
        return (phase_bit << 1) | parity_bit
    state = _ensure_joint(qubit_a, qubit_b)
    if ops.two_qubit_depolar_prob > 0:
        state.apply_channel(two_qubit_depolarizing_kraus(ops.two_qubit_depolar_prob),
                            [qubit_a, qubit_b])
    # Rotate the Bell basis onto the computational basis: CNOT then H on the
    # control maps |B_ab⟩ → |a⟩|b⟩.
    state.apply_superop(CNOT_SUPEROP, [qubit_a, qubit_b])
    state.apply_superop(H_SUPEROP, [qubit_a])
    if ops.single_qubit_depolar_prob > 0:
        state.apply_channel(depolarizing_kraus(ops.single_qubit_depolar_prob), [qubit_a])
    phase_bit = state.measure(qubit_a, rng)
    parity_bit = state.measure(qubit_b, rng)
    phase_bit ^= readout_flip(phase_bit, rng, ops)
    parity_bit ^= readout_flip(parity_bit, rng, ops)
    return (phase_bit << 1) | parity_bit


def measure_qubit(qubit: Qubit, rng, basis: str = "Z",
                  ops: NoisyOpParams = PERFECT_OPS) -> int:
    """Noisy single-qubit measurement in the X, Y or Z basis.

    The qubit is consumed.  Returns the reported (possibly misread) bit.
    """
    if qubit.state is None:
        raise ValueError("cannot measure a freed qubit")
    basis = basis.upper()
    if basis not in BASIS_ROTATION_SUPEROPS:
        raise ValueError(f"unknown basis {basis!r}")
    state = qubit.state
    if isinstance(state, BellPairState):
        # O(1) fast path: depolarizing commutes with the basis rotation
        # (it is unitarily covariant), so apply it to the weights and
        # sample directly; the partner collapses to its exact conditional
        # single-qubit state.
        if ops.single_qubit_depolar_prob > 0:
            state.apply_depolarizing(ops.single_qubit_depolar_prob, qubit)
        bit = state.measure_in_basis(qubit, basis, rng)
        return bit ^ readout_flip(bit, rng, ops)
    rotation = BASIS_ROTATION_SUPEROPS[basis]
    if rotation is not None:
        state.apply_superop(rotation, [qubit])
    if ops.single_qubit_depolar_prob > 0:
        state.apply_channel(depolarizing_kraus(ops.single_qubit_depolar_prob), [qubit])
    bit = state.measure(qubit, rng)
    return bit ^ readout_flip(bit, rng, ops)


def pauli_correct(qubit: Qubit, frame_index: int,
                  ops: NoisyOpParams = PERFECT_OPS) -> None:
    """Apply the Pauli frame ``X^b Z^a`` to one qubit of a pair.

    Used by the head-end node to rotate a delivered pair into the Bell state
    the application asked for (``final_state`` in the FORWARD message).
    """
    if qubit.state is None:
        raise ValueError("cannot correct a freed qubit")
    frame_index = int(frame_index) & 0b11
    if frame_index == 0:
        return
    state = qubit.state
    state.apply_pauli(frame_index, qubit)
    if ops.single_qubit_depolar_prob > 0:
        state.apply_depolarizing(ops.single_qubit_depolar_prob, qubit)


def apply_gate(qubit: Qubit, gate: np.ndarray, ops: NoisyOpParams = PERFECT_OPS) -> None:
    """Apply a noisy single-qubit gate."""
    if qubit.state is None:
        raise ValueError("cannot operate on a freed qubit")
    qubit.state.apply_unitary(gate, [qubit])
    if ops.single_qubit_depolar_prob > 0:
        qubit.state.apply_channel(depolarizing_kraus(ops.single_qubit_depolar_prob), [qubit])


def apply_two_qubit_gate(control: Qubit, target: Qubit, gate: np.ndarray,
                         ops: NoisyOpParams = PERFECT_OPS) -> None:
    """Apply a noisy two-qubit gate (merging states if needed)."""
    state = _ensure_joint(control, target)
    state.apply_unitary(gate, [control, target])
    if ops.two_qubit_depolar_prob > 0:
        state.apply_channel(two_qubit_depolarizing_kraus(ops.two_qubit_depolar_prob),
                            [control, target])


def discard(*qubits: Qubit) -> None:
    """Drop qubits from their states (cutoff discard, Alg. 9).

    A state whose every qubit is discarded is detached whole, with no
    partial trace; otherwise each qubit is traced out of its state.
    Qubits that are already stateless are skipped.
    """
    for qubit in qubits:
        state = qubit.state
        if state is None:
            continue
        if all(member in qubits for member in state.qubits):
            for member in state.qubits:
                member.state = None
            state.qubits = []
        else:
            state.remove(qubit)


# ----------------------------------------------------------------------
# Deterministic swap map for the routing protocol's fidelity budget
# ----------------------------------------------------------------------

def averaged_swap_dm(rho_ab: np.ndarray, rho_bc: np.ndarray,
                     ops: NoisyOpParams = PERFECT_OPS) -> np.ndarray:
    """Outcome-averaged, frame-corrected entanglement-swap map.

    The map takes two pairs (A-B1, B2-C), applies the noisy Bell-state
    measurement on (B1, B2) — all four outcomes at once — and returns the
    average A-C density matrix after each branch has been Pauli-corrected
    back to the Φ+ frame (exactly what lazy tracking achieves logically).
    Readout errors are folded in as classical mislabel branches: a
    misreported outcome means the tracking applies the wrong frame, so the
    mislabeled branch contributes its state corrected in the wrong frame.

    The map is bilinear in the two input pairs, so it is one contraction
    against the precomputed :func:`_swap_kernel` of ``ops`` (a few µs per
    call).  The routing protocol composes it L−1 times over
    worst-case-aged link states to budget per-link fidelity (Sec. 5).

    The kernel is real, so it contracts against ``ρ_B2C`` seen as a
    ``(16, 2)`` float array of (real, imaginary) parts: a real product,
    which skips the multi-threaded complex mat-vec path of the BLAS
    (milliseconds per call at this shape, against microseconds).
    """
    kernel = _swap_kernel(ops)
    rho_ab = np.asarray(rho_ab, dtype=complex).reshape(16)
    rho_bc = np.ascontiguousarray(rho_bc, dtype=complex).reshape(16)
    middle = (kernel @ rho_bc.view(float).reshape(16, 2)).view(complex)
    return (middle.reshape(16, 16) @ rho_ab).reshape(4, 4)


@lru_cache(maxsize=64)
def _swap_kernel(ops: NoisyOpParams) -> np.ndarray:
    """Bilinear kernel of :func:`averaged_swap_dm` for one noise setting.

    Returns ``K`` of shape (256, 16) with ``vec(ρ_AC) = (K·vec(ρ_B2C))
    reshaped (16, 16) · vec(ρ_AB1)`` (row-major ``vec``).  It folds in, in
    order: the two-qubit depolarizing Kraus terms on (B1, B2), the CNOT·H
    rotation of the Bell basis onto the computational basis, the four
    outcome projectors with the trace over B1 B2, the readout mislabel
    weights and the Pauli frame each reported outcome applies to C.

    ``K`` is exactly real: the depolarizing Kraus terms are each purely real
    or purely imaginary, so every ``K_k ρ K_k†`` term of the branch maps is
    real, and CNOT·H, the projectors and the frames I, X, Z, XZ are real.
    It is returned as read-only ``float64``.
    """
    rotate = np.kron(H, I2) @ CNOT
    kraus = np.asarray(two_qubit_depolarizing_kraus(ops.two_qubit_depolar_prob))
    # rows[k, o, b] = ⟨o| (H⊗I)·CNOT·K_k |b⟩ on the B1 B2 register; outcome o
    # keeps only that row, so the branch of outcome o acts on ρ's B1 B2
    # indices as G_o[b, b'] = Σ_k rows[k, o, b] · conj(rows[k, o, b']).
    rows = rotate @ kraus
    branch = np.einsum("kob,koc->obc", rows, rows.conj()).reshape(4, 2, 2, 2, 2)
    # Frame correction F_r = I⊗P_r on C: (F† ρ F)[ac, a'c'] =
    # Σ conj(P_r[d, c]) ρ[ad, a'd'] P_r[d', c'].
    paulis = np.asarray(PAULI_FRAME)
    frames = np.einsum("rdc,reg->rdceg", paulis.conj(), paulis)
    weights = np.array([[_report_probability(outcome, reported, ops)
                         for reported in range(4)] for outcome in range(4)])
    # core[c, c', b1, b1', b2, b2', d, d'] =
    #     Σ_{o,r} w(o, r) · G_o[b1 b2, b1' b2'] · frames[r, d, c, d', c'].
    core = np.einsum("or,oxyXY,rdcDC->cCxXyYdD", weights, branch, frames)
    # A passes straight through: spread it with identities into the
    # (ρ_AC, ρ_AB1, ρ_B2C) index layout [a c a' c'][a b1 a' b1'][b2 d b2' d'].
    kernel = np.einsum("ae,gh,cCxXyYdD->acgCexhXydYD", I2, I2, core)
    kernel = kernel.reshape(256, 16)
    assert not kernel.imag.any(), "swap kernel must be real"
    kernel = np.ascontiguousarray(kernel.real)
    kernel.setflags(write=False)
    return kernel


def _report_probability(true_outcome: int, reported: int, ops: NoisyOpParams) -> float:
    """Probability that ``true_outcome`` is reported as ``reported``."""
    prob = 1.0
    for shift in (1, 0):
        true_bit = (true_outcome >> shift) & 1
        reported_bit = (reported >> shift) & 1
        error = ops.readout_error0 if true_bit == 0 else ops.readout_error1
        prob *= error if true_bit != reported_bit else (1.0 - error)
    return prob


def teleport(data_qubit: Qubit, pair_near: Qubit, pair_far: Qubit, rng,
             ops: NoisyOpParams = PERFECT_OPS) -> Qubit:
    """Teleport ``data_qubit`` through the pair (near, far).

    Performs the BSM on (data, near), applies the conditional Pauli
    correction on ``far`` and returns it.  Assumes the pair is (reported to
    be) in Φ+; callers holding other Bell states should `pauli_correct`
    first — exactly the workflow the QNP's final_state field enables.
    """
    outcome = bell_state_measurement(data_qubit, pair_near, rng, ops)
    # For Φ+ the correction is the outcome frame itself.
    pauli_correct(pair_far, outcome, ops)
    return pair_far
