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
    superoperator,
)
from .qubit import Qubit
from .states import SWAPPED_PAIR, QState, _TOL


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
    reported bits.  The remote halves of the two input pairs are left
    entangled with each other.

    Two distinct pairs take a fast path that never merges them: two
    Bell-diagonal pairs the O(1) XOR-convolution of
    :mod:`repro.quantum.bellstate`, two 2-qubit density matrices the
    bilinear kernel of :func:`_kernel_swap_measure`.  Every other
    configuration (a Bell pair with a density matrix, a shared state, a
    state of three or more qubits) merges the states on the exact engine
    and measures there, promoting Bell-diagonal pairs first; that path is
    also the oracle the fast paths are tested against.
    """
    state_a, state_b = qubit_a.state, qubit_b.state
    if (state_a is not state_b and isinstance(state_a, BellPairState)
            and isinstance(state_b, BellPairState)):
        outcome = swap_measure(qubit_a, qubit_b, rng,
                               two_qubit_depolar=ops.two_qubit_depolar_prob,
                               single_qubit_depolar=ops.single_qubit_depolar_prob)
    elif (state_a is not state_b and isinstance(state_a, QState)
            and isinstance(state_b, QState)
            and len(state_a.qubits) == 2 and len(state_b.qubits) == 2):
        outcome = _kernel_swap_measure(qubit_a, qubit_b, rng, ops)
    else:
        state = _ensure_joint(qubit_a, qubit_b)
        if ops.two_qubit_depolar_prob > 0:
            state.apply_channel(two_qubit_depolarizing_kraus(ops.two_qubit_depolar_prob),
                                [qubit_a, qubit_b])
        # Rotate the Bell basis onto the computational basis: CNOT then H on
        # the control maps |B_ab⟩ → |a⟩|b⟩.
        state.apply_superop(CNOT_SUPEROP, [qubit_a, qubit_b])
        state.apply_superop(H_SUPEROP, [qubit_a])
        if ops.single_qubit_depolar_prob > 0:
            state.apply_channel(depolarizing_kraus(ops.single_qubit_depolar_prob),
                                [qubit_a])
        phase_bit = state.measure(qubit_a, rng)
        outcome = (phase_bit << 1) | state.measure(qubit_b, rng)
    phase_bit = (outcome >> 1) & 1
    parity_bit = outcome & 1
    phase_bit ^= readout_flip(phase_bit, rng, ops)
    parity_bit ^= readout_flip(parity_bit, rng, ops)
    return (phase_bit << 1) | parity_bit


def _kernel_swap_measure(qubit_b1: Qubit, qubit_b2: Qubit, rng,
                         ops: NoisyOpParams) -> int:
    """The noisy BSM of the halves of two 2-qubit density matrices, unmerged.

    ``qubit_b1`` pairs with a remote ``A`` and ``qubit_b2`` with a remote
    ``C``.  One real product of :func:`_bsm_kernel` against
    ``vec(ρ_AB1) ⊗ vec(ρ_B2C)`` gives the four unnormalised A-C branches
    ``σ_o`` (``o = 2·phase + parity``) that the merged path would leave
    behind.  The draws are the merged path's, in its order: the phase bit
    from its marginal ``tr σ_{phase,0} + tr σ_{phase,1}``, then the parity
    bit conditioned on it.  ``[A, C]`` are rebound to the drawn branch, in
    the order the merged path leaves them.

    Returns the true two-bit outcome; the caller adds the readout flips.
    """
    state_a, state_b = qubit_b1.state, qubit_b2.state
    # The kernel reads ρ_AB1 in the order (A, B1) and ρ_B2C in (B2, C);
    # a pair stored the other way round is permuted by index, exactly.
    rho_ab = state_a.dm.reshape(16)
    if state_a.qubits[0] is qubit_b1:
        remote_a = state_a.qubits[1]
        rho_ab = rho_ab[SWAPPED_PAIR]
    else:
        remote_a = state_a.qubits[0]
    rho_bc = state_b.dm.reshape(16)
    if state_b.qubits[1] is qubit_b2:
        remote_c = state_b.qubits[0]
        rho_bc = rho_bc[SWAPPED_PAIR]
    else:
        remote_c = state_b.qubits[1]
    joint = np.multiply.outer(rho_ab, rho_bc).view(float).reshape(256, 2)
    branches = (_bsm_kernel(ops) @ joint).view(complex).reshape(4, 4, 4)
    traces = branches.trace(axis1=1, axis2=2).real.tolist()
    phase0 = traces[0] + traces[1]
    phase_bit = 0 if rng.random() < min(max(phase0, 0.0), 1.0) else 1
    norm = phase0 if phase_bit == 0 else traces[2] + traces[3]
    if norm <= _TOL:
        raise RuntimeError("measurement collapsed to zero-probability branch")
    parity0 = traces[2 * phase_bit] / norm
    parity_bit = 0 if rng.random() < min(max(parity0, 0.0), 1.0) else 1
    conditional = parity0 if parity_bit == 0 else traces[2 * phase_bit + 1] / norm
    if conditional <= _TOL:
        raise RuntimeError("measurement collapsed to zero-probability branch")
    dm = branches[2 * phase_bit + parity_bit] / norm / conditional
    for qubit in (qubit_b1, qubit_b2):
        qubit.state = None
    state_a.qubits = []
    state_b.qubits = []
    QState.from_trusted_dm(dm, [remote_a, remote_c])
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
    """Apply a noisy single-qubit gate.

    ``gate`` is the 2×2 unitary, or its prebuilt 4×4 superoperator (such as
    :data:`~repro.quantum.gates.RX_PLUS_SUPEROP`), which saves building it.
    """
    if qubit.state is None:
        raise ValueError("cannot operate on a freed qubit")
    state = _exact_state(qubit)
    state.apply_superop(_superop_of(gate, 1), [qubit])
    if ops.single_qubit_depolar_prob > 0:
        state.apply_channel(depolarizing_kraus(ops.single_qubit_depolar_prob), [qubit])


def apply_two_qubit_gate(control: Qubit, target: Qubit, gate: np.ndarray,
                         ops: NoisyOpParams = PERFECT_OPS) -> None:
    """Apply a noisy two-qubit gate (merging states if needed).

    ``gate`` is the 4×4 unitary, or its prebuilt 16×16 superoperator (such
    as :data:`~repro.quantum.gates.CNOT_SUPEROP`).
    """
    state = _ensure_joint(control, target)
    state.apply_superop(_superop_of(gate, 2), [control, target])
    if ops.two_qubit_depolar_prob > 0:
        state.apply_channel(two_qubit_depolarizing_kraus(ops.two_qubit_depolar_prob),
                            [control, target])


def _superop_of(gate: np.ndarray, targets: int) -> np.ndarray:
    """``gate`` itself when it is already a superoperator on ``targets``
    qubits (``4^k`` square), else the superoperator of the unitary."""
    return gate if gate.shape[0] == 4 ** targets else superoperator(gate)


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
def _branch_maps(two_qubit_depolar: float, single_qubit_depolar: float) -> np.ndarray:
    """Per-outcome branch maps ``G_o`` of the noisy BSM on (B1, B2).

    Returns ``G`` of shape (4, 2, 2, 2, 2), indexed ``[o, b1, b2, b1', b2']``:
    the unnormalised state left by true outcome ``o = 2·phase + parity`` is
    ``Σ G_o[b1 b2, b1' b2'] · ρ[.. b1 b2 .., .. b1' b2' ..]`` over the B1 B2
    indices of ρ, with B1 B2 traced out.  It folds in, in order, the
    two-qubit depolarizing Kraus terms on (B1, B2), the CNOT·H rotation of
    the Bell basis onto the computational basis and, when
    ``single_qubit_depolar`` is positive, the single-qubit depolarizing on
    B1.  Only the diagonal of B1 is measured, on which that channel's X and
    Y terms flip the phase bit and its Z term acts trivially, so it mixes
    each branch with its phase-flipped partner ``o ^ 2`` at weight 2p/3.

    :func:`_swap_kernel` weights these maps with readout and frames, and
    :func:`_bsm_kernel` spreads them over A and C; both are real because
    every entry of ``G`` is (see :func:`_swap_kernel`).  Read-only.
    """
    rotate = np.kron(H, I2) @ CNOT
    kraus = np.asarray(two_qubit_depolarizing_kraus(two_qubit_depolar))
    # rows[k, o, b] = ⟨o| (H⊗I)·CNOT·K_k |b⟩ on the B1 B2 register; outcome o
    # keeps only that row, so the branch of outcome o acts on ρ's B1 B2
    # indices as G_o[b, b'] = Σ_k rows[k, o, b] · conj(rows[k, o, b']).
    rows = rotate @ kraus
    branch = np.einsum("kob,koc->obc", rows, rows.conj())
    if single_qubit_depolar > 0:
        mix = 2.0 * single_qubit_depolar / 3.0
        branch = (1.0 - mix) * branch + mix * branch[[2, 3, 0, 1]]
    branch = branch.reshape(4, 2, 2, 2, 2)
    branch.setflags(write=False)
    return branch


@lru_cache(maxsize=64)
def _swap_kernel(ops: NoisyOpParams) -> np.ndarray:
    """Bilinear kernel of :func:`averaged_swap_dm` for one noise setting.

    Returns ``K`` of shape (256, 16) with ``vec(ρ_AC) = (K·vec(ρ_B2C))
    reshaped (16, 16) · vec(ρ_AB1)`` (row-major ``vec``).  It folds in, in
    order: the branch maps :func:`_branch_maps` of the noisy BSM on
    (B1, B2), the readout mislabel weights and the Pauli frame each
    reported outcome applies to C.

    ``K`` is exactly real: the depolarizing Kraus terms are each purely real
    or purely imaginary, so every ``K_k ρ K_k†`` term of the branch maps is
    real, and CNOT·H, the projectors and the frames I, X, Z, XZ are real.
    It is returned as read-only ``float64``.
    """
    branch = _branch_maps(ops.two_qubit_depolar_prob, ops.single_qubit_depolar_prob)
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
    return _real_kernel(kernel.reshape(256, 16))


@lru_cache(maxsize=64)
def _bsm_kernel(ops: NoisyOpParams) -> np.ndarray:
    """Kernel of :func:`_kernel_swap_measure` for one noise setting.

    Returns ``K`` of shape (64, 256): ``K · vec(vec(ρ_AB1) ⊗ vec(ρ_B2C))``
    holds the four unnormalised A-C branches, row index ``[o a c a' c']``
    against column index ``[a b1 a' b1'][b2 c b2' c']`` (row-major
    ``vec``).  It is :func:`_branch_maps` with identities on A and C.
    Read-only ``float64``, so the contraction against the complex joint
    vector, seen as ``(256, 2)`` real, is one real product.
    """
    branch = _branch_maps(ops.two_qubit_depolar_prob, ops.single_qubit_depolar_prob)
    kernel = np.einsum("ae,gh,cd,CD,oxyXY->oacgCexhXydYD", I2, I2, I2, I2, branch)
    return _real_kernel(kernel.reshape(64, 256))


def _real_kernel(kernel: np.ndarray) -> np.ndarray:
    """The real part of an exactly real complex kernel, contiguous and read-only."""
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
