"""Bell-diagonal two-qubit states — the fast state formalism.

A :class:`BellPairState` represents an entangled pair as a 4-vector of
weights over the Bell basis of :mod:`repro.quantum.bell` instead of a 4×4
density matrix.  Every operation the protocol stack performs on link pairs
— memory dephasing, Pauli frame corrections, depolarizing gate noise,
Bell-state measurements (entanglement swaps) and single-qubit measurements —
maps to O(1) arithmetic on those four numbers, replacing the exact engine's
O(4^n) tensor contractions.  The closed forms are the ones of
:mod:`repro.quantum.analytic`, which the property tests pin against the
exact engine.

Each state owns its weights as a length-4 float64 array in the ``weights``
slot.  Every channel computes a fresh array and rebinds ``weights``; no
operation writes into an existing array, so states may be built from
shared, read-only inputs (the memoised link-pair weights) once
:meth:`BellPairState.from_trusted_weights` has copied them.

Exactness:

* **Exact** for Bell-diagonal inputs under dephasing, Pauli frames,
  single/two-qubit depolarizing noise, entanglement swaps and Pauli-basis
  measurements (the entire QNP hot path).
* **Twirled approximation** for amplitude damping (T1) — the channel leaves
  the Bell-diagonal family, so the state is re-projected onto its Bell
  weights after each step (the projection preserves the fidelity of the
  single step exactly; composition is approximate).  With the paper's
  T1 ≫ T2 parameters the deviation is negligible.
* **Promotes itself** to an exact :class:`~repro.quantum.states.QState` the
  moment a caller requests an operation outside the closed family (arbitrary
  unitaries, merges with other states, distillation circuits), so nothing is
  ever silently wrong — only slower.

The weight vector is always expressed in the *physical* frame: ``weights[k]``
is the fidelity of the pair to Bell state ``k``.  Entanglement tracking
(Pauli frame XOR algebra) therefore behaves identically to the exact engine.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .bell import bell_diagonal_dm
from .channels import decoherence_probabilities
from .qubit import Qubit
from .states import QState

#: Basis labels the measurement fast path understands.
_PAULI_BASES = ("Z", "X", "Y")

#: ``XOR_IDX[k, i] = k ^ i`` — index table for Klein four-group convolutions
#: and Pauli-frame permutations without Python loops.
XOR_IDX = np.array([[k ^ i for i in range(4)] for k in range(4)])


class BellPairState:
    """An entangled pair stored as Bell-basis weights.

    Mirrors the subset of the :class:`QState` interface the protocol stack
    uses on link pairs; anything else triggers :meth:`promote`.
    """

    __slots__ = ("weights", "qubits")

    def __init__(self, weights: Sequence[float], qubits: Sequence[Qubit]):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (4,):
            raise ValueError("need four Bell weights")
        if np.any(weights < -1e-9) or abs(weights.sum() - 1.0) > 1e-6:
            raise ValueError("weights must be a probability vector")
        if len(qubits) != 2:
            raise ValueError("a Bell pair has exactly two qubits")
        weights = np.clip(weights, 0.0, None)
        self.weights = weights / weights.sum()
        self.qubits = list(qubits)
        for qubit in self.qubits:
            if qubit.state is not None and qubit.state is not self:
                raise ValueError(f"{qubit.name} already belongs to another state")
            qubit.state = self

    @classmethod
    def from_trusted_weights(cls, weights: np.ndarray,
                             qubits: Sequence[Qubit]) -> "BellPairState":
        """Bind fresh qubits to pre-validated weights without re-checking.

        The hot-path constructor: link-pair materialisation and swap output
        states pass weights that are normalised by construction, so the
        validation arithmetic of ``__init__`` would be pure overhead.  The
        weights are copied: callers pass memoised arrays that must never
        change.
        """
        state = object.__new__(cls)
        state.weights = weights.copy()
        state.qubits = list(qubits)
        for qubit in state.qubits:
            qubit.state = state
        return state

    # ------------------------------------------------------------------
    # Introspection (QState-compatible surface)
    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def index_of(self, qubit: Qubit) -> int:
        return self.qubits.index(qubit)

    def partner_of(self, qubit: Qubit) -> Qubit:
        return self.qubits[1 - self.index_of(qubit)]

    def trace(self) -> float:
        return float(self.weights.sum())

    def is_valid(self, tol: float = 1e-7) -> bool:
        return bool(np.all(self.weights >= -tol)
                    and abs(self.weights.sum() - 1.0) <= tol)

    def fidelity_to(self, bell_index: int) -> float:
        """Fidelity to Bell state ``bell_index`` — just a weight lookup."""
        return float(self.weights[int(bell_index) & 0b11])

    # ------------------------------------------------------------------
    # Closed-family evolution (all O(1); each rebinds ``weights``)
    # ------------------------------------------------------------------

    def apply_pauli(self, frame_index: int, qubit: Qubit) -> None:
        """Pauli ``X^b Z^a`` on one qubit: XOR-permutes the weights."""
        frame_index = int(frame_index) & 0b11
        if frame_index:
            self.weights = self.weights[XOR_IDX[frame_index]]

    def apply_dephasing(self, p: float, qubit: Qubit) -> None:
        """Phase-flip channel on one qubit: mixes each state with its
        phase-flipped partner (B0 ↔ B2, B1 ↔ B3)."""
        if p <= 0:
            return
        w = self.weights
        self.weights = (1.0 - p) * w + p * w[[2, 3, 0, 1]]

    def apply_depolarizing(self, p: float, qubit: Qubit) -> None:
        """Single-qubit depolarizing channel on one half of the pair."""
        if p <= 0:
            return
        # Each non-identity Pauli (probability p/3) XOR-shifts the weights;
        # summing the three shifts of w[k] gives 1 − w[k].
        self.weights = (1.0 - 4.0 * p / 3.0) * self.weights + p / 3.0

    def apply_two_qubit_depolarizing(self, p: float) -> None:
        """Two-qubit depolarizing noise across the pair (gate error model)."""
        if p > 0:
            self.weights = _two_qubit_depolarized(self.weights, p)

    def apply_decoherence(self, elapsed: float, t1: float, t2: float,
                          qubit: Qubit) -> None:
        """T1/T2 memory channel on one qubit for ``elapsed`` ns.

        The dephasing component is exact; the T1 component applies the
        Bell-twirled amplitude-damping transfer (see module docstring).
        """
        if elapsed <= 0:
            return
        gamma, dephase_prob = decoherence_probabilities(elapsed, t1, t2)
        if gamma > 0:
            root = math.sqrt(1.0 - gamma)
            same = (2.0 - gamma) / 4.0 + root / 2.0
            phase_partner = (2.0 - gamma) / 4.0 - root / 2.0
            parity_partner = gamma / 4.0
            w = self.weights
            self.weights = (same * w
                            + phase_partner * w[[2, 3, 0, 1]]
                            + parity_partner * (w[[1, 0, 3, 2]]
                                                + w[[3, 2, 1, 0]]))
        self.apply_dephasing(dephase_prob, qubit)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def error_probability(self, basis: str) -> float:
        """Probability the two halves disagree with the Φ+ correlation
        pattern in a Pauli basis (Z/X correlated, Y anti-correlated)."""
        w = self.weights
        if basis == "Z":
            return float(w[1] + w[3])
        if basis == "X":
            return float(w[2] + w[3])
        if basis == "Y":
            return float(w[1] + w[2])
        raise ValueError(f"unknown basis {basis!r}")

    def measure_in_basis(self, qubit: Qubit, basis: str, rng) -> int:
        """Measure one half in a Pauli basis; the partner collapses to the
        exact conditional single-qubit state (an ordinary :class:`QState`).

        Returns the true physical outcome bit; classical readout errors are
        layered on top by :mod:`repro.quantum.operations`.
        """
        basis = basis.upper()
        if basis not in _PAULI_BASES:
            raise ValueError(f"unknown basis {basis!r}")
        partner = self.partner_of(qubit)
        # Bell-diagonal marginals are maximally mixed: the first outcome is
        # a fair coin in every Pauli basis.
        outcome = 0 if rng.random() < 0.5 else 1
        flip = self.error_probability(basis)
        # Z/X correlate, Y anti-correlates (⟨Y⊗Y⟩ = −1 for Φ+).
        expected_partner = outcome if basis in ("Z", "X") else outcome ^ 1
        partner_dm = _conditional_dm(basis, expected_partner, flip)
        qubit.state = None
        partner.state = None
        self.qubits = []
        QState(partner_dm, [partner])
        return outcome

    # ------------------------------------------------------------------
    # Exit points from the formalism
    # ------------------------------------------------------------------

    def remove(self, qubit: Qubit) -> None:
        """Partial-trace one qubit out; the partner keeps a maximally mixed
        single-qubit state (exact — Bell-diagonal marginals are I/2)."""
        partner = self.partner_of(qubit)
        qubit.state = None
        partner.state = None
        self.qubits = []
        QState(np.eye(2, dtype=complex) / 2.0, [partner])

    def promote(self) -> QState:
        """Rebind both qubits to an exact density-matrix state.

        Called by the operations layer whenever a request leaves the
        Bell-diagonal closed family; the qubit handles survive, so callers
        never notice beyond the speed difference.
        """
        dm = bell_diagonal_dm(self.weights)
        qubits = self.qubits
        for qubit in qubits:
            qubit.state = None
        self.qubits = []
        return QState(dm, qubits)

    def apply_unitary(self, unitary: np.ndarray, targets: Sequence[Qubit]) -> None:
        """Generic fallback: promote to the exact engine and delegate."""
        self.promote().apply_unitary(unitary, targets)

    def apply_channel(self, kraus_ops, targets: Sequence[Qubit]) -> None:
        """Generic fallback: promote to the exact engine and delegate."""
        self.promote().apply_channel(kraus_ops, targets)

    def reduced_dm(self, targets: Sequence[Qubit]) -> np.ndarray:
        """Density matrix of the requested qubits (built on demand)."""
        if len(targets) == 2 and set(targets) == set(self.qubits):
            return bell_diagonal_dm(self.weights)
        if len(targets) == 1 and targets[0] in self.qubits:
            return np.eye(2, dtype=complex) / 2.0
        raise ValueError("targets are not part of this state")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ",".join(q.name for q in self.qubits)
        w = ", ".join(f"{x:.3f}" for x in self.weights)
        return f"<BellPairState [{names}] ({w})>"


def exact_state(qubit: Qubit) -> QState:
    """The qubit's state as an exact :class:`QState`, promoting if needed.

    The one place the promote-on-demand rule lives; the operations and
    fidelity layers both route through it.
    """
    state = qubit.state
    if isinstance(state, BellPairState):
        return state.promote()
    return state


def _two_qubit_depolarized(weights: np.ndarray, p: float) -> np.ndarray:
    """Two-qubit depolarizing closed form on Bell weights (shared by the
    channel and the swap fast path)."""
    return (1.0 - 16.0 * p / 15.0) * weights + (16.0 * p / 15.0) / 4.0


def create_bell_diagonal_pair(weights: Sequence[float], name_a: str = "",
                              name_b: str = "") -> tuple[Qubit, Qubit]:
    """Create two fresh qubits sharing a Bell-diagonal pair state."""
    qubit_a = Qubit(name_a)
    qubit_b = Qubit(name_b)
    BellPairState(weights, [qubit_a, qubit_b])
    return qubit_a, qubit_b


def swap_measure(qubit_a: Qubit, qubit_b: Qubit, rng,
                 two_qubit_depolar: float = 0.0,
                 single_qubit_depolar: float = 0.0) -> int:
    """Bell-state measurement across two Bell-diagonal pairs, in O(1).

    ``qubit_a`` and ``qubit_b`` are the co-located halves of two *distinct*
    :class:`BellPairState` pairs.  Both are consumed; the two remote halves
    are rebound to a fresh :class:`BellPairState` holding the XOR-convolved
    weights conditioned on the (uniformly sampled) true outcome — exactly
    the law the exact engine follows for Bell-diagonal inputs.

    Returns the true two-bit outcome; readout mislabeling is a classical
    layer applied by the caller (a mislabeled outcome then makes tracking
    apply the wrong frame, just like in the exact engine).
    """
    state_a = qubit_a.state
    state_b = qubit_b.state
    if not isinstance(state_a, BellPairState) or not isinstance(state_b, BellPairState):
        raise TypeError("swap_measure needs two Bell-diagonal pairs")
    if state_a is state_b:
        raise ValueError("swap_measure needs two distinct pairs")
    remote_a = state_a.partner_of(qubit_a)
    remote_b = state_b.partner_of(qubit_b)
    # XOR-convolution over the Klein four-group: the output weight of Bell
    # state k sums w_a[j] * w_b[k ^ j] over j.  This is the
    # outcome-unconditioned law; the sampled outcome permutes it below.
    convolved = state_b.weights[XOR_IDX] @ state_a.weights
    if two_qubit_depolar > 0:
        convolved = _two_qubit_depolarized(convolved, two_qubit_depolar)
    if single_qubit_depolar > 0:
        mix = 2.0 * single_qubit_depolar / 3.0
        convolved = (1.0 - mix) * convolved + mix * convolved[XOR_IDX[2]]
    # The measured marginal is maximally mixed: all four outcomes are
    # equally likely regardless of the input weights.
    outcome = int(rng.random() * 4.0) & 0b11
    weights = convolved[XOR_IDX[outcome]]
    for qubit in (qubit_a, qubit_b, remote_a, remote_b):
        qubit.state = None
    state_a.qubits = []
    state_b.qubits = []
    BellPairState.from_trusted_weights(weights, [remote_a, remote_b])
    return outcome


def _conditional_dm(basis: str, bit: int, flip_probability: float) -> np.ndarray:
    """Single-qubit state of the partner after its twin was measured.

    ``bit`` is the partner's expected outcome under perfect correlation and
    ``flip_probability`` the Bell-weight mass that disagrees; the result is
    diagonal in the measured basis (Bell-diagonal states carry no cross-basis
    coherence).
    """
    p_bit = 1.0 - flip_probability
    if bit == 1:
        p0, p1 = flip_probability, p_bit
    else:
        p0, p1 = p_bit, flip_probability
    if basis == "Z":
        return np.diag([p0, p1]).astype(complex)
    if basis == "X":
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
    else:  # Y: bit 0 ↔ |+i⟩ under the H·S† readout rotation convention
        plus = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
        minus = np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0)
    return (p0 * np.outer(plus, plus.conj())
            + p1 * np.outer(minus, minus.conj()))
