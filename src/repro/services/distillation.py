"""Entanglement distillation as a layered service (Sec 4.3).

DEJMPS distillation consumes two imperfect pairs shared between the same
two nodes and, with finite probability, produces one pair of higher
fidelity.  The paper proposes running it *between circuits*: an inner QNP
circuit delivers pairs to the distillation module at two intermediate
end-points, and the distilled pairs feed a virtual link for an outer
circuit.  This module implements the quantum core of that service plus the
pairing logic that consumes QNP deliveries.  The twirl and the DEJMPS round
are exact in both state formalisms: on Bell-diagonal pairs they run in
closed form (:func:`repro.quantum.bellstate.dejmps_measure`) without
leaving the Bell formalism, and on density matrices they run gate by gate.

The DEJMPS recipe (Deutsch et al.) for pairs in the Φ+ frame:

1. node A applies Rx(+π/2) to both its qubits, node B applies Rx(−π/2),
2. both nodes apply CNOT from their "keep" qubit to their "sacrifice" qubit,
3. both measure the sacrifice qubit in Z and compare over the classical
   channel: equal outcomes → keep, unequal → both pairs wasted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..quantum.bell import BellIndex
from ..quantum.bellstate import bell_pair_of, dejmps_measure
from ..quantum.gates import CNOT_SUPEROP, RX_MINUS_SUPEROP, RX_PLUS_SUPEROP
from ..quantum.operations import (
    NoisyOpParams,
    PERFECT_OPS,
    apply_gate,
    apply_two_qubit_gate,
    discard,
    measure_qubit,
    pauli_correct,
)
from ..quantum.qubit import Qubit


@dataclass
class DistillationOutcome:
    """Result of one DEJMPS round."""

    success: bool
    keep_a: Optional[Qubit]
    keep_b: Optional[Qubit]
    outcome_a: int
    outcome_b: int


def dejmps_round(pair_one: tuple[Qubit, Qubit], pair_two: tuple[Qubit, Qubit],
                 rng, ops: NoisyOpParams = PERFECT_OPS) -> DistillationOutcome:
    """One DEJMPS distillation round on two Φ+-frame pairs.

    ``pair_one`` is kept on success; ``pair_two`` is always consumed.
    Qubit order within each tuple: (node A's qubit, node B's qubit).

    Two Bell-diagonal pairs take the closed form of
    :func:`~repro.quantum.bellstate.dejmps_measure`, which draws from
    ``rng`` exactly as the gate sequence below does; any other input runs
    that sequence on the exact engine.
    """
    keep_a, keep_b = pair_one
    sac_a, sac_b = pair_two
    keep = bell_pair_of(keep_a, keep_b)
    sacrifice = bell_pair_of(sac_a, sac_b)
    if keep is not None and sacrifice is not None:
        outcome_a, outcome_b = dejmps_measure(keep, sacrifice, rng, ops)
    else:
        apply_gate(keep_a, RX_PLUS_SUPEROP, ops)
        apply_gate(sac_a, RX_PLUS_SUPEROP, ops)
        apply_gate(keep_b, RX_MINUS_SUPEROP, ops)
        apply_gate(sac_b, RX_MINUS_SUPEROP, ops)
        apply_two_qubit_gate(keep_a, sac_a, CNOT_SUPEROP, ops)
        apply_two_qubit_gate(keep_b, sac_b, CNOT_SUPEROP, ops)
        outcome_a = measure_qubit(sac_a, rng, "Z", ops)
        outcome_b = measure_qubit(sac_b, rng, "Z", ops)
    success = outcome_a == outcome_b
    if not success:
        # Both remaining qubits are useless: discard them.
        discard(keep_a, keep_b)
        return DistillationOutcome(False, None, None, outcome_a, outcome_b)
    return DistillationOutcome(True, keep_a, keep_b, outcome_a, outcome_b)


def normalise_to_phi_plus(qubit: Qubit, bell_state: BellIndex,
                          ops: NoisyOpParams = PERFECT_OPS) -> None:
    """Rotate a delivered pair into the Φ+ frame (DEJMPS's working frame).

    Applied at one end only, using the Bell-state information the QNP
    delivered — this is exactly what the final_state machinery automates.
    """
    pauli_correct(qubit, int(bell_state), ops)


def pauli_twirl(qubit_a: Qubit, qubit_b: Qubit, rng,
                ops: NoisyOpParams = PERFECT_OPS) -> None:
    """Bilateral Pauli twirl: Bell-diagonalise a pair.

    Both nodes apply the *same* uniformly random Pauli (shared randomness
    over the classical channel).  Every Bell state is invariant under
    P ⊗ P up to a sign, and each cross-Bell coherence flips sign under at
    least one choice, so averaging removes them: the twirled state is
    Bell-diagonal with unchanged fidelity.

    This matters for distillation of real QNP pairs: the heralded |11⟩
    admixture carries Φ+/Φ− coherences that slip through the DEJMPS parity
    check; twirling first restores the textbook behaviour.

    The Pauli goes through :func:`pauli_correct` as a frame index (Y is
    ``XZ`` up to a global phase).  A Bell-diagonal pair is already twirled:
    ``P ⊗ P`` leaves it as it is, so only the two gates' depolarizing noise
    acts on it.
    """
    frame = rng.choice((0, 1, 3, 2))  # I, X, Y ≅ XZ, Z
    if frame:
        pauli_correct(qubit_a, frame, ops)
        pauli_correct(qubit_b, frame, ops)


class DistillationModule:
    """Pairs up QNP deliveries and distils them, possibly over several
    nested rounds.

    Feed it matched pairs (both qubits + the reported Bell state); each two
    consecutive pairs at a level undergo a DEJMPS round, and survivors feed
    the next level.  Outputs of the final level accumulate in
    :attr:`distilled`.

    ``levels`` matters in practice: pairs produced by single-click
    heralding carry a bit-flip/bit-phase-flip error mix for which a single
    DEJMPS round is nearly neutral — it converts the error structure into
    phase errors which the *second* round then crushes (the well-known
    DEJMPS two-cycle).  The repository's tests pin this behaviour.
    """

    def __init__(self, rng, ops: NoisyOpParams = PERFECT_OPS,
                 twirl: bool = True, levels: int = 1):
        if levels < 1:
            raise ValueError("need at least one distillation level")
        self.rng = rng
        self.ops = ops
        #: Bell-diagonalise pairs before distilling (recommended for pairs
        #: produced by heralded hardware — see :func:`pauli_twirl`).
        self.twirl = twirl
        self.levels = levels
        self._buffers: list[list[tuple[Qubit, Qubit]]] = [[] for _ in range(levels)]
        self.distilled: list[tuple[Qubit, Qubit]] = []
        self.rounds_attempted = 0
        self.rounds_succeeded = 0

    def absorb(self, qubit_a: Qubit, qubit_b: Qubit,
               bell_state: BellIndex) -> None:
        """Accept one pair (A-side qubit, B-side qubit, reported state)."""
        normalise_to_phi_plus(qubit_b, bell_state, self.ops)
        if self.twirl:
            pauli_twirl(qubit_a, qubit_b, self.rng, self.ops)
        self._push(0, (qubit_a, qubit_b))

    def _push(self, level: int, pair: tuple[Qubit, Qubit]) -> None:
        if level == self.levels:
            self.distilled.append(pair)
            return
        buffer = self._buffers[level]
        buffer.append(pair)
        if len(buffer) >= 2:
            pair_one = buffer.pop(0)
            pair_two = buffer.pop(0)
            self.rounds_attempted += 1
            outcome = dejmps_round(pair_one, pair_two, self.rng, self.ops)
            if outcome.success:
                self.rounds_succeeded += 1
                self._push(level + 1, (outcome.keep_a, outcome.keep_b))

    @property
    def success_rate(self) -> float:
        if self.rounds_attempted == 0:
            return 0.0
        return self.rounds_succeeded / self.rounds_attempted

    def discard_pending(self) -> int:
        """Free every pair still buffered below the final level.

        Session close for streaming consumers (the traffic application
        layer): an odd pair waiting for a partner at some level would
        otherwise keep its qubits — and their simulated state — alive
        forever.  Returns the number of pairs discarded.
        """
        discarded = 0
        for buffer in self._buffers:
            while buffer:
                discard(*buffer.pop())
                discarded += 1
        return discarded


def theoretical_dejmps_fidelity(fidelity: float) -> float:
    """Output fidelity of DEJMPS on two Werner pairs (noiseless gates).

    With input fidelity F, each other Bell state weighs p = (1−F)/3, and a
    successful round keeps ``F' = (F² + p²) / (F² + 2Fp + 5p²)``; the
    denominator is the success probability,
    :func:`theoretical_dejmps_success`.
    """
    p = (1.0 - fidelity) / 3.0
    numerator = fidelity ** 2 + p ** 2
    denominator = fidelity ** 2 + 2.0 * fidelity * p + 5.0 * p ** 2
    return numerator / denominator


def theoretical_dejmps_success(fidelity: float) -> float:
    """Success probability of DEJMPS on two Werner pairs."""
    p = (1.0 - fidelity) / 3.0
    return fidelity ** 2 + 2.0 * fidelity * p + 5.0 * p ** 2
