"""Fidelity computations.

Fidelity is *the* quantum quality metric of the paper (Sec 2.3): a value in
[0, 1] quantifying closeness to the desired state, usable above an
application-specific threshold (0.5 marks the boundary of useful
entanglement, ~0.8 suffices for basic QKD).
"""

from __future__ import annotations

import numpy as np

from .bell import bell_vector
from .bellstate import BellPairState, exact_state
from .qubit import Qubit
from .states import QState


def pure_state_fidelity(dm: np.ndarray, vector: np.ndarray) -> float:
    """Fidelity of ``dm`` with respect to a pure state vector: ⟨ψ|ρ|ψ⟩."""
    vector = np.asarray(vector, dtype=complex)
    value = float(np.real(vector.conj() @ dm @ vector))
    return min(max(value, 0.0), 1.0)


def bell_fidelity(dm: np.ndarray, bell_index: int = 0) -> float:
    """Fidelity of a two-qubit dm with respect to a Bell state."""
    if dm.shape != (4, 4):
        raise ValueError("bell_fidelity needs a two-qubit density matrix")
    return pure_state_fidelity(dm, bell_vector(bell_index))


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity  F(ρ,σ) = (tr √(√ρ σ √ρ))²  between two mixed states.

    Both square roots come from Hermitian eigendecompositions with the
    eigenvalues clipped at 0 (round-off can push the zero eigenvalues of a
    rank-deficient state slightly negative): ``√ρ = V √Λ V†`` and
    ``F = (Σ √λ)²`` over the eigenvalues λ of ``√ρ σ √ρ``.
    """
    values, vectors = np.linalg.eigh(np.asarray(rho, dtype=complex))
    sqrt_rho = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    inner = np.linalg.eigvalsh(sqrt_rho @ np.asarray(sigma, dtype=complex) @ sqrt_rho)
    value = float(np.sqrt(np.clip(inner, 0.0, None)).sum() ** 2)
    return min(max(value, 0.0), 1.0)


def pair_fidelity(qubit_a: Qubit, qubit_b: Qubit, bell_index: int = 0) -> float:
    """Fidelity of the pair held by two qubit handles to a Bell state.

    This reads the simulation's ground-truth density matrix.  The QNP never
    calls it — only the evaluation oracle of Fig 10 and the test-suite do
    (the paper makes the same point about its "simpler protocol" baseline).
    """
    if qubit_a.state is None or qubit_b.state is None:
        raise ValueError("both qubits must be active")
    state = qubit_a.state
    if state is qubit_b.state:
        if isinstance(state, BellPairState):
            # Bell formalism: the fidelity IS the weight.
            return state.fidelity_to(bell_index)
    else:
        state = QState.merge(exact_state(qubit_a), exact_state(qubit_b))
    dm = state.reduced_dm([qubit_a, qubit_b])
    return bell_fidelity(dm, bell_index)
