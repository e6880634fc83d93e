"""Bell states and the algebra the QNP's entanglement tracking relies on.

Bell states are indexed by two bits ``(a, b)`` packed into an integer
``index = 2*a + b`` with the convention

.. math::

    |B_{ab}\\rangle = (I \\otimes X^b Z^a) |\\Phi^+\\rangle

which gives:

====== ====== =============================
index  (a,b)  state
====== ====== =============================
0      (0,0)  Φ+ = (|00⟩ + |11⟩)/√2
1      (0,1)  Ψ+ = (|01⟩ + |10⟩)/√2
2      (1,0)  Φ− = (|00⟩ − |11⟩)/√2
3      (1,1)  Ψ− = (|01⟩ − |10⟩)/√2
====== ====== =============================

Because Pauli operators compose bitwise (up to global phase), applying two
Pauli frames in sequence XORs their indices.  This is precisely the
``combine_state`` operation of Appendix C: when a node swaps a pair in state
``i`` with a pair in state ``j`` and the Bell-state measurement reports
outcome ``m``, the surviving end-to-end pair is in Bell state ``i ^ j ^ m``.
The property tests verify this law against the exact density-matrix engine
for all 64 combinations.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

_SQRT2 = np.sqrt(2.0)


class BellIndex(IntEnum):
    """Two-bit Bell state index (phase bit in bit 1, parity bit in bit 0)."""

    PHI_PLUS = 0
    PSI_PLUS = 1
    PHI_MINUS = 2
    PSI_MINUS = 3

    def __str__(self) -> str:
        return {0: "Φ+", 1: "Ψ+", 2: "Φ−", 3: "Ψ−"}[self.value]


def bell_vector(index: int) -> np.ndarray:
    """Return the 4-dimensional state vector of Bell state ``index``."""
    index = int(index)
    vec = np.zeros(4, dtype=complex)
    a, b = (index >> 1) & 1, index & 1
    if b == 0:
        vec[0b00] = 1 / _SQRT2
        vec[0b11] = (-1) ** a / _SQRT2
    else:
        vec[0b01] = 1 / _SQRT2
        vec[0b10] = (-1) ** a / _SQRT2
    return vec


def bell_dm(index: int) -> np.ndarray:
    """Density matrix of the pure Bell state ``index``."""
    vec = bell_vector(index)
    return np.outer(vec, vec.conj())


def combine(index_a: int, index_b: int) -> BellIndex:
    """Compose two Pauli frames: the Klein four-group XOR.

    Used to fold an entanglement-swap outcome (or a known link-pair state)
    into the running outcome state of a TRACK message.
    """
    return BellIndex(int(index_a) ^ int(index_b))


def swap_combine(state_a: int, state_b: int, measurement_outcome: int) -> BellIndex:
    """Bell state of the pair surviving an entanglement swap.

    Parameters
    ----------
    state_a, state_b:
        Bell indices of the two input pairs sharing the swapping node.
    measurement_outcome:
        Two-bit Bell-state-measurement outcome at the swapping node.
    """
    return BellIndex(int(state_a) ^ int(state_b) ^ int(measurement_outcome))


def bell_diagonal_dm(weights) -> np.ndarray:
    """Bell-diagonal density matrix with the given four weights.

    ``weights`` must be non-negative and sum to 1 (within tolerance).
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (4,):
        raise ValueError("need exactly four Bell weights")
    if np.any(weights < -1e-12):
        raise ValueError("Bell weights must be non-negative")
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("Bell weights must sum to 1")
    dm = np.zeros((4, 4), dtype=complex)
    for index, weight in enumerate(weights):
        dm += weight * bell_dm(index)
    return dm


def bell_diagonal_weights(dm: np.ndarray) -> np.ndarray:
    """Project a two-qubit density matrix onto the Bell-diagonal weights.

    Returns ``w[i] = ⟨B_i| ρ |B_i⟩`` — exact for Bell-diagonal states and the
    twirled approximation otherwise.
    """
    return np.array([np.real(bell_vector(i).conj() @ dm @ bell_vector(i))
                     for i in range(4)])


def werner_dm(fidelity: float, index: int = 0) -> np.ndarray:
    """Werner state with the given fidelity to Bell state ``index``.

    The remaining weight is spread evenly over the other three Bell states —
    the standard isotropic noise model for link pairs.
    """
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError("fidelity must be in [0, 1]")
    weights = np.full(4, (1.0 - fidelity) / 3.0)
    weights[int(index)] = fidelity
    return bell_diagonal_dm(weights)
