"""Standard gate matrices used by the quantum engine, and their superoperators.

The density-matrix engine applies every gate and channel as one contraction
against its Liouville-form superoperator (see :func:`superoperator`); the
fixed gates of the hot path — the Bell-measurement rotation, the Pauli
frames, the measurement-basis rotations and DEJMPS's rotations — have
theirs precomputed here.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)

#: Pauli operators indexed by the packed two-bit Bell frame ``2*a + b``:
#: ``X^b Z^a`` → [I, X, Z, XZ].
PAULI_FRAME = (
    I2,
    X,
    Z,
    X @ Z,
)

CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)

CZ = np.diag([1, 1, 1, -1]).astype(complex)

SWAP_GATE = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


# The module-level matrices are shared by every caller (and, since the Kraus
# builders are memoized, live inside cached channel tuples); mark them
# read-only so an accidental in-place edit fails loudly instead of silently
# corrupting every subsequent operation.
for _gate in (I2, X, Y, Z, H, S, T, CNOT, CZ, SWAP_GATE, *PAULI_FRAME):
    _gate.setflags(write=False)
del _gate


def superoperator(*ops: np.ndarray) -> np.ndarray:
    """Liouville form ``S = Σ K ⊗ K*`` of the channel with Kraus operators ``ops``.

    ``S`` acts on the row-major ``vec(ρ)`` of the targeted qubits:
    ``S · vec(ρ) = vec(Σ K ρ K†)`` (Wood, Biamonte & Cory, arXiv:1111.6950),
    so the whole channel — or a unitary, as a one-operator channel — is one
    ``(4^k, 4^k)`` matrix.  The result is read-only.

    All the ``K ⊗ K*`` terms come from one broadcast product (element for
    element what ``np.kron`` computes) and are summed in Kraus order.
    """
    if not ops:
        raise ValueError("channel has no Kraus operators")
    ops = np.asarray(ops)
    count, dim = ops.shape[:2]
    terms = ops[:, :, None, :, None] * ops.conj()[:, None, :, None, :]
    superop = terms.reshape(count, dim * dim, dim * dim).sum(axis=0)
    superop.setflags(write=False)
    return superop


CNOT_SUPEROP = superoperator(CNOT)
H_SUPEROP = superoperator(H)
#: Superoperators of :data:`PAULI_FRAME`, by packed frame index.
PAULI_FRAME_SUPEROPS = tuple(superoperator(pauli) for pauli in PAULI_FRAME)
#: Superoperators of the rotations taking each measurement basis onto Z:
#: none for Z, H for X, S† then H for Y.
BASIS_ROTATION_SUPEROPS = {"Z": None, "X": H_SUPEROP, "Y": superoperator(H @ S.conj().T)}


def rx(theta: float) -> np.ndarray:
    """Rotation about the X axis by ``theta`` radians."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Rotation about the Y axis by ``theta`` radians."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


#: Superoperators of DEJMPS's bilateral rotations ``Rx(+π/2)`` and
#: ``Rx(−π/2)``, which the density-matrix distillation path applies every
#: round.
RX_PLUS_SUPEROP = superoperator(rx(np.pi / 2))
RX_MINUS_SUPEROP = superoperator(rx(-np.pi / 2))
