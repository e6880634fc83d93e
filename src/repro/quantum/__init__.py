"""Quantum engine with pluggable state formalisms.

Public API:

* :class:`Qubit` and :class:`QState` — state handles and the shared register
  of the exact density-matrix engine (the NetSquid-formalism substitute),
* :class:`Backend` / :func:`get_backend` — the formalism-selection layer:
  ``"dm"`` (exact) or ``"bell"`` (fast Bell-diagonal weights,
  :class:`BellPairState`),
* :class:`BellIndex` and the Bell frame algebra (``combine``,
  ``swap_combine``),
* gate matrices and Kraus channels (memoized — returned operators are
  read-only),
* the high-level operations protocols use (``bell_state_measurement``,
  ``measure_qubit``, ``pauli_correct``, ``teleport``) — each dispatches to
  the fast path when the operands live in the Bell-diagonal formalism,
* fidelity helpers, including the simulation-only oracle ``pair_fidelity``.
"""

from .backends import (
    Backend,
    BellDiagonalBackend,
    DEFAULT_FORMALISM,
    DensityMatrixBackend,
    FORMALISMS,
    get_backend,
)
from .bell import (
    BellIndex,
    bell_diagonal_dm,
    bell_diagonal_weights,
    bell_dm,
    bell_vector,
    combine,
    swap_combine,
    werner_dm,
)
from .channels import (
    amplitude_damping_kraus,
    decoherence_kraus,
    dephasing_kraus,
    depolarizing_kraus,
    is_trace_preserving,
    two_qubit_depolarizing_kraus,
)
from .fidelity import bell_fidelity, pair_fidelity, pure_state_fidelity, state_fidelity
from .gates import CNOT, CZ, H, I2, PAULI_FRAME, S, SWAP_GATE, T, X, Y, Z, rx, ry
from .operations import (
    NoisyOpParams,
    PERFECT_OPS,
    apply_gate,
    apply_two_qubit_gate,
    averaged_swap_dm,
    bell_state_measurement,
    create_pair,
    discard,
    measure_qubit,
    pauli_correct,
    teleport,
)
from .bellstate import BellPairState, create_bell_diagonal_pair
from .qubit import Qubit
from .states import QState

__all__ = [
    "Qubit",
    "QState",
    "Backend",
    "DensityMatrixBackend",
    "BellDiagonalBackend",
    "BellPairState",
    "create_bell_diagonal_pair",
    "FORMALISMS",
    "DEFAULT_FORMALISM",
    "get_backend",
    "BellIndex",
    "bell_vector",
    "bell_dm",
    "bell_diagonal_dm",
    "bell_diagonal_weights",
    "werner_dm",
    "combine",
    "swap_combine",
    "dephasing_kraus",
    "depolarizing_kraus",
    "two_qubit_depolarizing_kraus",
    "amplitude_damping_kraus",
    "decoherence_kraus",
    "is_trace_preserving",
    "bell_fidelity",
    "pair_fidelity",
    "pure_state_fidelity",
    "state_fidelity",
    "NoisyOpParams",
    "PERFECT_OPS",
    "bell_state_measurement",
    "measure_qubit",
    "pauli_correct",
    "apply_gate",
    "apply_two_qubit_gate",
    "create_pair",
    "discard",
    "teleport",
    "averaged_swap_dm",
    "I2",
    "X",
    "Y",
    "Z",
    "H",
    "S",
    "T",
    "CNOT",
    "CZ",
    "SWAP_GATE",
    "PAULI_FRAME",
    "rx",
    "ry",
]
