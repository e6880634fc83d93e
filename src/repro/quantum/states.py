"""Shared quantum state container — the density-matrix engine.

A :class:`QState` owns the joint density matrix of one or more qubits.  This
is the NetSquid-formalism substitute: protocols never touch matrices, they
hold :class:`~repro.quantum.qubit.Qubit` handles and call the operations in
:mod:`repro.quantum.operations`.

The engine is exact.  Every gate and channel is applied the same way: one
contraction of its superoperator (``Σ K ⊗ K*``, see
:func:`~repro.quantum.gates.superoperator`) into the targeted row and column
axes of the 2^n × 2^n density matrix.  A Z measurement is a slice of that
matrix.  In this system ``n`` never exceeds 4, so everything stays tiny and
fast.  Four qubits arise when two pairs are merged on the exact engine's
general path: a swap involving a shared state, a state of three or more
qubits or a promoted Bell pair, or a two-qubit gate across two pairs
(DEJMPS).  A swap of two separate 2-qubit density matrices never merges
them: :func:`~repro.quantum.operations.bell_state_measurement` reads the
two matrices into one bilinear kernel product instead.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .channels import KrausChannel, decoherence_kraus, dephasing_kraus, depolarizing_kraus
from .gates import PAULI_FRAME_SUPEROPS, superoperator
from .qubit import Qubit

_TOL = 1e-9

#: Row-major ``vec`` positions of a two-qubit density matrix with its two
#: qubits swapped: ``dm.reshape(16)[SWAPPED_PAIR]`` is ``dm`` in the other
#: qubit order, moved entry for entry.
SWAPPED_PAIR = np.arange(16).reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(16)
SWAPPED_PAIR.setflags(write=False)


class QState:
    """Joint density matrix over an ordered list of qubits."""

    def __init__(self, dm: np.ndarray, qubits: Sequence[Qubit]):
        dm = np.asarray(dm, dtype=complex)
        n = len(qubits)
        if dm.shape != (2 ** n, 2 ** n):
            raise ValueError(f"density matrix shape {dm.shape} does not match {n} qubits")
        self.dm = dm
        self.qubits = list(qubits)
        for qubit in self.qubits:
            if qubit.state is not None and qubit.state is not self:
                raise ValueError(f"{qubit.name} already belongs to another state")
            qubit.state = self

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_trusted_dm(cls, dm: np.ndarray, qubits: Sequence[Qubit]) -> "QState":
        """Bind fresh qubits to a pre-validated density matrix.

        The hot-path constructor mirroring
        :meth:`~repro.quantum.bellstate.BellPairState.from_trusted_weights`:
        link-pair materialisation passes memoized, correctly shaped (and
        possibly read-only) matrices, so the ``__init__`` validation would
        be pure overhead.  Callers guarantee shape and ownership.
        """
        state = object.__new__(cls)
        state.dm = dm
        state.qubits = list(qubits)
        for qubit in state.qubits:
            qubit.state = state
        return state

    @classmethod
    def from_pure(cls, vector: np.ndarray, qubits: Sequence[Qubit]) -> "QState":
        """Create a state from a pure state vector."""
        vector = np.asarray(vector, dtype=complex)
        norm = np.linalg.norm(vector)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError("state vector is not normalised")
        return cls(np.outer(vector, vector.conj()), qubits)

    @classmethod
    def ground(cls, qubit: Qubit) -> "QState":
        """A fresh single qubit in |0⟩."""
        return cls.from_pure(np.array([1.0, 0.0]), [qubit])

    @staticmethod
    def merge(state_a: "QState", state_b: "QState") -> "QState":
        """Tensor two disjoint states into one; qubit handles survive."""
        if state_a is state_b:
            return state_a
        # ρ_a ⊗ ρ_b as one broadcast product: element for element np.kron.
        dim = state_a.dm.shape[0] * state_b.dm.shape[0]
        dm = (state_a.dm[:, None, :, None]
              * state_b.dm[None, :, None, :]).reshape(dim, dim)
        qubits = state_a.qubits + state_b.qubits
        for qubit in qubits:
            qubit.state = None
        return QState(dm, qubits)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def index_of(self, qubit: Qubit) -> int:
        return self.qubits.index(qubit)

    def trace(self) -> float:
        return float(np.real(np.trace(self.dm)))

    def is_valid(self, tol: float = 1e-7) -> bool:
        """Trace one, Hermitian, positive semidefinite."""
        if abs(self.trace() - 1.0) > tol:
            return False
        if not np.allclose(self.dm, self.dm.conj().T, atol=tol):
            return False
        eigenvalues = np.linalg.eigvalsh(self.dm)
        return bool(eigenvalues.min() > -tol)

    # ------------------------------------------------------------------
    # Evolution
    # ------------------------------------------------------------------

    def apply_superop(self, superop: np.ndarray, targets: Sequence[Qubit]) -> None:
        """Apply a channel in superoperator form to the given qubits (in order).

        The one way the density matrix evolves: ``superop`` (of shape
        ``(4^k, 4^k)`` for ``k`` targets) is contracted into the targets' row
        and column axes at once.
        """
        rows = [self.qubits.index(q) for q in targets]
        n = len(self.qubits)
        self.dm = _apply_left(self.dm, superop, rows + [row + n for row in rows], n)

    def apply_unitary(self, unitary: np.ndarray, targets: Sequence[Qubit]) -> None:
        """Apply a unitary to the given qubits (in order)."""
        self.apply_superop(superoperator(unitary), targets)

    def apply_channel(self, kraus_ops: Iterable[np.ndarray], targets: Sequence[Qubit]) -> None:
        """Apply a Kraus channel to the given qubits (in order).

        The memoized builders of :mod:`repro.quantum.channels` return
        :class:`~repro.quantum.channels.KrausChannel` tuples that carry their
        superoperator; any other Kraus list gets one built for this call.
        """
        if isinstance(kraus_ops, KrausChannel):
            superop = kraus_ops.superop
        else:
            superop = superoperator(*kraus_ops)
        self.apply_superop(superop, targets)

    # ------------------------------------------------------------------
    # Named noise channels (shared interface with the Bell-diagonal backend)
    # ------------------------------------------------------------------

    def apply_dephasing(self, p: float, qubit: Qubit) -> None:
        """Phase-flip channel with probability ``p`` on one qubit."""
        if p > 0:
            self.apply_channel(dephasing_kraus(p), [qubit])

    def apply_depolarizing(self, p: float, qubit: Qubit) -> None:
        """Single-qubit depolarizing channel with probability ``p``."""
        if p > 0:
            self.apply_channel(depolarizing_kraus(p), [qubit])

    def apply_decoherence(self, elapsed: float, t1: float, t2: float,
                          qubit: Qubit) -> None:
        """Combined T1/T2 memory channel for ``elapsed`` ns of idle time."""
        if elapsed > 0:
            self.apply_channel(decoherence_kraus(elapsed, t1, t2), [qubit])

    def apply_pauli(self, frame_index: int, qubit: Qubit) -> None:
        """Apply the Pauli frame ``X^b Z^a`` (packed two-bit index)."""
        frame_index = int(frame_index) & 0b11
        if frame_index:
            self.apply_superop(PAULI_FRAME_SUPEROPS[frame_index], [qubit])

    def measure(self, qubit: Qubit, rng) -> int:
        """Projective Z measurement; collapses the state and removes the qubit.

        Returns the true physical outcome bit (readout errors are a classical
        layer on top, handled in :mod:`repro.quantum.operations`).

        The branch of outcome ``b`` is the block of ρ whose row and column
        both have the qubit at ``b``: its trace is the outcome probability
        and the block over that trace is the post-measurement state of the
        other qubits.  Each trace sums the full diagonal with the other
        branch zeroed, so numpy's pairwise summation adds the same terms in
        the same order as ``Tr(P ρ P)`` with a projector ``P`` would.
        """
        position = self.qubits.index(qubit)
        n = len(self.qubits)
        diagonal = self.dm.diagonal()
        mask = _branch_mask(n, position)
        prob0 = float(np.real(np.where(mask, 0, diagonal).sum()))
        outcome = 0 if rng.random() < min(max(prob0, 0.0), 1.0) else 1
        norm = prob0 if outcome == 0 else float(np.real(np.where(mask, diagonal, 0).sum()))
        if norm <= _TOL:
            raise RuntimeError("measurement collapsed to zero-probability branch")
        index = [slice(None)] * (2 * n)
        index[position] = index[position + n] = outcome
        block = self.dm.reshape((2,) * (2 * n))[tuple(index)]
        self.qubits.pop(position)
        qubit.state = None
        size = 2 ** (n - 1)
        self.dm = block.reshape(size, size) / norm if n > 1 else \
            np.array([[1.0]], dtype=complex)
        return outcome

    def remove(self, qubit: Qubit) -> None:
        """Partial-trace a qubit out of the state and detach its handle.

        The last qubit of a state is detached without a trace: nothing is
        left to keep.
        """
        position = self.index_of(qubit)
        n = self.num_qubits
        self.qubits.pop(position)
        qubit.state = None
        if n == 1:
            self.dm = np.array([[1.0]], dtype=complex)
            return
        tensor = np.trace(self.dm.reshape([2] * (2 * n)),
                          axis1=position, axis2=position + n)
        self.dm = tensor.reshape(2 ** (n - 1), 2 ** (n - 1))

    def reduced_dm(self, targets: Sequence[Qubit]) -> np.ndarray:
        """Density matrix of a subset of qubits (others traced out)."""
        keep = [self.index_of(q) for q in targets]
        n = self.num_qubits
        tensor = self.dm.reshape([2] * (2 * n))
        # Trace out the qubits not kept, highest position first so earlier
        # positions stay valid.
        for position in sorted(set(range(n)) - set(keep), reverse=True):
            current_n = len(tensor.shape) // 2
            tensor = np.trace(tensor, axis1=position, axis2=position + current_n)
            keep = [k if k < position else k - 1 for k in keep]
        current_n = len(tensor.shape) // 2
        dm = tensor.reshape(2 ** current_n, 2 ** current_n)
        # Reorder to match the requested target order.
        order = list(np.argsort(np.argsort(keep)))
        if order != list(range(len(keep))):
            dm = _permute_qubits(dm, keep)
        return dm

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ",".join(q.name for q in self.qubits)
        return f"<QState [{names}]>"


@lru_cache(maxsize=None)
def _axis_plan(n: int, axes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Transpose permutations for :func:`_apply_left` on ``n`` qubits.

    ``forward`` moves the contracted ``axes`` first, the rest after them in
    original order; ``inverse`` moves every axis back to its home position.
    The argument space is tiny (n ≤ 4, a handful of target tuples), so each
    pair is computed once.
    """
    forward = axes + tuple(axis for axis in range(2 * n) if axis not in axes)
    inverse = [0] * (2 * n)
    for position, axis in enumerate(forward):
        inverse[axis] = position
    return forward, tuple(inverse)


@lru_cache(maxsize=None)
def _branch_mask(n: int, position: int) -> np.ndarray:
    """Which of the 2^n basis states have qubit ``position`` set to 1."""
    mask = (np.arange(2 ** n) >> (n - 1 - position)) & 1 == 1
    mask.setflags(write=False)
    return mask


def _apply_left(dm: np.ndarray, op: np.ndarray, axes: list[int], n: int) -> np.ndarray:
    """Multiply ``op`` into the given axes of ``dm``'s ``(2,)*2n`` tensor.

    Axes ``0..n-1`` index the rows and ``n..2n-1`` the columns, so row axes
    alone give ``op ρ``, and the row and column axes of the targets together
    apply a superoperator.  This is ``np.tensordot`` followed by moving the
    op's output axes home, without tensordot's per-call set-up.
    """
    k = len(axes)
    if op.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {op.shape} does not match {k} axes")
    forward, inverse = _axis_plan(n, tuple(axes))
    shape = (2,) * (2 * n)
    moved = dm.reshape(shape).transpose(forward).reshape(2 ** k, -1)
    return np.dot(op, moved).reshape(shape).transpose(inverse).reshape(2 ** n, 2 ** n)


def _permute_qubits(dm: np.ndarray, keep_positions: list[int]) -> np.ndarray:
    """Reorder a reduced dm so qubits appear in the order originally requested.

    ``keep_positions`` holds the original positions in request order; the dm
    currently has them sorted ascending.
    """
    n = len(keep_positions)
    sorted_positions = sorted(keep_positions)
    # current axis i corresponds to sorted_positions[i]; we want axis j to be
    # keep_positions[j].
    axis_map = [sorted_positions.index(p) for p in keep_positions]
    tensor = dm.reshape([2] * (2 * n))
    perm = axis_map + [a + n for a in axis_map]
    return tensor.transpose(perm).reshape(2 ** n, 2 ** n)
