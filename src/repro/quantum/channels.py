"""Kraus-operator noise channels.

These model the loss mechanisms the paper enumerates in Sec 2.3:

* (P1) imperfect link pairs — built by :mod:`repro.hardware.heralded`,
* (P3) imperfect gates — depolarizing noise applied around each operation,
* (P4) decoherence in memory — combined amplitude damping (T1) and pure
  dephasing (T2*) applied lazily for the time a qubit sat idle.

All builders are memoized: the simulation asks for the same handful of
channels millions of times (gate noise probabilities are fixed per hardware
profile), so each distinct parameter set is constructed once and the same
:class:`KrausChannel` is returned on every subsequent call.  The channel
carries its superoperator, built on first use, so the density-matrix engine
pays for it once per cache entry and the builder's ``maxsize`` bounds both.
The returned arrays are **read-only** — callers must never mutate them (a
regression test pins this).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .gates import I2, X, Y, Z, superoperator

KrausOps = Sequence[np.ndarray]


class KrausChannel(tuple):
    """The Kraus operators of one channel, with its superoperator attached."""

    @cached_property
    def superop(self) -> np.ndarray:
        """``Σ K ⊗ K*`` (see :func:`~repro.quantum.gates.superoperator`)."""
        return superoperator(*self)


def _frozen(*ops: np.ndarray) -> KrausChannel:
    """Mark operator arrays read-only so cached instances cannot be mutated."""
    for op in ops:
        op.setflags(write=False)
    return KrausChannel(ops)


@lru_cache(maxsize=4096)
def dephasing_kraus(p: float) -> KrausOps:
    """Phase-flip channel: applies Z with probability ``p``."""
    _check_probability(p)
    return _frozen(math.sqrt(1 - p) * I2, math.sqrt(p) * Z)


@lru_cache(maxsize=None)
def depolarizing_kraus(p: float) -> KrausOps:
    """Single-qubit depolarizing channel with error probability ``p``.

    With probability ``p`` one of X/Y/Z is applied uniformly.
    """
    _check_probability(p)
    return _frozen(
        math.sqrt(1 - p) * I2,
        math.sqrt(p / 3) * X,
        math.sqrt(p / 3) * Y,
        math.sqrt(p / 3) * Z,
    )


@lru_cache(maxsize=None)
def two_qubit_depolarizing_kraus(p: float) -> KrausOps:
    """Two-qubit depolarizing channel with error probability ``p``.

    With probability ``p`` a uniformly random non-identity two-qubit Pauli is
    applied — the standard model for noisy two-qubit gates (the paper's
    Table 1 two-qubit gate fidelity maps onto this channel).
    """
    _check_probability(p)
    paulis = (I2, X, Y, Z)
    ops = []
    for i, pa in enumerate(paulis):
        for j, pb in enumerate(paulis):
            weight = 1 - p if (i == 0 and j == 0) else p / 15
            ops.append(math.sqrt(weight) * np.kron(pa, pb))
    return _frozen(*ops)


@lru_cache(maxsize=4096)
def amplitude_damping_kraus(gamma: float) -> KrausOps:
    """Amplitude damping (T1 relaxation) with decay probability ``gamma``."""
    _check_probability(gamma)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return _frozen(k0, k1)


def decoherence_probabilities(elapsed: float, t1: float,
                              t2: float) -> tuple[float, float]:
    """Decay and dephasing probabilities for ``elapsed`` ns of idle time.

    Returns ``(gamma, dephase_prob)``: the amplitude-damping probability from
    T1 relaxation and the phase-flip probability from pure dephasing.  The
    pure dephasing rate is derived from ``1/T2 = 1/(2 T1) + 1/T_phi``.
    Shared between the exact Kraus builder below and the Bell-diagonal
    backend's analytic memory channel.
    """
    if elapsed < 0:
        raise ValueError("elapsed time must be non-negative")
    gamma = 0.0 if math.isinf(t1) else 1.0 - math.exp(-elapsed / t1)
    if math.isinf(t2):
        dephase_prob = 0.0
    else:
        t_phi_inverse = 1.0 / t2 - (0.0 if math.isinf(t1) else 1.0 / (2.0 * t1))
        t_phi_inverse = max(t_phi_inverse, 0.0)
        dephase_prob = (1.0 - math.exp(-elapsed * t_phi_inverse)) / 2.0
    return gamma, dephase_prob


@lru_cache(maxsize=4096)
def decoherence_kraus(elapsed: float, t1: float, t2: float) -> KrausOps:
    """Combined T1/T2 memory channel for ``elapsed`` ns of idle time.

    ``t1`` is the relaxation time and ``t2`` the dephasing time (both ns,
    ``math.inf`` disables the respective process).  Returns the composed Kraus
    operators (damping then dephasing — the two commute in their effect on
    the density matrix when composed over infinitesimal steps; for the
    exponential model the ordering error is zero because both are diagonal
    in the same operator basis combination used here).
    """
    if elapsed < 0:
        raise ValueError("elapsed time must be non-negative")
    if elapsed == 0:
        return _frozen(I2.copy())
    gamma, dephase_prob = decoherence_probabilities(elapsed, t1, t2)
    ops: list[np.ndarray] = []
    for damping_op in amplitude_damping_kraus(gamma):
        for dephasing_op in dephasing_kraus(dephase_prob):
            ops.append(dephasing_op @ damping_op)
    return _frozen(*ops)


def is_trace_preserving(ops: KrausOps, tol: float = 1e-9) -> bool:
    """Check ``sum K† K = I`` (used by tests)."""
    dim = ops[0].shape[0]
    total = sum(op.conj().T @ op for op in ops)
    return bool(np.allclose(total, np.eye(dim), atol=tol))


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
