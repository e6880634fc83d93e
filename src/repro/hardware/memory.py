"""Lazy memory decoherence (loss mechanism P4 of Sec 2.3).

Rather than ticking noise on a clock, every qubit records the timestamp up
to which memory noise has been applied; callers invoke
:func:`apply_memory_noise` right before any operation, measurement or
delivery.  Because the T1/T2 channels compose in time this is exact, and it
keeps the event count independent of memory lifetimes.
"""

from __future__ import annotations

from ..quantum.qubit import Qubit


def stamp(qubit: Qubit, now: float, t1: float, t2: float) -> None:
    """Initialise a qubit's noise bookkeeping when it enters memory."""
    qubit.t1 = t1
    qubit.t2 = t2
    qubit.last_noise_time = now


def apply_memory_noise(qubit: Qubit, now: float) -> None:
    """Apply idle decoherence for the time elapsed since the last update."""
    if qubit.state is None:
        return
    elapsed = now - qubit.last_noise_time
    if elapsed < 0:
        raise ValueError(
            f"time went backwards for {qubit.name}: {qubit.last_noise_time} -> {now}")
    if elapsed == 0:
        return
    # Polymorphic over the state formalism: the exact engine builds the
    # (memoized) T1/T2 Kraus channel, the Bell-diagonal engine updates its
    # four weights analytically.
    qubit.state.apply_decoherence(elapsed, qubit.t1, qubit.t2, qubit)
    qubit.last_noise_time = now
