"""Qubit handles.

A :class:`Qubit` is a stable identity that protocols can hold while the
underlying shared quantum state (:class:`~repro.quantum.states.QState`)
merges, collapses and shrinks around it.  The hardware layer stamps each
qubit with its memory decoherence parameters so noise can be applied lazily.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .states import QState


class Qubit:
    """A single qubit, member of at most one :class:`QState`.

    Attributes
    ----------
    t1, t2:
        Memory relaxation / dephasing times in ns (``math.inf`` = noiseless).
    last_noise_time:
        Simulated timestamp up to which memory noise has been applied.
    """

    __slots__ = ("name", "state", "t1", "t2", "last_noise_time", "owner")

    def __init__(self, name: str = "", t1: float = math.inf, t2: float = math.inf):
        # The name only labels reprs and error messages; the link layer
        # names every qubit it materialises (``link:seq@node``), the rest
        # share the placeholder.
        self.name = name or "q"
        self.state: Optional["QState"] = None
        self.t1 = t1
        self.t2 = t2
        self.last_noise_time = 0.0
        #: Opaque slot reference used by the quantum memory manager.
        self.owner = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "active" if self.state is not None else "freed"
        return f"<Qubit {self.name} {status}>"
