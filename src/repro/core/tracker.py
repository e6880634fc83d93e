"""Swap records, discard records and pending-TRACK stores (Appendix C.3).

An intermediate node keeps, per circuit and per direction (upstream /
downstream link):

* a queue of **available pairs** waiting for a match on the other link,
  each with its cutoff timer,
* **qubit records** — after a swap, the mapping from the consumed pair's
  correlator to the continuing pair's correlator plus the combined Bell
  frame (what a passing TRACK needs),
* **pending TRACKs** — TRACK messages that arrived before the swap (or the
  expiry) of the pair they reference,
* **expire records** — correlators whose qubit was discarded by the cutoff
  timer before any TRACK arrived.

The Bell-frame combination is the XOR algebra of
:mod:`repro.quantum.bell`, verified against the density-matrix engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from ..netsim.scheduler import EventHandle
from ..quantum.bell import BellIndex
from ..quantum.qubit import Qubit
from .messages import Track


@dataclass
class PairInfo:
    """A link pair waiting at a node."""

    correlator: tuple
    qubit: Qubit
    bell_index: BellIndex
    goodness: float
    t_create: float
    #: The pending cutoff event (Alg 9), cancelled when the pair is used.
    timer: Optional[EventHandle] = None

    def cancel_timer(self) -> None:
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None


@dataclass
class SwapRecord:
    """Result of an entanglement swap, seen from one direction.

    ``continuation_correlator`` is the pair on the *other* link;
    ``frame_delta`` is the Bell-frame contribution to XOR into a passing
    TRACK's outcome state: (other pair's Bell index) ⊕ (swap outcome).
    """

    continuation_correlator: tuple
    frame_delta: int


@dataclass
class DirectionState:
    """Per-direction bookkeeping at an intermediate node."""

    #: Pairs available for swapping, oldest first (Sec 5: "entanglement
    #: swaps always prefer the oldest unexpired pairs").
    available: deque[PairInfo] = field(default_factory=deque)
    #: correlator → SwapRecord (Alg 7's upstream/downstream_qubit_record).
    qubit_records: dict = field(default_factory=dict)
    #: correlator → pending Track (Alg 7/8's upstream/downstream_track).
    pending_tracks: dict = field(default_factory=dict)
    #: correlators discarded by the cutoff before any TRACK arrived.
    expire_records: set = field(default_factory=set)

    def pop_oldest(self) -> Optional[PairInfo]:
        if not self.available:
            return None
        return self.available.popleft()

    def remove(self, correlator: tuple) -> Optional[PairInfo]:
        for pair in self.available:
            if pair.correlator == correlator:
                self.available.remove(pair)
                return pair
        return None

    def take_pending_track(self, correlator: tuple) -> Optional[Track]:
        return self.pending_tracks.pop(correlator, None)


@dataclass
class EndPairState:
    """End-node view of one of its own link pairs (``in_transit``)."""

    correlator: tuple
    request_id: str
    #: Local qubit, until consumed (None for MEASURE after measuring).
    qubit: Optional[Qubit]
    bell_index: BellIndex
    goodness: float
    t_create: float
    #: Withheld measurement outcome (MEASURE requests).
    measurement: Optional[int] = None
    #: Delivery already made (EARLY requests) awaiting confirmation.
    early_delivery: Optional[object] = None
