"""User-facing request API of the quantum network layer (Sec 3.2).

Applications ask for entangled pairs with a fidelity threshold and a time
class of service:

* *measure directly*: ``N`` pairs by deadline ``T``, or a rate ``R``;
* *create and keep*: ``N`` pairs by ``T`` with the last at most ``Δt``
  after the first.

``request_type`` selects when the pair is consumed (Appendix C.2):

* ``KEEP`` — delivered once creation is confirmed by tracking,
* ``EARLY`` — delivered as soon as the local qubit exists; the application
  handles failure notifications and waits for tracking info itself,
* ``MEASURE`` — the QNP measures immediately and withholds the outcome
  until tracking confirms the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..quantum.bell import BellIndex


class RequestType(Enum):
    """When the pair is to be consumed (FORWARD.request_type)."""

    KEEP = "keep"
    EARLY = "early"
    MEASURE = "measure"


class DeliveryStatus(Enum):
    """Lifecycle of one delivered pair."""

    #: EARLY delivery: qubit handed over, tracking info still pending.
    PENDING = "pending"
    #: Tracking confirmed; Bell state information final.
    CONFIRMED = "confirmed"
    #: The chain broke (EXPIRE) or the demux cross-check failed.
    EXPIRED = "expired"


class RequestStatus(Enum):
    """Lifecycle of a whole request."""

    QUEUED = "queued"        # shaped: waiting for circuit bandwidth
    ACTIVE = "active"
    COMPLETED = "completed"
    REJECTED = "rejected"    # policed: minimum EER cannot be satisfied
    ABORTED = "aborted"


@dataclass(slots=True)
class UserRequest:
    """An application's request for end-to-end entangled pairs."""

    #: Number of pairs (None for pure rate requests).
    num_pairs: Optional[int] = None
    #: Requested rate R in pairs/s (measure-directly rate class).
    rate: Optional[float] = None
    #: Deadline T in ns from submission (None / 0 = no deadline).
    deadline: Optional[float] = None
    #: Create-and-keep window Δt in ns (last pair ≤ Δt after the first).
    delta_t: Optional[float] = None
    request_type: RequestType = RequestType.KEEP
    #: Measurement basis for MEASURE requests.
    measure_basis: str = "Z"
    #: If set, the head-end Pauli-corrects pairs into this Bell state
    #: (unavailable for EARLY requests).
    final_state: Optional[BellIndex] = None
    #: ``None`` until submission, which names the request ``req<N>`` from
    #: the simulation's own stream; an explicit identifier is kept as given.
    request_id: Optional[str] = None

    def __post_init__(self):
        if self.num_pairs is None and self.rate is None:
            raise ValueError("request needs a pair count or a rate")
        if self.num_pairs is not None and self.num_pairs <= 0:
            raise ValueError("num_pairs must be positive")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.final_state is not None and self.request_type == RequestType.EARLY:
            raise ValueError("EARLY requests cannot ask for a final state "
                             "(the correction frame is not yet known)")
        if self.delta_t is not None and self.delta_t <= 0:
            raise ValueError("delta_t must be positive")

    def minimum_eer(self) -> float:
        """Minimum end-to-end rate (pairs/s) this request needs (Sec 4.1).

        measure directly: N/T, or R, or 0 when no deadline;
        create and keep: N/Δt.
        """
        if self.delta_t is not None and self.num_pairs is not None:
            return self.num_pairs / (self.delta_t / 1e9)
        if self.rate is not None:
            return self.rate
        if self.deadline and self.num_pairs is not None:
            return self.num_pairs / (self.deadline / 1e9)
        return 0.0

    @property
    def is_rate_based(self) -> bool:
        """Rate-only requests let the QNP scale down the link LPR."""
        return self.num_pairs is None and self.rate is not None


@dataclass
class PairDelivery:
    """One end-to-end pair (or its measurement outcome) handed to a user."""

    request_id: str
    sequence: int
    status: DeliveryStatus
    #: The local qubit handle (KEEP/EARLY; None for MEASURE).
    qubit: Optional[object]
    #: Measurement outcome bit (MEASURE only).
    measurement: Optional[int]
    #: The Bell state of the delivered pair (None while PENDING).
    bell_state: Optional[BellIndex]
    #: Entangled pair identifier — the end-to-end pair identity (Sec 3.2),
    #: realised as the origin end-node's link-pair correlator.
    pair_id: tuple
    t_created: float
    t_delivered: float
    #: The circuit's worst-case fidelity estimate from the routing budget
    #: (the protocol cannot measure actual fidelity — Sec 4.1).
    estimated_fidelity: float = 0.0


class RequestHandle:
    """Caller-side view of a submitted request.

    A handle keeps tallies, never pairs, so a long run holds no per-pair
    objects:

    * ``pairs_confirmed`` counts the notifications that carry the
      CONFIRMED status, once per pair: KEEP/MEASURE pairs arrive already
      confirmed, EARLY pairs arrive PENDING and are counted when tracking
      confirms them;
    * ``fidelities`` holds the ground-truth fidelity of each pair matched
      at both ends, in match order — filled by
      :meth:`~repro.network.builder.Network.submit` when it records
      fidelities, empty otherwise.

    To see the pairs themselves, subscribe: :meth:`on_delivery` for the
    head-end's deliveries, or ``on_matched`` of
    :meth:`~repro.network.builder.Network.submit` for each pair seen at
    both ends.  The head-end drops the listeners once the request is
    over there (finished, and none of its pairs still in flight); no
    delivery can reach the handle after that, and a late
    :meth:`on_delivery` is ignored.
    """

    # Slotted: a long traffic run keeps one handle per session.
    __slots__ = ("request", "status", "t_submitted", "t_started",
                 "t_completed", "estimated_fidelity", "pairs_confirmed",
                 "fidelities", "_listeners", "_submission", "_waiter")

    def __init__(self, request: UserRequest, estimated_fidelity: float = 0.0):
        self.request = request
        self.status = RequestStatus.QUEUED
        self.t_submitted: float = 0.0
        self.t_started: Optional[float] = None
        self.t_completed: Optional[float] = None
        self.estimated_fidelity = estimated_fidelity
        self.pairs_confirmed = 0
        self.fidelities: list[float] = []
        #: The listeners, in registration order; ``None`` once the
        #: head-end has closed the handle.
        self._listeners: Optional[tuple] = ()
        #: The submitting façade's per-request state, if any: told when
        #: the request starts and, before the listeners, of each
        #: notification (see :class:`~repro.network.builder._Submission`).
        self._submission = None
        self._waiter = None

    @property
    def request_id(self) -> str:
        return self.request.request_id

    @property
    def latency(self) -> Optional[float]:
        """Submission-to-completion latency in ns (None until complete)."""
        if self.t_completed is None:
            return None
        return self.t_completed - self.t_submitted

    def on_delivery(self, callback) -> None:
        """Register a callback invoked with each :class:`PairDelivery`
        notification: every delivery, and every later status change of
        an EARLY one (the same object, CONFIRMED or EXPIRED)."""
        if self._listeners is not None:
            self._listeners += (callback,)

    def _start(self, now: float) -> None:
        """The head-end started the request (at once, or off the queue)."""
        self.status = RequestStatus.ACTIVE
        self.t_started = now
        if self._submission is not None:
            self._submission.start()

    def _notify(self, delivery: PairDelivery) -> None:
        if delivery.status is DeliveryStatus.CONFIRMED:
            self.pairs_confirmed += 1
        # Read first: subscribing or closing the handle mid-notification
        # does not change who hears this one.
        listeners = self._listeners or ()
        if self._submission is not None:
            self._submission.head_delivery(delivery)
        for listener in listeners:
            listener(delivery)

    def _finish(self, status: RequestStatus, now: float) -> None:
        """End the request with a terminal ``status`` at time ``now``.

        Calls the waiter that
        :meth:`~repro.network.builder.Network.run_until_complete` arms.
        """
        self.status = status
        if status is RequestStatus.COMPLETED:
            self.t_completed = now
        if self._waiter is not None:
            self._waiter()

    def _close(self) -> None:
        """Drop the listeners: nothing will be delivered any more."""
        self._listeners = None
        self._submission = None
