"""Reliable, in-order transport for control messages (Sec 4.1).

The QNP "requires that all its control messages are transmitted reliably
and in order ... we may simply rely on a transport protocol to provide
these guarantees (e.g. TCP or QUIC)".  The builder's default classical
channels are already reliable and ordered, matching the paper's Appendix B
simplification.  For completeness — and for failure-injection tests — this
module implements a small stop-and-wait ARQ that provides the same
guarantees over a :class:`~repro.netsim.channels.LossyChannel`.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..netsim.channels import CLASSICAL, ChannelEnd
from ..netsim.entity import Entity
from ..netsim.ports import Component, connect
from ..netsim.scheduler import Simulator
from ..netsim.timers import Timer

#: Protocol tag of the in-order delivery port a ReliableEnd exposes.
TRANSPORT = "transport"


class ReliableEnd(Entity, Component):
    """One endpoint of a reliable byte^W message stream (stop-and-wait ARQ).

    Ports: ``raw`` (protocol ``"classical"``) faces the lossy channel;
    ``rx`` (protocol :data:`TRANSPORT`) delivers de-duplicated, in-order
    payloads to whatever the application connects there.
    """

    def __init__(self, sim: Simulator, raw_end: ChannelEnd, rto: float,
                 name: str = ""):
        super().__init__(sim, name or "reliable-end")
        if rto <= 0:
            raise ValueError("retransmission timeout must be positive")
        self.rto = rto
        self._raw_port = self.add_port("raw", CLASSICAL, handler=self._on_raw)
        self._rx_port = self.add_port("rx", TRANSPORT)
        self._send_queue: deque[Any] = deque()
        self._next_send_seq = 0
        self._awaiting_ack = False
        self._expected_seq = 0
        self._retransmit = Timer(sim, self._on_timeout)
        self.retransmissions = 0
        connect(self._raw_port, raw_end.port)

    def send(self, message: Any) -> None:
        """Queue a message for reliable, in-order transmission."""
        self._send_queue.append(message)
        self._pump()

    # ------------------------------------------------------------------

    def _pump(self) -> None:
        if self._awaiting_ack or not self._send_queue:
            return
        self._awaiting_ack = True
        self._transmit()

    def _transmit(self) -> None:
        payload = self._send_queue[0]
        self._raw_port.tx(("DATA", self._next_send_seq, payload))
        self._retransmit.start(self.rto)

    def _on_timeout(self) -> None:
        if self._awaiting_ack:
            self.retransmissions += 1
            self._transmit()

    def _on_raw(self, frame: Any) -> None:
        kind, seq, payload = frame
        if kind == "ACK":
            if self._awaiting_ack and seq == self._next_send_seq:
                self._retransmit.cancel()
                self._awaiting_ack = False
                self._send_queue.popleft()
                self._next_send_seq += 1
                self._pump()
            return
        # DATA frame: ack everything at or below the expected sequence.
        if seq == self._expected_seq:
            self._expected_seq += 1
            self._raw_port.tx(("ACK", seq, None))
            # tx() raises PortNotConnectedError (a RuntimeError) when no
            # receiver is attached on the rx side.
            self._rx_port.tx(payload)
        elif seq < self._expected_seq:
            # Duplicate (our ACK was lost): re-ack, do not deliver again.
            self._raw_port.tx(("ACK", seq, None))


def make_reliable_pair(sim: Simulator, channel, rto: float
                       ) -> tuple[ReliableEnd, ReliableEnd]:
    """Wrap both ends of a (possibly lossy) channel in ARQ endpoints."""
    end_a = ReliableEnd(sim, channel.ends[0], rto, name="reliable-a")
    end_b = ReliableEnd(sim, channel.ends[1], rto, name="reliable-b")
    return end_a, end_b
