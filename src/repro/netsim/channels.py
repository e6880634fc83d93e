"""Classical message channels.

All control traffic in a quantum network travels over ordinary classical
links (Fig 1 of the paper).  The paper assumes a reliable, in-order transport
(TCP) on top of fibre with speed-of-light delay, and — for Fig 10c — injects
an artificial *processing delay* between a message being sent and it being
processed at the next node.  :class:`ClassicalChannel` models exactly that.

Delivery order: for a fixed per-message delay the FIFO tie-break of the event
queue preserves ordering.  When the processing delay is changed mid-run the
channel still enforces in-order delivery by never letting a message overtake
an earlier one (like a TCP stream would).

Wiring: a channel is a :class:`~repro.netsim.ports.Component` with two
ports, ``"a"`` and ``"b"`` (protocol :data:`CLASSICAL`).  A message
received on one port is delivered out of the opposite port after the
channel delay.  ``channel.ends[i]`` (a :class:`ChannelEnd`) names one end
for code that injects messages with ``send`` or needs the matching port.
"""

from __future__ import annotations

from typing import Any

from .entity import Entity
from .ports import Component
from .scheduler import Simulator
from .units import fibre_delay

#: Protocol tag spoken by classical-channel ports and the node ports that
#: attach to them.
CLASSICAL = "classical"


class ChannelEnd:
    """Endpoint handle of a classical channel: index 0 is port ``"a"``,
    index 1 is port ``"b"``."""

    def __init__(self, channel: "ClassicalChannel", index: int):
        self._channel = channel
        self._index = index

    @property
    def port(self):
        """The channel port this end corresponds to."""
        return self._channel.port("a" if self._index == 0 else "b")

    def send(self, message: Any) -> None:
        """Send ``message`` to the opposite endpoint."""
        self._channel._transmit(self._index, message)


class ClassicalChannel(Entity, Component):
    """Reliable, in-order, bidirectional classical channel.

    Parameters
    ----------
    sim:
        The simulator.
    length_km:
        Fibre length; sets the propagation delay.
    processing_delay:
        Extra delay (ns) added to every message, modelling protocol stack
        processing at the receiving node.  This is the knob turned in the
        paper's Fig 10c.
    name:
        Diagnostic name.
    """

    def __init__(self, sim: Simulator, length_km: float = 0.0,
                 processing_delay: float = 0.0, name: str = ""):
        super().__init__(sim, name or f"cchannel({length_km}km)")
        self.length_km = length_km
        self.processing_delay = processing_delay
        self.add_port("a", CLASSICAL, handler=self._rx_a)
        self.add_port("b", CLASSICAL, handler=self._rx_b)
        self.ends = (ChannelEnd(self, 0), ChannelEnd(self, 1))
        # Earliest allowed delivery time per direction, to preserve FIFO
        # ordering when the processing delay shrinks mid-run.
        self._last_delivery = [0.0, 0.0]
        self.messages_sent = 0
        #: Failure injection: a cut channel silently drops everything.
        self.is_cut = False

    @property
    def propagation_delay(self) -> float:
        """One-way propagation delay in ns."""
        return fibre_delay(self.length_km)

    def total_delay(self) -> float:
        """Current end-to-end per-message delay in ns."""
        return self.propagation_delay + self.processing_delay

    def cut(self) -> None:
        """Sever the channel (fibre cut): all traffic is dropped until
        :meth:`restore`.  Used for failure-injection tests and the liveness
        mechanism of Sec 4.1."""
        self.is_cut = True

    def restore(self) -> None:
        """Repair a cut channel."""
        self.is_cut = False

    def _rx_a(self, message: Any) -> None:
        """Port ``a`` inbound handler: transmit towards side b."""
        self._transmit(0, message)

    def _rx_b(self, message: Any) -> None:
        """Port ``b`` inbound handler: transmit towards side a."""
        self._transmit(1, message)

    def _transmit(self, from_index: int, message: Any) -> None:
        if self.is_cut:
            return
        to_index = 1 - from_index
        deliver_at = self.now + self.total_delay()
        if deliver_at < self._last_delivery[to_index]:
            deliver_at = self._last_delivery[to_index]
        self._last_delivery[to_index] = deliver_at
        self.messages_sent += 1
        # Deliveries are never cancelled, so use the pooled no-handle path
        # (one recycled EventHandle instead of an allocation per message).
        self.sim.post_at(deliver_at, self._deliver_to, to_index, message)

    def _deliver_to(self, index: int, message: Any) -> None:
        """Hand a message to whatever is connected on side ``index``."""
        # tx() raises PortNotConnectedError (a RuntimeError) when nothing
        # is attached — the same failure mode the receiver-less legacy
        # channel had.
        self.port("a" if index == 0 else "b").tx(message)


class LossyChannel(ClassicalChannel):
    """A classical channel that can drop messages with a fixed probability.

    The QNP itself assumes a reliable transport; this class exists so the
    transport layer (:mod:`repro.control.transport`) has something real to
    provide reliability *over*, and for failure-injection tests.
    """

    def __init__(self, sim: Simulator, length_km: float = 0.0,
                 processing_delay: float = 0.0, loss_probability: float = 0.0,
                 name: str = ""):
        super().__init__(sim, length_km, processing_delay, name)
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        self.loss_probability = loss_probability
        self.messages_dropped = 0

    def _transmit(self, from_index: int, message: Any) -> None:
        if self.sim.rng.random() < self.loss_probability:
            self.messages_dropped += 1
            return
        super()._transmit(from_index, message)
