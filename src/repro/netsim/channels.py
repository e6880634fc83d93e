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
channel delay.  Code that injects messages by hand subscribes to a port
(:func:`~repro.netsim.ports.subscribe`) and sends through the adapter's ``io`` port.
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
        #: One-way propagation delay (ns); the fibre length never changes.
        self._fibre_delay = fibre_delay(length_km)
        #: Read on every send: Fig 10c changes it mid-run.
        self.processing_delay = processing_delay
        #: Ports by side index (0 = ``a``, 1 = ``b``) for delivery.
        self._sides = (self.add_port("a", CLASSICAL, handler=self._rx_a),
                       self.add_port("b", CLASSICAL, handler=self._rx_b))
        # Earliest allowed delivery time per direction, to preserve FIFO
        # ordering when the processing delay shrinks mid-run.
        self._last_delivery = [0.0, 0.0]
        self.messages_sent = 0
        #: Failure injection: a cut channel silently drops everything.
        self.is_cut = False

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
        sim = self.sim
        deliver_at = sim._now + (self._fibre_delay + self.processing_delay)
        if deliver_at < self._last_delivery[to_index]:
            deliver_at = self._last_delivery[to_index]
        self._last_delivery[to_index] = deliver_at
        self.messages_sent += 1
        # Deliveries are never cancelled, so use the pooled no-handle path
        # (one recycled EventHandle instead of an allocation per message).
        sim.post_at(deliver_at, self._deliver_to, to_index, message)

    def _deliver_to(self, index: int, message: Any) -> None:
        """Hand a message to whatever is connected on side ``index``."""
        # tx() raises PortNotConnectedError (a RuntimeError) when nothing
        # is attached — the same failure mode the receiver-less legacy
        # channel had.
        self._sides[index].tx(message)
