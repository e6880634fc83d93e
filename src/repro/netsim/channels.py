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
ports, ``"a"`` and ``"b"`` (protocol :data:`CLASSICAL`).  Everything
crosses it through a :class:`ChannelEnd`, one direction bound when it is
wired to the handler at the far end of the chain: a node binds one per
neighbour and message kind, straight to the agent serving the kind there.
The ports have their own two ends: what is handed to one port leaves
through the other, to whatever is connected there when it arrives (a
:func:`~repro.netsim.ports.subscribe` adapter, for hand-driven tests).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .entity import Entity
from .ports import Component, Port
from .scheduler import Simulator
from .units import fibre_delay

#: Protocol tag spoken by classical-channel ports and the node ports that
#: attach to them.
CLASSICAL = "classical"


class ChannelEnd:
    """One direction of a :class:`ClassicalChannel`, bound to its receiver:
    :meth:`send` schedules ``handler(message)`` for the arrival time."""

    def __init__(self, channel: ClassicalChannel, to_index: int):
        self.channel = channel
        #: Side the end delivers to (0 = ``a``, 1 = ``b``).
        self.to_index = to_index
        self._handler: Optional[Callable[[Any], None]] = None

    def bind(self, handler: Callable[[Any], None]) -> ChannelEnd:
        """Deliver what this end carries to ``handler``; returns the end."""
        self._handler = handler
        return self

    def send(self, message: Any) -> None:
        """Carry ``message`` across the channel to the bound handler."""
        channel = self.channel
        if channel.is_cut:
            return
        sim = channel.sim
        deliver_at = sim._now + (channel._fibre_delay + channel.processing_delay)
        last_delivery = channel._last_delivery
        to_index = self.to_index
        if deliver_at < last_delivery[to_index]:
            deliver_at = last_delivery[to_index]
        last_delivery[to_index] = deliver_at
        # Deliveries are never cancelled, so use the pooled no-handle path
        # (one recycled EventHandle instead of an allocation per message).
        sim.post_at(deliver_at, self._handler, message)


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
        # Earliest allowed delivery time per direction, to preserve FIFO
        # ordering when the processing delay shrinks mid-run.
        self._last_delivery = [0.0, 0.0]
        #: Failure injection: a cut channel silently drops everything.
        self.is_cut = False
        #: The ports' own ends, by the side they send from.
        self._ends = (ChannelEnd(self, 1), ChannelEnd(self, 0))
        #: Ports by side index (0 = ``a``, 1 = ``b``).
        self._sides = (self.add_port("a", CLASSICAL, handler=self._ends[0].send),
                       self.add_port("b", CLASSICAL, handler=self._ends[1].send))
        # What crosses to a side leaves through its port: Port.tx raises
        # PortNotConnectedError on arrival when nothing is connected there.
        for end in self._ends:
            end.bind(self._sides[end.to_index].tx)

    def cut(self) -> None:
        """Sever the channel (fibre cut): all traffic is dropped until
        :meth:`restore`.  Used for failure-injection tests and the liveness
        mechanism of Sec 4.1."""
        self.is_cut = True

    def restore(self) -> None:
        """Repair a cut channel."""
        self.is_cut = False

    def across(self, side: Port) -> Port:
        """The channel's port on the other side from ``side``."""
        return self._sides[1 - self._sides.index(side)]

    def end(self, side: Port) -> ChannelEnd:
        """A new end sending from ``side`` across the channel; bind it to
        the handler that receives."""
        return ChannelEnd(self, 1 - self._sides.index(side))
