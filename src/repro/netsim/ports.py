"""Typed component-and-port wiring for the simulation graph.

Historically the builder wired protocol machines together by assigning
callbacks onto each other's attributes.  That made the wiring invisible —
there was no object that *was* the connection, nothing validated that the
two sides spoke the same message protocol, and every new layer
(multi-domain gateways, alternative physical models) had to invent its
own ad-hoc attachment point.

This module is the replacement seam, modelled on NetSquid's
component/port idiom:

* a :class:`Component` owns named :class:`Port` objects, each declaring
  the **message protocol** it speaks (a plain string tag such as
  ``"classical"`` or ``"egp.delivery"``);
* :func:`connect` joins exactly two ports and refuses mismatched
  protocols or double connections with typed errors that name the
  offending components;
* :meth:`Port.tx` hands a message to the peer port's handler
  **synchronously** — ports add no scheduling of their own, so rewiring
  a callback-based graph onto ports is event-schedule-neutral (the
  byte-identical-telemetry guarantee the analytic link model pins);
* everything is plain attributes and module-level callables, so a wired
  graph pickles — :mod:`repro.persist` checkpoints the whole engine and
  the port topology must survive the round trip.

Handlers must therefore be picklable themselves: bound methods or
:func:`functools.partial` over bound methods, never lambdas or local
closures.
"""

from __future__ import annotations

from typing import Any, Callable, Optional


class PortError(Exception):
    """Base class for port-graph wiring and messaging errors."""


class ProtocolMismatchError(PortError, TypeError):
    """Two ports with different declared protocols were connected."""


class PortAlreadyConnectedError(PortError, RuntimeError):
    """A port that already has a peer was connected again."""


class PortNotConnectedError(PortError, RuntimeError):
    """A message was transmitted on a port with no peer."""


class Port:
    """One typed attachment point of a :class:`Component`.

    Parameters
    ----------
    component:
        The owning component (any object; its ``name`` attribute, when
        present, is used in error messages).
    name:
        Port name, unique within the component.
    protocol:
        Message protocol tag.  :func:`connect` only joins ports whose
        tags compare equal.
    handler:
        Optional inbound-message callback ``handler(message)``.  A port
        without a handler is send-only.  Must be picklable (bound method
        or partial of one) when the component participates in
        checkpointed simulations.
    """

    def __init__(self, component: Any, name: str, protocol: str,
                 handler: Optional[Callable[[Any], None]] = None):
        self.component = component
        self.name = name
        self.protocol = protocol
        self.handler = handler
        self.peer: Optional["Port"] = None

    @property
    def connected(self) -> bool:
        """Whether the port currently has a peer."""
        return self.peer is not None

    @property
    def full_name(self) -> str:
        """``component.port`` label used in error messages."""
        return f"{component_name(self.component)}.{self.name}"

    def connect(self, peer: "Port") -> None:
        """Join this port with ``peer`` (symmetric; see :func:`connect`)."""
        if not isinstance(peer, Port):
            raise TypeError(f"can only connect ports, not {peer!r}")
        if peer is self:
            raise ProtocolMismatchError(
                f"cannot connect port {self.full_name} to itself")
        if self.protocol != peer.protocol:
            raise ProtocolMismatchError(
                f"cannot connect {self.full_name} [{self.protocol}] to "
                f"{peer.full_name} [{peer.protocol}]: protocols differ")
        for port in (self, peer):
            if port.peer is not None:
                raise PortAlreadyConnectedError(
                    f"port {port.full_name} is already connected to "
                    f"{port.peer.full_name}")
        self.peer = peer
        peer.peer = self

    def disconnect(self) -> None:
        """Detach this port from its peer (no-op when unconnected)."""
        peer = self.peer
        if peer is None:
            return
        self.peer = None
        peer.peer = None

    def tx(self, message: Any) -> None:
        """Deliver ``message`` to the peer port's handler, synchronously.

        No event is scheduled: latency, if any, belongs to the component
        in the middle (e.g. a classical channel), not to the wiring.
        """
        peer = self.peer
        if peer is None:
            raise PortNotConnectedError(
                f"port {self.full_name} transmitted with no peer connected")
        handler = peer.handler
        if handler is None:
            raise PortError(
                f"peer port {peer.full_name} of {self.full_name} "
                f"declares no inbound handler")
        handler(message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        peer = self.peer.full_name if self.peer is not None else None
        return f"<Port {self.full_name} [{self.protocol}] peer={peer}>"


def component_name(component: Any) -> str:
    """Best-effort display name of a component for diagnostics."""
    name = getattr(component, "name", None)
    if isinstance(name, str) and name:
        return name
    return type(component).__name__


class Component:
    """Mixin giving a class named, typed ports.

    Designed to compose with :class:`~repro.netsim.entity.Entity` (or any
    plain class): no ``__init__`` of its own, the port table is created
    lazily on first :meth:`add_port`, and everything lives in ordinary
    instance attributes so pickling needs no special support.
    """

    _ports: dict[str, Port]

    def add_port(self, name: str, protocol: str,
                 handler: Optional[Callable[[Any], None]] = None) -> Port:
        """Create (and register) a new port on this component."""
        ports = getattr(self, "_ports", None)
        if ports is None:
            ports = self._ports = {}
        if name in ports:
            raise ValueError(
                f"{component_name(self)}: port {name!r} already exists")
        port = ports[name] = Port(self, name, protocol, handler)
        return port

    def port(self, name: str) -> Port:
        """Look up a port by name (``KeyError`` names the component)."""
        try:
            return self._ports[name]
        except (AttributeError, KeyError):
            raise KeyError(
                f"{component_name(self)} has no port {name!r}") from None

    def has_port(self, name: str) -> bool:
        """Whether a port of that name exists on this component."""
        return name in getattr(self, "_ports", ())

    def port_names(self) -> list[str]:
        """Names of all ports, in creation order."""
        return list(getattr(self, "_ports", ()))


def connect(a: Port, b: Port) -> None:
    """Connect two ports, validating protocol compatibility.

    Raises :class:`ProtocolMismatchError` when the protocol tags differ
    and :class:`PortAlreadyConnectedError` when either port already has a
    peer; both errors name the offending components.
    """
    a.connect(b)


class CallbackComponent(Component):
    """Adapter wrapping a plain callable into a one-port component.

    Bridges legacy callback-style consumers (and tests) onto the port
    graph: the callable becomes the handler of the single ``io`` port,
    and :meth:`tx` sends outbound through the same port.
    """

    def __init__(self, callback: Optional[Callable[[Any], None]],
                 protocol: str, name: str = ""):
        self.name = name or f"callback[{protocol}]"
        self.io = self.add_port("io", protocol, handler=callback)

    def tx(self, message: Any) -> None:
        """Send a message out through the adapter's port."""
        self.io.tx(message)


def subscribe(port: Port, callback: Callable[[Any], None],
              name: str = "") -> CallbackComponent:
    """Connect a plain callable to ``port``; returns the adapter.

    The adapter's :meth:`CallbackComponent.tx` sends in the opposite
    direction (into ``port``'s component), which is what tests driving a
    channel or a protocol machine by hand need.
    """
    adapter = CallbackComponent(callback, port.protocol,
                                name=name or f"subscriber:{port.full_name}")
    connect(port, adapter.io)
    return adapter
