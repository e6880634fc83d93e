"""The quantum node: hardware + OS services + protocol attachment points.

Mirrors Fig 4 of the paper: each node owns a quantum device, a quantum
memory management unit, a task scheduler (device arbiter), classical
channels to its neighbours, and the network stack (link layer endpoints and
the QNP engine) that gets attached by the topology builder.

Wiring (see :mod:`repro.netsim.ports`): one ``cl:<neighbour>`` port per
neighbour (protocol ``"classical"``), which the builder connects to the
classical channel towards that neighbour.  Each protocol agent (QNP
engine, signalling, liveness) registers the handler for its message kind
with :meth:`QuantumNode.serve` and sends through
:meth:`QuantumNode.channel_end`, bound to the agent that serves the kind
at the neighbour: a message crosses no node code.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Optional

from ..hardware.nv import NVDevice
from ..hardware.parameters import HardwareParams
from ..netsim.channels import CLASSICAL, ChannelEnd
from ..netsim.entity import Entity
from ..netsim.ports import (Component, Port, PortAlreadyConnectedError,
                            PortNotConnectedError)
from ..netsim.scheduler import Simulator
from ..quantum.backends import Backend, get_backend
from .arbiter import DeviceArbiter
from .qmm import QuantumMemoryManager


class QuantumNode(Entity, Component):
    """One node of the quantum network."""

    def __init__(self, sim: Simulator, name: str, params: HardwareParams,
                 backend: Optional[Backend] = None):
        super().__init__(sim, name)
        self.params = params
        #: State formalism the node's pairs live in (every attached link
        #: creates its pairs through it).
        self.backend = get_backend(backend)
        self.device = NVDevice(sim, params, name=f"{name}.device")
        self.qmm = QuantumMemoryManager(name)
        self.arbiter = DeviceArbiter(sim, name=f"{name}.arbiter",
                                     serialize=not params.parallel_links)
        if params.storage_qubits:
            self.qmm.configure_storage(params.storage_qubits)
        #: Link-layer endpoints by link name (set by the builder).
        self.links: dict[str, Any] = {}
        #: Classical ports by neighbour node name.
        self._classical: dict[str, Port] = {}
        #: Inbound handler per message kind, ``handler(sender, payload)``.
        self._served: dict[str, Callable[[str, Any], None]] = {}
        #: Bound channel ends by ``(neighbour, kind)``.
        self._ends: dict[tuple[str, str], ChannelEnd] = {}
        #: Neighbour name per link name.
        self.link_neighbour: dict[str, str] = {}
        #: The QNP engine (attached by the builder).
        self.qnp: Optional[Any] = None

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------

    def attach_link(self, link: Any, neighbour: str) -> None:
        """Register a link endpoint and its comm-qubit pool."""
        if link.name in self.links:
            raise ValueError(f"{self.name}: link {link.name} already attached")
        self.links[link.name] = link
        self.link_neighbour[link.name] = neighbour
        self.qmm.register_link(link.name, self.params.comm_qubits_per_link)

    # ------------------------------------------------------------------
    # Classical communication
    # ------------------------------------------------------------------

    def classical_port(self, neighbour: str) -> Port:
        """The port carrying classical traffic towards ``neighbour``.

        Created on first use; the builder connects it to one end of the
        :class:`~repro.netsim.channels.ClassicalChannel` for the hop.
        """
        port = self._classical.get(neighbour)
        if port is None:
            port = self.add_port(f"cl:{neighbour}", CLASSICAL)
            self._classical[neighbour] = port
        return port

    def serve(self, kind: str, handler: Callable[[str, Any], None]) -> None:
        """Register the agent handler for inbound ``kind`` messages."""
        if kind in self._served:
            raise PortAlreadyConnectedError(
                f"{self.name}: message kind {kind!r} is already served")
        self._served[kind] = handler

    def channel_end(self, neighbour: str, kind: str) -> ChannelEnd:
        """The end carrying ``kind`` messages to ``neighbour``, bound on
        first use to ``handler(self.name, payload)`` of the agent serving
        ``kind`` there."""
        end = self._ends.get((neighbour, kind))
        if end is None:
            port = self._classical.get(neighbour)
            if port is None:
                raise KeyError(f"{self.name}: no classical channel to {neighbour}")
            side = port.peer
            channel = side.component
            far = channel.across(side).peer.component
            handler = far._served.get(kind)
            if handler is None:
                raise PortNotConnectedError(
                    f"{self.name}: {far.name} serves no message kind {kind!r}")
            end = channel.end(side).bind(partial(handler, self.name))
            self._ends[neighbour, kind] = end
        return end
