"""The quantum node: hardware + OS services + protocol attachment points.

Mirrors Fig 4 of the paper: each node owns a quantum device, a quantum
memory management unit, a task scheduler (device arbiter), classical
channels to its neighbours, and the network stack (link layer endpoints and
the QNP engine) that gets attached by the topology builder.

Wiring (the component-and-port layer, see :mod:`repro.netsim.ports`):

* one ``cl:<neighbour>`` port per neighbour (protocol ``"classical"``),
  connected by the builder to the classical channel towards that
  neighbour; inbound messages are ``(kind, sender, payload)`` tuples;
* one ``svc:<kind>`` port per message kind (protocol ``"svc:<kind>"``),
  connected by the protocol agent that serves the kind (QNP engine,
  signalling, liveness); the node demultiplexes inbound classical
  messages onto these ports as ``(sender, payload)``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

from ..hardware.nv import NVDevice
from ..hardware.parameters import HardwareParams
from ..netsim.channels import CLASSICAL
from ..netsim.entity import Entity
from ..netsim.ports import Component, Port
from ..netsim.scheduler import Simulator
from ..quantum.backends import Backend, get_backend
from .arbiter import DeviceArbiter
from .qmm import QuantumMemoryManager


def service_protocol(kind: str) -> str:
    """Protocol tag of a node service port for a message kind."""
    return f"svc:{kind}"


class QuantumNode(Entity, Component):
    """One node of the quantum network."""

    def __init__(self, sim: Simulator, name: str, params: HardwareParams,
                 backend: Optional[Backend] = None):
        super().__init__(sim, name)
        self.params = params
        #: State formalism the node's pairs live in (threaded to the QMM and
        #: every attached link by the topology builder).
        self.backend = get_backend(backend)
        self.device = NVDevice(sim, params, name=f"{name}.device")
        self.qmm = QuantumMemoryManager(name, backend=self.backend)
        self.arbiter = DeviceArbiter(sim, name=f"{name}.arbiter",
                                     serialize=not params.parallel_links)
        if params.storage_qubits:
            self.qmm.configure_storage(params.storage_qubits)
        #: Link-layer endpoints by link name (set by the builder).
        self.links: dict[str, Any] = {}
        #: Classical ports by neighbour node name.
        self._classical: dict[str, Port] = {}
        #: Service ports by message kind (demux table for ``_on_message``).
        self._services: dict[str, Port] = {}
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

    def link_to(self, neighbour: str) -> Any:
        """The link object connecting this node to a neighbour."""
        for link_name, other in self.link_neighbour.items():
            if other == neighbour:
                return self.links[link_name]
        raise KeyError(f"{self.name}: no link to {neighbour}")

    # ------------------------------------------------------------------
    # Classical communication
    # ------------------------------------------------------------------

    def classical_port(self, neighbour: str) -> Port:
        """The port carrying classical traffic towards ``neighbour``.

        Created on first use; the builder connects it to one end of the
        :class:`~repro.netsim.channels.ClassicalChannel` for the hop.
        The inbound handler demultiplexes ``(kind, sender, payload)``
        tuples onto the matching ``svc:<kind>`` port.
        """
        port = self._classical.get(neighbour)
        if port is None:
            port = self.add_port(f"cl:{neighbour}", CLASSICAL,
                                 handler=partial(self._on_message, neighbour))
            self._classical[neighbour] = port
        return port

    def service_port(self, kind: str) -> Port:
        """The port a protocol agent connects to serve message ``kind``.

        Created on first use.  Messages travelling node → agent are
        ``(sender, payload)`` tuples.
        """
        port = self._services.get(kind)
        if port is None:
            port = self.add_port(f"svc:{kind}", service_protocol(kind))
            self._services[kind] = port
        return port

    def send(self, neighbour: str, kind: str, payload: Any) -> None:
        """Send a classical control message to a directly connected node."""
        port = self._classical.get(neighbour)
        if port is None:
            raise KeyError(f"{self.name}: no classical channel to {neighbour}")
        port.tx((kind, self.name, payload))

    def _on_message(self, neighbour: str, message: Any) -> None:
        kind, sender, payload = message
        port = self._services.get(kind)
        if port is None or not port.connected:
            raise RuntimeError(f"{self.name}: no handler for message kind {kind!r}")
        port.tx((sender, payload))

    @property
    def neighbours(self) -> list[str]:
        return sorted(self._classical)
