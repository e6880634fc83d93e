"""Signalling protocol: virtual circuit installation (Sec 3.3).

Source-routed, RSVP-TE-like: the head-end sends a PATH message hop-by-hop
carrying the routing-table entries computed by the controller; every node
installs its entry into the local QNP and forwards.  The tail answers with
a RESV that travels back; when it reaches the head-end the circuit is ready
and the caller's callback fires.  TEAR removes the state again.

Link-labels (the MPLS-like per-link identifiers of Sec 4.1) are allocated
by the controller: one label per circuit, identical on every link — a valid
special case of the per-link mapping the paper allows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.circuit import RoutingEntry
from ..netsim.entity import Entity
from ..network.node import QuantumNode


@dataclass
class PathMessage:
    """Forward installation message carrying every hop's routing entry."""

    circuit_id: str
    #: Remaining path (first element = this hop's next node).
    entries: list[RoutingEntry]
    index: int = 0


@dataclass
class ResvMessage:
    """Tail-end confirmation travelling back towards the head-end."""

    circuit_id: str
    path: list[str] = field(default_factory=list)
    index: int = 0


@dataclass
class TearMessage:
    """Head-end-initiated circuit removal, relayed hop-by-hop."""

    circuit_id: str
    entries_path: list[str] = field(default_factory=list)
    index: int = 0


class SignallingAgent(Entity):
    """Per-node signalling protocol instance."""

    def __init__(self, node: QuantumNode):
        super().__init__(node.sim, name=f"{node.name}.signalling")
        self.node = node
        node.serve("signalling", self._on_message)
        self._pending_ready: dict[str, Callable[[str], None]] = {}

    # ------------------------------------------------------------------
    # Head-end API
    # ------------------------------------------------------------------

    def establish(self, entries: list[RoutingEntry],
                  on_ready: Optional[Callable[[str], None]] = None) -> str:
        """Install a circuit along the given per-node entries.

        Must be called at the head-end node (``entries[0].node``).  Returns
        the circuit ID immediately; ``on_ready`` fires when the RESV comes
        back.
        """
        if entries[0].node != self.node.name:
            raise ValueError("establish() must run at the head-end node")
        circuit_id = entries[0].circuit_id
        if on_ready is not None:
            self._pending_ready[circuit_id] = on_ready
        self.node.qnp.install_circuit(entries[0])
        message = PathMessage(circuit_id=circuit_id, entries=entries, index=1)
        self.node.channel_end(entries[1].node, "signalling").send(message)
        return circuit_id

    def teardown(self, circuit_id: str, path: list[str]) -> None:
        """Remove a circuit along its path (head-end initiated)."""
        self.node.qnp.uninstall_circuit(circuit_id)
        if len(path) > 1:
            tear = TearMessage(circuit_id=circuit_id, entries_path=path, index=1)
            self.node.channel_end(path[1], "signalling").send(tear)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def _on_message(self, sender: str, message) -> None:
        if isinstance(message, PathMessage):
            self._on_path(message)
        elif isinstance(message, ResvMessage):
            self._on_resv(message)
        elif isinstance(message, TearMessage):
            self._on_tear(message)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected signalling message {message!r}")

    def _on_path(self, message: PathMessage) -> None:
        entry = message.entries[message.index]
        if entry.node != self.node.name:  # pragma: no cover - defensive
            raise RuntimeError(f"{self.name}: PATH for {entry.node} arrived here")
        self.node.qnp.install_circuit(entry)
        if message.index + 1 < len(message.entries):
            message.index += 1
            self.node.channel_end(message.entries[message.index].node,
                                  "signalling").send(message)
        else:
            # Tail-end: confirm back along the path.
            path = [e.node for e in message.entries]
            resv = ResvMessage(circuit_id=message.circuit_id, path=path,
                               index=len(path) - 2)
            self.node.channel_end(path[-2], "signalling").send(resv)

    def _on_resv(self, message: ResvMessage) -> None:
        if message.index == 0:
            callback = self._pending_ready.pop(message.circuit_id, None)
            if callback is not None:
                callback(message.circuit_id)
            return
        message.index -= 1
        self.node.channel_end(message.path[message.index], "signalling").send(message)

    def _on_tear(self, message: TearMessage) -> None:
        self.node.qnp.uninstall_circuit(message.circuit_id)
        if message.index + 1 < len(message.entries_path):
            message.index += 1
            self.node.channel_end(message.entries_path[message.index],
                                  "signalling").send(message)
