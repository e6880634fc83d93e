"""Circuit liveness monitoring (Sec 4.1, "Classical communication and link
reliability").

Every virtual circuit's classical connectivity is monitored end-to-end:
the head-end sends periodic PING messages along the circuit's path; the
tail-end answers with PONGs.  When several consecutive PINGs go
unanswered, the head-end declares the circuit dead, tears it down through
the signalling protocol, and the QNP aborts all of the circuit's requests
and notifies the applications of the failure — the behaviour the paper
prescribes ("if a circuit goes down due to loss of connectivity, the
protocol aborts all requests and notifies applications").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..netsim.entity import Entity
from ..netsim.scheduler import EventHandle
from ..netsim.units import MS
from ..network.node import QuantumNode


@dataclass
class Ping:
    """Head-end keepalive probe, relayed hop-by-hop along the path."""

    circuit_id: str
    sequence: int
    path: tuple
    index: int


@dataclass
class Pong:
    """Tail-end keepalive answer, relayed back along the path."""

    circuit_id: str
    sequence: int
    path: tuple
    index: int


class LivenessAgent(Entity):
    """Per-node liveness protocol instance (message relay + endpoints)."""

    def __init__(self, node: QuantumNode):
        super().__init__(node.sim, name=f"{node.name}.liveness")
        self.node = node
        node.serve("liveness", self._on_message)
        self._monitors: dict[str, "_CircuitMonitor"] = {}

    # ------------------------------------------------------------------
    # Head-end API
    # ------------------------------------------------------------------

    def watch(self, circuit_id: str, path: list[str], interval: float = 50 * MS,
              miss_limit: int = 3,
              on_failure: Optional[Callable[[str], None]] = None) -> None:
        """Start monitoring a circuit from its head-end node."""
        if path[0] != self.node.name:
            raise ValueError("watch() must run at the circuit's head-end")
        if circuit_id in self._monitors:
            raise ValueError(f"already watching {circuit_id}")
        if interval <= 0:
            raise ValueError("interval must be positive")
        monitor = _CircuitMonitor(self, circuit_id, tuple(path), interval,
                                  miss_limit, on_failure)
        self._monitors[circuit_id] = monitor
        monitor.start()

    def unwatch(self, circuit_id: str) -> None:
        """Stop monitoring a circuit (no-op if it was not watched)."""
        monitor = self._monitors.pop(circuit_id, None)
        if monitor is not None:
            monitor.stop()

    # ------------------------------------------------------------------

    def _on_message(self, sender: str, message) -> None:
        if isinstance(message, Ping):
            if message.index + 1 < len(message.path):
                message.index += 1
                self.node.channel_end(message.path[message.index], "liveness").send(message)
            else:
                # Tail-end: answer back along the path.
                pong = Pong(circuit_id=message.circuit_id,
                            sequence=message.sequence,
                            path=message.path, index=len(message.path) - 2)
                self.node.channel_end(message.path[-2], "liveness").send(pong)
        elif isinstance(message, Pong):
            if message.index == 0:
                monitor = self._monitors.get(message.circuit_id)
                if monitor is not None:
                    monitor.on_pong(message.sequence)
            else:
                message.index -= 1
                self.node.channel_end(message.path[message.index], "liveness").send(message)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected liveness message {message!r}")


class _CircuitMonitor:
    """Head-end state machine for one circuit's keepalive."""

    def __init__(self, agent: LivenessAgent, circuit_id: str, path: tuple,
                 interval: float, miss_limit: int,
                 on_failure: Optional[Callable[[str], None]]):
        self.agent = agent
        self.circuit_id = circuit_id
        self.path = path
        self.interval = interval
        self.miss_limit = miss_limit
        self.on_failure = on_failure
        self._sequence = 0
        self._last_acked = -1
        self._misses = 0
        #: The next keepalive tick; ``None`` once stopped.
        self._handle: Optional[EventHandle] = None
        self.failed = False

    def start(self) -> None:
        """Arm the first tick, one interval from now."""
        self._handle = self.agent.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def on_pong(self, sequence: int) -> None:
        if sequence > self._last_acked:
            self._last_acked = sequence
            self._misses = 0

    def _tick(self) -> None:
        # Re-arm before the body: the body's Ping takes the next event
        # sequence number, and a failure declared below cancels this tick.
        self._handle = self.agent.sim.schedule(self.interval, self._tick)
        if self._sequence > self._last_acked:
            self._misses += 1
            if self._misses >= self.miss_limit:
                self._declare_failed()
                return
        self._sequence += 1
        ping = Ping(circuit_id=self.circuit_id, sequence=self._sequence,
                    path=self.path, index=1)
        self.agent.node.channel_end(self.path[1], "liveness").send(ping)

    def _declare_failed(self) -> None:
        self.failed = True
        self.stop()
        self.agent._monitors.pop(self.circuit_id, None)
        if self.on_failure is not None:
            self.on_failure(self.circuit_id)
