"""Quantum task scheduler / device-time arbiter (Fig 4).

Current NV hardware cannot do two things at once: the electron spin is both
the processor and the network interface.  In the paper's simplified
simulation model all qubits act as communication qubits and links run in
parallel, so the arbiter grants everything immediately.  In the near-term
model (Sec 5.3) the arbiter serialises device usage: entanglement
generation bursts, storage moves and Bell-state measurements queue FIFO.

To reserve several devices at once (a link needs both endpoints) callers
acquire in a globally consistent order (node name), which rules out
deadlock.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..netsim.entity import Entity
from ..netsim.scheduler import Simulator


class DeviceArbiter(Entity):
    """FIFO arbiter for one node's quantum device time."""

    def __init__(self, sim: Simulator, name: str = "", serialize: bool = False):
        super().__init__(sim, name or "arbiter")
        self.serialize = serialize
        self._busy = False
        self._waiters: deque[tuple[Callable[[], None], float]] = deque()
        # Telemetry (the traffic report reads these): grants issued, total
        # simulated time spent queued before a grant, deepest queue seen.
        self.grants = 0
        self.total_wait = 0.0
        self.max_queue_length = 0

    @property
    def mean_wait(self) -> float:
        """Mean queueing delay per grant (ns; 0 when nothing was granted)."""
        return self.total_wait / self.grants if self.grants else 0.0

    def acquire(self, on_grant: Callable[[], None]) -> None:
        """Request the device; ``on_grant`` fires (via the event queue) when
        it is ours.  In parallel mode the grant is immediate."""
        if not self.serialize:
            self.grants += 1
            self.sim.schedule(0.0, on_grant)
            return
        if not self._busy:
            self._busy = True
            self.grants += 1
            self.sim.schedule(0.0, on_grant)
        else:
            self._waiters.append((on_grant, self.now))
            if len(self._waiters) > self.max_queue_length:
                self.max_queue_length = len(self._waiters)

    def release(self) -> None:
        """Give the device back; the next waiter (if any) is granted."""
        if not self.serialize:
            return
        if not self._busy:
            raise RuntimeError(f"{self.name}: release without acquire")
        if self._waiters:
            next_grant, enqueued_at = self._waiters.popleft()
            self.grants += 1
            self.total_wait += self.now - enqueued_at
            self.sim.schedule(0.0, next_grant)
        else:
            self._busy = False


class _OrderedAcquire:
    """Continuation of an in-flight :func:`acquire_ordered` chain.

    A picklable callable (the grant callbacks sit in arbiter queues and the
    event heap, both of which engine checkpoints serialise).
    """

    __slots__ = ("ordered", "on_all_granted", "index")

    def __init__(self, ordered: list, on_all_granted: Callable[[], None],
                 index: int):
        self.ordered = ordered
        self.on_all_granted = on_all_granted
        self.index = index

    def __call__(self) -> None:
        if self.index == len(self.ordered):
            self.on_all_granted()
            return
        self.ordered[self.index].acquire(
            _OrderedAcquire(self.ordered, self.on_all_granted, self.index + 1))


def acquire_ordered(arbiters: list[DeviceArbiter], on_all_granted: Callable[[], None]) -> None:
    """Acquire several devices in a canonical order, then fire the callback.

    Ordering by arbiter name makes concurrent multi-device reservations
    deadlock-free (resource-ordering discipline).
    """
    ordered = sorted(arbiters, key=lambda a: a.name)
    _OrderedAcquire(ordered, on_all_granted, 0)()


def release_all(arbiters: list[DeviceArbiter]) -> None:
    """Release a set of devices acquired with :func:`acquire_ordered`."""
    for arbiter in arbiters:
        arbiter.release()
