"""Quantum memory management unit (Fig 4).

The QMM owns the node's qubit slots and the correlator → qubit mapping that
Appendix C's rules use (``qmm.get(correlator)`` / ``qmm.free(correlator)``).

Memory is the scarcest resource in the evaluation: the simulation model has
**two communication qubits per attached link** (not shared between links),
so a link stalls as soon as both of its local qubits hold unconsumed pairs —
the mechanism behind the Fig 8c "quantum congestion collapse".  The
near-term model has a single communication qubit per node plus a handful of
storage qubits.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..quantum.qubit import Qubit

Correlator = tuple  # (link name, sequence number)


class Slot:
    """One qubit-sized parking spot, tied to a link (or the storage pool)."""

    __slots__ = ("pool", "qubit", "correlator")

    def __init__(self, pool: "SlotPool"):
        self.pool = pool
        self.qubit: Optional[Qubit] = None
        self.correlator: Optional[Correlator] = None

    def commit(self, qubit: Qubit, correlator: Optional[Correlator] = None) -> None:
        """Park a generated qubit in this reserved slot."""
        self.qubit = qubit
        self.correlator = correlator
        qubit.owner = self

    def release(self) -> None:
        """Return the slot to its pool (qubit consumed, discarded or round failed)."""
        if self.qubit is not None and self.qubit.owner is self:
            self.qubit.owner = None
        self.qubit = None
        self.correlator = None
        self.pool._release(self)


class SlotPool:
    """Fixed-capacity pool of qubit slots.

    Released :class:`Slot` objects are parked on a small free list and
    reused — the link layer acquires and releases two slots per generation
    round, millions of times per run.
    """

    def __init__(self, name: str, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.name = name
        self.capacity = capacity
        self.in_use = 0
        self._spare: list[Slot] = []

    def try_acquire(self) -> Optional[Slot]:
        if self.in_use >= self.capacity:
            return None
        self.in_use += 1
        if self._spare:
            return self._spare.pop()
        return Slot(self)

    def _release(self, slot: Slot) -> None:
        if self.in_use <= 0:
            raise RuntimeError(f"pool {self.name} released more slots than acquired")
        self.in_use -= 1
        if len(self._spare) < self.capacity:
            self._spare.append(slot)


class QuantumMemoryManager:
    """Per-node memory arbiter and correlator registry."""

    def __init__(self, node_name: str):
        self.node_name = node_name
        self._link_pools: dict[str, SlotPool] = {}
        self._storage_pool = SlotPool("storage", 0)
        self._by_correlator: dict[Correlator, Qubit] = {}
        #: The one slot-freed listener of each pool, by pool name.
        self._freed_listeners: dict[str, Callable[[], None]] = {}

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def register_link(self, link_name: str, capacity: int) -> None:
        """Declare the communication-qubit pool for an attached link."""
        if link_name in self._link_pools:
            raise ValueError(f"link {link_name} already registered")
        self._link_pools[link_name] = SlotPool(link_name, capacity)

    def configure_storage(self, capacity: int) -> None:
        """Declare the storage (carbon) qubit pool (near-term model)."""
        self._storage_pool = SlotPool("storage", capacity)

    # ------------------------------------------------------------------
    # Slot allocation
    # ------------------------------------------------------------------

    def try_acquire_storage(self) -> Optional[Slot]:
        """Reserve a storage slot (near-term model)."""
        return self._storage_pool.try_acquire()

    def comm_pool(self, link_name: str) -> SlotPool:
        """The communication-qubit pool itself (hot-path accessor: the link
        layer caches it to skip the per-round name lookup)."""
        return self._pool(link_name)

    def on_slot_freed(self, pool_name: str,
                      listener: Callable[[], None]) -> None:
        """Subscribe to slot releases of one pool (link name or
        ``"storage"``); the link scheduler wakes on its own pool's.

        A pool has at most one listener, called with no argument, so a
        release wakes only the link that can use the slot.
        """
        if pool_name in self._freed_listeners:
            raise ValueError(
                f"{self.node_name}: pool {pool_name!r} already has a listener")
        self._freed_listeners[pool_name] = listener

    # ------------------------------------------------------------------
    # Correlator registry (Appendix C's qmm.get / qmm.free)
    # ------------------------------------------------------------------

    def bind(self, correlator: Correlator, qubit: Qubit) -> None:
        """Associate a link-pair correlator with the local qubit."""
        if correlator in self._by_correlator:
            raise ValueError(f"correlator {correlator} already bound")
        self._by_correlator[correlator] = qubit

    def get(self, correlator: Correlator) -> Optional[Qubit]:
        """Look up the local qubit for a correlator (None if gone)."""
        return self._by_correlator.get(correlator)

    def free(self, correlator: Correlator) -> Optional[Qubit]:
        """Drop the correlator mapping and release the qubit's slot.

        Returns the qubit (still physically intact — the caller decides
        whether to discard its state or hand it to an application).
        """
        qubit = self._by_correlator.pop(correlator, None)
        if qubit is None:
            return None
        self.release_qubit(qubit)
        return qubit

    def release_qubit(self, qubit: Qubit) -> None:
        """Release the slot holding a qubit and notify waiters."""
        slot = qubit.owner
        if slot is None:
            return
        listener = self._freed_listeners.get(slot.pool.name)
        slot.release()
        if listener is not None:
            listener()

    def rebind_slot(self, qubit: Qubit, new_slot: Slot) -> None:
        """Move a qubit to a different slot (comm → storage moves)."""
        old_slot = qubit.owner
        correlator = old_slot.correlator if old_slot is not None else None
        new_slot.commit(qubit, correlator)
        if old_slot is not None and old_slot is not new_slot:
            listener = self._freed_listeners.get(old_slot.pool.name)
            old_slot.qubit = None
            old_slot.correlator = None
            old_slot.pool._release(old_slot)
            qubit.owner = new_slot
            if listener is not None:
                listener()

    # ------------------------------------------------------------------

    def _pool(self, link_name: str) -> SlotPool:
        try:
            return self._link_pools[link_name]
        except KeyError:
            raise KeyError(f"{self.node_name}: unknown link {link_name!r}") from None
