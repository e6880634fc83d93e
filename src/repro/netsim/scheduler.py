"""Discrete-event simulation kernel.

This module provides the event loop that the whole repository runs on.  It is
a small, deterministic replacement for the NetSquid kernel the paper used:

* simulated time is a float in nanoseconds,
* events fire in (time, insertion-order) order, so two events scheduled for
  the same instant fire in the order they were scheduled (FIFO tie-break),
* events can be cancelled through the handle returned by ``schedule``,
* a callback ends the current :meth:`Simulator.run` early with
  :meth:`Simulator.stop`: the run returns once every event at the
  current instant has fired.  That is the one way to run the clock until
  something happens — "until these requests finish", "until this
  circuit is installed" — with no stepping loop on top of ``run``.

The :class:`EventHandle` that :meth:`Simulator.schedule` returns is the one
timer object of the code base: arming a timeout is ``handle =
sim.schedule(delay, callback, *args)``, disarming it is
``handle.cancel()``, and a periodic tick re-arms itself from its own
callback.  Nothing outside this module touches the heap.

The heap holds ``(time, seq, handle)`` tuples.  ``seq`` comes from one
counter and is unique, so tuples compare in C on their first two fields
and a handle is never compared.  Three refinements keep the kernel out
of the profile at scale:

* **O(1) pending count** — the simulator tracks a live cancelled-event
  count, so :meth:`Simulator.pending_events` is a subtraction instead of a
  queue scan;
* **cancelled-heap compaction** — the queue compacts itself the moment
  cancelled entries exceed half of it, bounding both memory and per-push
  log cost;
* **handle pooling** — call sites that never cancel (generation rounds,
  classical message delivery) schedule through :meth:`Simulator.post_at`,
  which recycles :class:`EventHandle` objects from a free list.  Pooled
  handles are never exposed to callers, so recycling cannot invalidate a
  retained reference.

Example::

    sim = Simulator(seed=42)
    sim.schedule(5 * MS, lambda: print("hello at", sim.now))
    sim.run()
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Callable, Optional

#: Queue length below which cancelled-entry compaction is not worth the
#: rebuild (tiny heaps pop their dead entries almost immediately anyway).
_COMPACT_MIN_QUEUE = 64
#: Upper bound on the recycled-handle free list (plenty for the deepest
#: in-flight window the stack produces; beyond it, handles are just dropped
#: for the garbage collector).
_POOL_LIMIT = 4096


class SerialCounter:
    """Picklable drop-in for :func:`itertools.count`.

    The kernel and the link layer hand out monotonically increasing serial
    numbers (event sequence numbers, correlators, and the request and
    circuit identifiers of :meth:`Simulator.next_id`).  Every counter is
    owned by an object of one simulation, never by a module, so a run's
    numbering cannot depend on what else ran in the process.
    ``itertools.count`` cannot be serialised (pickling it is deprecated
    since Python 3.12), so durable checkpoints use this two-line counter
    instead; ``next(counter)`` keeps every call site unchanged.
    """

    __slots__ = ("value",)

    def __init__(self, start: int = 0):
        self.value = start

    def __next__(self) -> int:
        value = self.value
        self.value = value + 1
        return value

    def __getstate__(self) -> int:
        return self.value

    def __setstate__(self, state: int) -> None:
        self.value = state


def _noop() -> None:
    """Placeholder callback for reconstructed free-list handles."""


class EventHandle:
    """Handle to a scheduled event, usable to cancel it before it fires.

    It is also the kernel's timer: whoever arms a timeout keeps the handle
    and cancels it to disarm.
    """

    __slots__ = ("callback", "args", "cancelled", "owner", "pooled")

    def __init__(self, callback: Callable[..., Any], args: tuple):
        self.callback = callback
        self.args = args
        self.cancelled = False
        #: Simulator that queued the handle — notified on cancel so the
        #: live cancelled-count (and hence compaction) stays exact.
        self.owner: Optional["Simulator"] = None
        #: True for internally recycled handles (:meth:`Simulator.post_at`).
        self.pooled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled or self.callback is None:
            return  # already cancelled or already fired
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            owner._note_cancel()

    def _fire(self) -> None:
        callback, args = self.callback, self.args
        self.callback = None
        self.args = ()
        callback(*args)


class Simulator:
    """The discrete-event scheduler.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random number generator.  Every source
        of randomness in the repository draws from ``Simulator.rng`` so a run
        is fully reproducible from its seed.
    """

    def __init__(self, seed: int = 0):
        #: Heap of ``(time, seq, handle)`` entries.
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = SerialCounter()
        self._now = 0.0
        self._running = False
        #: Time bound of the current :meth:`run`; :meth:`stop` lowers it.
        self._until = math.inf
        self._event_count = 0
        #: Live count of cancelled handles still sitting in the heap.
        self._cancelled = 0
        #: Recycled handles for the no-cancel fast path (:meth:`post_at`).
        self._pool: list[EventHandle] = []
        #: Number of :meth:`post_at` calls served from the free list
        #: (observability: pool effectiveness, sampled by ``repro.obs``).
        self.pool_hits = 0
        self.rng = random.Random(seed)
        self.seed = seed
        #: Per-prefix identifier streams (:meth:`next_id`).
        self._ids: dict[str, SerialCounter] = {}

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired since construction (for diagnostics)."""
        return self._event_count

    @property
    def heap_size(self) -> int:
        """Raw heap length, cancelled entries included (for diagnostics)."""
        return len(self._queue)

    def next_id(self, prefix: str) -> str:
        """The next ``"<prefix><N>"`` identifier of this simulation.

        Each prefix (``req``, ``vc``, …) counts from 0 per simulator, so
        identifiers depend only on the run, and a checkpoint carries their
        positions with the rest of the pickled kernel.
        """
        counter = self._ids.get(prefix)
        if counter is None:
            counter = self._ids[prefix] = SerialCounter()
        return f"{prefix}{next(counter)}"

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} before now={self._now}")
        handle = EventHandle(callback, args)
        handle.owner = self
        seq = self._seq
        serial = seq.value
        seq.value = serial + 1
        heapq.heappush(self._queue, (time, serial, handle))
        return handle

    def post_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule a **non-cancellable** event at absolute time ``time``.

        The fast path for hot call sites that never cancel (link generation
        rounds, classical message delivery): the handle comes from an
        internal free list and is recycled after firing.  No handle is
        returned — a caller that might need :meth:`EventHandle.cancel` must
        use :meth:`schedule_at` instead.
        """
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} before now={self._now}")
        pool = self._pool
        if pool:
            handle = pool.pop()
            self.pool_hits += 1
            handle.callback = callback
            handle.args = args
        else:
            handle = EventHandle(callback, args)
            handle.owner = self
            handle.pooled = True
        # The serial is taken inline (``next(self._seq)`` without the
        # method call): this is the hottest call site of the kernel.
        seq = self._seq
        serial = seq.value
        seq.value = serial + 1
        heapq.heappush(self._queue, (time, serial, handle))

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Relative-delay variant of :meth:`post_at`."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self.post_at(self._now + delay, callback, *args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this value.  Events at
            exactly ``until`` still fire.  ``None`` runs until the queue
            drains (or a callback calls :meth:`stop`).
        max_events:
            Safety valve: abort after this many events (raises
            ``RuntimeError``) — useful to catch accidental infinite loops in
            tests.

        A run does not nest: calling ``run`` from a callback raises
        ``RuntimeError``.
        """
        if self._running:
            raise RuntimeError("Simulator.run() is not re-entrant")
        self._running = True
        self._until = math.inf if until is None else until
        fired = 0
        queue = self._queue
        pool = self._pool
        pop = heapq.heappop
        try:
            while queue:
                time, _, head = queue[0]
                if head.cancelled:
                    pop(queue)
                    self._cancelled -= 1
                    continue
                if time > self._until:
                    break
                pop(queue)
                self._now = time
                self._event_count += 1
                fired += 1
                if max_events is not None and fired > max_events:
                    raise RuntimeError(f"exceeded max_events={max_events}")
                head._fire()
                if head.pooled and len(pool) < _POOL_LIMIT:
                    pool.append(head)
            if until is not None and self._until > self._now:
                self._now = self._until
        finally:
            self._running = False

    def stop(self) -> None:
        """End the current :meth:`run` at the current instant.

        Every event at ``now`` still fires, including events a callback
        schedules for ``now`` during the batch; the first later event
        stays queued and ``now`` stays put.  A later ``run`` continues
        from there.  Outside a run it has no effect: every run sets its
        own bound.
        """
        self._until = self._now

    def pending_events(self) -> int:
        """Number of queued, non-cancelled events — O(1)."""
        return len(self._queue) - self._cancelled

    def _note_cancel(self) -> None:
        """Account one cancellation; compact once the heap is >50% dead."""
        self._cancelled += 1
        if (self._cancelled * 2 > len(self._queue)
                and len(self._queue) >= _COMPACT_MIN_QUEUE):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled handles from the heap and re-heapify.

        In place (``[:]``) on purpose: :meth:`run` holds a reference to the
        queue list across callbacks, and a callback cancelling events may
        trigger compaction mid-loop.
        """
        self._queue[:] = [entry for entry in self._queue
                          if not entry[2].cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def __getstate__(self) -> dict:
        # Checkpoints are taken from inside run() (a scheduled callback
        # pickles the world), so the restored kernel must not believe the
        # loop is still live.  Free-list handles are fired empties with no
        # semantic content, but their *count* steers the pool_hits counter —
        # persist the size and rebuild empties on restore so the resumed
        # run's telemetry matches the uninterrupted one exactly.
        state = self.__dict__.copy()
        state["_running"] = False
        state["_pool"] = len(self._pool)
        return state

    def __setstate__(self, state: dict) -> None:
        pool_size = state.pop("_pool", 0)
        self.__dict__.update(state)
        pool = []
        for _ in range(pool_size):
            handle = EventHandle(_noop, ())
            handle.callback = None
            handle.owner = self
            handle.pooled = True
            pool.append(handle)
        self._pool = pool
