"""The entanglement generation protocol (EGP) — the link layer of ref [19].

One :class:`Link` entity models a physical link *and* the link layer
protocol running over it: the synchronised midpoint heralding process, the
retry loop, request multiplexing and pair delivery at both ends.  (Ref [19]
realises the two-ended coordination with a distributed queue; simulating
the link as a single shared entity is behaviourally equivalent for a
simulator that owns both ends, and is what the original artifacts do too.)

Operation:

* the QNP installs a **continuous generation request** per circuit, keyed
  by the circuit's link-label (purpose ID), with a minimum fidelity (mapped
  to the bright-state α) and a requested link-pair rate (the WRR weight);
* the link serves one purpose at a time, in **time slices** of at most
  ``slice_attempts`` entanglement attempts.  The number of attempts until
  success is geometric, so the link fast-forwards: it samples the remaining
  attempt count once per slice instead of simulating every attempt
  (memorylessness makes this exact — see DESIGN.md);
* each generation round needs a free communication-qubit slot at **both**
  ends for the duration of the round; on success the pair parks in those
  slots until the network layer consumes or discards it.  No free slot on
  either side stalls the link — the congestion mechanism of Fig 8c;
* on success both network layers receive a :class:`LinkPairDelivery` with
  the same entanglement ID and Bell index (the midpoint herald tells both
  sides which detector clicked);
* in the near-term hardware model the round also reserves both endpoint
  devices (single communication qubit) and every attempt dephases storage
  qubits at both nodes.

Generation runs one simulator event per slice: :meth:`Link._run_round`
draws the slice's attempt count and posts :meth:`Link._finish_round` at the
slice's end, which books the attempts, charges the fair-share scheduler and
either delivers the pair or starts the next slice.  Geometric outcomes and
herald bits come from a **per-link numpy PCG64 stream** (seeded from
``Simulator.rng`` at link construction, so ``--seed`` still pins the whole
run) read through a 256-draw block buffer: one numpy call amortised over
many slices, and a link's draws do not depend on how rounds of different
links interleave.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional

import numpy as np

from ..hardware.heralded import SingleClickModel
from ..netsim.entity import Entity
from ..netsim.ports import Component, Port
from ..netsim.scheduler import SerialCounter, Simulator
from ..network.arbiter import acquire_ordered, release_all
from ..network.node import QuantumNode
from ..network.qmm import Slot
from ..quantum.backends import Backend, get_backend
from ..quantum.bell import BellIndex
from .scheduler import FairShareScheduler
from .service import LinkPairDelivery, LinkRequestState

#: Protocol tag of the link layer's pair-delivery ports (link → network
#: layer, one port per endpoint node).
DELIVERY = "egp.delivery"

#: Uniforms per refill of the per-link RNG buffer (one numpy call each).
_RNG_BLOCK = 256


class Link(Entity, Component):
    """A physical link plus its link layer protocol instance.

    Ports: one ``deliver:<node>`` port per endpoint (protocol
    :data:`DELIVERY`) over which heralded pairs reach the network layer.
    """

    def __init__(self, sim: Simulator, name: str, node_a: QuantumNode,
                 node_b: QuantumNode, model: SingleClickModel,
                 slice_attempts: int = 100,
                 backend: Optional[Backend] = None):
        super().__init__(sim, name)
        if slice_attempts < 1:
            raise ValueError("slice_attempts must be at least 1")
        self.node_a = node_a
        self.node_b = node_b
        self.model = model
        #: State formalism used to materialise produced pairs (defaults to
        #: the node's backend, falling back to the exact engine).
        self.backend = get_backend(backend if backend is not None
                                   else getattr(node_a, "backend", None))
        self.slice_attempts = slice_attempts
        self._cycle_time = model.cycle_time
        self._device_a = node_a.device
        self._device_b = node_b.device
        #: Delivery ports by endpoint node name (network layer connects).
        self._delivery_ports: dict[str, Port] = {
            node.name: self.add_port(f"deliver:{node.name}", DELIVERY)
            for node in (node_a, node_b)}
        self._requests: dict[str, LinkRequestState] = {}
        self._pending_endorsements: dict[str, set] = {}
        #: Scheduling hints: purposes that a neighbouring network layer
        #: flagged as having an unmatched partner pair waiting (see
        #: :meth:`set_priority`).  Each endpoint contributes its own set.
        self._priorities: dict[str, set] = {}
        self._scheduler = FairShareScheduler()
        self._seq = SerialCounter()
        self._running = False
        # Hot-loop caches: the eligible-purpose list only changes on
        # set_request/endorse/end_request, and the comm-qubit pools are
        # fixed once both nodes attached the link.
        self._eligible_dirty = True
        self._eligible: list[str] = []
        self._pools = None
        self._serialize = not (node_a.params.parallel_links
                               and node_b.params.parallel_links)
        #: Per-link geometric/Bernoulli stream.  Seeding from the simulator
        #: RNG keeps runs reproducible from ``--seed`` alone (construction
        #: order is deterministic); a *per-link* stream keeps each link's
        #: draws independent of how rounds of different links interleave.
        self._rng = np.random.default_rng(sim.rng.getrandbits(64))
        self._ubuf = self._rng.random(_RNG_BLOCK)
        self._upos = 0
        #: Failure injection: a down link stops generating (see :meth:`fail`).
        self.up = True
        # Statistics (benchmarks read these).
        self.pairs_generated = 0
        self.attempts_made = 0
        self.busy_time = 0.0
        #: Optional span tracer (see :mod:`repro.analysis.tracing`);
        #: attached by ``attach_tracer`` alongside the QNP engines.
        self.trace = None
        for node in (node_a, node_b):
            node.qmm.on_slot_freed(name, self._kick)

    # ------------------------------------------------------------------
    # Service interface (network layer → link layer)
    # ------------------------------------------------------------------

    def delivery_port(self, node_name: str) -> Port:
        """The pair-delivery port serving one endpoint's network layer."""
        try:
            return self._delivery_ports[node_name]
        except KeyError:
            raise ValueError(
                f"{node_name} is not an endpoint of {self.name}") from None

    def set_request(self, purpose_id: str, min_fidelity: float, lpr: float,
                    endorser: Optional[str] = None) -> None:
        """Install or update a continuous generation request.

        ``min_fidelity`` selects the bright-state α (QoS property iv of
        Sec 3.5); ``lpr`` (pairs/s) is the scheduling weight.  When
        ``endorser`` is given, generation only starts once the *other*
        endpoint has endorsed the purpose too (:meth:`endorse`) — mirroring
        ref [19]'s two-ended distributed queue.  Without it the request is
        immediately live (single-caller use).
        """
        if self.trace is not None:
            self.trace.record(self.sim._now, self.name, "EGP_REQUEST",
                              purpose=purpose_id, lpr=lpr)
        alpha = self.model.alpha_for_fidelity(min_fidelity)
        log_miss = self.model.log_miss_probability(alpha)
        goodness = self.model.fidelity(alpha)
        existing = self._requests.get(purpose_id)
        if existing is not None and existing.active:
            if existing.alpha != alpha:
                existing.make_pair = self.backend.link_pair_factory(
                    self.model, alpha)
            existing.min_fidelity = min_fidelity
            existing.alpha = alpha
            existing.log_miss = log_miss
            existing.goodness = goodness
            existing.lpr = lpr
            if endorser is not None and existing.endorsers is not None:
                existing.endorsers.add(endorser)
            self._scheduler.update_weight(purpose_id, lpr)
        else:
            state = LinkRequestState(
                purpose_id=purpose_id, min_fidelity=min_fidelity,
                alpha=alpha, lpr=lpr, log_miss=log_miss, goodness=goodness,
                make_pair=self.backend.link_pair_factory(self.model, alpha),
                endorsers=None if endorser is None else {endorser})
            pending = self._pending_endorsements.pop(purpose_id, set())
            if state.endorsers is not None:
                state.endorsers |= pending
            self._requests[purpose_id] = state
            self._scheduler.add(purpose_id, lpr)
        self._eligible_dirty = True
        self._kick()

    def endorse(self, purpose_id: str, node_name: str) -> None:
        """Second-endpoint endorsement of a two-sided request."""
        request = self._requests.get(purpose_id)
        if request is None or not request.active:
            self._pending_endorsements.setdefault(purpose_id, set()).add(node_name)
            return
        if request.endorsers is not None:
            request.endorsers.add(node_name)
        self._eligible_dirty = True
        self._kick()

    def end_request(self, purpose_id: str) -> None:
        """Terminate a continuous generation request (COMPLETE handling)."""
        if self.trace is not None:
            self.trace.record(self.sim._now, self.name, "EGP_END",
                              purpose=purpose_id)
        self._pending_endorsements.pop(purpose_id, None)
        request = self._requests.pop(purpose_id, None)
        self._eligible_dirty = True
        if request is not None:
            request.active = False
            self._scheduler.remove(purpose_id)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------

    def fail(self) -> None:
        """Take the physical link down (fibre cut / midpoint outage).

        Generation stalls immediately: no new round starts and an
        in-flight round completes without delivering.  Installed requests
        survive, so :meth:`restore` resumes generation where it left off.
        """
        self.up = False

    def restore(self) -> None:
        """Bring a failed link back up and resume generation."""
        if not self.up:
            self.up = True
            self._kick()

    def set_priority(self, purpose_id: str, node_name: str,
                     boosted: bool) -> None:
        """Scheduling hint from one endpoint's network layer.

        A boosted purpose is served before non-boosted ones: the flagging
        node holds an unmatched pair for that circuit on its *other* link,
        so a pair produced here can be swapped immediately instead of
        decaying in memory.  This implements the "improved scheduling at
        the nodes" the paper points to as the fix for the Fig 8c congestion
        collapse (Sec 5.1); it is off by default and exercised by the
        scheduling ablation bench.
        """
        if boosted:
            self._priorities.setdefault(purpose_id, set()).add(node_name)
            self._kick()
        else:
            flaggers = self._priorities.get(purpose_id)
            if flaggers is not None:
                flaggers.discard(node_name)
                if not flaggers:
                    # Drop empty entries so the scheduler's "any priorities
                    # at all?" fast check stays meaningful.
                    del self._priorities[purpose_id]

    def _boosted(self, purpose_id: str) -> bool:
        return bool(self._priorities.get(purpose_id))

    # ------------------------------------------------------------------
    # Capacity estimates (used by the routing protocol)
    # ------------------------------------------------------------------

    def max_lpr(self, min_fidelity: float) -> float:
        """Achievable pairs/s at a given fidelity with the whole link."""
        alpha = self.model.alpha_for_fidelity(min_fidelity)
        return 1e9 / self.model.expected_pair_time(alpha)

    # ------------------------------------------------------------------
    # Generation loop
    # ------------------------------------------------------------------

    def _kick(self) -> None:
        if not self._running:
            self._try_start_round()

    def _eligible_purposes(self) -> list[str]:
        if self._eligible_dirty:
            self._eligible = [
                purpose_id for purpose_id, request in self._requests.items()
                if request.active and request.fully_endorsed()]
            self._eligible_dirty = False
        return self._eligible

    def _comm_pools(self):
        pools = self._pools
        if pools is None:
            pools = self._pools = (self.node_a.qmm.comm_pool(self.name),
                                   self.node_b.qmm.comm_pool(self.name))
        return pools

    def _pick(self, eligible: list[str]) -> Optional[str]:
        """The purpose to serve next (boosted ones first); ``None`` when
        nothing is eligible.  Pure: it reads the scheduler, changes
        nothing."""
        boosted = [purpose_id for purpose_id in eligible
                   if self._boosted(purpose_id)] if self._priorities else None
        return self._scheduler.pick(boosted or eligible)

    def _try_start_round(self) -> None:
        if not self.up:
            return
        eligible = self._eligible_purposes()
        if not eligible:
            return
        pool_a, pool_b = self._comm_pools()
        if pool_a.in_use >= pool_a.capacity or pool_b.in_use >= pool_b.capacity:
            return
        purpose_id = self._pick(eligible)
        if purpose_id is None:
            return
        slot_a = pool_a.try_acquire()
        slot_b = pool_b.try_acquire()
        if slot_a is None or slot_b is None:  # pragma: no cover - guarded above
            if slot_a:
                slot_a.release()
            if slot_b:
                slot_b.release()
            return
        self._running = True
        arbiters = [self.node_a.arbiter, self.node_b.arbiter] if self._serialize else []
        if arbiters:
            acquire_ordered(arbiters, partial(self._run_round, purpose_id,
                                              slot_a, slot_b, arbiters))
        else:
            self._run_round(purpose_id, slot_a, slot_b, arbiters)

    def _next_u(self) -> float:
        """Next uniform from the per-link stream (block-refilled).

        A numpy ``Generator.random(n)`` block equals ``n`` sequential scalar
        draws (pinned by a regression test), so buffering changes nothing
        observable — it just amortises the RNG call.
        """
        pos = self._upos
        buf = self._ubuf
        if pos >= _RNG_BLOCK:
            buf = self._ubuf = self._rng.random(_RNG_BLOCK)
            pos = 0
        self._upos = pos + 1
        return buf[pos]

    def _run_round(self, purpose_id: str, slot_a: Slot, slot_b: Slot,
                   arbiters: list) -> None:
        request = self._requests.get(purpose_id)
        if request is None or not request.active:
            # Request ended while we waited for the device.
            self._abort_round(slot_a, slot_b, arbiters)
            return
        sim = self.sim
        # Inline geometric sampling: one inverse-CDF draw per slice with
        # the per-request cached log of the miss probability.
        attempts_needed = math.ceil(math.log(1.0 - self._next_u())
                                    / request.log_miss)
        if attempts_needed < 1:
            attempts_needed = 1
        slice_attempts = self.slice_attempts
        success = attempts_needed <= slice_attempts
        burst = attempts_needed if success else slice_attempts
        # Round-finish events are never cancelled (interrupts act on the
        # *state* the finisher reads), so use the pooled no-handle path.
        sim.post_at(sim._now + burst * self._cycle_time, self._finish_round,
                    request, burst, success, slot_a, slot_b, arbiters)

    def _abort_round(self, slot_a: Slot, slot_b: Slot, arbiters: list) -> None:
        slot_a.release()
        slot_b.release()
        if arbiters:
            release_all(arbiters)
        self._running = False
        self._kick()

    def _finish_round(self, request: LinkRequestState, burst: int, success: bool,
                      slot_a: Slot, slot_b: Slot, arbiters: list) -> None:
        self.attempts_made += burst
        busy = burst * self._cycle_time
        self.busy_time += busy
        # Attempt noise only touches parked storage qubits (near-term model);
        # skip the call entirely on the common empty-storage path.
        if self._device_a._stored:
            self._device_a.charge_attempt_noise(burst)
        if self._device_b._stored:
            self._device_b.charge_attempt_noise(burst)
        try:
            self._scheduler.charge(request.purpose_id, busy)
        except KeyError:
            pass  # request ended while the round was in flight
        if success and request.active and self.up:
            self._deliver_pair(request, slot_a, slot_b)
        else:
            if self.up and not arbiters:
                # Slice continue: re-pick through the scheduler and run the
                # next slice on the slots in hand.  Exactly what releasing
                # them and kicking would do: the pick is pure, the pools'
                # LIFO spare lists would hand back these same slots, the
                # release notifies no listener, and nothing runs in between.
                purpose_id = self._pick(self._eligible_purposes())
                if purpose_id is not None:
                    self._run_round(purpose_id, slot_a, slot_b, arbiters)
                    return
            slot_a.release()
            slot_b.release()
        if arbiters:
            release_all(arbiters)
        self._running = False
        self._kick()

    def _deliver_pair(self, request: LinkRequestState, slot_a: Slot,
                      slot_b: Slot) -> None:
        # Drawn from the per-link stream at delivery time, after the
        # slices' geometric draws (geo, geo, ..., geo, herald).
        bell_index = (BellIndex.PSI_PLUS if self._next_u() < 0.5
                      else BellIndex.PSI_MINUS)
        correlator = (self.name, next(self._seq))
        stem = f"{self.name}:{correlator[1]}@"
        qubit_a, qubit_b = request.make_pair(
            bell_index,
            stem + self.node_a.name,
            stem + self.node_b.name)
        self.node_a.device.adopt_comm_qubit(qubit_a)
        self.node_b.device.adopt_comm_qubit(qubit_b)
        slot_a.commit(qubit_a, correlator)
        slot_b.commit(qubit_b, correlator)
        self.node_a.qmm.bind(correlator, qubit_a)
        self.node_b.qmm.bind(correlator, qubit_b)
        goodness = request.goodness
        request.pairs_delivered += 1
        self.pairs_generated += 1
        t_create = self.sim._now
        if self.trace is not None:
            self.trace.record(t_create, self.name, "EGP_PAIR",
                              purpose=request.purpose_id,
                              correlator=correlator)
        ports = self._delivery_ports
        for node, qubit in ((self.node_a, qubit_a), (self.node_b, qubit_b)):
            # tx() raises PortNotConnectedError (a RuntimeError naming the
            # link and endpoint) when no network layer is attached.
            ports[node.name].tx(LinkPairDelivery(
                link_name=self.name,
                purpose_id=request.purpose_id,
                entanglement_id=correlator,
                bell_index=bell_index,
                qubit=qubit,
                goodness=goodness,
                t_create=t_create,
            ))
