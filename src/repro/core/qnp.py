"""The Quantum Network Protocol engine — one instance per node.

This is the paper's contribution (Sec 4): a connection-oriented quantum
data plane protocol.  The engine

* holds the per-circuit runtime state (routing entry + Appendix C stores),
* receives link-pair deliveries from the link layer and runs the LINK rules,
* receives FORWARD / COMPLETE / TRACK / EXPIRE messages over the classical
  channels and runs the corresponding rules,
* manages the link layer requests of the circuit's downstream link
  (continuous generation at the routed LPR),
* at the head-end: polices/shapes incoming user requests against the
  circuit's EER and originates FORWARD/COMPLETE messages.

The actual rule bodies live in :mod:`repro.core.rules` next to the paper's
pseudocode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..linklayer.service import LinkPairDelivery
from ..netsim.channels import ChannelEnd
from ..netsim.entity import Entity
from ..netsim.ports import Component, connect
from ..network.node import QuantumNode
from ..quantum.bell import BellIndex
from .circuit import CircuitRole, RoutingEntry
from .demux import SymmetricDemultiplexer
from .epochs import EpochManager
from .messages import Complete, Direction, Expire, Forward, Track
from .policing import Policer, PolicerDecision
from .requests import (
    PairDelivery,
    RequestHandle,
    RequestStatus,
    RequestType,
    UserRequest,
)
from .rules import EndNodeRules, IntermediateRules
from .tracker import DirectionState


@dataclass(slots=True)
class RequestRecord:
    """Book-keeping for one request at an end-node (head or tail)."""

    request_id: str
    request_type: RequestType
    measure_basis: str
    final_state: Optional[BellIndex]
    number_of_pairs: Optional[int]
    rate: Optional[float]
    head_end_identifier: int
    tail_end_identifier: int
    delivered: int = 0
    #: Pairs assigned to this request and waiting for their TRACK or
    #: EXPIRE (entries of ``CircuitRuntime.in_transit``).
    in_flight: int = 0
    #: Head-end only: the caller's handle.
    handle: Optional[RequestHandle] = None
    user_request: Optional[UserRequest] = None


@dataclass
class CircuitRuntime:
    """All per-circuit state at one node."""

    entry: RoutingEntry
    # Intermediate-node stores (Appendix C.3).
    upstream: DirectionState = field(default_factory=DirectionState)
    downstream: DirectionState = field(default_factory=DirectionState)
    # End-node stores.
    epochs: EpochManager = field(default_factory=EpochManager)
    demux: SymmetricDemultiplexer = None  # type: ignore[assignment]
    in_transit: dict = field(default_factory=dict)
    #: Requests this node still needs: not finished, or with a pair in
    #: flight.  Finished ones leave through ``QNPNode._retire``.
    requests: dict = field(default_factory=dict)
    # Head-end only.
    #: The ACTIVE requests, in activation order — the submission order,
    #: since the policer starts queued requests first-in first-out.
    active: dict = field(default_factory=dict)
    policer: Optional[Policer] = None
    link_request_active: bool = False
    #: Channel ends towards the upstream and downstream neighbours, bound
    #: at install (``None`` at the circuit's ends).
    upstream_end: Optional[ChannelEnd] = None
    downstream_end: Optional[ChannelEnd] = None

    def __post_init__(self):
        self.demux = SymmetricDemultiplexer(self.epochs)


class QNPNode(Entity, Component, EndNodeRules, IntermediateRules):
    """The QNP protocol machine at one quantum node."""

    def __init__(self, node: QuantumNode, blocking_tracking: bool = False):
        super().__init__(node.sim, name=f"{node.name}.qnp")
        self.node = node
        node.qnp = self
        node.serve("qnp", self._on_message)
        #: Ablation knob: wait for TRACK messages before swapping
        #: (the QNP never does this — Sec 4.1 "lazy entanglement tracking").
        self.blocking_tracking = blocking_tracking
        #: Extension knob: coordinated link scheduling — intermediate nodes
        #: boost circuits with an unmatched pair on the adjacent link (the
        #: "improved scheduling" the paper suggests against Fig 8c).
        self.coordinated_scheduling = False
        self._circuits: dict[str, CircuitRuntime] = {}
        self._labels: dict[tuple, str] = {}
        self._registered_links: set[str] = set()
        self._apps: dict[int, Callable[[PairDelivery], None]] = {}
        #: identifier → circuit its application registration serves.
        self._app_circuits: dict[int, str] = {}
        #: Optional span tracer (see :mod:`repro.analysis.tracing`);
        #: attached by ``attach_tracer``.
        self.trace = None
        # Statistics.
        self.swaps_performed = 0
        self.pairs_delivered = 0
        self.pairs_discarded = 0
        self.pairs_expired = 0
        self.expires_sent = 0
        self.tracks_relayed = 0

    # ------------------------------------------------------------------
    # Circuit management (driven by the signalling protocol)
    # ------------------------------------------------------------------

    def install_circuit(self, entry: RoutingEntry) -> None:
        """Install the data plane state for a virtual circuit."""
        if entry.circuit_id in self._circuits:
            raise ValueError(f"circuit {entry.circuit_id} already installed")
        node = self.node
        runtime = CircuitRuntime(
            entry=entry,
            upstream_end=(None if entry.upstream_node is None
                          else node.channel_end(entry.upstream_node, "qnp")),
            downstream_end=(None if entry.downstream_node is None
                            else node.channel_end(entry.downstream_node, "qnp")))
        if entry.role == CircuitRole.HEAD:
            runtime.policer = Policer(entry.circuit_max_eer)
        self._circuits[entry.circuit_id] = runtime
        for link_name, label in ((entry.upstream_link, entry.upstream_link_label),
                                 (entry.downstream_link, entry.downstream_link_label)):
            if link_name is None:
                continue
            self._labels[(link_name, label)] = entry.circuit_id
            if link_name not in self._registered_links:
                # Take over the link's delivery port for this endpoint
                # (disconnect-then-connect: the QNP replaces whatever
                # was wired there before).
                delivery = self.node.links[link_name].delivery_port(
                    self.node.name)
                if delivery.connected:
                    delivery.disconnect()
                connect(delivery,
                        self.add_port(f"link:{link_name}", "egp.delivery",
                                      handler=self._on_link_pair))
                self._registered_links.add(link_name)

    def uninstall_circuit(self, circuit_id: str) -> None:
        """Tear a circuit down, aborting its requests and freeing pairs."""
        runtime = self._circuits.pop(circuit_id, None)
        if runtime is None:
            return
        self._stop_downstream_link(runtime)
        for record in runtime.requests.values():
            handle = record.handle
            if handle is None:
                continue
            if handle.status in (RequestStatus.ACTIVE, RequestStatus.QUEUED):
                # Shaped (queued) requests must abort too: their bandwidth
                # will never free up on a circuit that no longer exists, and
                # a handle stuck in QUEUED stalls run_until_complete().
                handle._finish(RequestStatus.ABORTED, self.sim._now)
                if runtime.policer is not None:
                    runtime.policer.abort(record.request_id)
            handle._close()
        # Nothing more is delivered on this circuit here, including to a
        # request whose FORWARD never arrived.
        for identifier in [identifier for identifier, circuit
                           in self._app_circuits.items()
                           if circuit == circuit_id]:
            self._drop_application(identifier)
        # Release every pair still parked for this circuit so its memory
        # slots return to the pool immediately — a management-plane
        # teardown after a link failure must not wait for cutoff timers
        # to drain slots that surviving circuits need.
        for direction in (runtime.upstream, runtime.downstream):
            while direction.available:
                pair = direction.available.popleft()
                pair.cancel_timer()
                self._discard_local_pair(pair.correlator)
        for correlator in list(runtime.in_transit):
            # EARLY/MEASURE pairs already freed their slot at delivery;
            # _discard_local_pair is a no-op for those.
            self._discard_local_pair(correlator)
        runtime.in_transit.clear()
        self._labels = {key: value for key, value in self._labels.items()
                        if value != circuit_id}

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def register_application(self, identifier: int,
                             callback: Callable[[PairDelivery], None],
                             circuit_id: str) -> None:
        """Register the receiver for pairs addressed to an end-point
        identifier (the locator/identifier scheme of Appendix C.1).

        An identifier names one request's end-point on ``circuit_id``, so
        the registration ends with it: when that request retires at this
        node, or when the circuit is uninstalled here.
        """
        self._apps[identifier] = callback
        self._app_circuits[identifier] = circuit_id

    def _drop_application(self, identifier: int) -> None:
        self._apps.pop(identifier, None)
        self._app_circuits.pop(identifier, None)

    def submit(self, circuit_id: str, request: UserRequest,
               head_end_identifier: int = 0, tail_end_identifier: int = 0,
               ) -> RequestHandle:
        """Submit a user request at the head-end of a circuit.

        Runs policing and shaping (Sec 4.1): the handle's status tells the
        caller whether the request was accepted, queued or rejected.
        """
        runtime = self._circuits[circuit_id]
        if runtime.entry.role != CircuitRole.HEAD:
            raise ValueError("requests must be submitted at the head-end node "
                             "(tail-end applications forward them there)")
        if request.request_id is None:
            request.request_id = self.sim.next_id("req")
        handle = RequestHandle(request, runtime.entry.estimated_fidelity)
        handle.t_submitted = self.sim._now
        record = RequestRecord(
            request_id=request.request_id,
            request_type=request.request_type,
            measure_basis=request.measure_basis,
            final_state=request.final_state,
            number_of_pairs=request.num_pairs,
            rate=request.rate,
            head_end_identifier=head_end_identifier,
            tail_end_identifier=tail_end_identifier,
            handle=handle,
            user_request=request,
        )
        if self.trace is not None:
            self._emit("REQUEST", request=request.request_id)
        decision = runtime.policer.admit(request)
        if self.trace is not None:
            self._emit("ADMIT", request=request.request_id,
                       decision=str(decision))
        if decision == PolicerDecision.REJECT:
            handle._finish(RequestStatus.REJECTED, self.sim._now)
            handle._close()
            return handle
        runtime.requests[request.request_id] = record
        if decision == PolicerDecision.ACCEPT:
            self._head_start_request(runtime, record)
        else:
            handle.status = RequestStatus.QUEUED
        return handle

    def cancel(self, circuit_id: str, request_id: str) -> None:
        """Cancel a request (rate-based requests finish this way)."""
        runtime = self._circuits[circuit_id]
        record = runtime.requests.get(request_id)
        if record is None:
            if runtime.policer is not None:
                runtime.policer.drop_queued(request_id)
            return
        handle = record.handle
        if handle is not None and handle.status == RequestStatus.QUEUED:
            # Still shaped: drop it before it ever starts.
            runtime.policer.drop_queued(request_id)
            handle._finish(RequestStatus.ABORTED, self.sim._now)
            del runtime.requests[request_id]
            self._drop_application(record.head_end_identifier)
            handle._close()
            return
        if handle is not None and handle.status == RequestStatus.ACTIVE:
            self._head_complete_request(runtime, record)

    # ------------------------------------------------------------------
    # Head-end request lifecycle
    # ------------------------------------------------------------------

    def _head_start_request(self, runtime: CircuitRuntime,
                            record: RequestRecord) -> None:
        record.handle._start(self.sim._now)
        runtime.active[record.request_id] = record
        active_ids = self._active_request_ids(runtime)
        epoch = runtime.epochs.create_epoch(active_ids)
        runtime.epochs.activate(epoch)  # head-end is authoritative
        rate, rate_based_only = self._aggregate_rate(runtime)
        forward = Forward(
            circuit_id=runtime.entry.circuit_id,
            request_id=record.request_id,
            head_end_identifier=record.head_end_identifier,
            tail_end_identifier=record.tail_end_identifier,
            request_type=record.request_type,
            measure_info=record.measure_basis,
            number_of_pairs=record.number_of_pairs,
            final_state=record.final_state,
            rate=rate,
            rate_based_only=rate_based_only,
            epoch=epoch,
            epoch_requests=active_ids,
        )
        self._update_downstream_link(runtime, rate, rate_based_only,
                                     len(active_ids))
        self._send_circuit_message(runtime, Direction.DOWNSTREAM, forward)

    def _head_complete_request(self, runtime: CircuitRuntime,
                               record: RequestRecord) -> None:
        handle = record.handle
        if handle is not None:
            if handle.status != RequestStatus.ACTIVE:
                return  # already completed (late in-flight confirmation)
            handle._finish(RequestStatus.COMPLETED, self.sim._now)
            if self.trace is not None:
                self._emit("REQUEST_DONE", request=record.request_id)
        runtime.active.pop(record.request_id, None)
        runtime.demux.mark_finished(record.request_id)
        runtime.policer.release(record.request_id)
        active_ids = self._active_request_ids(runtime)
        epoch = runtime.epochs.create_epoch(active_ids)
        runtime.epochs.activate(epoch)
        rate, rate_based_only = self._aggregate_rate(runtime)
        complete = Complete(
            circuit_id=runtime.entry.circuit_id,
            request_id=record.request_id,
            head_end_identifier=record.head_end_identifier,
            tail_end_identifier=record.tail_end_identifier,
            rate=rate,
            rate_based_only=rate_based_only,
            epoch=epoch,
            epoch_requests=active_ids,
        )
        self._update_downstream_link(runtime, rate, rate_based_only,
                                     len(active_ids))
        self._send_circuit_message(runtime, Direction.DOWNSTREAM, complete)
        # Shaping: start queued requests that now fit.
        while True:
            queued = runtime.policer.next_startable()
            if queued is None:
                break
            next_record = runtime.requests.get(queued.request_id)
            if next_record is None:  # pragma: no cover - defensive
                continue
            self._head_start_request(runtime, next_record)
        self._retire(runtime, record)

    def _active_request_ids(self, runtime: CircuitRuntime) -> tuple:
        """Active requests in arrival order (the distributed-FIFO order the
        demultiplexer serves)."""
        return tuple(runtime.active)

    def _aggregate_rate(self, runtime: CircuitRuntime) -> tuple[float, bool]:
        """Total EER needed by the active requests + rate-based-only flag."""
        total = 0.0
        rate_based_only = True
        for record in runtime.active.values():
            total += record.user_request.minimum_eer()
            if not record.user_request.is_rate_based:
                rate_based_only = False
        return total, (rate_based_only and bool(runtime.active))

    def _retire(self, runtime: CircuitRuntime, record: RequestRecord) -> None:
        """Forget a request that is finished here and has no pair in flight.

        No message can reach it any more: the demultiplexer assigns no
        new pair to a finished request, and every TRACK or EXPIRE for one
        of its pairs found the pair in ``in_transit``.  So a late message
        behaves exactly as if the record were still there.
        """
        if record.in_flight or not runtime.demux.is_finished(
                record.request_id):
            return
        if runtime.requests.pop(record.request_id, None) is None:
            return
        self._drop_application(
            record.head_end_identifier if runtime.entry.role is CircuitRole.HEAD
            else record.tail_end_identifier)
        if record.handle is not None:
            record.handle._close()

    # ------------------------------------------------------------------
    # Link layer management (continuous generation, Sec 4.1)
    # ------------------------------------------------------------------

    def _update_downstream_link(self, runtime: CircuitRuntime, rate: float,
                                rate_based_only: bool,
                                active_requests: int) -> None:
        entry = runtime.entry
        if entry.downstream_link is None:
            return
        link = self.node.links[entry.downstream_link]
        has_demand = active_requests > 0 and (rate > 0 or not rate_based_only)
        if not has_demand:
            if runtime.link_request_active:
                link.end_request(entry.downstream_link_label)
                runtime.link_request_active = False
            return
        lpr = entry.downstream_max_lpr
        if rate_based_only and entry.circuit_max_eer > 0:
            lpr = lpr * min(1.0, rate / entry.circuit_max_eer)
        link.set_request(entry.downstream_link_label,
                         entry.downstream_min_fidelity, lpr,
                         endorser=self.node.name)
        runtime.link_request_active = True

    def _endorse_upstream_link(self, runtime: CircuitRuntime) -> None:
        """Endorse the upstream link's request so generation may start.

        A link only generates once both endpoint network layers know about
        the request — otherwise pairs could reach this node before the
        FORWARD does and be dropped on the floor.
        """
        entry = runtime.entry
        if entry.upstream_link is not None:
            self.node.links[entry.upstream_link].endorse(
                entry.upstream_link_label, self.node.name)

    def _stop_downstream_link(self, runtime: CircuitRuntime) -> None:
        entry = runtime.entry
        if entry.downstream_link is not None and runtime.link_request_active:
            self.node.links[entry.downstream_link].end_request(
                entry.downstream_link_label)
            runtime.link_request_active = False

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def _emit(self, kind: str, **detail) -> None:
        """Record a trace event; callers test ``self.trace is not None``
        first, so an untraced run builds no detail for it."""
        self.trace.record(self.sim._now, self.node.name, kind, **detail)

    def _send_circuit_message(self, runtime: CircuitRuntime,
                              direction: Direction, message) -> None:
        entry = runtime.entry
        if direction == Direction.DOWNSTREAM:
            neighbour, end = entry.downstream_node, runtime.downstream_end
        else:
            neighbour, end = entry.upstream_node, runtime.upstream_end
        if end is None:
            raise RuntimeError(
                f"{self.name}: cannot send {type(message).__name__} "
                f"{direction.value} from a circuit {entry.role.value} node")
        if self.trace is not None:
            self._emit(type(message).__name__.upper(), to=neighbour,
                       circuit=entry.circuit_id)
        end.send(message)

    def _on_message(self, sender: str, message) -> None:
        """Inbound QNP message from neighbour ``sender``: run its rule."""
        runtime = self._circuits.get(message.circuit_id)
        if runtime is None:
            return  # circuit torn down; drop silently
        if isinstance(message, Forward):
            self._on_forward(runtime, message)
        elif isinstance(message, Complete):
            self._on_complete(runtime, message)
        elif isinstance(message, Track):
            self._on_track(runtime, message)
        elif isinstance(message, Expire):
            self._on_expire(runtime, message)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unexpected QNP message {message!r}")

    def _on_forward(self, runtime: CircuitRuntime, forward: Forward) -> None:
        role = runtime.entry.role
        if role == CircuitRole.TAIL:
            runtime.requests[forward.request_id] = RequestRecord(
                request_id=forward.request_id,
                request_type=forward.request_type,
                measure_basis=forward.measure_info or "Z",
                final_state=forward.final_state,
                number_of_pairs=forward.number_of_pairs,
                rate=forward.rate,
                head_end_identifier=forward.head_end_identifier,
                tail_end_identifier=forward.tail_end_identifier,
            )
            runtime.epochs.learn_epoch(forward.epoch, forward.epoch_requests)
            self._endorse_upstream_link(runtime)
            if not runtime.demux.eligible_requests():
                # The tail is not assigning pairs to anything right now, so
                # jumping straight to the announced epoch cannot create an
                # inconsistent assignment (otherwise we wait for the epoch
                # to arrive on a TRACK, per Sec 4.1).
                runtime.epochs.activate(forward.epoch)
            return
        self._endorse_upstream_link(runtime)
        self._update_downstream_link(runtime, forward.rate,
                                     forward.rate_based_only,
                                     len(forward.epoch_requests))
        self._send_circuit_message(runtime, Direction.DOWNSTREAM, forward)

    def _on_complete(self, runtime: CircuitRuntime, complete: Complete) -> None:
        role = runtime.entry.role
        if role == CircuitRole.TAIL:
            runtime.epochs.learn_epoch(complete.epoch, complete.epoch_requests)
            runtime.demux.mark_finished(complete.request_id)
            if not runtime.demux.eligible_requests():
                runtime.epochs.activate(complete.epoch)
            record = runtime.requests.get(complete.request_id)
            if record is not None:
                self._retire(runtime, record)
            return
        self._update_downstream_link(runtime, complete.rate,
                                     complete.rate_based_only,
                                     len(complete.epoch_requests))
        self._send_circuit_message(runtime, Direction.DOWNSTREAM, complete)

    def _on_track(self, runtime: CircuitRuntime, track: Track) -> None:
        role = runtime.entry.role
        if role == CircuitRole.INTERMEDIATE:
            self._intermediate_track_rule(runtime, track)
        else:
            self._end_node_track_rule(runtime, track)

    def _on_expire(self, runtime: CircuitRuntime, expire: Expire) -> None:
        role = runtime.entry.role
        if role == CircuitRole.INTERMEDIATE:
            # Relay towards the origin end-node.
            self._send_circuit_message(runtime, expire.direction, expire)
        else:
            self._end_node_expire_rule(runtime, expire)

    # ------------------------------------------------------------------
    # Link-pair delivery dispatch (the LINK rules' entry point)
    # ------------------------------------------------------------------

    def _on_link_pair(self, delivery: LinkPairDelivery) -> None:
        circuit_id = self._labels.get((delivery.link_name, delivery.purpose_id))
        if circuit_id is None:
            # Pair for a circuit that no longer exists here.
            self._discard_local_pair(delivery.entanglement_id)
            return
        runtime = self._circuits[circuit_id]
        entry = runtime.entry
        role = entry.role
        if role == CircuitRole.INTERMEDIATE:
            from_upstream = delivery.link_name == entry.upstream_link
            self._intermediate_link_rule(runtime, delivery, from_upstream)
        else:
            self._end_node_link_rule(runtime, delivery)

    # ------------------------------------------------------------------
    # Delivery plumbing
    # ------------------------------------------------------------------

    def _deliver(self, runtime: CircuitRuntime, record: RequestRecord,
                 delivery: PairDelivery) -> None:
        """Hand a delivery, or the status change of an EARLY one, to the
        caller's handle and to the end-point's application."""
        if record.handle is not None:
            record.handle._notify(delivery)
        callback = self._apps.get(
            record.head_end_identifier if runtime.entry.role is CircuitRole.HEAD
            else record.tail_end_identifier)
        if callback is not None:
            callback(delivery)
