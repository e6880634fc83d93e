"""Topology construction and the user-facing :class:`Network` façade.

Builds the evaluation networks of the paper:

* :func:`build_dumbbell_network` — the Fig 7 six-node topology with the
  MA–MB bottleneck link and four end-nodes (A0, A1, B0, B1),
* :func:`build_chain_network` — linear repeater chains,
* :func:`build_near_term_chain` — the Fig 11 three-node, 25 km chain on
  near-term hardware.

The façade wraps circuit establishment (routing + signalling), request
submission (with both end-points wired up), simulation driving, the
Fig 10c classical-message-delay knob, and the evaluation-side fidelity
oracle used by the paper's "simpler protocol" baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import networkx as nx

from ..control.liveness import LivenessAgent
from ..control.routing import CentralController, RouteComputation
from ..control.signalling import SignallingAgent, allocate_circuit_id
from ..core.qnp import QNPNode
from ..core.requests import (
    DeliveryStatus,
    PairDelivery,
    RequestHandle,
    RequestStatus,
    UserRequest,
)
from ..hardware.fibre import HeraldedConnection
from ..hardware.heralded import (
    MidpointHeraldModel,
    MidpointStation,
    SingleClickModel,
)
from ..hardware.parameters import HardwareParams, NEAR_TERM, SIMULATION
from ..linklayer.egp import Link
from ..netsim.channels import ClassicalChannel
from ..netsim.ports import connect as connect_ports
from ..netsim.scheduler import Simulator
from ..obs.registry import MetricsRegistry
from ..netsim.units import (
    LAB_WAVELENGTH_ATTENUATION_DB_PER_KM,
    S,
    TELECOM_ATTENUATION_DB_PER_KM,
)
from ..quantum.backends import Backend, get_backend
from ..quantum.fidelity import pair_fidelity
from ..quantum.operations import NoisyOpParams
from .node import QuantumNode


@dataclass
class MatchedPair:
    """Evaluation-side record of one end-to-end pair seen at both ends."""

    pair_id: tuple
    head_delivery: PairDelivery
    tail_delivery: PairDelivery
    #: Ground-truth fidelity read from the simulation (oracle only).
    fidelity: Optional[float] = None
    accepted: bool = True


@dataclass
class _Submission:
    handle: RequestHandle
    tail_deliveries: list = field(default_factory=list)
    matched: list = field(default_factory=list)
    oracle_min_fidelity: Optional[float] = None
    record_fidelity: bool = False
    #: Evaluation-side consumer invoked with each :class:`MatchedPair`
    #: (application services); a truthy return takes qubit ownership.
    on_matched: Optional[object] = None
    _pending: dict = field(default_factory=dict)


#: Physical-layer models the builder can wire per link: the analytic
#: fast-forward (the paper's model, byte-identical default) or the
#: time-windowed midpoint heralding station.
PHYSICAL_MODELS = ("analytic", "midpoint")


class Network:
    """A fully wired quantum network plus control plane.

    ``formalism`` selects the quantum-state backend every node and link run
    on: ``"dm"`` (exact density matrices) or ``"bell"`` (fast Bell-diagonal
    weights) — see :mod:`repro.quantum.backends`.  ``physical`` selects
    the default physical-layer model for new links (see
    :data:`PHYSICAL_MODELS`; overridable per link in :meth:`connect`).
    """

    def __init__(self, sim: Simulator, params: HardwareParams,
                 formalism: str | Backend = "dm",
                 physical: str = "analytic"):
        if physical not in PHYSICAL_MODELS:
            raise ValueError(
                f"unknown physical model {physical!r} "
                f"(have: {', '.join(PHYSICAL_MODELS)})")
        self.sim = sim
        self.params = params
        self.backend = get_backend(formalism)
        self.physical = physical
        self.nodes: dict[str, QuantumNode] = {}
        self.links: dict[frozenset, Link] = {}
        #: Midpoint heralding stations by edge (``physical="midpoint"``).
        self.stations: dict[frozenset, MidpointStation] = {}
        self.channels: list[ClassicalChannel] = []
        self._channel_by_edge: dict[frozenset, ClassicalChannel] = {}
        self.qnps: dict[str, QNPNode] = {}
        self.signalling: dict[str, SignallingAgent] = {}
        self.liveness: dict[str, LivenessAgent] = {}
        self.controller: Optional[CentralController] = None
        self._graph = nx.Graph()
        self._circuit_meta: dict[str, dict] = {}
        # Keyed by handle (identity hash) so session retirement can free a
        # finished submission in O(1) — see :meth:`discard_submission`.
        self._submissions: dict[RequestHandle, _Submission] = {}
        self._identifier_counter = 0
        #: Optional causal span tracer (set by ``attach_trace``/
        #: ``attach_tracer`` — see :mod:`repro.analysis.tracing`).  When
        #: present the façade opens circuit/session interval spans around
        #: the flat protocol events.
        self.tracer = None
        #: The network's metrics registry (:mod:`repro.obs`).  Scheduler,
        #: link-layer, QNP and arbiter instruments are pull-based — they
        #: poll the stats the components already keep, so registration
        #: here costs nothing on the hot path.
        self.obs = MetricsRegistry()
        self._register_instruments()

    def _register_instruments(self) -> None:
        """Register the pull-based core instruments on ``self.obs``.

        Every source is a bound method (not a lambda) so the registry —
        which an engine checkpoint pickles wholesale — stays serialisable.
        """
        obs, sim = self.obs, self.sim
        obs.counter("sim.events_processed", source=self._src_sim_events)
        obs.counter("sim.pool_hits", source=self._src_sim_pool_hits)
        obs.gauge("sim.heap_size", source=self._src_sim_heap)
        obs.gauge("sim.pending_events", source=sim.pending_events)
        obs.counter("egp.attempts", source=self._src_egp_attempts)
        obs.counter("egp.pairs_generated", source=self._src_egp_pairs)
        obs.gauge("egp.busy_time_s", source=self._src_egp_busy_s)
        obs.counter("qnp.swaps", source=self._src_qnp_swaps)
        obs.counter("qnp.pairs_delivered", source=self._src_qnp_delivered)
        obs.counter("qnp.pairs_discarded", source=self._src_qnp_discarded)
        obs.counter("qnp.pairs_expired", source=self._src_qnp_expired)
        obs.counter("qnp.expires_sent", source=self._src_qnp_expires_sent)
        obs.counter("qnp.tracks_relayed", source=self._src_qnp_tracks)
        obs.gauge("policer.queue_depth", source=self._src_policer_queue)
        obs.counter("arbiter.grants", source=self._src_arbiter_grants)
        obs.counter("arbiter.wait_ns", source=self._src_arbiter_wait)
        obs.gauge("arbiter.max_queue", source=self._src_arbiter_max_queue)
        # Push-style admission counters (incremented by :meth:`submit`).
        for name in ("policer.accepted", "policer.queued",
                     "policer.rejected"):
            obs.counter(name)
        obs.histogram("traffic.fidelity")

    # Pull-source methods for the registry (picklable bound methods).

    def _src_sim_events(self) -> int:
        return self.sim.events_processed

    def _src_sim_pool_hits(self) -> int:
        return self.sim.pool_hits

    def _src_sim_heap(self) -> int:
        return self.sim.heap_size

    def _src_egp_attempts(self) -> int:
        return sum(link.attempts_made for link in self.links.values())

    def _src_egp_pairs(self) -> int:
        return sum(link.pairs_generated for link in self.links.values())

    def _src_egp_busy_s(self) -> float:
        return sum(link.busy_time for link in self.links.values()) / S

    def _src_qnp_swaps(self) -> int:
        return sum(qnp.swaps_performed for qnp in self.qnps.values())

    def _src_qnp_delivered(self) -> int:
        return sum(qnp.pairs_delivered for qnp in self.qnps.values())

    def _src_qnp_discarded(self) -> int:
        return sum(qnp.pairs_discarded for qnp in self.qnps.values())

    def _src_qnp_expired(self) -> int:
        return sum(qnp.pairs_expired for qnp in self.qnps.values())

    def _src_qnp_expires_sent(self) -> int:
        return sum(qnp.expires_sent for qnp in self.qnps.values())

    def _src_qnp_tracks(self) -> int:
        return sum(qnp.tracks_relayed for qnp in self.qnps.values())

    def _src_policer_queue(self) -> int:
        return sum(runtime.policer.queued
                   for qnp in self.qnps.values()
                   for runtime in qnp._circuits.values()
                   if runtime.policer is not None)

    def _src_arbiter_grants(self) -> int:
        return sum(node.arbiter.grants for node in self.nodes.values())

    def _src_arbiter_wait(self) -> float:
        return sum(node.arbiter.total_wait for node in self.nodes.values())

    def _src_arbiter_max_queue(self) -> int:
        return max((node.arbiter.max_queue_length
                    for node in self.nodes.values()), default=0)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @property
    def formalism(self) -> str:
        """Name of the active state formalism."""
        return self.backend.name

    @property
    def graph(self) -> nx.Graph:
        """The wired topology (read-only view used by traffic tooling)."""
        return self._graph

    def add_node(self, name: str) -> QuantumNode:
        node = QuantumNode(self.sim, name, self.params, backend=self.backend)
        self.nodes[name] = node
        self.qnps[name] = QNPNode(node)
        self.signalling[name] = SignallingAgent(node)
        self.liveness[name] = LivenessAgent(node)
        self._graph.add_node(name)
        return node

    def connect(self, name_a: str, name_b: str, length_km: float,
                attenuation: float = LAB_WAVELENGTH_ATTENUATION_DB_PER_KM,
                slice_attempts: int = 100,
                physical: Optional[str] = None) -> Link:
        """Wire a heralded quantum link plus a classical channel.

        ``physical`` overrides the network-wide physical-layer model for
        this link (see :data:`PHYSICAL_MODELS`).
        """
        physical = self.physical if physical is None else physical
        if physical not in PHYSICAL_MODELS:
            raise ValueError(
                f"unknown physical model {physical!r} "
                f"(have: {', '.join(PHYSICAL_MODELS)})")
        node_a, node_b = self.nodes[name_a], self.nodes[name_b]
        connection = HeraldedConnection.symmetric(length_km, attenuation)
        if physical == "midpoint":
            model = MidpointHeraldModel(self.params, connection)
        else:
            model = SingleClickModel(self.params, connection)
        link = Link(self.sim, f"{name_a}~{name_b}", node_a, node_b, model,
                    slice_attempts, backend=self.backend)
        node_a.attach_link(link, name_b)
        node_b.attach_link(link, name_a)
        if physical == "midpoint":
            station = MidpointStation(
                self.sim, name=f"mid:{name_a}~{name_b}",
                coincidence_window=model.coincidence_window)
            link.attach_station(station)
            self.stations[frozenset((name_a, name_b))] = station
        channel = ClassicalChannel(self.sim, length_km,
                                   name=f"c:{name_a}~{name_b}")
        connect_ports(node_a.classical_port(name_b), channel.port("a"))
        connect_ports(node_b.classical_port(name_a), channel.port("b"))
        self.channels.append(channel)
        self.links[frozenset((name_a, name_b))] = link
        self._channel_by_edge[frozenset((name_a, name_b))] = channel
        self._graph.add_edge(name_a, name_b)
        return link

    def finalise(self) -> None:
        """Create the central controller once the topology is complete."""
        device_ops = NoisyOpParams(
            two_qubit_gate_fidelity=self.params.gates.two_qubit_gate_fidelity,
            single_qubit_gate_fidelity=self.params.gates.electron_single_qubit_fidelity,
            readout_error0=self.params.gates.readout_error0,
            readout_error1=self.params.gates.readout_error1,
        )
        self.controller = CentralController(
            self._graph, self.links,
            memory_t1=self.params.electron_t1,
            memory_t2=self.params.electron_t2,
            ops=device_ops,
        )

    # ------------------------------------------------------------------
    # Control plane operations
    # ------------------------------------------------------------------

    def establish_circuit(self, head: str, tail: str, target_fidelity: float,
                          cutoff_policy="loss",
                          max_eer: Optional[float] = None,
                          metric: Optional[str] = None) -> str:
        """Route, signal and install a virtual circuit; returns its ID.

        ``metric`` selects the path-selection metric for this circuit
        (defaults to the controller's — see
        :data:`repro.control.routing.PATH_METRICS`).  Drives the
        simulation until the RESV confirms installation (the handshake
        takes a few propagation delays).
        """
        if self.controller is None:
            self.finalise()
        route = self.controller.compute_route(head, tail, target_fidelity,
                                              cutoff_policy, metric=metric)
        return self._install(route, max_eer, cutoff_policy=cutoff_policy)

    def establish_circuit_manual(self, path: list[str], link_fidelity: float,
                                 cutoff: Optional[float],
                                 max_eer: float = 1.0,
                                 estimated_fidelity: float = 0.0) -> str:
        """Manually populated routing tables (the Fig 11 workflow)."""
        if self.controller is None:
            self.finalise()
        link_names = []
        for i in range(len(path) - 1):
            link_names.append(self.links[frozenset((path[i], path[i + 1]))].name)
        max_lpr = min(self.links[frozenset((path[i], path[i + 1]))]
                      .max_lpr(link_fidelity) for i in range(len(path) - 1))
        route = RouteComputation(
            path=path, link_names=link_names, link_fidelity=link_fidelity,
            cutoff=cutoff, max_lpr=max_lpr, eer=max_eer,
            estimated_fidelity=estimated_fidelity,
            target_fidelity=estimated_fidelity)
        return self._install(route, max_eer)

    def _install_async(self, route: RouteComputation,
                       max_eer: Optional[float] = None,
                       cutoff_policy=None,
                       on_ready=None) -> str:
        """Start the PATH/RESV handshake for a route without driving the
        simulation; ``on_ready`` fires when the RESV reaches the head."""
        circuit_id = allocate_circuit_id(route.path[0], route.path[-1])
        entries = self.controller.build_entries(circuit_id, route, max_eer)
        if self.tracer is not None:
            on_ready = self._trace_install(circuit_id, route, entries,
                                           on_ready)
        self.signalling[route.path[0]].establish(entries, on_ready=on_ready)
        self._circuit_meta[circuit_id] = {
            "route": route, "max_eer": max_eer,
            "cutoff_policy": cutoff_policy,
        }
        self.controller.register_install(circuit_id, route)
        return circuit_id

    def _trace_install(self, circuit_id: str, route: RouteComputation,
                       entries, on_ready):
        """Open a circuit span and wrap ``on_ready`` with an INSTALL mark.

        The circuit span is the root of the causal tree: the route
        computation is its first point child, the link labels of every
        hop are aliased to it (so link-layer ``EGP_*`` events file under
        it), and sessions submitted on the circuit parent under it.
        """
        tracer = self.tracer
        head = route.path[0]
        span = tracer.begin("circuit", head, self.sim.now,
                            key=("circuit", circuit_id),
                            circuit=circuit_id, path="-".join(route.path))
        tracer.point("ROUTE", head, self.sim.now, parent=span,
                     circuit=circuit_id, path="-".join(route.path),
                     estimated_fidelity=round(route.estimated_fidelity, 4))
        for entry in entries:
            for label in (entry.upstream_link_label,
                          entry.downstream_link_label):
                if label is not None:
                    tracer.alias(("purpose", label), span)

        return partial(self._traced_ready, span, head, circuit_id, on_ready)

    def _traced_ready(self, span, head, circuit_id, on_ready,
                      ready_circuit_id: str) -> None:
        """INSTALL mark + chained ``on_ready`` for a traced circuit."""
        self.tracer.point("INSTALL", head, self.sim.now, parent=span,
                          circuit=circuit_id)
        if on_ready is not None:
            on_ready(ready_circuit_id)

    def _install(self, route: RouteComputation, max_eer: Optional[float],
                 cutoff_policy=None) -> str:
        """Install a route and drive the simulation until it is ready."""
        ready = []
        circuit_id = self._install_async(route, max_eer,
                                         cutoff_policy=cutoff_policy,
                                         on_ready=ready.append)
        # The handshake needs a few propagation delays of simulated time.
        # Budget in *time*, not event count: when other circuits are already
        # carrying traffic, thousands of unrelated link events fire per
        # propagation delay and an event-count guard trips spuriously.
        deadline = self.sim.now + 60.0 * S
        while not ready:
            if self.sim.now >= deadline or self.sim.pending_events() == 0:
                # Undo the eager registration so a failed install leaves
                # no phantom load behind for the utilisation metric.
                self._circuit_meta.pop(circuit_id, None)
                self.controller.register_teardown(circuit_id)
                raise RuntimeError(f"circuit {circuit_id} installation stalled")
            self._step(limit=deadline)
        return circuit_id

    def teardown_circuit(self, circuit_id: str) -> None:
        """Remove a circuit: unwatch, free its routed LPR share, TEAR."""
        meta = self._circuit_meta.pop(circuit_id, None)
        if meta is None:
            return
        path = meta["route"].path
        if self.tracer is not None:
            self.tracer.end(("circuit", circuit_id), self.sim.now)
        self.liveness[path[0]].unwatch(circuit_id)
        if self.controller is not None:
            self.controller.register_teardown(circuit_id)
        self.signalling[path[0]].teardown(circuit_id, path)

    def watch_circuit(self, circuit_id: str, interval_ms: float = 50.0,
                      miss_limit: int = 3, on_failure=None) -> None:
        """Monitor a circuit's classical connectivity (Sec 4.1).

        When the keepalive fails, ``on_failure(circuit_id)`` runs; the
        default tears the circuit down from the head-end so its active
        requests abort — applications observe
        :attr:`RequestStatus.ABORTED` on their handles.  Recovery-aware
        callers (the traffic engine) pass their own handler, typically
        ending in :meth:`recover_circuit`.
        """
        from ..netsim.units import MS

        route = self.route_of(circuit_id)
        head = route.path[0]
        if on_failure is None:
            on_failure = self.teardown_circuit
        self.liveness[head].watch(
            circuit_id, route.path, interval=interval_ms * MS,
            miss_limit=miss_limit,
            on_failure=on_failure)

    def route_of(self, circuit_id: str) -> RouteComputation:
        """The :class:`RouteComputation` a circuit was installed with."""
        return self._circuit_meta[circuit_id]["route"]

    # ------------------------------------------------------------------
    # Failure injection and recovery
    # ------------------------------------------------------------------

    def fail_link(self, name_a: str, name_b: str) -> None:
        """Take a link down: quantum generation stalls, classical traffic
        over that hop is dropped, and the controller stops routing new
        circuits across it.  Liveness keepalives on circuits crossing the
        hop start missing and eventually declare those circuits dead."""
        edge = frozenset((name_a, name_b))
        self.links[edge].fail()
        self._channel_by_edge[edge].cut()
        if self.controller is not None:
            self.controller.set_link_state(edge, False)

    def restore_link(self, name_a: str, name_b: str) -> None:
        """Repair a failed link (generation resumes, routing re-enabled).

        Circuits that were re-routed away do not revert — path
        re-optimisation on repair is a policy decision left to operators.
        """
        edge = frozenset((name_a, name_b))
        self.links[edge].restore()
        self._channel_by_edge[edge].restore()
        if self.controller is not None:
            self.controller.set_link_state(edge, True)

    def link_is_up(self, name_a: str, name_b: str) -> bool:
        """Whether the physical link between two nodes is up."""
        return self.links[frozenset((name_a, name_b))].up

    def recover_circuit(self, circuit_id: str, on_ready=None) -> Optional[str]:
        """Re-establish a failed circuit over a surviving path.

        Management-plane teardown first: the old path may include the
        dead link, so a hop-by-hop TEAR cannot be trusted to propagate —
        instead the controller (which has out-of-band connectivity to
        every node, as in Sec 5) removes the circuit state directly at
        each node, aborting its in-flight requests.  Then a fresh route
        avoiding down links is computed with the circuit's original
        fidelity target, cutoff policy and metric, and re-signalled
        asynchronously; ``on_ready(new_circuit_id)`` fires when the new
        circuit's RESV returns.

        Returns the new circuit ID, or ``None`` when no feasible
        surviving path exists (the circuit is lost).
        """
        from ..control.routing import RouteError

        meta = self._circuit_meta.pop(circuit_id, None)
        if meta is None:
            return None
        route = meta["route"]
        self.liveness[route.path[0]].unwatch(circuit_id)
        self.controller.register_teardown(circuit_id)
        for node in route.path:
            self.qnps[node].uninstall_circuit(circuit_id)
        try:
            new_route = self.controller.compute_route(
                route.path[0], route.path[-1], route.target_fidelity,
                meta.get("cutoff_policy") or "loss", metric=route.metric)
        except RouteError:
            return None
        return self._install_async(new_route, meta.get("max_eer"),
                                   cutoff_policy=meta.get("cutoff_policy"),
                                   on_ready=on_ready)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def submit(self, circuit_id: str, request: UserRequest,
               oracle_min_fidelity: Optional[float] = None,
               record_fidelity: bool = False,
               on_matched=None) -> RequestHandle:
        """Submit a request at a circuit's head-end.

        ``record_fidelity`` matches head/tail deliveries and reads the
        ground-truth pair fidelity from the simulation; this is for
        evaluation only (the network cannot do it).  ``oracle_min_fidelity``
        additionally marks pairs below the threshold as rejected — the
        "simpler protocol" baseline of Fig 10.  ``on_matched`` registers an
        application-service consumer: it is called with each
        :class:`MatchedPair` the moment both halves were seen (fidelity
        already recorded), and a truthy return means the consumer took
        ownership of the pair's qubits — the façade then skips its own
        state cleanup for that pair.
        """
        route = self.route_of(circuit_id)
        head, tail = route.path[0], route.path[-1]
        if self.tracer is not None:
            self.tracer.begin("session", head, self.sim.now,
                              key=("session", request.request_id),
                              parent=self.tracer.lookup(
                                  ("circuit", circuit_id)),
                              request=request.request_id,
                              circuit=circuit_id)
        head_id = self._next_identifier()
        tail_id = self._next_identifier()
        submission = _Submission(
            handle=None,  # type: ignore[arg-type]
            oracle_min_fidelity=oracle_min_fidelity,
            record_fidelity=(record_fidelity
                             or oracle_min_fidelity is not None
                             or on_matched is not None),
            on_matched=on_matched,
        )
        self.qnps[tail].register_application(
            tail_id, partial(self._on_tail_delivery, submission))
        handle = self.qnps[head].submit(circuit_id, request,
                                        head_end_identifier=head_id,
                                        tail_end_identifier=tail_id)
        submission.handle = handle
        decision = {RequestStatus.ACTIVE: "policer.accepted",
                    RequestStatus.QUEUED: "policer.queued",
                    RequestStatus.REJECTED: "policer.rejected"}.get(
                        handle.status)
        if decision is not None:
            self.obs.counter(decision).inc()
        handle.tail_deliveries = submission.tail_deliveries  # type: ignore[attr-defined]
        handle.matched_pairs = submission.matched  # type: ignore[attr-defined]
        handle.on_delivery(partial(self._on_head_delivery, submission))
        self._submissions[handle] = submission
        return handle

    def discard_submission(self, handle: RequestHandle) -> None:
        """Drop the façade's book-keeping for a finished submission.

        Session retirement calls this once a session is terminal and its
        telemetry has been folded into aggregates, so the matched-pair and
        delivery lists (the per-session memory that grows with traffic) can
        be garbage collected.  Safe to call for unknown handles.
        """
        self._submissions.pop(handle, None)

    def _next_identifier(self) -> int:
        self._identifier_counter += 1
        return self._identifier_counter

    def _on_head_delivery(self, submission: _Submission,
                          delivery: PairDelivery) -> None:
        if delivery.status != DeliveryStatus.CONFIRMED:
            return
        self._match(submission, delivery, is_head=True)

    def _on_tail_delivery(self, submission: _Submission,
                          delivery: PairDelivery) -> None:
        submission.tail_deliveries.append(delivery)
        if delivery.status != DeliveryStatus.CONFIRMED:
            return
        self._match(submission, delivery, is_head=False)

    def _match(self, submission: _Submission, delivery: PairDelivery,
               is_head: bool) -> None:
        if not submission.record_fidelity:
            return
        other = submission._pending.pop((delivery.pair_id, not is_head), None)
        if other is None:
            submission._pending[(delivery.pair_id, is_head)] = delivery
            return
        head_delivery = delivery if is_head else other
        tail_delivery = other if is_head else delivery
        matched = MatchedPair(pair_id=delivery.pair_id,
                              head_delivery=head_delivery,
                              tail_delivery=tail_delivery)
        has_qubits = (head_delivery.qubit is not None
                      and tail_delivery.qubit is not None)
        if has_qubits:
            matched.fidelity = pair_fidelity(
                head_delivery.qubit, tail_delivery.qubit,
                int(head_delivery.bell_state))
            if submission.oracle_min_fidelity is not None:
                matched.accepted = matched.fidelity >= submission.oracle_min_fidelity
            self.obs.histogram("traffic.fidelity").observe(matched.fidelity)
        # Hand the pair to the application service first: it may measure
        # or buffer the qubits (truthy return = it owns them now).
        owned = (submission.on_matched is not None
                 and bool(submission.on_matched(matched)))
        if owned and self.tracer is not None:
            self.tracer.record(self.sim.now, "app", "APP_CONSUME",
                               request=delivery.request_id,
                               pair=delivery.pair_id)
        if has_qubits and not owned:
            # Consume the pair so long runs do not accumulate state.
            # Either side's state may already be gone: removing one half can
            # drop its partner, and under heavy traffic a cutoff discard can
            # race the delivery match.
            if head_delivery.qubit.state is not None:
                head_delivery.qubit.state.remove(head_delivery.qubit)
            if tail_delivery.qubit.state is not None:
                tail_delivery.qubit.state.remove(tail_delivery.qubit)
        submission.matched.append(matched)

    # ------------------------------------------------------------------
    # Simulation driving and knobs
    # ------------------------------------------------------------------

    def run(self, until_s: Optional[float] = None) -> None:
        """Run the simulation (``until_s`` in simulated seconds)."""
        self.sim.run(until=None if until_s is None else until_s * S)

    def run_until_complete(self, handles, timeout_s: float = 300.0,
                           deadline_s: Optional[float] = None) -> None:
        """Run until all handles reach a terminal state (or timeout).

        ``deadline_s`` is an *absolute* simulated-time cutoff overriding
        the relative ``timeout_s`` — checkpoint/resume drains use it so a
        resumed run stops at the same instant the uninterrupted one
        would have.
        """
        deadline = (self.sim.now + timeout_s * S if deadline_s is None
                    else deadline_s * S)
        terminal = (RequestStatus.COMPLETED, RequestStatus.REJECTED,
                    RequestStatus.ABORTED)
        while any(handle.status not in terminal for handle in handles):
            if self.sim.now >= deadline or self.sim.pending_events() == 0:
                break
            self._step(limit=deadline)

    def _step(self, limit: Optional[float] = None) -> None:
        """Advance the simulation by one event batch."""
        queue = self.sim._queue
        while queue and queue[0].cancelled:
            import heapq

            heapq.heappop(queue)
        if not queue:
            return
        target = queue[0].time
        if limit is not None:
            target = min(target, limit)
        self.sim.run(until=target)

    def set_message_delay(self, delay_ns: float) -> None:
        """Add a processing delay to every classical channel (Fig 10c)."""
        for channel in self.channels:
            channel.processing_delay = delay_ns

    # ------------------------------------------------------------------

    def node(self, name: str) -> QuantumNode:
        return self.nodes[name]

    def link_between(self, name_a: str, name_b: str) -> Link:
        return self.links[frozenset((name_a, name_b))]


# ----------------------------------------------------------------------
# Canonical topologies
# ----------------------------------------------------------------------

def build_network_from_graph(graph: nx.Graph, length_km: float = 0.002,
                             params: HardwareParams = SIMULATION,
                             seed: int = 0, slice_attempts: int = 100,
                             formalism: str | Backend = "dm",
                             attenuation: float =
                             LAB_WAVELENGTH_ATTENUATION_DB_PER_KM,
                             physical: str = "analytic") -> Network:
    """Wire an arbitrary connected graph into a full :class:`Network`.

    The generic entry point behind the topology catalogue
    (:mod:`repro.traffic.topologies`): every graph node becomes a quantum
    node (names are ``str(node)``) and every edge a heralded link plus a
    classical channel.  Nodes and edges are added in sorted order so the
    wiring — and therefore the event schedule — is deterministic for a
    given graph and seed.
    """
    if graph.number_of_nodes() < 2:
        raise ValueError("a network needs at least two nodes")
    if not nx.is_connected(graph):
        raise ValueError("the topology graph must be connected")
    names = {node: str(node) for node in graph.nodes}
    if len(set(names.values())) != len(names):
        raise ValueError("node names collide after str() conversion")
    net = Network(Simulator(seed=seed), params, formalism=formalism,
                  physical=physical)
    for node in sorted(graph.nodes, key=str):
        net.add_node(names[node])
    for edge_a, edge_b in sorted(graph.edges,
                                 key=lambda edge: tuple(sorted(map(str, edge)))):
        net.connect(names[edge_a], names[edge_b], length_km,
                    attenuation=attenuation, slice_attempts=slice_attempts)
    net.finalise()
    return net


def build_chain_network(num_nodes: int, length_km: float = 0.002,
                        params: HardwareParams = SIMULATION,
                        seed: int = 0, slice_attempts: int = 100,
                        formalism: str = "dm") -> Network:
    """A linear chain node0 — node1 — … — node(n−1)."""
    if num_nodes < 2:
        raise ValueError("a chain needs at least two nodes")
    net = Network(Simulator(seed=seed), params, formalism=formalism)
    names = [f"node{i}" for i in range(num_nodes)]
    for name in names:
        net.add_node(name)
    for left, right in zip(names, names[1:]):
        net.connect(left, right, length_km, slice_attempts=slice_attempts)
    net.finalise()
    return net


def build_dumbbell_network(length_km: float = 0.002,
                           params: HardwareParams = SIMULATION,
                           seed: int = 0, slice_attempts: int = 100,
                           formalism: str = "dm") -> Network:
    """The Fig 7 evaluation topology: A0,A1 — MA — MB — B0,B1."""
    net = Network(Simulator(seed=seed), params, formalism=formalism)
    for name in ("A0", "A1", "MA", "MB", "B0", "B1"):
        net.add_node(name)
    for pair in (("A0", "MA"), ("A1", "MA"), ("MA", "MB"),
                 ("MB", "B0"), ("MB", "B1")):
        net.connect(*pair, length_km, slice_attempts=slice_attempts)
    net.finalise()
    return net


def build_near_term_chain(num_nodes: int = 3, length_km: float = 25.0,
                          params: HardwareParams = NEAR_TERM,
                          seed: int = 0, slice_attempts: int = 2000,
                          formalism: str = "dm") -> Network:
    """The Fig 11 scenario: a 25 km-spaced chain on near-term hardware
    (telecom-converted photons, single communication qubit, storage)."""
    net = Network(Simulator(seed=seed), params, formalism=formalism)
    names = [f"node{i}" for i in range(num_nodes)]
    for name in names:
        net.add_node(name)
    for left, right in zip(names, names[1:]):
        net.connect(left, right, length_km,
                    attenuation=TELECOM_ATTENUATION_DB_PER_KM,
                    slice_attempts=slice_attempts)
    net.finalise()
    return net
