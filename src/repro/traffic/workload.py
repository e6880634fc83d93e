"""The concurrent-workload engine: many circuits, stochastic sessions.

``TrafficEngine`` drives a wired :class:`~repro.network.builder.Network`
the way a population of applications would:

1. **circuit installation** — sample endpoint pairs from the topology
   (bounded hop distance so the fidelity budget stays feasible) and
   establish one virtual circuit per pair through the normal
   routing/signalling path;
2. **workload** — draw a Poisson session stream per circuit, merged
   lazily in arrival order (:class:`repro.traffic.arrivals.
   SessionArrivals`) and calibrated so the offered pair rate is ``load``
   × the circuit's admitted EER; one arrival timer is pending at a time,
   and each session is submitted through :meth:`Network.submit` when it
   fires — the head-end policer's ACCEPT / QUEUE / REJECT decision is
   recorded and respected (queued sessions simply wait their turn;
   rejected ones are never retried);
3. **faults + recovery** (optional) — a deterministic outage schedule
   (:mod:`repro.traffic.faults`) takes links down mid-run; the circuits'
   liveness keepalives detect the loss of connectivity and the engine
   re-establishes each dead circuit over a surviving path
   (:meth:`~repro.network.builder.Network.recover_circuit`),
   re-submitting its interrupted sessions (``RECOVERED``) or — when no
   path survives — accounting them as ``LOST``;
4. **drain + teardown** — after the horizon, give in-flight sessions a
   bounded grace period, then tear every circuit down (aborting whatever
   is still queued) and aggregate telemetry into a
   :class:`~repro.traffic.metrics.TrafficReport`.

Everything is deterministic in ``(network seed, engine seed)``: endpoint
sampling, the session schedule, the fault schedule and the simulation
itself each draw from their own seeded stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

from ..analysis.stats import mean
from ..analysis.tracing import attach_tracer
from ..apps import AppContext, get_app
from ..control.routing import PATH_METRICS, RouteError
from ..core.requests import (
    DeliveryStatus,
    RequestHandle,
    RequestStatus,
    UserRequest,
)
from ..netsim.units import S
from ..network.builder import Network
from ..network.graph import bfs_lengths
from ..obs.snapshots import SnapshotEmitter
from .arrivals import (
    DEFAULT_CLASSES,
    PriorityClass,
    SessionArrivals,
    SessionSpec,
    stream_seed,
)
from .faults import FaultEvent, fault_schedule
from .metrics import (
    RecoveryStats,
    TrafficReport,
    build_report,
    record_confirmed,
)


@dataclass
class TrafficCircuit:
    """One installed circuit of the workload.

    ``circuit_id``, ``path``, ``hops`` and ``eer`` track the *current*
    incarnation: recovery re-signals a failed circuit over a new path and
    updates them in place.
    """

    index: int
    circuit_id: str
    head: str
    tail: str
    hops: int
    #: Admitted end-to-end rate (the policer's budget), pairs/s.
    eer: float
    #: Node path of the current incarnation.
    path: list[str] = field(default_factory=list)
    #: Times this circuit was re-established after a failure.
    recoveries: int = 0
    #: True once no surviving path exists; arrivals are counted LOST.
    lost: bool = False
    #: Application service consuming this circuit's deliveries ("" = none).
    app: str = ""


@dataclass(slots=True)
class SessionRecord:
    """One submitted session and its admission outcome.

    The record is also its handles' delivery listener: it streams each
    confirmed pair into its engine's registry (see
    :meth:`TrafficEngine._count_deliveries`), so a session costs no
    listener object."""

    spec: SessionSpec
    circuit_id: str
    handle: RequestHandle
    #: Initial policer decision: "accepted", "queued" or "rejected"
    #: ("lost" for arrivals on a circuit that is already gone).
    decision: str
    #: Failure outcome: "" (untouched), "recovered" or "lost".
    outcome: str = ""
    #: Handles of earlier incarnations (before circuit recovery).
    prior_handles: tuple = ()
    engine: Optional["TrafficEngine"] = field(default=None, repr=False,
                                              compare=False)

    def __call__(self, delivery) -> None:
        """Delivery listener: count a confirmed pair and its latency."""
        if delivery.status == DeliveryStatus.CONFIRMED:
            engine = self.engine
            engine._c_pairs.inc()
            engine._h_latency.observe(
                (engine.net.sim.now - self.handle.t_submitted) / 1e6)


class TrafficEngine:
    """Drive a network with many concurrent circuits and sessions."""

    def __init__(self, net: Network, *, circuits: int = 8, load: float = 0.7,
                 target_fidelity: float = 0.7, cutoff_policy: str = "short",
                 classes: Sequence[PriorityClass] = DEFAULT_CLASSES,
                 seed: Optional[int] = None, min_hops: int = 1,
                 max_hops: int = 4,
                 endpoint_pairs: Optional[Sequence[tuple[str, str]]] = None,
                 max_sessions: int = 2000, metric: str = "hops",
                 fail_links: int = 0, mtbf_s: Optional[float] = None,
                 mttr_s: Optional[float] = None,
                 watch_interval_ms: float = 20.0, miss_limit: int = 3,
                 apps: Optional[Sequence[str]] = None,
                 metrics_out: Optional[str] = None,
                 snapshot_interval_s: float = 0.5,
                 trace_out: Optional[str] = None,
                 checkpoint_out: Optional[str] = None,
                 checkpoint_interval_s: float = 1.0):
        """``metric`` picks the routing metric for every circuit;
        ``fail_links``/``mtbf_s``/``mttr_s`` configure the outage model of
        :func:`repro.traffic.faults.fault_schedule`;
        ``watch_interval_ms``/``miss_limit`` tune how fast the liveness
        keepalive declares a circuit dead; ``apps`` assigns application
        services (:mod:`repro.apps`) to circuits round-robin — every
        delivered pair then flows into the circuit's app consumer and the
        report gains a per-app SLO section.

        Observability: ``metrics_out`` streams the network's metrics
        registry to that JSONL path every ``snapshot_interval_s``
        simulated seconds (:class:`repro.obs.SnapshotEmitter`);
        ``trace_out`` attaches a causal :class:`repro.obs.SpanTracer`
        (unless the network already carries one) and writes the span
        tree there after the run.

        Durability: ``checkpoint_out`` makes the engine write a full
        simulation checkpoint (:mod:`repro.persist`) to that path every
        ``checkpoint_interval_s`` simulated seconds — atomically, so a
        killed run can resume from the last durable checkpoint via
        :func:`repro.persist.load_checkpoint` + :meth:`resume_run`."""
        if circuits < 1:
            raise ValueError("need at least one circuit")
        if load <= 0:
            raise ValueError("load must be positive")
        if metric not in PATH_METRICS:
            raise ValueError(f"unknown path metric {metric!r} "
                             f"(have: {', '.join(PATH_METRICS)})")
        if fail_links < 0:
            raise ValueError("fail_links cannot be negative")
        if fail_links == 0 and (mtbf_s is not None or mttr_s is not None):
            raise ValueError(
                "mtbf_s/mttr_s configure the outage model and need "
                "fail_links > 0 — without victims they would be "
                "silently ignored")
        if mtbf_s is not None and mtbf_s <= 0:
            raise ValueError("mtbf_s must be positive")
        if mttr_s is not None and mttr_s <= 0:
            raise ValueError("mttr_s must be positive")
        if apps is not None:
            if not apps:
                raise ValueError("apps cannot be an empty list "
                                 "(omit it for an app-less workload)")
            for app in apps:
                get_app(app)  # raises a vocabulary-naming ValueError
        if snapshot_interval_s <= 0:
            raise ValueError("snapshot_interval_s must be positive")
        if checkpoint_interval_s <= 0:
            raise ValueError("checkpoint_interval_s must be positive")
        self.net = net
        self.num_circuits = circuits
        self.load = load
        self.target_fidelity = target_fidelity
        self.cutoff_policy = cutoff_policy
        self.classes = tuple(classes)
        self.seed = net.sim.seed if seed is None else seed
        self.min_hops = min_hops
        self.max_hops = max_hops
        self.endpoint_pairs = (None if endpoint_pairs is None
                               else list(endpoint_pairs))
        self.max_sessions = max_sessions
        self.metric = metric
        self.fail_links = fail_links
        self.mtbf_s = mtbf_s
        self.mttr_s = mttr_s
        self.watch_interval_ms = watch_interval_ms
        self.miss_limit = miss_limit
        self.apps = None if apps is None else tuple(apps)
        self.metrics_out = metrics_out
        self.snapshot_interval_s = snapshot_interval_s
        self.trace_out = trace_out
        self.checkpoint_out = checkpoint_out
        self.checkpoint_interval_s = checkpoint_interval_s
        #: Checkpoints written so far (this process; resets on resume).
        self.checkpoints_written = 0
        #: Test hook, called as ``on_checkpoint(engine, sim_now_ns)``
        #: after each durable write; dropped from checkpoints.
        self.on_checkpoint: Optional[Callable] = None
        #: The run's snapshot emitter (None without ``metrics_out``).
        self.emitter: Optional[SnapshotEmitter] = None
        # Session counters are pushed at the same points the session
        # records are written, so the final snapshot frame matches the
        # report's admission tallies exactly.  Registering them up front
        # makes the series present (at zero) from the first snapshot.
        obs = net.obs
        self._c_submitted = obs.counter("traffic.sessions_submitted")
        self._c_decision = {
            "accepted": obs.counter("traffic.sessions_accepted"),
            "queued": obs.counter("traffic.sessions_queued"),
            "rejected": obs.counter("traffic.sessions_rejected"),
            "lost": obs.counter("traffic.sessions_lost"),
        }
        self._c_pairs = obs.counter("traffic.pairs_confirmed")
        self._h_latency = obs.histogram("traffic.pair_latency_ms")
        # Bound methods (not lambdas): the registry rides along in engine
        # checkpoints.
        obs.gauge("traffic.sessions_active",
                  source=self._src_sessions_active)
        obs.counter("traffic.sessions_completed",
                    source=self._src_sessions_completed)
        #: The merged arrival streams while arrivals remain.
        self._arrivals: Optional[SessionArrivals] = None
        #: Circuit index → live app service instance (populated on install).
        self._app_services: dict[int, object] = {}
        self._app_outcomes = None
        self._elapsed_ns = 0.0
        self.circuits: list[TrafficCircuit] = []
        self.records: list[SessionRecord] = []
        self.fault_events: list[FaultEvent] = []
        #: Largest installed LPR share right after circuit installation.
        self.max_link_share = 0.0
        self.link_down_count = 0
        self.circuits_recovered = 0
        self.circuits_lost = 0
        self._recovery_times_ns: list[float] = []
        self._by_circuit_id: dict[str, TrafficCircuit] = {}
        self._ran = False
        # Run-phase state: every wait happens inside a phase-tagged
        # simulator run with *absolute* resume points, so a checkpoint
        # taken mid-phase can re-enter exactly where it left off.
        self._phase: Optional[str] = None
        self._start_ns = 0.0
        self._horizon_ns = 0.0
        self._drain_s = 0.0
        self._drain_handles: list[RequestHandle] = []
        self._drain_deadline_ns = 0.0
        self._ckpt_handle = None
        # Endpoint stream (-1) is disjoint from the per-circuit arrival
        # streams (indices >= 0) and the fault stream (-2).
        self._rng = random.Random(stream_seed(self.seed, -1))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["on_checkpoint"] = None
        return state

    def _src_sessions_active(self) -> int:
        """Gauge source: sessions currently ACTIVE or QUEUED."""
        return sum(1 for record in self.records
                   if record.handle.status in (RequestStatus.ACTIVE,
                                               RequestStatus.QUEUED))

    def _src_sessions_completed(self) -> int:
        """Counter source: sessions that reached COMPLETED."""
        return sum(1 for record in self.records
                   if record.handle.status == RequestStatus.COMPLETED)

    # ------------------------------------------------------------------
    # Circuit installation
    # ------------------------------------------------------------------

    def install(self) -> list[TrafficCircuit]:
        """Sample endpoints and establish the workload's circuits.

        Sampling is **node-centric**: each circuit draws a head node
        uniformly among not-yet-used nodes, then a tail uniformly among
        its in-range partners — uniform over *users* rather than over the
        pair list (which over-weights nodes with many in-range partners),
        and node-disjoint while fresh nodes last.  A circuit whose
        endpoint is shared with an installed circuit would force both
        onto the few links incident to that node, which no path metric
        can route around; once the fresh pool runs out, endpoints (and,
        for explicit ``endpoint_pairs``, whole pairs) are reused.

        With ``apps``, each circuit's app is fixed by its index (round
        robin) *before* routing, and the app's fidelity demand
        (:attr:`repro.apps.AppService.min_fidelity`) raises that
        circuit's target — application SLOs drive what is asked of the
        network, not just how its output is scored.

        With ``trace_out``, the tracer is attached first, so each
        circuit's ROUTE and INSTALL spans open its span tree.
        """
        if self.circuits:
            return self.circuits
        if self.trace_out is not None and self.net.tracer is None:
            attach_tracer(self.net)
        supplier = (self._explicit_pairs() if self.endpoint_pairs is not None
                    else self._sampled_pairs())
        while len(self.circuits) < self.num_circuits:
            app = ("" if self.apps is None
                   else self.apps[len(self.circuits) % len(self.apps)])
            target = self.target_fidelity
            if app:
                target = max(target, get_app(app).min_fidelity)
            try:
                head, tail = next(supplier)
            except StopIteration:
                raise RuntimeError(
                    f"could only establish {len(self.circuits)} of "
                    f"{self.num_circuits} circuits at fidelity "
                    f"{target}") from None
            try:
                circuit_id = self.net.establish_circuit(
                    head, tail, target, self.cutoff_policy,
                    metric=self.metric)
            except RouteError:
                continue
            route = self.net.route_of(circuit_id)
            circuit = TrafficCircuit(
                index=len(self.circuits), circuit_id=circuit_id,
                head=head, tail=tail, hops=route.num_links, eer=route.eer,
                path=list(route.path), app=app)
            self.circuits.append(circuit)
            self._by_circuit_id[circuit_id] = circuit
        if self.net.controller is not None:
            self.max_link_share = self.net.controller.max_link_share()
        if self.apps is not None:
            self._assign_apps()
        return self.circuits

    def _assign_apps(self) -> None:
        """Instantiate each circuit's app service (apps were fixed at
        installation time, where their fidelity demands shaped routing).

        Each instance gets its own RNG stream (disjoint from the
        workload's endpoint (−1) and fault (−2) streams and the
        per-circuit arrival streams ≥ 0), so app-side randomness —
        BBM92 basis choices, twirl draws — is deterministic in the
        engine seed alone.
        """
        for circuit in self.circuits:
            route = self.net.route_of(circuit.circuit_id)
            ctx = AppContext(
                circuit_index=circuit.index,
                circuit_id=circuit.circuit_id,
                head=circuit.head,
                tail=circuit.tail,
                head_device=self.net.node(circuit.head).device,
                tail_device=self.net.node(circuit.tail).device,
                rng=random.Random(stream_seed(self.seed,
                                              -3 - circuit.index)),
                estimated_fidelity=route.estimated_fidelity,
                target_fidelity=route.target_fidelity,
            )
            self._app_services[circuit.index] = get_app(circuit.app)(ctx)

    def app_outcomes(self) -> list:
        """Finalised per-circuit app outcomes (empty without ``apps``).

        Valid once :meth:`run` finished; ordered by circuit index and
        computed exactly once (finalising tears down app-held state).
        """
        if self._app_outcomes is None:
            elapsed_s = self._elapsed_ns / S
            self._app_outcomes = [
                self._app_services[index].finalise(elapsed_s)
                for index in sorted(self._app_services)]
            obs = self.net.obs
            for outcome in self._app_outcomes:
                obs.counter("apps.pairs_consumed").inc(
                    outcome.pairs_consumed)
                obs.counter("apps.slo_met" if outcome.slo.met
                            else "apps.slo_missed").inc()
        return self._app_outcomes

    def _explicit_pairs(self):
        """Yield caller-provided endpoint pairs, shuffled, with reuse.

        Pairs are reused across passes once the pool runs out (several
        circuits between the same endpoints is a valid workload, cf. the
        paper's Fig 8 sharing study); a full pass that established no
        circuit means every remaining candidate fails routing.
        """
        order = list(self.endpoint_pairs)
        self._rng.shuffle(order)
        while True:
            before = len(self.circuits)
            for head, tail in order:
                if self._rng.random() < 0.5:
                    head, tail = tail, head
                yield head, tail
            if len(self.circuits) == before:
                return

    def _sampled_pairs(self):
        """Yield node-centric sampled endpoint pairs at bounded distance."""
        graph = self.net.graph
        nodes = sorted(graph.nodes)
        # Bound each BFS at max_hops: nodes beyond the cutoff are simply
        # absent from the inner maps (and were never candidates anyway).
        lengths = {node: bfs_lengths(graph, node, cutoff=self.max_hops)
                   for node in nodes}

        def partners(head: str, used: set) -> list[str]:
            return [b for b in nodes
                    if b != head and b not in used
                    and self.min_hops <= lengths[head].get(
                        b, self.max_hops + 1) <= self.max_hops]

        if not any(partners(node, set()) for node in nodes):
            raise ValueError(
                f"no endpoint pairs at hop distance "
                f"[{self.min_hops}, {self.max_hops}] in this topology")
        used: set[str] = set()
        for _ in range(200 * self.num_circuits):
            fresh = [node for node in nodes if node not in used]
            head = self._rng.choice(fresh or nodes)
            mates = partners(head, used) or partners(head, set())
            if not mates:
                continue
            tail = self._rng.choice(mates)
            used.update((head, tail))
            yield head, tail

    # ------------------------------------------------------------------
    # Workload execution
    # ------------------------------------------------------------------

    def run(self, horizon_s: float = 5.0,
            drain_s: Optional[float] = None) -> TrafficReport:
        """Run the workload for ``horizon_s`` simulated seconds.

        ``drain_s`` bounds the post-horizon grace period for in-flight
        sessions (default: one more horizon).  Returns the telemetry
        report; circuits are torn down before it is built.  An engine is
        one-shot — build a fresh one (on a fresh network) per run.
        """
        if self._ran:
            raise RuntimeError(
                "this engine already ran (its circuits are torn down); "
                "build a fresh TrafficEngine on a fresh network")
        self._ran = True
        self._begin_run(horizon_s, drain_s)
        return self._run_phases()

    def resume_run(self) -> TrafficReport:
        """Continue a checkpointed run to completion.

        The counterpart of :func:`repro.persist.load_checkpoint`: the
        restored engine re-enters the phase (horizon or drain) it was
        checkpointed in — all waiting happens against absolute simulated
        deadlines saved with the engine, so the continued run processes
        exactly the events an uninterrupted run would have.
        """
        if self._phase is None:
            raise RuntimeError("engine never ran — call run() instead")
        if self._phase == "done":
            raise RuntimeError("this run already finished; nothing to resume")
        return self._run_phases()

    def _begin_run(self, horizon_s: float, drain_s: Optional[float]) -> None:
        """Install circuits and arm everything the run needs (phase 0)."""
        self.install()
        sim = self.net.sim
        self._phase = "horizon"
        self._start_ns = sim.now
        self._horizon_ns = horizon_s * S
        self._drain_s = horizon_s if drain_s is None else drain_s
        if self.metrics_out is not None:
            self.emitter = SnapshotEmitter(
                sim, self.net.obs, self.metrics_out,
                interval_s=self.snapshot_interval_s,
                meta={"seed": self.seed, "formalism": self.net.formalism,
                      "circuits": len(self.circuits),
                      "horizon_s": horizon_s})
            self.emitter.start()
        if self.fail_links > 0:
            self._arm_faults(self._start_ns, self._horizon_ns)
        self._arrivals = SessionArrivals(
            len(self.circuits), self._horizon_ns,
            [self._mean_interarrival_ns(circuit) for circuit in self.circuits],
            classes=self.classes, seed=self.seed,
            max_sessions=self.max_sessions)
        self._arrive()
        if self.checkpoint_out is not None:
            self._arm_checkpoint()

    def _run_phases(self) -> TrafficReport:
        """Drive the run through its remaining phases (idempotent entry).

        Fresh runs enter with phase ``horizon``; resumed runs enter with
        whatever phase the checkpoint was taken in.  Completed phases are
        skipped — the simulator clock is never run backwards.
        """
        sim = self.net.sim
        if self._phase == "horizon":
            self.net.run(until_s=(self._start_ns + self._horizon_ns) / S)
            self._drain_handles = [
                record.handle for record in self.records
                if record.handle.status in (RequestStatus.ACTIVE,
                                            RequestStatus.QUEUED)]
            self._drain_deadline_ns = sim.now + self._drain_s * S
            self._phase = "drain"
        if self._phase == "drain":
            if self._drain_s > 0 and self._drain_handles:
                self.net.run_until_complete(
                    self._drain_handles,
                    deadline_s=self._drain_deadline_ns / S)
            self._phase = "finish"
        return self._finish_run()

    def _finish_run(self) -> TrafficReport:
        """Tear down, finalise observability, and build the report."""
        sim = self.net.sim
        if self._ckpt_handle is not None:
            self._ckpt_handle.cancel()
            self._ckpt_handle = None
        elapsed_ns = sim.now - self._start_ns
        self._elapsed_ns = elapsed_ns
        for circuit in self.circuits:
            self.net.teardown_circuit(circuit.circuit_id)
        # Let the TEAR messages propagate so every node along every path
        # drops its circuit state (the grace is excluded from telemetry).
        self.net.run(until_s=(sim.now + 0.01 * S) / S)
        # App outcomes push their SLO counters; finalise *after* them so
        # the last snapshot frame carries the exact end-of-run registry —
        # the report below reads its headline totals from the same frame.
        outcomes = self.app_outcomes()
        if self.trace_out is not None:
            self.net.tracer.write_jsonl(self.trace_out)
        if self.emitter is not None:
            self.emitter.finalise()
        self._phase = "done"
        return build_report(self.net, self.circuits, self.records,
                            horizon_ns=self._horizon_ns,
                            elapsed_ns=elapsed_ns,
                            classes=self.classes,
                            recovery=self._recovery_stats(),
                            apps=outcomes,
                            obs=self.net.obs)

    # ------------------------------------------------------------------
    # Durable checkpoints
    # ------------------------------------------------------------------

    def _arm_checkpoint(self) -> None:
        """Schedule the next periodic checkpoint write."""
        self._ckpt_handle = self.net.sim.schedule(
            self.checkpoint_interval_s * S, self._write_checkpoint)

    def _write_checkpoint(self) -> None:
        """Write one durable checkpoint (re-arming first, so the saved
        event heap already carries the *next* checkpoint event — a
        resumed run keeps checkpointing on the same interval grid)."""
        from ..persist import save_checkpoint

        self._arm_checkpoint()
        save_checkpoint(self, self.checkpoint_out)
        self.checkpoints_written += 1
        if self.on_checkpoint is not None:
            self.on_checkpoint(self, self.net.sim.now)

    # ------------------------------------------------------------------
    # Fault injection and circuit recovery
    # ------------------------------------------------------------------

    def _arm_faults(self, start_ns: float, horizon_ns: float) -> None:
        """Schedule the outage events and start liveness monitoring."""
        used_edges = sorted({(circuit.path[i], circuit.path[i + 1])
                             for circuit in self.circuits
                             for i in range(len(circuit.path) - 1)})
        self.fault_events = fault_schedule(
            used_edges, horizon_ns, fail_links=self.fail_links,
            mtbf_s=self.mtbf_s, mttr_s=self.mttr_s, seed=self.seed)
        for event in self.fault_events:
            self.net.sim.schedule_at(start_ns + event.at_ns,
                                     self._apply_fault, event)
        for circuit in self.circuits:
            self._watch(circuit.circuit_id)

    def _watch(self, circuit_id: str) -> None:
        """Monitor one circuit's keepalive, routing failures to recovery."""
        self.net.watch_circuit(circuit_id,
                               interval_ms=self.watch_interval_ms,
                               miss_limit=self.miss_limit,
                               on_failure=self._on_circuit_failure)

    def _apply_fault(self, event: FaultEvent) -> None:
        """Execute one scheduled link state change."""
        if event.kind == "down":
            self.net.fail_link(*event.edge)
            self.link_down_count += 1
        else:
            self.net.restore_link(*event.edge)

    def _on_circuit_failure(self, circuit_id: str) -> None:
        """Liveness declared a circuit dead: try to re-route it.

        The in-flight sessions are snapshotted *before* the
        management-plane teardown aborts their handles, so the recovery
        callback can re-submit exactly those sessions on the new path.
        """
        circuit = self._by_circuit_id.pop(circuit_id, None)
        if circuit is None:
            return
        t_failed = self.net.sim.now
        inflight = [record for record in self.records
                    if record.circuit_id == circuit_id
                    and record.handle.status in (RequestStatus.ACTIVE,
                                                 RequestStatus.QUEUED)]
        new_id = self.net.recover_circuit(
            circuit_id,
            on_ready=partial(self._on_circuit_recovered, t_failed))
        if new_id is None:
            circuit.lost = True
            self.circuits_lost += 1
            for record in inflight:
                record.outcome = "lost"
            return
        route = self.net.route_of(new_id)
        circuit.circuit_id = new_id
        circuit.path = list(route.path)
        circuit.hops = route.num_links
        circuit.eer = route.eer
        circuit.recoveries += 1
        self._by_circuit_id[new_id] = circuit
        service = self._app_services.get(circuit.index)
        if service is not None:
            # Keep the app outcome's identity in step with the live
            # incarnation (endpoints — and hence devices — are unchanged).
            service.ctx.circuit_id = new_id
        # Re-watch and re-submit immediately rather than from on_ready:
        # if a second outage kills the replacement path mid-handshake the
        # RESV never arrives, and only the liveness keepalive can notice —
        # it then simply triggers another recovery cycle, which picks the
        # re-submitted sessions up again by their updated circuit ID.
        self._watch(new_id)
        for record in inflight:
            self._resubmit(record, circuit)

    def _on_circuit_recovered(self, t_failed: float,
                              circuit_id: str = "") -> None:
        """The replacement circuit's RESV arrived: recovery completed."""
        self.circuits_recovered += 1
        self._recovery_times_ns.append(self.net.sim.now - t_failed)

    def _resubmit(self, record: SessionRecord, circuit: TrafficCircuit) -> None:
        """Re-submit an interrupted session on its recovered circuit."""
        remaining = record.spec.num_pairs - record_confirmed(record)
        record.outcome = "recovered"
        if remaining <= 0:
            return
        cls = record.spec.priority
        deadline_ns = None
        if cls.eer_fraction > 0:
            deadline_ns = remaining / (cls.eer_fraction * circuit.eer) * 1e9
        handle = self.net.submit(
            circuit.circuit_id,
            UserRequest(num_pairs=remaining, deadline=deadline_ns),
            record_fidelity=True,
            on_matched=self._consumer_for(circuit))
        record.prior_handles += (record.handle,)
        record.handle = handle
        record.circuit_id = circuit.circuit_id
        self._count_deliveries(record)

    def _recovery_stats(self) -> RecoveryStats:
        """Aggregate the run's routing/recovery telemetry."""
        controller = self.net.controller
        return RecoveryStats(
            metric=self.metric,
            fail_links=len({event.edge for event in self.fault_events}),
            link_down_events=self.link_down_count,
            circuits_recovered=self.circuits_recovered,
            circuits_lost=self.circuits_lost,
            sessions_recovered=sum(1 for record in self.records
                                   if record.outcome == "recovered"),
            sessions_lost=sum(1 for record in self.records
                              if record.outcome == "lost"),
            mean_recovery_ms=(mean(self._recovery_times_ns) / 1e6
                              if self._recovery_times_ns else None),
            max_link_share=self.max_link_share,
            route_computations=(controller.route_computations
                                if controller is not None else 0),
        )

    def _count_deliveries(self, record: SessionRecord) -> None:
        """Stream the confirmed pairs of the record's current handle into
        the registry.

        A delivery is counted on the notification that carries the
        CONFIRMED status — exactly once per pair: KEEP/MEASURE pairs are
        delivered already confirmed, EARLY pairs notify first as PENDING
        and again when the cross-check confirms (or never, when they
        expire).  The handle's own ``pairs_confirmed``, which the report
        sums, counts by the same rule, so the two always agree.

        The listener is the record itself (:meth:`SessionRecord.__call__`).
        A handle a session leaves behind on recovery was closed by the
        circuit's teardown, so only the current handle still notifies.
        """
        record.handle.on_delivery(record)

    def _consumer_for(self, circuit: TrafficCircuit):
        """The delivery fan-in hook of a circuit's app service (or None).

        Every session on the circuit shares the one service instance, so
        the app sees the circuit's whole delivery stream — sessions are
        the workload's unit, circuits are the application's.
        """
        service = self._app_services.get(circuit.index)
        return None if service is None else service.consume

    def _mean_interarrival_ns(self, circuit: TrafficCircuit) -> float:
        """Inter-arrival time so offered pairs/s ≈ load × circuit EER."""
        mean_pairs = (sum(cls.share * cls.mean_pairs for cls in self.classes)
                      / sum(cls.share for cls in self.classes))
        offered_rate = self.load * max(circuit.eer, 1e-9)
        return mean_pairs / offered_rate * 1e9

    def _arrive(self, spec: Optional[SessionSpec] = None) -> None:
        """Arrival timer: arm the next session's arrival, then submit
        ``spec`` (``None`` arms the first arrival of the run)."""
        following = next(self._arrivals, None)
        if following is None:
            self._arrivals = None  # exhausted: drop the streams
        else:
            self.net.sim.schedule_at(self._start_ns + following.arrival_ns,
                                     self._arrive, following)
        if spec is not None:
            self._submit(spec)

    def _submit(self, spec: SessionSpec) -> None:
        """Submit one scheduled session at its circuit's head-end."""
        circuit = self.circuits[spec.circuit_index]
        if circuit.lost:
            # The circuit is gone and not coming back: account the
            # arrival as LOST instead of leaving the session hanging.
            request = UserRequest(num_pairs=spec.num_pairs,
                                  request_id=self.net.sim.next_id("req"))
            handle = RequestHandle(request, 0.0)
            handle.t_submitted = self.net.sim.now
            handle._finish(RequestStatus.ABORTED, self.net.sim.now)
            self._c_submitted.inc()
            self._c_decision["lost"].inc()
            self.records.append(SessionRecord(
                spec=spec, circuit_id=circuit.circuit_id,
                handle=handle, decision="lost", outcome="lost",
                engine=self))
            return
        cls = spec.priority
        deadline_ns = None
        if cls.eer_fraction > 0:
            # Deadline such that minimum_eer == eer_fraction × circuit EER.
            deadline_ns = spec.num_pairs / (cls.eer_fraction * circuit.eer) * 1e9
        handle = self.net.submit(
            circuit.circuit_id,
            UserRequest(num_pairs=spec.num_pairs, deadline=deadline_ns),
            record_fidelity=True,
            on_matched=self._consumer_for(circuit))
        if handle.status == RequestStatus.REJECTED:
            decision = "rejected"
        elif handle.status == RequestStatus.QUEUED:
            decision = "queued"
        else:
            decision = "accepted"
        self._c_submitted.inc()
        self._c_decision[decision].inc()
        record = SessionRecord(spec=spec, circuit_id=circuit.circuit_id,
                               handle=handle, decision=decision, engine=self)
        self.records.append(record)
        if decision != "rejected":  # a rejected handle never notifies
            self._count_deliveries(record)
