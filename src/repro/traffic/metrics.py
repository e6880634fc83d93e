"""Traffic telemetry: aggregate a workload run into a structured report.

Collected per run:

* **admission** — policer outcomes (accept / queue / reject) and final
  request states, per priority class;
* **circuits** — per-circuit session counts, confirmed pair throughput,
  shaping delay (submission → activation) and measured mean fidelity;
* **links** — utilisation (busy time / elapsed), pairs generated,
  attempts made;
* **device arbiters** — grants and queueing delay (non-zero only on
  serialised near-term hardware);
* **routing & recovery** — the path metric, installed link-share peak,
  link-down events and the RECOVERED/LOST circuit and session tallies
  (see :mod:`repro.traffic.faults`);
* **applications** — per-circuit app outcomes and SLO verdicts plus the
  per-app rollup (see :mod:`repro.apps`), when the engine ran with
  ``apps=``;
* **totals** — end-to-end throughput and the fidelity distribution.

Rendering goes through :func:`repro.analysis.experiments.render_table`
so traffic reports look like every other table in the repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from ..analysis.experiments import render_table
from ..analysis.stats import mean
from ..apps import HEADLINE_METRICS, summarise_apps
from ..core.requests import RequestStatus
from ..netsim.units import S

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.builder import Network
    from ..obs.registry import MetricsRegistry
    from .workload import SessionRecord, TrafficCircuit


@dataclass
class ClassTally:
    """Admission and completion accounting for one priority class."""

    submitted: int = 0
    accepted: int = 0
    queued: int = 0
    rejected: int = 0
    completed: int = 0
    aborted: int = 0
    unfinished: int = 0
    #: Sessions interrupted by a link failure and re-established.
    recovered: int = 0
    #: Sessions whose circuit could not be re-established.
    lost: int = 0
    pairs_confirmed: int = 0
    fidelities: list = field(default_factory=list)


@dataclass
class CircuitStats:
    """One circuit's share of the workload."""

    circuit_id: str
    head: str
    tail: str
    hops: int
    eer: float
    sessions: int
    completed: int
    pairs_confirmed: int
    mean_fidelity: Optional[float]
    #: Mean submission→activation delay of shaped sessions (ns).
    mean_shaping_delay: float


@dataclass
class LinkStats:
    name: str
    utilisation: float
    pairs_generated: int
    attempts_made: int


@dataclass
class ArbiterStats:
    """Device-arbiter queueing at one node (serialised hardware only)."""

    node: str
    grants: int
    mean_wait_ns: float
    max_queue_length: int


@dataclass
class RecoveryStats:
    """Routing and failure-recovery telemetry for one traffic run."""

    #: Path metric the run's circuits were routed with.
    metric: str
    #: Distinct victim links in the executed fault schedule.
    fail_links: int
    #: Link-down events actually executed.
    link_down_events: int
    #: Circuit re-establishments that completed (RESV returned).
    circuits_recovered: int
    #: Circuits declared dead with no surviving path.
    circuits_lost: int
    #: Sessions interrupted by a failure and re-submitted.
    sessions_recovered: int
    #: Sessions aborted (or arriving) on a lost circuit.
    sessions_lost: int
    #: Mean simulated failure-detection → new-RESV latency (ms).
    mean_recovery_ms: Optional[float]
    #: Largest per-link installed LPR share right after installation —
    #: the spread the ``utilisation`` metric minimises.
    max_link_share: float
    #: Route computations the controller performed (install + recovery).
    route_computations: int


@dataclass
class TrafficReport:
    """Structured result of one traffic run."""

    formalism: str
    horizon_ns: float
    elapsed_ns: float
    classes: dict[str, ClassTally]
    circuits: list[CircuitStats]
    links: list[LinkStats]
    arbiters: list[ArbiterStats]
    #: Routing/recovery telemetry (None for reports built without it).
    recovery: Optional[RecoveryStats] = None
    #: Per-circuit application outcomes (:class:`repro.apps.AppOutcome`;
    #: empty for app-less workloads).
    apps: list = field(default_factory=list)
    #: Final metrics-registry frame (``MetricsRegistry.snapshot()``),
    #: captured at build time.  The headline totals below read from it
    #: when present instead of re-deriving from the session records —
    #: the same numbers a streaming snapshot reports (see
    #: :mod:`repro.obs`); ``None`` for reports built without a registry.
    obs: Optional[dict] = None

    # -- scalar telemetry ------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        """Simulated seconds the workload spanned (horizon + drain)."""
        return self.elapsed_ns / S

    @property
    def total_sessions(self) -> int:
        """All sessions submitted across priority classes."""
        return sum(tally.submitted for tally in self.classes.values())

    def _obs_counter(self, name: str) -> Optional[int]:
        """Registry counter from the attached frame (None when absent)."""
        if self.obs is None:
            return None
        return self.obs.get("counters", {}).get(name)

    @property
    def total_confirmed_pairs(self) -> int:
        """End-to-end pairs confirmed across all sessions.

        Read from the metrics registry when the run carried one (the
        traffic engine streams the same counter to snapshots); derived
        from the per-class tallies otherwise.
        """
        from_registry = self._obs_counter("traffic.pairs_confirmed")
        if from_registry is not None:
            return from_registry
        return sum(tally.pairs_confirmed for tally in self.classes.values())

    @property
    def throughput_pairs_per_s(self) -> float:
        """Confirmed pairs per simulated second."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.total_confirmed_pairs / self.elapsed_s

    @property
    def app_summaries(self) -> dict:
        """Per-app rollup of the outcomes (app name → AppSummary)."""
        return summarise_apps(self.apps)

    @property
    def fidelities(self) -> list:
        """All measured pair fidelities, across classes."""
        samples: list = []
        for tally in self.classes.values():
            samples.extend(tally.fidelities)
        return samples

    @property
    def mean_fidelity(self) -> Optional[float]:
        """Mean measured fidelity (None when nothing was measured)."""
        samples = self.fidelities
        return mean(samples) if samples else None

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Render every table of the report as one text block."""
        blocks = [self._render_totals(), self._render_admission(),
                  self._render_circuits(), self._render_links()]
        if any(stats.grants for stats in self.arbiters):
            blocks.append(self._render_arbiters())
        if self.recovery is not None:
            blocks.append(self._render_recovery())
        if self.apps:
            blocks.append(self._render_apps())
        return "\n\n".join(blocks)

    def _render_totals(self) -> str:
        samples = sorted(self.fidelities)
        lines = [
            f"traffic run — formalism {self.formalism}, "
            f"{len(self.circuits)} circuits, "
            f"{self.total_sessions} sessions in {self.elapsed_s:.2f} s",
            f"  throughput: {self.total_confirmed_pairs} confirmed pairs "
            f"({self.throughput_pairs_per_s:.2f} pairs/s end-to-end)",
        ]
        if samples:
            lines.append(
                f"  fidelity: mean {mean(samples):.4f}, "
                f"min {samples[0]:.4f}, "
                f"p50 {samples[len(samples) // 2]:.4f}, "
                f"max {samples[-1]:.4f}")
        return "\n".join(lines)

    def _render_admission(self) -> str:
        rows = []
        for name, tally in self.classes.items():
            rows.append([name, tally.submitted, tally.accepted, tally.queued,
                         tally.rejected, tally.completed, tally.aborted,
                         tally.unfinished, tally.recovered, tally.lost,
                         tally.pairs_confirmed])
        rows.append(["total",
                     sum(t.submitted for t in self.classes.values()),
                     sum(t.accepted for t in self.classes.values()),
                     sum(t.queued for t in self.classes.values()),
                     sum(t.rejected for t in self.classes.values()),
                     sum(t.completed for t in self.classes.values()),
                     sum(t.aborted for t in self.classes.values()),
                     sum(t.unfinished for t in self.classes.values()),
                     sum(t.recovered for t in self.classes.values()),
                     sum(t.lost for t in self.classes.values()),
                     sum(t.pairs_confirmed for t in self.classes.values())])
        return render_table(
            ["class", "submitted", "accepted", "queued", "rejected",
             "completed", "aborted", "unfinished", "recovered", "lost",
             "pairs"],
            rows, title="admission and completion by priority class")

    def _render_circuits(self) -> str:
        rows = []
        for stats in self.circuits:
            rows.append([
                stats.circuit_id, f"{stats.head}->{stats.tail}", stats.hops,
                stats.sessions, stats.completed, stats.pairs_confirmed,
                ("-" if stats.mean_fidelity is None
                 else f"{stats.mean_fidelity:.4f}"),
                f"{stats.mean_shaping_delay / 1e6:.1f}",
            ])
        return render_table(
            ["circuit", "endpoints", "hops", "sessions", "completed",
             "pairs", "mean F", "shaping (ms)"],
            rows, title="per-circuit telemetry")

    def _render_links(self) -> str:
        rows = [[stats.name, f"{stats.utilisation:.3f}",
                 stats.pairs_generated, stats.attempts_made]
                for stats in self.links]
        return render_table(
            ["link", "utilisation", "pairs", "attempts"],
            rows, title="per-link utilisation")

    def _render_arbiters(self) -> str:
        rows = [[stats.node, stats.grants,
                 f"{stats.mean_wait_ns / 1e3:.2f}", stats.max_queue_length]
                for stats in self.arbiters]
        return render_table(
            ["node", "grants", "mean wait (us)", "max queue"],
            rows, title="device arbiter queueing")

    def _render_recovery(self) -> str:
        stats = self.recovery
        lines = [
            f"routing and recovery — metric {stats.metric}, "
            f"{stats.route_computations} route computations",
            f"  max installed link share: {stats.max_link_share:.2f}",
        ]
        if stats.fail_links or stats.link_down_events:
            lines.append(
                f"  link failures: {stats.link_down_events} down events "
                f"over {stats.fail_links} victim links")
            lines.append(
                f"  circuits: {stats.circuits_recovered} RECOVERED, "
                f"{stats.circuits_lost} LOST")
            lines.append(
                f"  sessions: {stats.sessions_recovered} RECOVERED, "
                f"{stats.sessions_lost} LOST")
            if stats.mean_recovery_ms is not None:
                if stats.mean_recovery_ms >= 1.0:
                    rendered = f"{stats.mean_recovery_ms:.1f} ms"
                else:
                    rendered = f"{stats.mean_recovery_ms * 1e3:.1f} us"
                lines.append(
                    f"  mean re-route time: {rendered} "
                    f"(failure detection -> new RESV)")
        return "\n".join(lines)


    def _render_apps(self) -> str:
        """The application SLO section: per-circuit verdicts + rollup."""
        rows = []
        for outcome in self.apps:
            headline_key = HEADLINE_METRICS.get(outcome.app, "")
            headline = outcome.headline
            failed = "; ".join(check.label()
                               for check in outcome.slo.failed_checks)
            rows.append([
                outcome.circuit_id, outcome.app, outcome.pairs_consumed,
                headline_key or "-",
                "-" if headline is None else f"{headline:.4f}",
                ("met" if outcome.slo.met else f"MISSED ({failed})"),
            ])
        per_circuit = render_table(
            ["circuit", "app", "pairs", "headline metric", "value", "SLO"],
            rows, title="application sessions (per circuit)")
        summary_rows = []
        for name, summary in self.app_summaries.items():
            headline = summary.headline
            summary_rows.append([
                name, summary.circuits, summary.pairs_consumed,
                HEADLINE_METRICS.get(name, "-") or "-",
                "-" if headline is None else f"{headline:.4f}",
                summary.slo_label,
            ])
        rollup = render_table(
            ["app", "circuits", "pairs", "headline metric", "mean value",
             "SLO met"],
            summary_rows, title="application SLOs (per app)")
        return per_circuit + "\n\n" + rollup

    def render_app_details(self) -> str:
        """Long-form per-circuit app metrics (the ``apps --demo`` view)."""
        lines = []
        for outcome in self.apps:
            lines.append(f"{outcome.circuit_id} [{outcome.app}] — "
                         f"{outcome.pairs_consumed} pairs consumed")
            for key, value in sorted(outcome.metrics.items()):
                lines.append(f"    {key}: {value:g}" if isinstance(
                    value, (int, float)) else f"    {key}: {value}")
            for check in outcome.slo.checks:
                lines.append(f"    SLO {check.label()}")
        return "\n".join(lines)


def record_handles(record: "SessionRecord") -> list:
    """All incarnations of a session's request handle, oldest first.

    Recovery replaces a session's handle when it is re-submitted on the
    replacement circuit; delivery accounting must span every
    incarnation.
    """
    return [*record.prior_handles, record.handle]


def record_confirmed(record: "SessionRecord") -> int:
    """CONFIRMED deliveries across all incarnations."""
    return sum(handle.pairs_confirmed for handle in record_handles(record))


def record_fidelities(record: "SessionRecord") -> list:
    """Measured fidelities across all incarnations, in match order."""
    return [fidelity for handle in record_handles(record)
            for fidelity in handle.fidelities]


def build_report(net: "Network", circuits: Sequence["TrafficCircuit"],
                 records: Sequence["SessionRecord"], horizon_ns: float,
                 elapsed_ns: Optional[float] = None,
                 classes: Sequence = (),
                 recovery: Optional[RecoveryStats] = None,
                 apps: Sequence = (),
                 obs: Optional["MetricsRegistry"] = None) -> TrafficReport:
    """Aggregate a finished run into a :class:`TrafficReport`.

    ``elapsed_ns`` is the wall of simulated time the workload actually
    spanned (horizon + drain); defaults to the simulator clock.
    ``recovery`` attaches the routing/failure telemetry the traffic
    engine collected; ``apps`` the finalised per-circuit application
    outcomes.  ``obs`` is the run's metrics registry; when given, its
    final frame is attached so the report's headline totals come from
    the same counters the streaming snapshots carry.
    """
    if elapsed_ns is None:
        elapsed_ns = net.sim.now
    tallies = {cls.name: ClassTally() for cls in classes}
    # Group sessions by circuit *index*: recovery renames a circuit's ID
    # mid-run, but the index is stable across incarnations.
    per_circuit_records: dict[int, list] = {
        circuit.index: [] for circuit in circuits}

    for record in records:
        tally = tallies.setdefault(record.spec.priority.name, ClassTally())
        tally.submitted += 1
        if record.decision == "accepted":
            tally.accepted += 1
        elif record.decision == "queued":
            tally.queued += 1
        elif record.decision == "rejected":
            tally.rejected += 1
        # decision "lost": arrival on an unrecoverable circuit — counted
        # below through the outcome, not as an admission decision.
        if record.outcome == "recovered":
            tally.recovered += 1
        elif record.outcome == "lost":
            tally.lost += 1
        status = record.handle.status
        if status == RequestStatus.COMPLETED:
            tally.completed += 1
        elif status == RequestStatus.ABORTED:
            tally.aborted += 1
        elif status != RequestStatus.REJECTED:
            tally.unfinished += 1
        tally.pairs_confirmed += record_confirmed(record)
        tally.fidelities.extend(record_fidelities(record))
        per_circuit_records.setdefault(record.spec.circuit_index,
                                       []).append(record)

    circuit_stats = []
    for circuit in circuits:
        circuit_records = per_circuit_records[circuit.index]
        fidelities = [fidelity for record in circuit_records
                      for fidelity in record_fidelities(record)]
        shaping = [record.handle.t_started - record.handle.t_submitted
                   for record in circuit_records
                   if record.handle.t_started is not None]
        circuit_stats.append(CircuitStats(
            circuit_id=circuit.circuit_id,
            head=circuit.head,
            tail=circuit.tail,
            hops=circuit.hops,
            eer=circuit.eer,
            sessions=len(circuit_records),
            completed=sum(1 for record in circuit_records
                          if record.handle.status == RequestStatus.COMPLETED),
            pairs_confirmed=sum(record_confirmed(record)
                                for record in circuit_records),
            mean_fidelity=mean(fidelities) if fidelities else None,
            mean_shaping_delay=mean(shaping) if shaping else 0.0,
        ))

    link_stats = [
        LinkStats(name=link.name,
                  utilisation=(link.busy_time / elapsed_ns
                               if elapsed_ns > 0 else 0.0),
                  pairs_generated=link.pairs_generated,
                  attempts_made=link.attempts_made)
        for _, link in sorted(net.links.items(),
                              key=lambda item: item[1].name)]

    arbiter_stats = [
        ArbiterStats(node=name, grants=node.arbiter.grants,
                     mean_wait_ns=node.arbiter.mean_wait,
                     max_queue_length=node.arbiter.max_queue_length)
        for name, node in sorted(net.nodes.items())]

    return TrafficReport(
        formalism=net.formalism,
        horizon_ns=horizon_ns,
        elapsed_ns=elapsed_ns,
        classes=tallies,
        circuits=circuit_stats,
        links=link_stats,
        arbiters=arbiter_stats,
        recovery=recovery,
        apps=list(apps),
        obs=obs.snapshot() if obs is not None else None,
    )
