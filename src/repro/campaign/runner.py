"""Campaign execution: run every cell, serial or sharded, deterministically.

Each :class:`~repro.campaign.spec.CampaignCell` is executed through the
normal :class:`~repro.traffic.workload.TrafficEngine` path — build the
cell's topology, install its circuits with its routing metric, run its
Poisson workload (with its fault schedule, when one is declared) — and
reduced to a :class:`CellResult` of plain scalars.

Sharding goes through :func:`repro.analysis.experiments.map_parallel`:
cells are fanned out across a ``multiprocessing`` pool and the results
come back in cell order, so ``workers=8`` aggregates **byte-identically**
to ``workers=1`` for the same spec.  Two rules keep that true:

* every cell is self-contained in its parameters — the network seed, the
  workload seed and the fault stream all derive from the cell's ``seed``;
* :class:`CellResult` carries *counts and rates only*, never wall-clock
  numbers (circuit and request IDs are per simulation, so they would
  label a cell identically in any worker).

A cell that fails to install (e.g. more circuits than a small topology
can route) records its error string instead of sinking the campaign —
errors are deterministic too, so they shard identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional

from ..analysis.experiments import map_parallel
from ..traffic.topologies import build_topology
from ..traffic.workload import TrafficEngine
from .report import CampaignResult
from .spec import CampaignCell, CampaignSpec


@dataclass(frozen=True)
class ObsConfig:
    """Where a campaign's per-cell observability artifacts go.

    Frozen and field-picklable on purpose: the config rides into the
    pool workers via :func:`functools.partial`, so sharded campaigns
    stream the same per-cell files as serial ones.  Each cell writes
    ``cell<index>.jsonl`` under the configured directories (kept apart
    by index, which is shard-order independent).
    """

    #: Directory for per-cell metrics snapshots (None = no snapshots).
    metrics_dir: Optional[str] = None
    #: Directory for per-cell span traces (None = no tracing).
    trace_dir: Optional[str] = None
    #: Simulated seconds between snapshot frames.
    snapshot_interval_s: float = 0.5

    def metrics_path(self, cell: "CampaignCell") -> Optional[str]:
        """This cell's snapshot file (None when snapshots are off)."""
        if self.metrics_dir is None:
            return None
        return str(Path(self.metrics_dir) / f"cell{cell.index}.jsonl")

    def trace_path(self, cell: "CampaignCell") -> Optional[str]:
        """This cell's span-trace file (None when tracing is off)."""
        if self.trace_dir is None:
            return None
        return str(Path(self.trace_dir) / f"cell{cell.index}.jsonl")


@dataclass(frozen=True)
class PersistConfig:
    """Durability knobs for a campaign's cells.

    Frozen and field-picklable like :class:`ObsConfig` — it rides into
    the pool workers via :func:`functools.partial`.  With a
    ``checkpoint_dir``, every cell writes its own durable checkpoint
    (``cell<index>.ckpt``) on the configured interval; with ``resume``,
    cells whose checkpoint file survived a kill pick up from it instead
    of starting over (cells without one run fresh — resuming a campaign
    is always safe).
    """

    #: Directory for per-cell checkpoints (None = checkpointing off).
    checkpoint_dir: Optional[str] = None
    #: Simulated seconds between checkpoint writes.
    checkpoint_interval_s: float = 1.0
    #: Resume cells from surviving checkpoints instead of starting over.
    resume: bool = False

    def checkpoint_path(self, cell: "CampaignCell") -> Optional[str]:
        """This cell's checkpoint file (None when checkpointing is off)."""
        if self.checkpoint_dir is None:
            return None
        return str(Path(self.checkpoint_dir) / f"cell{cell.index}.ckpt")


@dataclass(frozen=True)
class CellResult:
    """One executed cell, reduced to shard-order-independent scalars."""

    index: int
    #: Cell label ("topology:size formalism metric faults seed").
    label: str
    nodes: int
    links: int
    circuits_installed: int
    max_link_share: float
    sessions: int
    accepted: int
    queued: int
    rejected: int
    completed: int
    pairs: int
    throughput_pairs_per_s: float
    mean_fidelity: Optional[float]
    link_down_events: int
    circuits_recovered: int
    circuits_lost: int
    sessions_recovered: int
    sessions_lost: int
    route_computations: int
    #: The cell's application service ("" for app-less cells).
    app: str = ""
    #: Pairs the app consumed across the cell's circuits.
    app_pairs: int = 0
    #: Circuits whose app session met every SLO objective / circuits run.
    app_circuits_met: int = 0
    app_circuits: int = 0
    #: Mean of the app's headline metric over the cell's circuits.
    app_headline: Optional[float] = None
    #: Non-empty when the cell failed; every telemetry field is then 0.
    error: str = ""

    def to_dict(self) -> dict:
        """JSON-ready row for the ``CAMPAIGN_<rev>.json`` artifact."""
        return {
            "index": self.index,
            "label": self.label,
            "nodes": self.nodes,
            "links": self.links,
            "circuits_installed": self.circuits_installed,
            "max_link_share": round(self.max_link_share, 4),
            "sessions": self.sessions,
            "accepted": self.accepted,
            "queued": self.queued,
            "rejected": self.rejected,
            "completed": self.completed,
            "pairs": self.pairs,
            "throughput_pairs_per_s": round(self.throughput_pairs_per_s, 2),
            "mean_fidelity": (None if self.mean_fidelity is None
                              else round(self.mean_fidelity, 4)),
            "link_down_events": self.link_down_events,
            "circuits_recovered": self.circuits_recovered,
            "circuits_lost": self.circuits_lost,
            "sessions_recovered": self.sessions_recovered,
            "sessions_lost": self.sessions_lost,
            "route_computations": self.route_computations,
            "app": self.app,
            "app_pairs": self.app_pairs,
            "app_circuits_met": self.app_circuits_met,
            "app_circuits": self.app_circuits,
            "app_headline": (None if self.app_headline is None
                             else round(self.app_headline, 4)),
            "error": self.error,
        }


def run_cell(cell: CampaignCell,
             obs: Optional[ObsConfig] = None,
             persist: Optional["PersistConfig"] = None) -> CellResult:
    """Execute one campaign cell end to end and reduce its telemetry.

    Module-level (picklable) on purpose: this is the function the pool
    workers receive.  Deterministic in the cell alone; ``obs`` adds
    per-cell metrics/trace files and ``persist`` per-cell durable
    checkpoints without touching the telemetry scalars.  With
    ``persist.resume``, a cell whose checkpoint file survived a kill is
    loaded and finished instead of re-run from scratch.
    """
    obs = obs or ObsConfig()
    persist = persist or PersistConfig()
    checkpoint = persist.checkpoint_path(cell)
    try:
        if (persist.resume and checkpoint is not None
                and Path(checkpoint).exists()):
            from ..persist import load_checkpoint

            engine = load_checkpoint(checkpoint)
            net = engine.net
            report = engine.resume_run()
        else:
            net = build_topology(cell.topology, cell.size, seed=cell.seed,
                                 formalism=cell.formalism)
            engine = TrafficEngine(
                net, circuits=cell.circuits, load=cell.load,
                target_fidelity=cell.target_fidelity, seed=cell.seed,
                metric=cell.metric, fail_links=cell.faults.fail_links,
                mtbf_s=cell.faults.mtbf_s, mttr_s=cell.faults.mttr_s,
                apps=None if cell.app is None else [cell.app],
                metrics_out=obs.metrics_path(cell),
                snapshot_interval_s=obs.snapshot_interval_s,
                trace_out=obs.trace_path(cell),
                checkpoint_out=checkpoint,
                checkpoint_interval_s=persist.checkpoint_interval_s)
            report = engine.run(horizon_s=cell.horizon_s,
                                drain_s=cell.drain_s)
    except (ValueError, RuntimeError) as exc:
        return _error_result(cell, f"{type(exc).__name__}: {exc}")
    recovery = report.recovery
    summary = report.app_summaries.get(cell.app) if cell.app else None
    return CellResult(
        index=cell.index,
        label=cell.label(),
        nodes=len(net.nodes),
        links=len(net.links),
        circuits_installed=len(engine.circuits),
        max_link_share=engine.max_link_share,
        sessions=report.total_sessions,
        accepted=sum(t.accepted for t in report.classes.values()),
        queued=sum(t.queued for t in report.classes.values()),
        rejected=sum(t.rejected for t in report.classes.values()),
        completed=sum(t.completed for t in report.classes.values()),
        pairs=report.total_confirmed_pairs,
        throughput_pairs_per_s=report.throughput_pairs_per_s,
        mean_fidelity=report.mean_fidelity,
        link_down_events=(recovery.link_down_events if recovery else 0),
        circuits_recovered=(recovery.circuits_recovered if recovery else 0),
        circuits_lost=(recovery.circuits_lost if recovery else 0),
        sessions_recovered=(recovery.sessions_recovered if recovery else 0),
        sessions_lost=(recovery.sessions_lost if recovery else 0),
        route_computations=(recovery.route_computations if recovery else 0),
        app=cell.app or "",
        app_pairs=summary.pairs_consumed if summary else 0,
        app_circuits_met=summary.circuits_met if summary else 0,
        app_circuits=summary.circuits if summary else 0,
        app_headline=summary.headline if summary else None,
    )


def _error_result(cell: CampaignCell, message: str) -> CellResult:
    """A zeroed result recording why the cell could not run."""
    return CellResult(
        index=cell.index, label=cell.label(), nodes=0, links=0,
        circuits_installed=0, max_link_share=0.0, sessions=0, accepted=0,
        queued=0, rejected=0, completed=0, pairs=0,
        throughput_pairs_per_s=0.0, mean_fidelity=None, link_down_events=0,
        circuits_recovered=0, circuits_lost=0, sessions_recovered=0,
        sessions_lost=0, route_computations=0, error=message)


def run_campaign(spec: CampaignSpec, workers: int = 1,
                 cells: Optional[list[CampaignCell]] = None,
                 obs: Optional[ObsConfig] = None,
                 persist: Optional[PersistConfig] = None) -> CampaignResult:
    """Expand a spec and execute every cell, sharded over ``workers``.

    ``workers=1`` runs serially in-process; ``workers>1`` shards the cell
    list over a ``multiprocessing`` pool.  Both orders of execution
    produce the identical :class:`~repro.campaign.report.CampaignResult`
    (and hence byte-identical rendered reports and JSON artifacts) for
    the same spec — the determinism the CI smoke test pins.

    ``cells`` lets a caller that already called ``spec.expand()`` (e.g.
    to print the grid size up front) reuse the expansion; it must be
    exactly that — expansion is deterministic, so any other list would
    desynchronise results from the spec.

    ``obs`` turns on per-cell observability artifacts (metrics snapshot
    and span-trace JSONL files named by cell index) — the directories
    are created up front so pool workers never race on mkdir.
    ``persist`` adds per-cell durable checkpoints the same way
    (``cell<index>.ckpt``), and with ``persist.resume`` finishes killed
    cells from their surviving checkpoints.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if cells is None:
        cells = spec.expand()
    if not cells:  # pragma: no cover - load_spec forbids empty axes
        raise ValueError("campaign expands to zero cells")
    if obs is not None:
        for directory in (obs.metrics_dir, obs.trace_dir):
            if directory is not None:
                Path(directory).mkdir(parents=True, exist_ok=True)
    if persist is not None and persist.checkpoint_dir is not None:
        Path(persist.checkpoint_dir).mkdir(parents=True, exist_ok=True)
    runner = run_cell
    if obs is not None or persist is not None:
        runner = partial(run_cell, obs=obs, persist=persist)
    results = map_parallel(runner, cells, workers=workers)
    return CampaignResult(spec=spec, cells=cells, results=list(results))
