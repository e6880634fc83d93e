"""Campaign aggregation: per-cell tables, axis marginals, JSON artifact.

A :class:`CampaignResult` renders like every other table in the
repository (through :func:`repro.analysis.experiments.render_table`) and
serialises to ``CAMPAIGN_<rev>.json`` so studies are diffable across
revisions the same way ``BENCH_<rev>.json`` tracks the perf trajectory.

Everything rendered or serialised here is a pure function of the spec
and the cell results — no wall-clock times or worker counts — which is
what lets a sharded run's report be byte-identical to the serial run's.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, TYPE_CHECKING

from ..analysis.experiments import render_table
from ..analysis.stats import mean
from .spec import AXIS_ORDER, CampaignCell, CampaignSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .runner import CellResult


def git_revision(anchor: Optional[Path] = None) -> str:
    """Short git revision for artifact names ("dev" outside a checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
            text=True, check=True,
            cwd=anchor or Path(__file__).resolve().parent)
        return out.stdout.strip() or "dev"
    except Exception:
        return "dev"


@dataclass
class CampaignResult:
    """All cells of one executed campaign, plus aggregation views."""

    spec: CampaignSpec
    cells: Sequence[CampaignCell]
    results: Sequence["CellResult"]

    @property
    def completed_cells(self) -> int:
        """Cells that ran to completion (no install/run error)."""
        return sum(1 for result in self.results if not result.error)

    @property
    def failed_cells(self) -> int:
        """Cells that recorded an error instead of telemetry."""
        return len(self.results) - self.completed_cells

    @property
    def total_pairs(self) -> int:
        """Confirmed end-to-end pairs across the whole grid."""
        return sum(result.pairs for result in self.results)

    @property
    def total_sessions(self) -> int:
        """Sessions submitted across the whole grid."""
        return sum(result.sessions for result in self.results)

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """The campaign report: totals, per-cell table, axis marginals."""
        blocks = [self._render_totals(), self._render_cells()]
        for axis in AXIS_ORDER:
            if len(self.spec.axes[axis]) > 1:
                blocks.append(self._render_marginal(axis))
        failures = [result for result in self.results if result.error]
        if failures:
            blocks.append(render_table(
                ["cell", "error"],
                [[result.label, result.error] for result in failures],
                title="failed cells"))
        return "\n\n".join(blocks)

    def _render_totals(self) -> str:
        lines = [
            f"campaign {self.spec.name} — {len(self.results)} cells "
            f"({', '.join(self._axis_summary())}), "
            f"horizon {self.spec.horizon_s:g} s/cell",
            f"  {self.completed_cells} cells completed, "
            f"{self.failed_cells} failed; "
            f"{self.total_sessions} sessions, "
            f"{self.total_pairs} confirmed pairs",
        ]
        fidelities = [result.mean_fidelity for result in self.results
                      if result.mean_fidelity is not None]
        if fidelities:
            lines.append(f"  mean cell fidelity {mean(fidelities):.4f} "
                         f"(min {min(fidelities):.4f}, "
                         f"max {max(fidelities):.4f})")
        return "\n".join(lines)

    def _axis_summary(self) -> list[str]:
        summary = []
        for axis in AXIS_ORDER:
            count = len(self.spec.axes[axis])
            if count > 1:
                summary.append(f"{count} {axis}")
        return summary or ["single point"]

    def _render_cells(self) -> str:
        rows = []
        for cell, result in zip(self.cells, self.results):
            if result.error:
                rows.append([result.index, cell.topology, cell.size,
                             cell.formalism, cell.metric,
                             cell.faults.label(), cell.app or "-",
                             cell.seed, "ERROR", "-", "-", "-", "-"])
                continue
            rows.append([
                result.index, cell.topology, cell.size, cell.formalism,
                cell.metric, cell.faults.label(), cell.app or "-",
                cell.seed, result.sessions, result.pairs,
                f"{result.throughput_pairs_per_s:.2f}",
                ("-" if result.mean_fidelity is None
                 else f"{result.mean_fidelity:.4f}"),
                f"{result.circuits_recovered}/{result.circuits_lost}",
            ])
        return render_table(
            ["cell", "topology", "size", "formalism", "metric", "faults",
             "app", "seed", "sessions", "pairs", "pairs/s", "mean F",
             "rec/lost"],
            rows, title="per-cell telemetry")

    def _render_marginal(self, axis: str) -> str:
        """Aggregate the grid down one axis (mean over the other axes).

        The ``app`` marginal additionally rolls up the application-level
        telemetry: consumed pairs, SLO attainment and the app's headline
        metric (apps differ in what that metric *is*, so it renders as a
        bare mean per app value).
        """
        groups: dict[str, list] = {}
        for cell, result in zip(self.cells, self.results):
            if result.error:
                continue
            groups.setdefault(self._axis_value_label(axis, cell),
                              []).append(result)
        # The app columns reuse the artifact's own rollup so the rendered
        # marginal can never disagree with the CAMPAIGN_<rev>.json "apps"
        # section (both views group the same non-error cells).
        per_app = self.per_app() if axis == "app" else {}
        rows = []
        for label, members in groups.items():
            fidelities = [result.mean_fidelity for result in members
                          if result.mean_fidelity is not None]
            row = [
                label, len(members),
                f"{mean([r.throughput_pairs_per_s for r in members]):.2f}",
                ("-" if not fidelities else f"{mean(fidelities):.4f}"),
                sum(result.sessions_recovered for result in members),
                sum(result.sessions_lost for result in members),
            ]
            if axis == "app":
                entry = per_app.get(label)
                if entry is None:  # the app-less "-" value of the axis
                    row.extend([0, "-", "-"])
                else:
                    row.extend([
                        entry["pairs_consumed"],
                        (f"{entry['circuits_slo_met']}"
                         f"/{entry['circuits']}"),
                        ("-" if entry["mean_headline"] is None
                         else f"{entry['mean_headline']:.4f}"),
                    ])
            rows.append(row)
        header = [axis, "cells", "mean pairs/s", "mean F", "rec", "lost"]
        if axis == "app":
            header.extend(["app pairs", "SLO met", "headline"])
        return render_table(header, rows, title=f"marginal by {axis}")

    @staticmethod
    def _axis_value_label(axis: str, cell: CampaignCell) -> str:
        if axis == "topology":
            return f"{cell.topology}:{cell.size}"
        if axis == "faults":
            return cell.faults.label()
        if axis == "app":
            return cell.app or "-"
        return str(getattr(cell, axis))

    # -- serialisation ---------------------------------------------------

    def per_app(self) -> dict:
        """Per-app rollup across the grid (the ``app`` axis marginal)."""
        apps: dict[str, dict] = {}
        for result in self.results:
            if result.error or not result.app:
                continue
            entry = apps.setdefault(result.app, {
                "cells": 0, "pairs_consumed": 0, "circuits": 0,
                "circuits_slo_met": 0, "_headlines": []})
            entry["cells"] += 1
            entry["pairs_consumed"] += result.app_pairs
            entry["circuits"] += result.app_circuits
            entry["circuits_slo_met"] += result.app_circuits_met
            if result.app_headline is not None:
                entry["_headlines"].append(result.app_headline)
        for entry in apps.values():
            headlines = entry.pop("_headlines")
            entry["mean_headline"] = (None if not headlines
                                      else round(mean(headlines), 4))
        return dict(sorted(apps.items()))

    def to_payload(self) -> dict:
        """The machine-readable campaign artifact (JSON-ready dict)."""
        return {
            "campaign": self.spec.name,
            "spec": self.spec.to_dict(),
            "cell_count": len(self.results),
            "completed_cells": self.completed_cells,
            "failed_cells": self.failed_cells,
            "totals": {
                "sessions": self.total_sessions,
                "pairs": self.total_pairs,
            },
            "apps": self.per_app(),
            "cells": [result.to_dict() for result in self.results],
        }

    def write_json(self, path: Path,
                   revision: Optional[str] = None) -> Path:
        """Write the artifact (with its revision stamp) to ``path``."""
        payload = self.to_payload()
        payload["revision"] = revision or git_revision(Path.cwd())
        path = Path(path)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path
