"""Experiment harness utilities: parallel maps and text rendering.

The benchmarks print their figures as aligned text tables —
the repository has no plotting dependency, and the point of the harness is
the *numbers* (who wins, by what factor, where crossovers fall).
"""

from __future__ import annotations

import os
from typing import Optional, Sequence


def map_parallel(fn, items: Sequence, workers: Optional[int] = None) -> list:
    """Order-preserving map, optionally sharded over a process pool.

    The sharding core of seed sweeps and of the campaign runner
    (:func:`repro.campaign.run_campaign`): ``items`` are fanned out
    across ``workers`` ``multiprocessing`` processes (default one per CPU,
    capped at the item count) and the results come back **in input
    order**, so a sharded map aggregates identically to the serial one
    whenever each call is self-contained in its item.  ``workers=1`` (or
    a single item) is the serial path — no pool, no pickling requirement
    on ``fn`` or ``items``.
    """
    items = list(items)
    if workers is None:
        workers = min(len(items), os.cpu_count() or 1)
    if workers > 1 and len(items) > 1:
        import multiprocessing

        with multiprocessing.Pool(processes=workers) as pool:
            return pool.map(fn, items)
    return [fn(item) for item in items]


def render_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Render an aligned text table (benchmark output format)."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(value) for value in row])
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)
