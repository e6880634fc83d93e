"""Simulation-time snapshot emitter: registry deltas streamed to JSONL.

Long runs should report like a dashboard instead of only at exit.  A
:class:`SnapshotEmitter` hooks into the discrete-event scheduler and
flushes the metrics registry every ``interval_s`` *simulated* seconds:
one JSON line per snapshot carrying cumulative counters, per-interval
deltas, gauge levels, histogram summaries, and the host-side context
(wall-clock elapsed, max RSS) that the ROADMAP's soak work needs next to
the simulated numbers.

The emitter is observation-only by construction: its tick events never
touch ``sim.rng`` or any protocol state, so enabling snapshots cannot
change what the simulation computes — only what it reports (the CI
``obs-smoke`` job pins a soak with snapshots on to the plain soak).
"""

from __future__ import annotations

import json
import time as _time
from typing import Optional

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    resource = None

from ..netsim import Simulator
from .registry import MetricsRegistry

S = 1e9  # ns per simulated second


def max_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in kB (None off POSIX)."""
    if resource is None:  # pragma: no cover - non-POSIX fallback
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class SnapshotEmitter:
    """Periodically flush a metrics registry to a JSONL file.

    ``start()`` writes a ``start`` line and schedules the first tick;
    every ``interval_s`` simulated seconds a ``periodic`` line follows;
    ``finalise()`` cancels the pending tick and writes one last ``final``
    line — the end-of-run reports read the same registry at the same
    instant, so the final snapshot's cumulative counters match them
    byte-for-byte.
    """

    def __init__(self, sim: Simulator, registry: MetricsRegistry, path,
                 interval_s: float = 0.5, meta: Optional[dict] = None):
        if interval_s <= 0:
            raise ValueError("snapshot interval must be positive")
        self.sim = sim
        self.registry = registry
        self.path = path
        self.interval_ns = interval_s * S
        self.meta = dict(meta or {})
        self.snapshots_written = 0
        self.last_snapshot: Optional[dict] = None
        self._handle = None
        self._file = None
        self._wall_start = 0.0
        self._prev_counters: dict = {}
        # Warm-up detection: the run is flagged steady (sticky) once the
        # per-interval confirmed-pair delta holds within a relative band
        # of its predecessor for STEADY_STREAK consecutive frames.
        self._steady = False
        self._steady_streak = 0
        self._prev_rate_delta: Optional[float] = None

    #: Consecutive stable deltas before a run is declared steady.
    STEADY_STREAK = 3
    #: Relative tolerance between consecutive deltas that counts as stable.
    STEADY_RTOL = 0.25

    def __getstate__(self) -> dict:
        """Checkpoint form: drop the open file, keep wall time as elapsed.

        The armed tick handle stays — it lives in the (also pickled)
        event heap, so the restored emitter keeps its snapshot grid.
        """
        state = self.__dict__.copy()
        state["_file"] = None
        state["_wall_start"] = _time.monotonic() - self._wall_start
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._wall_start = _time.monotonic() - state["_wall_start"]

    def reattach(self, path=None) -> None:
        """Re-open the output file after a checkpoint restore.

        A crash may have appended frames *after* the checkpoint was
        taken; replaying them would duplicate sequence numbers and break
        counter monotonicity, so the file is truncated back to the
        ``snapshots_written`` lines the checkpoint vouches for before
        appending resumes.  ``path`` redirects the stream (resume runs
        that must not clobber the original artifact).
        """
        if self._file is not None:
            return
        if path is not None:
            self.path = path
        lines: list[str] = []
        try:
            with open(self.path, encoding="utf-8") as handle:
                for raw in handle:
                    lines.append(raw)
                    if len(lines) >= self.snapshots_written:
                        break
        except FileNotFoundError:
            lines = []
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        self._file = open(self.path, "a", encoding="utf-8")

    def start(self) -> None:
        """Open the output file, write the ``start`` line, arm the tick."""
        if self._file is not None:
            return
        self._file = open(self.path, "w", encoding="utf-8")
        self._wall_start = _time.monotonic()
        self._emit("start")
        self._arm()

    def _arm(self) -> None:
        self._handle = self.sim.schedule(self.interval_ns, self._tick)

    def _tick(self) -> None:
        self._emit("periodic")
        self._arm()

    def _update_steady(self, deltas: dict) -> None:
        """Fold one frame's throughput delta into the warm-up detector.

        Purely observational and deterministic in simulated quantities
        (no wall-clock input), so the ``steady`` flag is reproducible
        across checkpoint/resume and identical runs.
        """
        delta = deltas.get("traffic.pairs_confirmed")
        if delta is None or self._steady:
            return
        prev = self._prev_rate_delta
        self._prev_rate_delta = float(delta)
        if prev is None or prev <= 0 or delta <= 0:
            self._steady_streak = 0
            return
        if abs(delta - prev) <= self.STEADY_RTOL * prev:
            self._steady_streak += 1
            if self._steady_streak >= self.STEADY_STREAK:
                self._steady = True
        else:
            self._steady_streak = 0

    def _emit(self, kind: str) -> dict:
        frame = self.registry.snapshot()
        counters = frame["counters"]
        deltas = {name: value - self._prev_counters.get(name, 0)
                  for name, value in counters.items()}
        self._prev_counters = dict(counters)
        if kind == "periodic":
            self._update_steady(deltas)
        line = {"kind": kind,
                "seq": self.snapshots_written,
                "t_sim_s": self.sim.now / S,
                "t_wall_s": round(_time.monotonic() - self._wall_start, 6),
                "max_rss_kb": max_rss_kb(),
                "steady": self._steady,
                "counters": counters,
                "deltas": deltas,
                "gauges": frame["gauges"],
                "hists": frame["hists"]}
        if kind == "start" and self.meta:
            line["meta"] = self.meta
        self._file.write(json.dumps(line) + "\n")
        self._file.flush()
        self.snapshots_written += 1
        self.last_snapshot = line
        return line

    def finalise(self) -> Optional[dict]:
        """Write the ``final`` snapshot and close the file (idempotent)."""
        if self._file is None:
            return self.last_snapshot
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        final = self._emit("final")
        self._file.close()
        self._file = None
        return final


def read_snapshots(path) -> list[dict]:
    """Parse a snapshot JSONL file back into a list of dicts."""
    lines = []
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            raw = raw.strip()
            if raw:
                lines.append(json.loads(raw))
    return lines
