"""Repetition loop, output check and metric assembly.

A run sets the workload up (imports plus one untimed cold repetition that
fills the process-lifetime memos), then repeats it until ``seconds`` have
passed.  Contention from outside the process only ever adds time, so the
least-disturbed reading of the program's own cost is the fastest one.  The
host's slow phases can outlast a whole run, though, so the fastest *whole*
repetition is not enough: every untraced repetition stamps the wall clock
as each simulator event fires, the repetition is cut into stretches of
about :data:`SEGMENT_NS` at fixed event indices, and ``run_s`` is the sum
over stretches of the fastest time each took in any repetition.  The
simulation is deterministic, so stretch *k* is the same work in every
repetition.

Every repetition's simulated outputs must equal the cold repetition's (and,
for the default seed, the recorded goldens); a mismatch marks the run
incorrect and counts as a failed operation.
"""

from __future__ import annotations

import gc
import resource
import time
from array import array
from dataclasses import dataclass, field

from repro.netsim.scheduler import EventHandle
from spans import Instrumentation, Spans, SpanTotals

#: Repetitions a run times at least, however short ``seconds`` is.
MIN_REPS = 3
#: Target wall length of one stretch of a repetition.
SEGMENT_NS = 5_000_000
#: ``peak_rss_mb`` is read after this many timed repetitions, so it covers
#: the same work in every run however many repetitions fit in the time.
RSS_REPS = 2


@dataclass
class Timed:
    """One repetition: its wall seconds and what it produced."""

    seconds: float
    outcome: object
    spans: SpanTotals | None = None
    #: ``perf_counter_ns`` at the start, at every event fired, and at the end.
    stamps: array | None = None


@dataclass
class Check:
    """Output check across every repetition of a run."""

    reference: dict
    golden: dict | None = None
    attempted: int = 0
    failed: int = 0
    mismatches: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.attempted = 1
        if self.golden is not None and self.golden != self.reference:
            self.failed = 1
            self.mismatches.append(("golden", self.golden, self.reference))

    def observe(self, label: str, got: dict) -> None:
        self.attempted += 1
        if got != self.reference:
            self.failed += 1
            self.mismatches.append((label, self.reference, got))

    @property
    def correct(self) -> bool:
        return self.failed == 0


class Segments:
    """Fastest time of each stretch of a repetition, across repetitions.

    The cuts are fixed by the first repetition added: a new stretch starts
    at the first event at least ``target_ns`` after the previous cut.  A
    repetition that fired a different number of events cannot be aligned
    and is skipped.
    """

    def __init__(self, target_ns: int = SEGMENT_NS):
        self.target_ns = target_ns
        self.cuts: list[int] = []
        self.best: list[int] = []
        self.skipped = 0

    def add(self, stamps) -> None:
        if not self.cuts:
            self.cuts = [0]
            for index in range(1, len(stamps) - 1):
                if stamps[index] - stamps[self.cuts[-1]] >= self.target_ns:
                    self.cuts.append(index)
            self.cuts.append(len(stamps) - 1)
            self.best = [stamps[b] - stamps[a]
                         for a, b in zip(self.cuts, self.cuts[1:])]
            return
        if len(stamps) != self.cuts[-1] + 1:
            self.skipped += 1
            return
        best = self.best
        for k, (a, b) in enumerate(zip(self.cuts, self.cuts[1:])):
            elapsed = stamps[b] - stamps[a]
            if elapsed < best[k]:
                best[k] = elapsed

    @property
    def seconds(self) -> float:
        return sum(self.best) / 1e9


class EventStamps:
    """Record ``perf_counter_ns`` as each simulator event fires."""

    def __init__(self):
        self.stamps = array("q")

    def __enter__(self) -> array:
        fire, stamp, clock = EventHandle._fire, self.stamps.append, time.perf_counter_ns

        def stamped_fire(handle):
            stamp(clock())
            fire(handle)

        self._fire = fire
        EventHandle._fire = stamped_fire
        return self.stamps

    def __exit__(self, *exc) -> None:
        EventHandle._fire = self._fire


def time_once(workload, traced: bool = False) -> Timed:
    """Run one repetition, stamped or under span tracing.

    Only a traced repetition keeps its networks (for the registry counts);
    an untraced one drops them so memory does not grow with the count of
    repetitions.
    """
    gc.collect()
    if not traced:
        clock = time.perf_counter_ns
        with EventStamps() as stamps:
            start = clock()
            outcome = workload.repeat()
            end = clock()
        outcome.nets = []
        stamps.insert(0, start)
        stamps.append(end)
        return Timed((end - start) / 1e9, outcome, stamps=stamps)
    spans = Spans()
    with Instrumentation(spans):
        start = spans.clock()
        outcome = workload.repeat()
        totals = spans.freeze(spans.clock() - start)
    return Timed(totals.wall_s, outcome, totals)


def time_cold_routing(workload) -> tuple[Timed, float]:
    """The cold repetition, with only ``compute_route`` timed (inclusive).

    Nothing else is wrapped, so the routing seconds are not inflated by
    tracing and compare directly with ``setup_s``.
    """
    from repro.control.routing import CentralController

    spans = Spans()
    original = CentralController.compute_route
    CentralController.compute_route = spans.wrap("control", original, "route")
    try:
        cold = time_once(workload)
    finally:
        CentralController.compute_route = original
    return cold, spans.inclusive_ns["route"] / 1e9


@dataclass
class Series:
    """What the repetitions of one phase of a run add up to."""

    count: int = 0
    best: Timed | None = None
    segments: Segments = field(default_factory=Segments)
    rss_mb: float = 0.0


def repeat_for(workload, seconds: float, check: Check, label: str,
               traced: bool = False, min_reps: int = MIN_REPS) -> Series:
    """Repeat until ``seconds`` have passed (and at least ``min_reps`` ran)."""
    series = Series()
    deadline = time.perf_counter() + seconds
    while series.count < min_reps or time.perf_counter() < deadline:
        rep = time_once(workload, traced)
        check.observe(f"{label} repetition {series.count}",
                      rep.outcome.fingerprint())
        series.count += 1
        if rep.stamps is not None:
            series.segments.add(rep.stamps)
            rep.stamps = None
        if series.best is None or rep.seconds < series.best.seconds:
            series.best = rep
        if series.count == RSS_REPS:
            series.rss_mb = peak_rss_mb()
        del rep  # unless it is the best, free it before the next one runs
    return series


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(series: Series, setup_s: float) -> dict:
    outcome = series.best.outcome
    run_s = series.segments.seconds
    return {
        "run_s": run_s,
        "wall_pairs_per_s": outcome.pairs / run_s,
        "setup_s": setup_s,
        "peak_rss_mb": series.rss_mb,
        "sessions_ok_frac": outcome.sessions_ok_frac,
    }


def registry_totals(nets: list) -> dict:
    """Registry counters and histogram sample counts summed over networks."""
    totals: dict = {}
    observes = 0
    for net in nets:
        frame = net.obs.snapshot()
        for name, value in frame["counters"].items():
            totals[name] = totals.get(name, 0) + value
        observes += sum(h.get("count", 0) for h in frame["hists"].values())
    totals["observes"] = observes
    totals["route_computations"] = sum(
        net.controller.route_computations for net in nets
        if net.controller is not None)
    return totals


def per_layer(route_s: float, untraced: Series, traced: Timed) -> dict:
    """Per-layer metrics of a traced run.

    Self times and counts come from the fastest traced repetition,
    ``netsim.ns_per_event`` from the untraced ``run_s`` estimate, and
    ``route_s`` is the cold repetition's inclusive ``compute_route`` time.
    """
    spans, outcome = traced.spans, traced.outcome
    counts = registry_totals(outcome.nets)
    events = counts["sim.events_processed"]
    link_pairs = counts["egp.pairs_generated"]
    metrics = {f"{layer}.self_s": seconds
               for layer, seconds in spans.self_s.items()}
    metrics.update({
        "netsim.events": events,
        "netsim.ns_per_event": untraced.segments.seconds * 1e9 / events,
        "netsim.pool_hit_ratio": counts["sim.pool_hits"] / max(spans.posts, 1),
        "linklayer.attempts": counts["egp.attempts"],
        "linklayer.pairs": link_pairs,
        "linklayer.pairs_per_attempt": link_pairs / max(counts["egp.attempts"], 1),
        "core.swaps": counts["qnp.swaps"],
        "core.pairs_delivered": counts["qnp.pairs_delivered"],
        "core.pairs_discarded": counts["qnp.pairs_discarded"],
        "core.pairs_expired": counts["qnp.pairs_expired"],
        "core.useful_ratio": outcome.pairs / max(link_pairs, 1),
        "quantum.calls": spans.calls["quantum"],
        "obs.observe_calls": counts["observes"],
        "control.route_s": route_s,
        "control.route_computations": counts["route_computations"],
        "control.circuits_recovered": outcome.circuits_recovered,
        "network.sessions_queued": counts["policer.queued"],
        "network.sessions_rejected": counts["policer.rejected"],
        "apps.pairs_consumed": counts.get("apps.pairs_consumed", 0),
        "trace.overhead_frac": traced.seconds / untraced.best.seconds - 1,
    })
    return metrics


def self_time_table(title: str, rep: Timed) -> str:
    """Per-layer self seconds of a traced repetition; rows sum to its wall."""
    rows = rep.spans.self_s
    lines = [f"{title}: traced wall {rep.seconds:.3f} s",
             f"  {'layer':<10} {'self_s':>9} {'share':>7} {'calls':>10}"]
    for layer, seconds in sorted(rows.items(), key=lambda kv: -kv[1]):
        calls = rep.spans.calls.get(layer, "")
        lines.append(f"  {layer:<10} {seconds:9.4f} {seconds / rep.seconds:7.1%}"
                     f" {calls:>10}")
    lines.append(f"  {'sum':<10} {sum(rows.values()):9.4f}")
    return "\n".join(lines)

