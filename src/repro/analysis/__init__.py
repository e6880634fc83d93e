"""Evaluation helpers: statistics, seed sweeps, table rendering."""

from .experiments import (
    SeedSweep,
    map_parallel,
    render_series,
    render_table,
    run_seeds,
)
from .stats import (
    Cdf,
    LatencySummary,
    mean,
    percentile,
    standard_error,
    throughput,
)
from .tracing import EventLog, Span, SpanTracer, TraceEvent, attach_trace, attach_tracer

__all__ = [
    "EventLog",
    "Span",
    "SpanTracer",
    "TraceEvent",
    "attach_trace",
    "attach_tracer",
    "Cdf",
    "LatencySummary",
    "mean",
    "percentile",
    "standard_error",
    "throughput",
    "SeedSweep",
    "map_parallel",
    "run_seeds",
    "render_table",
    "render_series",
]
