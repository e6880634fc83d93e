"""Observability: metrics registry, causal spans, streaming snapshots.

The telemetry seam of the repository.  Every network owns a
:class:`MetricsRegistry` (``net.obs``) into which the scheduler, link
layer, QNP, policer/arbiter, traffic engine and applications publish
counters, gauges and log-bucket histograms (quantiles within 1/128
relative error); a :class:`SnapshotEmitter` streams the registry to
JSONL on a simulated clock; and :class:`~repro.analysis.tracing.SpanTracer` (re-exported
here) upgrades the flat protocol trace to a causal span tree.  See the
DESIGN "Observability" section for the overall shape and overhead
budget.
"""

from ..analysis.tracing import Span, SpanTracer, attach_tracer
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .report import REQUIRED_SERIES, missing_series, summarise
from .snapshots import SnapshotEmitter, max_rss_kb, read_snapshots

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SnapshotEmitter",
    "max_rss_kb",
    "read_snapshots",
    "REQUIRED_SERIES",
    "missing_series",
    "summarise",
    "Span",
    "SpanTracer",
    "attach_tracer",
]
