"""Evaluation helpers: statistics, parallel maps, table rendering, tracing."""

from .experiments import map_parallel, render_table
from .stats import Cdf, mean
from .tracing import Span, SpanTracer, attach_tracer

__all__ = [
    "Span",
    "SpanTracer",
    "attach_tracer",
    "Cdf",
    "mean",
    "map_parallel",
    "render_table",
]
