"""Protocol event tracing: one causal span tree per network.

The QNP engines and link-layer EGPs :meth:`~SpanTracer.record` their
protocol events into a :class:`SpanTracer` when one is attached.  Every
recorded event becomes a point span with an ID and a parent link, and
long-lived activities (a circuit's lifetime, a session from submit to
completion) become interval spans, so one session's lifecycle is a
walkable tree (submit → route → install → generate → swap → deliver →
app consume).  The flat views — :meth:`~SpanTracer.of_kind`,
:meth:`~SpanTracer.first` and the Fig 6 :meth:`~SpanTracer.render_sequence`
used by the debugging tests and ``examples/sequence_trace.py`` — read the
recorded events back out of the same span list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass
class Span:
    """One node of a causal span tree.

    A span is either an *interval* (``t_end`` set when the activity
    closes, ``None`` while it is still open) or a *point* event
    (``t_end == t_start``).  ``parent_id`` links it into the tree;
    root spans (circuits) have ``parent_id is None``.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    node: str
    t_start: float
    t_end: Optional[float] = None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serialisable representation (one JSONL line)."""
        return {"span_id": self.span_id, "parent_id": self.parent_id,
                "name": self.name, "node": self.node,
                "t_start": self.t_start, "t_end": self.t_end,
                "attrs": self.attrs}


class EventSpan(Span):
    """A point span filed by :meth:`SpanTracer.record`: one protocol event.

    The flat views (the Fig 6 render, :meth:`SpanTracer.of_kind`) read only
    these, not the interval spans or the network's ROUTE/INSTALL marks.
    """


#: Detail keys that resolve a recorded event's parent span, tried in
#: order: a ``request=`` detail parents under that session's span, a
#: ``purpose=`` detail under the circuit owning that link label (the
#: network registers the aliases at install time), a ``circuit=`` detail
#: under the circuit span itself.
_PARENT_KEYS = (("request", "session"), ("purpose", "purpose"),
                ("circuit", "circuit"))


class SpanTracer:
    """A network's protocol events, stored as a causal span tree.

    Producers call :meth:`record`; the tracer files each event as a point
    span and infers its parent from the event's detail (``request=`` →
    session span, ``circuit=``/``purpose=`` → circuit span).  Interval
    spans are opened with :meth:`begin` under a lookup *key* — e.g.
    ``("circuit", circuit_id)`` or ``("session", request_id)`` — and
    closed with :meth:`end`.  Keys stay resolvable after a span closes,
    so late events (an EXPIRE racing a completed request) still land in
    the right subtree.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._index: dict[tuple, Span] = {}
        self._next_id = 1

    def _new_span(self, name: str, node: str, t_start: float,
                  t_end: Optional[float], parent: Optional[Span],
                  attrs: dict, cls: type = Span) -> Span:
        span = cls(span_id=self._next_id,
                   parent_id=None if parent is None else parent.span_id,
                   name=name, node=node, t_start=t_start, t_end=t_end,
                   attrs=attrs)
        self._next_id += 1
        self.spans.append(span)
        return span

    def begin(self, name: str, node: str, time: float, key: tuple = None,
              parent: Optional[Span] = None, **attrs) -> Span:
        """Open an interval span, optionally registered under ``key``."""
        span = self._new_span(name, node, time, None, parent, attrs)
        if key is not None:
            self._index[key] = span
        return span

    def end(self, key_or_span, time: float) -> Optional[Span]:
        """Close an interval span by lookup key or by the span itself."""
        span = (key_or_span if isinstance(key_or_span, Span)
                else self._index.get(key_or_span))
        if span is not None and span.t_end is None:
            span.t_end = time
        return span

    def alias(self, key: tuple, span: Span) -> None:
        """Register an extra lookup key for ``span`` (e.g. link labels)."""
        self._index[key] = span

    def lookup(self, key: tuple) -> Optional[Span]:
        """The span registered under ``key``, or None."""
        return self._index.get(key)

    def point(self, name: str, node: str, time: float,
              parent: Optional[Span] = None, **attrs) -> Span:
        """Add a point span (an instantaneous event) to the tree."""
        return self._new_span(name, node, time, time, parent, attrs)

    def record(self, time: float, node: str, kind: str, **detail) -> None:
        """File one protocol event as a point span under its inferred
        parent; a ``REQUEST_DONE`` also closes the request's session span."""
        parent = None
        for detail_key, prefix in _PARENT_KEYS:
            if detail_key in detail:
                parent = self._index.get((prefix, detail[detail_key]))
                if parent is not None:
                    break
        self._new_span(kind, node, time, time, parent, detail, EventSpan)
        if kind == "REQUEST_DONE" and "request" in detail:
            self.end(("session", detail["request"]), time)

    def events(self) -> list[EventSpan]:
        """The recorded protocol events, in record order."""
        return [s for s in self.spans if isinstance(s, EventSpan)]

    def of_kind(self, *kinds: str) -> list[EventSpan]:
        """Recorded events whose name is one of ``kinds``."""
        wanted = set(kinds)
        return [s for s in self.events() if s.name in wanted]

    def render_sequence(self, nodes: Iterable[str],
                        max_events: int = 200) -> str:
        """Render a Fig 6-style sequence diagram of the first
        ``max_events`` recorded events: one column per node, events in
        record order."""
        nodes = list(nodes)
        width = 16
        header = f"{'time (ms)':>12}  " + "".join(f"{n:<{width}}" for n in nodes)
        rule = "-" * len(header)
        lines = [header, rule]
        for event in self.events()[:max_events]:
            if event.node not in nodes:
                continue
            column = nodes.index(event.node)
            label = event.name
            if "to" in event.attrs:
                label = f"{event.name}->{event.attrs['to']}"
            cells = [" " * width] * len(nodes)
            cells[column] = f"{label:<{width}}"[:width]
            lines.append(f"{event.t_start / 1e6:>12.3f}  " + "".join(cells))
        return "\n".join(lines)

    def roots(self) -> list[Span]:
        """Spans with no parent (circuit spans, orphan events)."""
        return [s for s in self.spans if s.parent_id is None]

    def walk(self, span: Span):
        """Yield ``(depth, span)`` over the subtree rooted at ``span``."""
        stack = [(0, span)]
        by_parent: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent_id is not None:
                by_parent.setdefault(s.parent_id, []).append(s)
        while stack:
            depth, current = stack.pop()
            yield depth, current
            for child in reversed(by_parent.get(current.span_id, [])):
                stack.append((depth + 1, child))

    def render_tree(self, span: Span) -> str:
        """Indented text rendering of the subtree rooted at ``span``."""
        lines = []
        for depth, current in self.walk(span):
            stamp = f"{current.t_start / 1e6:10.3f} ms"
            tail = "" if current.t_end is None else (
                "" if current.t_end == current.t_start
                else f" (+{(current.t_end - current.t_start) / 1e6:.3f} ms)")
            attrs = " ".join(f"{k}={v}" for k, v in current.attrs.items())
            lines.append(f"[{stamp}] {'  ' * depth}{current.name}"
                         f"{tail}{' ' + attrs if attrs else ''}")
        return "\n".join(lines)

    def write_jsonl(self, path) -> int:
        """Write every span as one JSON line; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
        return len(self.spans)


def attach_tracer(net) -> SpanTracer:
    """Attach a new :class:`SpanTracer` to a network and return it.

    Every QNP engine and link-layer EGP records its protocol events into
    the tracer, and the network opens circuit/session interval spans
    around them.
    """
    tracer = SpanTracer()
    for qnp in net.qnps.values():
        qnp.trace = tracer
    for link in net.links.values():
        link.trace = tracer
    net.tracer = tracer
    return tracer
