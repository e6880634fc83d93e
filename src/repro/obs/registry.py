"""Unified metrics registry: counters, gauges, bounded-memory histograms.

One :class:`MetricsRegistry` lives on every :class:`~repro.network.Network`
(``net.obs``) and is the single place the scheduler, link layer, QNP,
policer/arbiter, traffic engine and applications publish their numbers.
Two publication styles coexist:

* **pull** — an instrument constructed with a ``source`` callable (every
  gauge is) holds no state of its own; reading it polls the producer's
  existing stat field (``link.attempts_made``, ``sim.events_processed``,
  …).  This is the default for everything the simulator already counts:
  zero hot-path cost, the registry only pays at snapshot time.
* **push** — counters without a source are incremented explicitly
  (``counter.inc()``), and histograms count samples into fixed
  log-linear buckets as they arrive, so quantiles stay available, within
  1/128 relative error, without keeping the samples (memory grows with
  the value range covered, not with the sample count).

``snapshot()`` flattens everything into one ``{name: value}`` dict: plain
numbers for counters and gauges, a ``{count, mean, min, max, p5, …}``
sub-dict per histogram.  That dict is what the snapshot emitter streams
to JSONL and what the end-of-run reports read their headline numbers
from.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

#: Quantiles every histogram reports (as p5/p50/p95/p99).
DEFAULT_QUANTILES = (0.05, 0.50, 0.95, 0.99)

#: Key of the zero bucket: below every positive sample's key (the
#: smallest positive float, 5e-324, has frexp exponent -1073).
_ZERO_BUCKET = -1 << 20


class Counter:
    """A monotonically increasing count (pushed or pulled).

    With a ``source`` callable the counter is read-only and polls the
    producer; without one it accumulates :meth:`inc` calls.
    """

    __slots__ = ("name", "_value", "_source")

    def __init__(self, name: str, source: Optional[Callable[[], float]] = None):
        self.name = name
        self._value = 0
        self._source = source

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (push-style counters only)."""
        if self._source is not None:
            raise TypeError(f"counter {self.name!r} is source-backed")
        self._value += amount

    @property
    def value(self):
        """Current count (polls the source when pull-based)."""
        if self._source is not None:
            return self._source()
        return self._value


class Gauge:
    """A point-in-time level (heap size, queue depth, busy time).

    Always pull-based: reading it polls ``source``.
    """

    __slots__ = ("name", "_source")

    def __init__(self, name: str, source: Callable[[], float]):
        self.name = name
        self._source = source

    @property
    def value(self):
        """Current level, polled from the source."""
        return self._source()


class Histogram:
    """Streaming distribution summary on fixed log-linear buckets.

    Tracks count/sum/min/max exactly.  Each positive sample lands in one
    of 64 equal-width buckets of its octave ``[2**(e-1), 2**e)``, keyed
    ``e * 64 + sub-bucket``; zeros share one zero bucket.  A quantile is
    the midpoint of the bucket holding the nearest-rank order statistic,
    so it is within 1/128 of the exact value, relative to that value.
    Memory grows with the number of occupied buckets (at most 64 per
    octave the samples span), never with the number of samples.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._buckets: dict[int, int] = {}

    def observe(self, x: float) -> None:
        """Fold one finite, non-negative sample into the summary."""
        x = float(x)
        if not 0.0 <= x < math.inf:
            raise ValueError(f"histogram {self.name!r} takes finite "
                             f"non-negative samples, got {x!r}")
        self.count += 1
        self.total += x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if x:
            mantissa, exponent = math.frexp(x)
            key = exponent * 64 + int((mantissa - 0.5) * 128)
        else:
            key = _ZERO_BUCKET
        buckets = self._buckets
        buckets[key] = buckets.get(key, 0) + 1

    @property
    def mean(self) -> float:
        """Mean of all observed samples (0.0 before any sample)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Nearest-rank ``q``-quantile for any ``q`` in (0, 1].

        Estimates ``sorted(samples)[ceil(q * count) - 1]`` by the
        midpoint of its bucket, clamped to the exact ``[min, max]``.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile probability must be in (0, 1]")
        if not self.count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        rank = math.ceil(q * self.count)
        seen = 0
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if seen >= rank:
                break
        if key == _ZERO_BUCKET:
            return 0.0
        exponent, sub = divmod(key, 64)
        midpoint = math.ldexp(0.5 + (sub + 0.5) / 128, exponent)
        return min(max(midpoint, self.min), self.max)

    def to_dict(self) -> dict:
        """Snapshot representation: count/mean/min/max plus quantiles."""
        if not self.count:
            return {"count": 0}
        summary = {"count": self.count, "mean": self.mean,
                   "min": self.min, "max": self.max}
        for q in DEFAULT_QUANTILES:
            summary[f"p{q * 100:g}"] = self.quantile(q)
        return summary


class MetricsRegistry:
    """Name-keyed collection of counters, gauges and histograms.

    Instrument constructors are get-or-create: asking twice for the same
    name returns the same instrument, so producers can register lazily
    without coordinating.  Asking for an existing name as a different
    instrument kind is an error — names are the public contract.
    """

    def __init__(self):
        self._instruments: dict[str, object] = {}

    def _get_or_create(self, name: str, cls, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(f"{name!r} already registered as "
                            f"{type(instrument).__name__}")
        return instrument

    def counter(self, name: str,
                source: Optional[Callable[[], float]] = None) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, Counter,
                                   lambda: Counter(name, source))

    def gauge(self, name: str, source: Callable[[], float]) -> Gauge:
        """Get or create the gauge ``name``, which polls ``source``."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name, source))

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(name, Histogram, lambda: Histogram(name))

    def snapshot(self) -> dict:
        """Freeze every instrument into plain values, grouped by kind."""
        counters, gauges, hists = {}, {}, {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                hists[name] = instrument.to_dict()
        return {"counters": counters, "gauges": gauges, "hists": hists}
