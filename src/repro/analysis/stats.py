"""Statistics helpers for the evaluation harness."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def standard_error(values: Sequence[float]) -> float:
    """Standard error of the mean (0 for fewer than two samples)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    variance = sum((v - mu) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(variance / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of empty sequence")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass
class Cdf:
    """Empirical cumulative distribution function."""

    xs: list[float]
    ps: list[float]

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "Cdf":
        ordered = sorted(samples)
        if not ordered:
            raise ValueError("CDF of empty sample set")
        n = len(ordered)
        return cls(xs=ordered, ps=[(i + 1) / n for i in range(n)])

    def quantile(self, p: float) -> float:
        """Smallest x with CDF(x) ≥ p."""
        if not 0.0 < p <= 1.0:
            raise ValueError("quantile probability must be in (0, 1]")
        for x, cumulative in zip(self.xs, self.ps):
            if cumulative >= p:
                return x
        return self.xs[-1]

    def at(self, x: float) -> float:
        """Fraction of samples ≤ x (``xs`` is sorted, so one bisection)."""
        return bisect_right(self.xs, x) / len(self.xs)

    def resample(self, points: int) -> list[tuple[float, float]]:
        """Evenly spaced (x, p) pairs for plotting/printing."""
        if points < 2:
            raise ValueError("need at least two points")
        lo, hi = self.xs[0], self.xs[-1]
        step = (hi - lo) / (points - 1)
        return [(lo + i * step, self.at(lo + i * step)) for i in range(points)]


def throughput(event_times: Sequence[float], window: tuple[float, float]) -> float:
    """Events per second within a (start, end) window (times in ns)."""
    start, end = window
    if end <= start:
        raise ValueError("window must have positive length")
    count = sum(1 for t in event_times if start <= t < end)
    return count / ((end - start) / 1e9)


@dataclass
class LatencySummary:
    """Latency statistics for a batch of requests (values in ns)."""

    count: int
    mean: float
    p5: float
    p50: float
    p95: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencySummary":
        return cls(
            count=len(samples),
            mean=mean(samples),
            p5=percentile(samples, 5),
            p50=percentile(samples, 50),
            p95=percentile(samples, 95),
        )
