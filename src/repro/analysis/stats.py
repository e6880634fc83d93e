"""Statistics helpers for the evaluation harness."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence


def mean(values: Sequence[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


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
