"""Weighted fair-share scheduling of link time across virtual circuits.

Implements the paper's link scheduling requirements (Sec 5):

(i)   circuits get an equal share of the link's *time* regardless of
      fidelity (higher-fidelity circuits need more time per pair),
(ii)  when under-subscribed, excess capacity goes proportionally to demand,
(iii) when over-subscribed, capacity is split proportionally to demand.

The mechanism is start-time fair queuing on consumed link time: each
purpose accumulates ``used / weight`` virtual time and the scheduler always
picks the eligible purpose with the smallest value.  Weights are the
requested link-pair rates (LPR), so time shares are proportional to demand.
"""

from __future__ import annotations

from typing import Iterable, Optional


class FairShareScheduler:
    """Start-time fair queuing over link time."""

    def __init__(self):
        self._weights: dict[str, float] = {}
        self._virtual: dict[str, float] = {}

    def add(self, purpose_id: str, weight: float) -> None:
        """Register a purpose.  New arrivals start at the current minimum
        virtual time so they neither starve others nor get starved."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        if purpose_id in self._weights:
            raise ValueError(f"purpose {purpose_id} already registered")
        self._weights[purpose_id] = weight
        baseline = min(self._virtual.values()) if self._virtual else 0.0
        self._virtual[purpose_id] = baseline

    def update_weight(self, purpose_id: str, weight: float) -> None:
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._check(purpose_id)
        self._weights[purpose_id] = weight

    def remove(self, purpose_id: str) -> None:
        self._check(purpose_id)
        del self._weights[purpose_id]
        del self._virtual[purpose_id]

    def pick(self, eligible: Iterable[str]) -> Optional[str]:
        """Pick the eligible purpose with the least virtual time."""
        best: Optional[str] = None
        best_virtual = float("inf")
        virtuals = self._virtual
        for purpose_id in eligible:
            # Direct indexing doubles as the unknown-purpose check
            # (KeyError) without a second dict lookup on the hot path.
            virtual = virtuals[purpose_id]
            if virtual < best_virtual:
                best, best_virtual = purpose_id, virtual
        return best

    def charge(self, purpose_id: str, link_time: float) -> None:
        """Account consumed link time against a purpose."""
        if link_time < 0:
            raise ValueError("link time must be non-negative")
        self._virtual[purpose_id] += link_time / self._weights[purpose_id]

    def _check(self, purpose_id: str) -> None:
        if purpose_id not in self._weights:
            raise KeyError(f"unknown purpose {purpose_id}")
