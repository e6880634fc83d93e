"""Pair-to-request demultiplexing at the end-nodes (Sec 4.1, Appendix C.3).

Aggregation means the circuit carries pairs for many requests without
tagging them, so the end-nodes must agree on which request each pair
belongs to.  We implement the *symmetric* strategy as a distributed FIFO
queue (one of the schemes the paper suggests): both ends always assign the
next pair to the oldest unfinished request of the active epoch.

FIFO is the only strictly-local symmetric rule that stays consistent: the
two ends see *different* pair streams (their own links'), so any
index-based rotation drifts apart permanently, whereas "everything goes to
the front request" agrees except in short windows around request
completion and cutoff discards — which the cross-check on TRACK messages
cleans up, as Appendix C prescribes.  It also produces the linear
latency-vs-request-count scaling reported in Fig 8.
"""

from __future__ import annotations

from typing import Optional

from .epochs import EpochManager


class SymmetricDemultiplexer:
    """Distributed-FIFO assignment over the active epoch."""

    def __init__(self, epochs: EpochManager):
        self._epochs = epochs
        #: Requests that finished (or aborted) and must be skipped.
        self._finished: set[str] = set()
        self.cross_check_failures = 0

    def mark_finished(self, request_id: str) -> None:
        """Stop assigning pairs to a request (count reached / aborted)."""
        self._finished.add(request_id)

    def is_finished(self, request_id: str) -> bool:
        """Whether the request gets no more pairs here."""
        return request_id in self._finished

    def eligible_requests(self) -> list[str]:
        """Unfinished requests of the active epoch, in arrival order."""
        return [request_id for request_id in self._epochs.active_requests()
                if request_id not in self._finished]

    def next_request(self) -> Optional[str]:
        """Assign the next generated pair to a request (Alg 1 / Alg 4):
        the oldest unfinished request gets every pair until it completes."""
        finished = self._finished
        for request_id in self._epochs.active_requests():
            if request_id not in finished:
                return request_id
        return None

    def cross_check(self, local_request_id: Optional[str],
                    track_request_id: str) -> bool:
        """Verify both ends assigned the pair to the same request.

        Returns True when consistent.  A failure means a window condition
        (e.g. a mid-chain discard re-paired the qubits differently); the
        caller discards the pair (Alg 2 / Alg 5).
        """
        if local_request_id == track_request_id:
            return True
        self.cross_check_failures += 1
        return False
