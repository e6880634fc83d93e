"""Epoch bookkeeping for request aggregation (Sec 4.1, "Aggregation").

An epoch is a set of concurrently active requests on a circuit.  A new
epoch is *created* whenever a request arrives or completes, and *activates*
at each end-node once the pair carrying its number on a TRACK message is
delivered (head-end activates immediately — it is authoritative).  The
demultiplexer always assigns pairs against the active epoch, which keeps the
two end-nodes' assignments consistent up to windows that the TRACK
cross-check cleans up.
"""

from __future__ import annotations

from typing import Optional


class EpochManager:
    """Tracks epoch membership and activation at one end-node."""

    def __init__(self):
        self._epochs: dict[int, tuple[str, ...]] = {0: ()}
        self._latest = 0
        self._active = 0

    @property
    def latest_epoch(self) -> int:
        return self._latest

    def active_requests(self) -> tuple[str, ...]:
        """Request IDs of the active epoch, in canonical order."""
        return self._epochs[self._active]

    # ------------------------------------------------------------------
    # Head-end side: creates epochs
    # ------------------------------------------------------------------

    def create_epoch(self, request_ids: tuple[str, ...]) -> int:
        """Create the next epoch with the given membership."""
        self._latest += 1
        self._epochs[self._latest] = tuple(request_ids)
        return self._latest

    # ------------------------------------------------------------------
    # Both ends: learn / activate epochs
    # ------------------------------------------------------------------

    def learn_epoch(self, epoch: int, request_ids: tuple[str, ...]) -> None:
        """Record an epoch announced by the head-end (FORWARD/COMPLETE)."""
        self._epochs[epoch] = tuple(request_ids)
        self._latest = max(self._latest, epoch)

    def activate(self, epoch: Optional[int]) -> None:
        """Advance the active epoch (never backwards)."""
        if epoch is None or epoch <= self._active:
            return  # stale TRACK referencing an already-superseded epoch
        if epoch not in self._epochs:
            raise KeyError(f"unknown epoch {epoch}")
        self._active = epoch
        self._prune()

    def _prune(self) -> None:
        """Drop epochs that can no longer activate."""
        for number in [n for n in self._epochs if n < self._active]:
            del self._epochs[number]
