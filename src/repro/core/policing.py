"""Policing and shaping of incoming requests (Sec 3.4 / 4.1).

When circuits are used with resource reservation they carry a maximum
end-to-end rate (EER).  The head-end node:

* computes each request's **minimum EER** (``UserRequest.minimum_eer``),
* **polices**: rejects requests whose minimum EER can never fit,
* **shapes**: queues requests that fit later, starting them as active
  requests complete and bandwidth frees up.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .requests import UserRequest


class PolicerDecision:
    """The three admission outcomes of Sec 4.1's policing and shaping."""

    ACCEPT = "accept"
    QUEUE = "queue"
    REJECT = "reject"


class Policer:
    """EER accounting for one circuit's head-end."""

    def __init__(self, max_eer: float):
        if max_eer <= 0:
            raise ValueError("max EER must be positive")
        self.max_eer = max_eer
        self._active: dict[str, float] = {}
        self._queue: deque[UserRequest] = deque()

    @property
    def allocated_eer(self) -> float:
        """EER currently reserved by active requests (pairs/s)."""
        return sum(self._active.values())

    @property
    def available_eer(self) -> float:
        """EER still available for new requests (pairs/s)."""
        return self.max_eer - self.allocated_eer

    @property
    def queued(self) -> int:
        """Number of requests currently shaped (waiting for bandwidth)."""
        return len(self._queue)

    def admit(self, request: UserRequest) -> str:
        """Decide a new request's fate: ACCEPT, QUEUE or REJECT."""
        needed = request.minimum_eer()
        if needed > self.max_eer:
            # Even an empty circuit cannot satisfy it: police.
            return PolicerDecision.REJECT
        if needed <= self.available_eer and not self._queue:
            self._activate(request)
            return PolicerDecision.ACCEPT
        # Fits eventually: shape.  Queued requests start in FIFO order once
        # the head's EER fits (``next_startable``); a request's deadline is
        # not checked while it waits.
        self._queue.append(request)
        return PolicerDecision.QUEUE

    def release(self, request_id: str) -> None:
        """A request finished: return its EER share."""
        self._active.pop(request_id, None)

    def next_startable(self) -> Optional[UserRequest]:
        """Pop the next queued request that now fits, if any."""
        if not self._queue:
            return None
        head = self._queue[0]
        if head.minimum_eer() <= self.available_eer:
            self._queue.popleft()
            self._activate(head)
            return head
        return None

    def drop_queued(self, request_id: str) -> bool:
        """Remove a queued request (cancelled or aborted while shaped)."""
        for request in list(self._queue):
            if request.request_id == request_id:
                self._queue.remove(request)
                return True
        return False

    def abort(self, request_id: str) -> None:
        """Account for an admitted request killed by circuit teardown:
        free its EER share (or queue slot)."""
        if request_id in self._active:
            self._active.pop(request_id)
        else:
            self.drop_queued(request_id)

    def _activate(self, request: UserRequest) -> None:
        self._active[request.request_id] = request.minimum_eer()
