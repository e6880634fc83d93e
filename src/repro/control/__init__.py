"""Control plane: routing, signalling, reliable transport."""

from .routing import (
    CentralController,
    CutoffPolicy,
    LOSS_CUTOFF_FRACTION,
    RouteComputation,
    RouteError,
    SHORT_CUTOFF_QUANTILE,
)
from .liveness import LivenessAgent
from .signalling import SignallingAgent
from .transport import ReliableEnd, make_reliable_pair

__all__ = [
    "LivenessAgent",
    "CentralController",
    "RouteComputation",
    "RouteError",
    "CutoffPolicy",
    "LOSS_CUTOFF_FRACTION",
    "SHORT_CUTOFF_QUANTILE",
    "SignallingAgent",
    "ReliableEnd",
    "make_reliable_pair",
]
