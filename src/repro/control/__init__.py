"""Control plane: routing, signalling and circuit liveness.

The QNP needs its control messages delivered reliably and in order, and
the paper leaves that to a transport such as TCP or QUIC (Sec 4.1).  Here
the :class:`~repro.netsim.channels.ClassicalChannel` is reliable and
ordered by construction, so the control plane has no transport of its own.
"""

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

__all__ = [
    "LivenessAgent",
    "CentralController",
    "RouteComputation",
    "RouteError",
    "CutoffPolicy",
    "LOSS_CUTOFF_FRACTION",
    "SHORT_CUTOFF_QUANTILE",
    "SignallingAgent",
]
