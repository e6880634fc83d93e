"""Link layer: the entanglement generation service of ref [19]."""

from .egp import DELIVERY, Link
from .scheduler import FairShareScheduler
from .service import EntanglementId, LinkPairDelivery, LinkRequestState

__all__ = [
    "Link",
    "DELIVERY",
    "FairShareScheduler",
    "LinkPairDelivery",
    "LinkRequestState",
    "EntanglementId",
]
