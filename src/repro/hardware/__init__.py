"""NV-centre hardware and fibre models (Appendix B / Tables 1–2)."""

from .fibre import FibreSegment, HeraldedConnection
from .heralded import (
    MAX_ALPHA,
    MIN_ALPHA,
    MidpointHeraldModel,
    SingleClickModel,
)
from .memory import apply_memory_noise, stamp
from .nv import NVDevice
from .parameters import GateParams, HardwareParams, NEAR_TERM, SIMULATION

__all__ = [
    "GateParams",
    "HardwareParams",
    "SIMULATION",
    "NEAR_TERM",
    "FibreSegment",
    "HeraldedConnection",
    "SingleClickModel",
    "MidpointHeraldModel",
    "MIN_ALPHA",
    "MAX_ALPHA",
    "NVDevice",
    "apply_memory_noise",
    "stamp",
]
