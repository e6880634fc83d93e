"""Network assembly: nodes, memory management, device arbitration, topologies."""

from .arbiter import DeviceArbiter, acquire_ordered, release_all
from .node import QuantumNode
from .qmm import QuantumMemoryManager, Slot, SlotPool

__all__ = [
    "QuantumNode",
    "QuantumMemoryManager",
    "Slot",
    "SlotPool",
    "DeviceArbiter",
    "acquire_ordered",
    "release_all",
]
