"""Base class for simulation entities.

An entity is any protocol machine or hardware model that lives inside the
simulation: it holds a reference to the :class:`~repro.netsim.scheduler.Simulator`
and schedules through it (``self.sim.schedule``).
"""

from __future__ import annotations

from .scheduler import Simulator


class Entity:
    """A named participant in the simulation."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name or self.__class__.__name__

    @property
    def now(self) -> float:
        """Current simulated time (ns)."""
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.__class__.__name__} {self.name!r}>"
