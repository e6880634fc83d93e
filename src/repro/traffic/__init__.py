"""Traffic engine: topology catalogue + concurrent-workload subsystem.

This package turns the single-circuit reproduction into a traffic
testbed: seeded topology families (:mod:`~repro.traffic.topologies`),
stochastic multi-class session workloads (:mod:`~repro.traffic.arrivals`,
:mod:`~repro.traffic.workload`), deterministic link-failure injection
with circuit recovery (:mod:`~repro.traffic.faults`) and structured
telemetry (:mod:`~repro.traffic.metrics`).  Entry points::

    from repro.traffic import build_topology, TrafficEngine

    net = build_topology("grid", 4, seed=1, formalism="bell")
    report = TrafficEngine(net, circuits=8, load=0.7).run(horizon_s=5.0)
    print(report.render())

or, from the command line, ``python -m repro traffic --topology grid
--size 4 --circuits 8 --load 0.7``.
"""

from .arrivals import (
    DEFAULT_CLASSES,
    PriorityClass,
    SessionSpec,
    poisson_schedule,
)
from .faults import FaultEvent, fault_schedule
from .metrics import RecoveryStats, TrafficReport, build_report
from .topologies import TOPOLOGIES, build_topology, topology_graph
from .workload import SessionRecord, TrafficCircuit, TrafficEngine

__all__ = [
    "DEFAULT_CLASSES",
    "FaultEvent",
    "PriorityClass",
    "RecoveryStats",
    "SessionSpec",
    "SessionRecord",
    "TOPOLOGIES",
    "TrafficCircuit",
    "TrafficEngine",
    "TrafficReport",
    "build_report",
    "build_topology",
    "fault_schedule",
    "poisson_schedule",
    "topology_graph",
]
