"""Durable checkpoint/resume for long-horizon simulation runs.

The persistence layer (:mod:`repro.persist.checkpoint`) turns a running
:class:`~repro.traffic.workload.TrafficEngine` — scheduler event heap,
per-link EGP RNG block buffers, live Bell pairs with their weights,
QNP/circuit/policer/arbiter state, traffic sessions and
the metrics registry — into one versioned, atomically written file, and
back.  See :func:`save_checkpoint` / :func:`load_checkpoint` and the
"Checkpointing & long-horizon soak" section of DESIGN.md.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
]
