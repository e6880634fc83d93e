"""Versioned, atomic engine checkpoints (the durability layer).

A checkpoint is a single pickle file with two layers:

* an **outer envelope** — magic string, format version and the values of
  the process-global serial counters (request/circuit/qubit IDs) — all
  cheap plain data, validated *before* any simulation state is
  deserialised;
* the **engine blob** — the pickled :class:`~repro.traffic.workload.
  TrafficEngine`, which transitively carries the whole simulation: the
  network (scheduler heap, links with their numpy RNG block buffers,
  live Bell pairs with their weights, QNP/circuit/policer/arbiter state),
  the traffic sessions, the metrics registry and the snapshot emitter.

Writes are crash-safe: the payload is flushed and fsynced to a ``.tmp``
sibling, then moved into place with :func:`os.replace` — a reader never
observes a torn file, and a run killed mid-write resumes from the
previous complete checkpoint.

What is **not** captured: open file handles (the snapshot emitter
re-opens and truncates its JSONL on :meth:`~repro.obs.snapshots.
SnapshotEmitter.reattach`) and wall-clock context (``t_wall_s`` /
``max_rss_kb`` restart from the resuming process).
"""

from __future__ import annotations

import os
import pickle
from typing import Optional

#: Format version; bump on any layout change.  Loading rejects other
#: versions before deserialising any simulation state.
CHECKPOINT_VERSION = 2

_MAGIC = "repro-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, foreign, or version-mismatched."""


def _counter_values() -> dict:
    """Snapshot the process-global serial counters a resume must restore.

    Request, circuit and qubit IDs draw from module-level
    :class:`~repro.netsim.scheduler.SerialCounter` streams that are not
    reachable from the engine's object graph; their positions are part
    of the run's determinism (circuit IDs appear in reports).
    """
    from ..control import signalling
    from ..core import requests
    from ..quantum import qubit

    return {
        "request_ids": requests._request_ids.value,
        "circuit_ids": signalling._circuit_ids.value,
        "qubit_ids": qubit._qubit_ids.value,
    }


def _restore_counters(values: dict) -> None:
    """Reset the global serial counters to their checkpointed positions."""
    from ..control import signalling
    from ..core import requests
    from ..quantum import qubit

    requests._request_ids.value = values["request_ids"]
    signalling._circuit_ids.value = values["circuit_ids"]
    qubit._qubit_ids.value = values["qubit_ids"]


def save_checkpoint(engine, path) -> str:
    """Write one durable checkpoint of a running traffic engine.

    Returns the path written.  The write is atomic (tmp + fsync +
    rename): either the previous checkpoint or the new one exists at
    ``path``, never a torn hybrid.
    """
    envelope = {
        "magic": _MAGIC,
        "version": CHECKPOINT_VERSION,
        "counters": _counter_values(),
        "engine_blob": pickle.dumps(engine,
                                    protocol=pickle.HIGHEST_PROTOCOL),
    }
    path = str(path)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def load_checkpoint(path, *, metrics_out: Optional[str] = None,
                    checkpoint_out: Optional[str] = None):
    """Restore a traffic engine from a checkpoint file.

    Validates the envelope (magic + version) before touching the engine
    blob, restores the global ID counters to their checkpointed
    positions, and re-opens the snapshot stream (truncated back to the
    frames the checkpoint vouches for).  The returned engine continues
    with :meth:`~repro.traffic.workload.TrafficEngine.resume_run`.

    ``metrics_out`` / ``checkpoint_out`` redirect the resumed run's
    snapshot JSONL and subsequent checkpoint writes (e.g. so a resumed
    test run does not clobber the original artifacts).

    Restoring rewinds the *global* counter streams, so do not resume a
    checkpoint in a process with other live simulations.
    """
    try:
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if (not isinstance(envelope, dict)
            or envelope.get("magic") != _MAGIC):
        raise CheckpointError(f"{path} is not a repro checkpoint")
    version = envelope.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version mismatch: file has {version!r}, "
            f"this build reads {CHECKPOINT_VERSION}")
    _restore_counters(envelope["counters"])
    try:
        engine = pickle.loads(envelope["engine_blob"])
    except Exception as exc:
        raise CheckpointError(
            f"corrupt engine state in {path}: {exc}") from exc
    if checkpoint_out is not None:
        engine.checkpoint_out = str(checkpoint_out)
    if engine.emitter is not None:
        if metrics_out is not None:
            engine.metrics_out = str(metrics_out)
        engine.emitter.reattach(path=engine.metrics_out)
    return engine
