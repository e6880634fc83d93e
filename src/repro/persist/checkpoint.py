"""Versioned, atomic engine checkpoints (the durability layer).

A checkpoint is a single pickle file with two layers:

* an **outer envelope** — magic string and format version, cheap plain
  data validated *before* any simulation state is deserialised;
* the **engine blob** — the pickled :class:`~repro.traffic.workload.
  TrafficEngine`, which transitively carries the whole simulation: the
  network (scheduler heap and its request/circuit ID streams, links with
  their numpy RNG block buffers, live Bell pairs with their weights,
  QNP/circuit/policer/arbiter state), the traffic sessions, the metrics
  registry and the snapshot emitter.  No simulation state lives outside
  the engine, so a resume may share its process with other simulations.

Writes are crash-safe: the payload is flushed and fsynced to a ``.tmp``
sibling, then moved into place with :func:`os.replace` — a reader never
observes a torn file, and a run killed mid-write resumes from the
previous complete checkpoint.

What is **not** captured: open file handles (the snapshot emitter
re-opens and truncates its JSONL on :meth:`~repro.obs.snapshots.
SnapshotEmitter.reattach`) and wall-clock context (``t_wall_s`` /
``max_rss_kb`` restart from the resuming process).

**Trust boundary.**  Both layers are pickles, and the outer envelope is
itself unpickled before its magic and version are checked.  Unpickling
can run arbitrary code, so only load checkpoint files you wrote
yourself; the envelope checks catch accidents, not attacks.
"""

from __future__ import annotations

import os
import pickle
from typing import Optional

#: Format version; bump on any layout change.  Loading rejects other
#: versions before deserialising any simulation state.
CHECKPOINT_VERSION = 14

_MAGIC = "repro-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, foreign, or version-mismatched."""


def save_checkpoint(engine, path) -> str:
    """Write one durable checkpoint of a running traffic engine.

    Returns the path written.  The write is atomic (tmp + fsync +
    rename): either the previous checkpoint or the new one exists at
    ``path``, never a torn hybrid.
    """
    envelope = {
        "magic": _MAGIC,
        "version": CHECKPOINT_VERSION,
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
    blob and re-opens the snapshot stream (truncated back to the frames
    the checkpoint vouches for).  Only load files you trust (see the
    module docstring).  The returned engine continues with
    :meth:`~repro.traffic.workload.TrafficEngine.resume_run`.

    ``metrics_out`` / ``checkpoint_out`` redirect the resumed run's
    snapshot JSONL and subsequent checkpoint writes (e.g. so a resumed
    test run does not clobber the original artifacts).
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
