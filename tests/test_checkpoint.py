"""Checkpoint/resume durability suite (repro.persist).

Four pillars:

* **golden resume-equivalence** — run a workload to completion while
  capturing every durable checkpoint it writes, then resume each capture
  and demand the rendered report *and* the final metrics frame come out
  byte-identical to the uninterrupted run, across formalisms,
  topologies, fault injection and apps;
* **crash injection** — SIGKILL a real CLI subprocess mid-run, resume
  from the last durable checkpoint, and check no confirmed pair was
  duplicated or lost, the snapshot counter stream stayed monotone, and
  the final histograms and rendered report equal the uninterrupted run's;
* **round-trip properties** — the stateful primitives a checkpoint
  carries (per-link numpy RNG block buffers, the scheduler heap, Bell
  pair states) continue identically after a pickle round trip;
* **envelope validation** — foreign, corrupt and version-mismatched
  files are rejected before any simulation state is deserialised.
"""

import json
import os
import pickle
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from repro.core.qnp import QNPNode
from repro.netsim import MS, Simulator
from repro.persist import (
    CHECKPOINT_VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.traffic import build_topology
from repro.traffic.workload import TrafficEngine

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_with_checkpoints(tmp_path, tag, *, formalism="bell",
                          topology="grid", size=3, circuits=3, load=0.5,
                          horizon=0.8, drain=0.4, interval=0.25,
                          fail_links=0, apps=None, capture=True,
                          processing_delay=0.0):
    """Run a workload to completion, capturing each checkpoint written.

    Returns ``(engine, report, captured)`` where ``captured`` is a list
    of ``(sim_now_ns, path)`` copies of the checkpoint file taken right
    after each durable write (the live file is overwritten in place, so
    the copies are what lets the test resume from *intermediate* times).
    """
    net = build_topology(topology, size, seed=7, formalism=formalism)
    for channel in net.channels:
        channel.processing_delay = processing_delay
    live = tmp_path / f"{tag}.ckpt"
    engine = TrafficEngine(
        net, circuits=circuits, load=load, seed=7, fail_links=fail_links,
        apps=apps, checkpoint_out=str(live), checkpoint_interval_s=interval)
    captured = []
    if capture:
        def snap(eng, now_ns):
            copy = tmp_path / f"{tag}-{len(captured)}.ckpt"
            copy.write_bytes(live.read_bytes())
            captured.append((now_ns, str(copy)))
        engine.on_checkpoint = snap
    report = engine.run(horizon_s=horizon, drain_s=drain)
    return engine, report, captured


# ----------------------------------------------------------------------
# Golden resume-equivalence
# ----------------------------------------------------------------------

#: Scenario grid: formalisms x topologies, plus faults and apps riding
#: on the bell/grid base.  Intervals are chosen so at
#: least one capture lands in the horizon phase and one in the drain.
GOLDEN = {
    "bell-grid": {},
    "dm-grid": {"formalism": "dm", "horizon": 0.5, "drain": 0.25,
                "interval": 0.2},
    "bell-random": {"topology": "erdos-renyi", "size": 8, "circuits": 2},
    "bell-grid-faults-apps": {"fail_links": 1, "apps": ["qkd"]},
}


class TestResumeEquivalence:
    @pytest.mark.parametrize("scenario", sorted(GOLDEN))
    def test_resume_matches_uninterrupted(self, tmp_path, scenario):
        engine, report, captured = _run_with_checkpoints(
            tmp_path, scenario, **GOLDEN[scenario])
        want_render = report.render()
        want_obs = report.obs
        assert len(captured) >= 2, "scenario too short to checkpoint twice"
        for index, (t_ns, path) in enumerate(captured):
            resumed_engine = load_checkpoint(
                path, checkpoint_out=str(tmp_path / f"{scenario}-r{index}.ckpt"))
            assert resumed_engine.net.sim.now == t_ns
            resumed = resumed_engine.resume_run()
            assert resumed.render() == want_render, (
                f"resume from checkpoint {index} (t={t_ns / 1e9:.2f} s) "
                f"diverged from the uninterrupted run")
            assert resumed.obs == want_obs

    def test_resume_with_qnp_messages_in_flight(self, tmp_path):
        # A QNP message in flight is a pending event that calls the
        # receiving agent through the channel end bound at install; it
        # must survive the round trip and be delivered after resume.  A
        # 2 ms processing delay (Fig 10c's knob) keeps messages in flight
        # long enough for the checkpoints to catch some.
        engine, report, captured = _run_with_checkpoints(
            tmp_path, "inflight", processing_delay=2 * MS)
        resumed_any = False
        for index, (_, path) in enumerate(captured):
            envelope = pickle.loads(Path(path).read_bytes())
            sim = pickle.loads(envelope["engine_blob"]).net.sim
            in_flight = [handle for _, _, handle in sim._queue
                         if isinstance(handle.callback, partial)
                         and isinstance(handle.callback.func.__self__, QNPNode)]
            if not in_flight:
                continue
            resumed = load_checkpoint(
                path, checkpoint_out=str(tmp_path / f"inflight-r{index}.ckpt"))
            assert resumed.resume_run().render() == report.render()
            resumed_any = True
        assert resumed_any, "no checkpoint caught a QNP message in flight"

    def test_checkpoints_span_both_phases(self, tmp_path):
        # Mid-horizon *and* mid-drain resume points must both be
        # exercised, or resume-equivalence silently weakens.  An
        # overloaded run keeps sessions in flight through the drain
        # window, so the periodic checkpoints land in both phases.
        engine, report, captured = _run_with_checkpoints(
            tmp_path, "phases", load=1.5, horizon=0.4, drain=0.4,
            interval=0.15)
        phases = set()
        for _, path in captured:
            envelope = pickle.loads(Path(path).read_bytes())
            phases.add(pickle.loads(envelope["engine_blob"])._phase)
        assert phases >= {"horizon", "drain"}
        want = report.render()
        for index, (_, path) in enumerate(captured):
            resumed = load_checkpoint(
                path, checkpoint_out=str(tmp_path / f"ph-r{index}.ckpt"))
            assert resumed.resume_run().render() == want

    def test_resume_requires_a_run(self, tmp_path):
        net = build_topology("ring", 4, seed=5, formalism="bell")
        engine = TrafficEngine(net, circuits=2, load=0.5, seed=5)
        with pytest.raises(RuntimeError, match="never ran"):
            engine.resume_run()
        engine.run(horizon_s=0.1, drain_s=0.05)
        with pytest.raises(RuntimeError, match="already finished"):
            engine.resume_run()


# ----------------------------------------------------------------------
# Crash injection: SIGKILL a CLI soak, resume from the durable file
# ----------------------------------------------------------------------

def _report(stdout: str) -> str:
    """The rendered report in ``traffic`` CLI output: from the first blank
    line to the metrics-file notice."""
    return stdout.split("\n\n", 1)[1].split("\n\nmetrics snapshots")[0]


class TestCrashInjection:
    CLI = ["-m", "repro", "traffic", "--topology", "grid", "--size", "3",
           "--circuits", "3", "--load", "0.5", "--formalism", "bell",
           "--horizon", "1.0", "--seed", "7",
           "--checkpoint-interval", "0.15", "--snapshot-interval", "0.1"]

    def _env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        return env

    def test_sigkill_then_resume_loses_nothing(self, tmp_path):
        env = self._env()
        # Reference: the same soak, uninterrupted (checkpointing stays
        # on so both runs schedule the identical event stream).
        ref_metrics = tmp_path / "ref.jsonl"
        ref = subprocess.run(
            [sys.executable, *self.CLI,
             "--checkpoint-out", str(tmp_path / "ref.ckpt"),
             "--metrics-out", str(ref_metrics)],
            check=True, env=env, cwd=tmp_path, capture_output=True, text=True)
        # Victim: kill -9 as soon as the first durable checkpoint lands.
        ckpt = tmp_path / "run.ckpt"
        metrics = tmp_path / "run.jsonl"
        victim = subprocess.Popen(
            [sys.executable, *self.CLI, "--checkpoint-out", str(ckpt),
             "--metrics-out", str(metrics)],
            env=env, cwd=tmp_path, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 120
            while not ckpt.exists():
                if victim.poll() is not None:
                    pytest.fail("victim exited before its first checkpoint")
                if time.monotonic() > deadline:
                    pytest.fail("victim never wrote a checkpoint")
                time.sleep(0.02)
            victim.kill()  # SIGKILL: no atexit, no flush, no goodbye
        finally:
            victim.wait()
        # Resume from the last durable checkpoint and finish the soak.
        done = subprocess.run(
            [sys.executable, "-m", "repro", "traffic", "--resume", str(ckpt)],
            check=True, env=env, cwd=tmp_path, capture_output=True, text=True)
        assert "resuming from" in done.stdout
        ref_frames = [json.loads(line) for line in
                      ref_metrics.read_text().splitlines()]
        frames = [json.loads(line) for line in
                  metrics.read_text().splitlines()]
        # No confirmed pair duplicated or lost: the resumed stream's
        # final cumulative counters equal the uninterrupted run's.
        assert (frames[-1]["counters"]["traffic.pairs_confirmed"]
                == ref_frames[-1]["counters"]["traffic.pairs_confirmed"])
        assert frames[-1]["counters"] == ref_frames[-1]["counters"]
        # The histograms crossed the checkpoint pickled: the resumed run's
        # distributions end exactly where the uninterrupted run's end.
        assert frames[-1]["hists"] == ref_frames[-1]["hists"]
        # So does the rendered report, whole-run throughput included.
        assert _report(done.stdout) == _report(ref.stdout)
        assert "throughput" in _report(ref.stdout)
        # The reattached emitter truncated any post-checkpoint frames,
        # so every counter series stays monotone across the splice.
        for earlier, later in zip(frames, frames[1:]):
            for name, value in earlier["counters"].items():
                assert later["counters"][name] >= value, (
                    f"{name} went backwards across the crash splice")
        # Sequence numbers splice without a gap or duplicate.
        assert [frame["seq"] for frame in frames] == list(range(len(frames)))


# ----------------------------------------------------------------------
# Round-trip properties of the pickled primitives
# ----------------------------------------------------------------------

class _Recorder:
    """Module-level (picklable) callback that logs events it fires."""

    def __init__(self):
        self.events = []

    def __call__(self, tag):
        self.events.append(tag)


class TestRoundTripProperties:
    def test_egp_rng_streams_continue_identically(self):
        # Warm each per-link block buffer mid-block, round-trip the whole
        # network, and demand the continued uniform streams agree draw
        # for draw (same bit stream, not merely close).
        net = build_topology("grid", 3, seed=11, formalism="bell")
        links = [net.links[name] for name in sorted(net.links)]
        for link in links:
            for _ in range(37):
                link._next_u()
        clone = pickle.loads(pickle.dumps(net))
        clone_links = [clone.links[name] for name in sorted(clone.links)]
        for link, twin in zip(links, clone_links):
            draws = [link._next_u() for _ in range(500)]
            twin_draws = [twin._next_u() for _ in range(500)]
            assert draws == twin_draws
            assert all(abs(a - b) <= 1e-12
                       for a, b in zip(draws, twin_draws))

    def test_scheduler_heap_round_trip(self):
        sim = Simulator(seed=3)
        recorder = _Recorder()
        handles = [sim.schedule_at(t, recorder, tag)
                   for tag, t in enumerate([5.0, 1.0, 3.0, 3.0, 8.0, 2.0])]
        handles[2].cancel()  # a dead entry must not resurrect on restore
        clone = pickle.loads(pickle.dumps(sim))
        twin = next(handle.callback for _, _, handle in clone._queue
                    if not handle.cancelled and handle.callback is not None)
        sim.run()
        clone.run()
        assert recorder.events == twin.events == [1, 5, 3, 0, 4]
        # The event-sequence stream continues from the same position, so
        # post-restore scheduling keeps the FIFO tie-break order.
        assert next(sim._seq) == next(clone._seq)
        assert clone.pending_events() == 0

    def test_scheduler_pool_survives_round_trip(self):
        sim = Simulator(seed=1)
        recorder = _Recorder()
        for tag in range(10):
            sim.post_at(float(tag), recorder, tag)
        sim.run()
        clone = pickle.loads(pickle.dumps(sim))
        assert len(clone._pool) == len(sim._pool) > 0
        # A restored pool serves post_at() exactly like the original:
        # the pool-hit telemetry stays deterministic across resume.
        sim.post_at(sim.now + 1.0, recorder, 99)
        clone_recorder = _Recorder()
        clone.post_at(clone.now + 1.0, clone_recorder, 99)
        assert clone.pool_hits == sim.pool_hits

    def test_bell_pair_round_trip(self):
        from repro.quantum.bellstate import create_bell_diagonal_pair

        qubit_a, qubit_b = create_bell_diagonal_pair(
            [0.85, 0.07, 0.05, 0.03], "a", "b")
        qubit_a.state.apply_dephasing(0.1, qubit_a)
        clone_a, clone_b = pickle.loads(pickle.dumps((qubit_a, qubit_b)))
        state, twin = qubit_a.state, clone_a.state
        assert twin is clone_b.state and twin.qubits == [clone_a, clone_b]
        np.testing.assert_array_equal(twin.weights, state.weights)
        # The clone evolves on its own array, bit for bit like the original.
        state.apply_depolarizing(0.02, qubit_b)
        twin.apply_depolarizing(0.02, clone_b)
        np.testing.assert_array_equal(twin.weights, state.weights)


# ----------------------------------------------------------------------
# Envelope validation
# ----------------------------------------------------------------------

def _tiny_engine():
    net = build_topology("ring", 4, seed=5, formalism="bell")
    return TrafficEngine(net, circuits=2, load=0.5, seed=5)


class TestEnvelope:
    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "a.ckpt"
        written = save_checkpoint(_tiny_engine(), path)
        assert written == str(path)
        assert path.exists()
        assert not path.with_suffix(".ckpt.tmp").exists()
        assert list(tmp_path.iterdir()) == [path]

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "v.ckpt"
        save_checkpoint(_tiny_engine(), path)
        envelope = pickle.loads(path.read_bytes())
        envelope["version"] = CHECKPOINT_VERSION + 1
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(CheckpointError, match="version mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                         13])
    def test_old_version_envelope_rejected(self, tmp_path, version):
        # Older layouts: versions 1-3 carried the process-global ID
        # counters in the envelope (1 also the Bell weight store's peak
        # occupancy), 2 pickled P² quantile estimators, 4 pickled the
        # session-retirement state, 5 pickled midpoint stations and
        # per-submission delivery lists, 6 pickled a traced network's
        # flat event log beside its spans, 7 pickled a heap of bare
        # handles and wrapped the cutoff and keepalive handles in timer
        # objects, 8 pickled every handle's delivery and matched-pair
        # lists and kept finished requests' records, 9 pickled
        # neither the kernel's run bound nor a handle's drain waiter,
        # 10 pickled the topology as a networkx graph, and 11 pickled a
        # routing entry without its role, a channel without its cached
        # fibre delay and a memory manager's broadcast listener list, and
        # 12 pickled node service ports and a message in flight as a
        # channel-side delivery in place of a bound channel end, and 13
        # pickled the whole arrival schedule as queued events, per-session
        # listener partials and handles and records with a ``__dict__``.
        # The engine blob is not a pickle, so deserialising it would
        # fail with "corrupt engine state": the version check must come
        # first.
        envelope = {"magic": "repro-checkpoint", "version": version,
                    "engine_blob": f"version-{version} engine".encode()}
        if version < 4:
            envelope["counters"] = {"request_ids": 0, "circuit_ids": 0,
                                    "qubit_ids": 0}
        if version == 1:
            envelope["store_peak_live"] = 15
        path = tmp_path / f"v{version}.ckpt"
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(CheckpointError) as excinfo:
            load_checkpoint(path)
        message = str(excinfo.value)
        assert f"file has {version}" in message
        assert f"reads {CHECKPOINT_VERSION}" in message

    def test_envelope_carries_no_counters(self, tmp_path):
        # ID streams live in the pickled simulator, not beside it.
        path = tmp_path / "e.ckpt"
        save_checkpoint(_tiny_engine(), path)
        assert set(pickle.loads(path.read_bytes())) == {
            "magic", "version", "engine_blob"}

    def test_foreign_pickle_rejected(self, tmp_path):
        path = tmp_path / "foreign.ckpt"
        path.write_bytes(pickle.dumps({"magic": "someone-else"}))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(b"definitely not a pickle")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_corrupt_engine_blob_rejected(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        save_checkpoint(_tiny_engine(), path)
        envelope = pickle.loads(path.read_bytes())
        envelope["engine_blob"] = envelope["engine_blob"][:64]
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(CheckpointError, match="corrupt engine state"):
            load_checkpoint(path)

    def test_missing_file_is_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.ckpt")


# ----------------------------------------------------------------------
# Warm-up (steady-state) detection
# ----------------------------------------------------------------------

class TestSteadyDetection:
    def _emitter(self, tmp_path):
        from repro.obs import MetricsRegistry, SnapshotEmitter

        return SnapshotEmitter(Simulator(seed=0), MetricsRegistry(),
                               tmp_path / "s.jsonl")

    def test_stable_rate_flips_steady_after_streak(self, tmp_path):
        emitter = self._emitter(tmp_path)
        for delta in (50, 51, 49, 50):  # within 25% of each predecessor
            emitter._update_steady({"traffic.pairs_confirmed": delta})
        assert emitter._steady

    def test_warmup_ramp_is_not_steady(self, tmp_path):
        emitter = self._emitter(tmp_path)
        for delta in (1, 10, 40, 100):  # each frame >25% over the last
            emitter._update_steady({"traffic.pairs_confirmed": delta})
        assert not emitter._steady

    def test_steady_is_sticky(self, tmp_path):
        emitter = self._emitter(tmp_path)
        for delta in (50, 50, 50, 50, 0, 500):
            emitter._update_steady({"traffic.pairs_confirmed": delta})
        assert emitter._steady

    def test_stream_carries_the_flag(self, tmp_path):
        from repro.obs import read_snapshots

        net = build_topology("grid", 3, seed=7, formalism="bell")
        out = tmp_path / "steady.jsonl"
        engine = TrafficEngine(net, circuits=3, load=0.5, seed=7,
                               metrics_out=str(out),
                               snapshot_interval_s=0.1)
        engine.run(horizon_s=1.0, drain_s=0.3)
        frames = read_snapshots(out)
        assert all("steady" in frame for frame in frames)
        flags = [frame["steady"] for frame in frames]
        assert flags[0] is False  # a run never starts steady
        first_true = flags.index(True) if True in flags else len(flags)
        assert all(flags[first_true:])  # sticky once set
