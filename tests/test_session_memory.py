"""What a traffic session costs in memory, and the lazy arrival merge.

The soak scenario (96 single-hop bell circuits on a 4x4 grid, load 0.9)
overloads its circuits, so shaped sessions pile up at the head-ends and
the traced peak grows with the run.  Each session should cost only what
it holds: slotted records, no listener object per session, and one
pending arrival per run instead of the whole schedule.

* **bytes per session** — the traced peak of a 0.3 s soak minus that of a
  0.1 s soak, over the sessions the longer run adds, stays under
  :data:`BYTES_PER_SESSION_BOUND`;
* **resume oracle** — a soak checkpoint taken mid-horizon, with sessions
  queued and a lazy arrival pending, resumes to the uninterrupted report;
* **lazy merge** — :class:`~repro.traffic.arrivals.SessionArrivals`
  yields exactly what sorting every circuit's stream and cutting at
  ``max_sessions`` yields.
"""

import gc
import pickle
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.requests import RequestStatus
from repro.persist import load_checkpoint
from repro.traffic import build_topology
from repro.traffic.arrivals import (
    DEFAULT_CLASSES,
    SessionArrivals,
    SessionSpec,
    pick_class,
    poisson_schedule,
    sample_exponential,
    sample_geometric,
    stream_seed,
)
from repro.traffic.workload import TrafficEngine
from test_finished_requests import _grid_edges

#: Traced bytes each session may add to the soak's peak (measured 987 on
#: CPython 3.11; the same measurement reads 1,998 without slotted session
#: records and with a listener partial per session).
BYTES_PER_SESSION_BOUND = 1200


def _soak_engine(**kwargs):
    net = build_topology("grid", 4, seed=7, formalism="bell")
    return TrafficEngine(net, circuits=96, load=0.9, seed=7,
                         endpoint_pairs=_grid_edges(4), max_sessions=40000,
                         **kwargs)


def _traced_peak(horizon_s):
    """(sessions, traced peak bytes) of one soak run to ``horizon_s``."""
    engine = _soak_engine()
    gc.collect()
    tracemalloc.start()
    try:
        engine.run(horizon_s=horizon_s, drain_s=0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(engine.records), peak


def test_soak_bytes_per_session_within_bound():
    _soak_engine().run(horizon_s=0.1, drain_s=0.2)  # warm process memos
    short_sessions, short_peak = _traced_peak(0.1)
    long_sessions, long_peak = _traced_peak(0.3)
    assert long_sessions > 2.5 * short_sessions
    per_session = (long_peak - short_peak) / (long_sessions - short_sessions)
    assert per_session <= BYTES_PER_SESSION_BOUND, (
        f"{per_session:.0f} traced bytes per session > "
        f"{BYTES_PER_SESSION_BOUND} ({short_sessions} -> {long_sessions} "
        f"sessions, {short_peak / 1e6:.2f} -> {long_peak / 1e6:.2f} MB)")


def test_soak_resumes_mid_horizon_with_queued_sessions(tmp_path):
    live = tmp_path / "soak.ckpt"
    captured = []

    def capture(engine, now_ns):
        copy = tmp_path / f"soak-{len(captured)}.ckpt"
        copy.write_bytes(live.read_bytes())
        captured.append(copy)

    engine = _soak_engine(checkpoint_out=str(live),
                          checkpoint_interval_s=0.1)
    engine.on_checkpoint = capture
    report = engine.run(horizon_s=0.15, drain_s=0.1)
    path = captured[0]
    envelope = pickle.loads(Path(path).read_bytes())
    paused = pickle.loads(envelope["engine_blob"])
    assert paused._phase == "horizon"
    assert any(record.handle.status is RequestStatus.QUEUED
               for record in paused.records)
    # The next arrival is one pending event fed by the pickled merge.
    assert paused._arrivals is not None
    pending = [handle for _, _, handle in paused.net.sim._queue
               if not handle.cancelled and handle.callback is not None
               and getattr(handle.callback, "__name__", "") == "_arrive"]
    assert len(pending) == 1
    resumed = load_checkpoint(path, checkpoint_out=str(tmp_path / "r.ckpt"))
    final = resumed.resume_run()
    assert final.render() == report.render()
    assert final.obs == report.obs
    assert final.mean_fidelity == report.mean_fidelity


def _sorted_and_cut(num_circuits, horizon_ns, means, seed, max_sessions):
    """The eager schedule: every stream drawn in full, sorted, then cut."""
    sessions = []
    for index, mean in enumerate(means):
        rng = random.Random(stream_seed(seed, index))
        t = sample_exponential(rng, mean)
        while t < horizon_ns:
            cls = pick_class(rng, DEFAULT_CLASSES)
            sessions.append(SessionSpec(
                circuit_index=index, arrival_ns=t, priority=cls,
                num_pairs=sample_geometric(rng, cls.mean_pairs)))
            t += sample_exponential(rng, mean)
    sessions.sort(key=lambda spec: (spec.arrival_ns, spec.circuit_index))
    return sessions if max_sessions is None else sessions[:max_sessions]


@settings(max_examples=60, deadline=None)
@given(num_circuits=st.integers(1, 12),
       horizon_ns=st.floats(1e3, 5e7),
       means=st.lists(st.floats(1e5, 1e7), min_size=12, max_size=12),
       seed=st.integers(0, 10_000),
       max_sessions=st.none() | st.integers(0, 300))
def test_lazy_merge_equals_sort_and_cut(num_circuits, horizon_ns, means,
                                        seed, max_sessions):
    means = means[:num_circuits]
    want = _sorted_and_cut(num_circuits, horizon_ns, means, seed,
                           max_sessions)
    got = list(SessionArrivals(num_circuits, horizon_ns, means, seed=seed,
                               max_sessions=max_sessions))
    assert got == want
    assert poisson_schedule(num_circuits, horizon_ns, means, seed=seed,
                            max_sessions=max_sessions) == want


def test_negative_session_cap_rejected():
    with pytest.raises(ValueError, match="max_sessions"):
        SessionArrivals(2, 1e9, 1e6, max_sessions=-1)


def test_lazy_merge_pickles_mid_stream():
    means = [1e6, 2e6, 3e6, 4e6]
    full = poisson_schedule(4, 5e7, means, seed=3, max_sessions=80)
    arrivals = SessionArrivals(4, 5e7, means, seed=3, max_sessions=80)
    head = [next(arrivals) for _ in range(30)]
    clone = pickle.loads(pickle.dumps(arrivals))
    assert head + list(clone) == full
    assert head + list(arrivals) == full
