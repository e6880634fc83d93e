"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Instrumentation, Spans  # noqa: E402


class FakeClock:
    """A clock the test advances by hand (nanoseconds)."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_nested_span_self_time():
    clock = FakeClock()
    spans = Spans(clock)

    def leaf():
        clock.now += 5

    inner = spans.wrap("quantum", leaf)

    def middle():
        clock.now += 2
        inner()
        clock.now += 3
        inner()

    mid = spans.wrap("core", middle)

    def top():
        clock.now += 1
        mid()
        clock.now += 4

    outer = spans.wrap("netsim", top)
    clock.now += 6  # before any span: other
    outer()
    clock.now += 7  # after: other
    totals = spans.freeze(clock.now)

    assert spans.self_ns["quantum"] == 10
    assert spans.self_ns["core"] == 5
    assert spans.self_ns["netsim"] == 5
    assert spans.calls["quantum"] == 2
    assert totals.self_s["other"] == pytest.approx(13e-9)
    assert sum(totals.self_s.values()) == pytest.approx(totals.wall_s)


def test_same_layer_nesting_and_exceptions_close_spans():
    clock = FakeClock()
    spans = Spans(clock)

    def failing():
        clock.now += 3
        raise ValueError("boom")

    inner = spans.wrap("core", failing)

    def caller():
        clock.now += 2
        with pytest.raises(ValueError):
            inner()
        clock.now += 1

    spans.wrap("core", caller)()
    assert spans.self_ns["core"] == 6
    assert spans.covered_ns == 6
    assert spans._open == [6]


def test_inclusive_span_counts_children():
    clock = FakeClock()
    spans = Spans(clock)
    child = spans.wrap("quantum", lambda: setattr(clock, "now", clock.now + 8))

    def route():
        clock.now += 2
        child()

    spans.wrap("control", route, inclusive="route")()
    assert spans.inclusive_ns["route"] == 10
    assert spans.self_ns["control"] == 2


class Result:
    def __init__(self, pairs=10, tag=0):
        self.pairs = pairs
        self.sessions = {"submitted": 4, "completed": 3}
        self.nets = []
        self.tag = tag

    def fingerprint(self):
        return {"pairs": self.pairs, "sessions": self.sessions}

    @property
    def sessions_ok_frac(self):
        return 0.75


class Scripted(workloads.Workload):
    """Each repetition sleeps for, and returns, the next scripted entry."""

    script: list = []

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def repeat(self):
        sleep_s, pairs = self.script[min(self.calls, len(self.script) - 1)]
        self.calls += 1
        time.sleep(sleep_s)
        return Result(pairs, tag=self.calls)


def test_fastest_repetition_is_kept():
    Scripted.script = [(0.06, 10), (0.01, 10), (0.04, 10)]
    check = harness.Check(Result().fingerprint())
    series = harness.repeat_for(Scripted(1), 0.0, check, "timed")
    assert series.count == harness.MIN_REPS
    assert series.best.outcome.tag == 2
    assert series.best.seconds < 0.04
    assert check.correct and check.attempted == 4


def test_segments_take_the_fastest_run_of_each_stretch():
    segments = harness.Segments(target_ns=10)
    # Stamps: start, events..., end.  Cuts land at indices 0, 2, 4.
    segments.add([0, 6, 12, 20, 25])
    assert segments.cuts == [0, 2, 4]
    assert segments.best == [12, 13]
    segments.add([100, 103, 109, 111, 130])   # first stretch faster: 9
    segments.add([0, 20, 40, 45, 50])         # second stretch faster: 10
    assert segments.best == [9, 10]
    assert segments.seconds == pytest.approx(19e-9)


def test_segments_skip_a_repetition_that_cannot_be_aligned():
    segments = harness.Segments(target_ns=10)
    segments.add([0, 6, 12, 20, 25])
    segments.add([0, 1, 2, 3])
    assert segments.skipped == 1
    assert segments.best == [12, 13]


def test_event_stamps_record_every_event():
    from repro.netsim.scheduler import EventHandle, Simulator

    sim = Simulator()
    for delay in (1.0, 2.0, 3.0):
        sim.post(delay, lambda: None)
    fire = EventHandle._fire
    with harness.EventStamps() as stamps:
        sim.run()
    assert EventHandle._fire is fire
    assert len(stamps) == 3
    assert list(stamps) == sorted(stamps)


def test_output_mismatch_fails_the_run():
    Scripted.script = [(0.0, 10), (0.0, 11), (0.0, 10)]
    check = harness.Check(Result().fingerprint())
    harness.repeat_for(Scripted(1), 0.0, check, "timed")
    assert not check.correct
    assert check.failed == 1
    assert check.mismatches[0][0] == "timed repetition 1"


def test_golden_mismatch_fails_the_run():
    check = harness.Check(Result(10).fingerprint(), Result(12).fingerprint())
    assert not check.correct and check.failed == 1


def test_mismatch_reaches_the_result_line(monkeypatch, capsys):
    Scripted.script = [(0.0, 10), (0.0, 10), (0.0, 99), (0.0, 10)]
    monkeypatch.setitem(workloads.WORKLOADS, "soak_bell", Scripted)
    monkeypatch.setattr(run, "SETUP_PASSES", 1)
    assert run.main(["--workload", "soak_bell", "--seed", "1",
                     "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == 4
    assert set(result["metrics"]) == {
        "run_s", "wall_pairs_per_s", "setup_s", "peak_rss_mb",
        "sessions_ok_frac"}


class TinyRound(workloads.Workload):
    """A short traffic round on a 2x2 grid, fast enough for a unit test."""

    def repeat(self):
        net = workloads.traffic.build_topology("grid", 2, seed=self.seed,
                                               formalism="bell")
        engine = workloads.traffic.TrafficEngine(net, circuits=2, load=0.8,
                                                 seed=self.seed)
        report = engine.run(horizon_s=0.05, drain_s=0.05)
        return workloads._engine_outcome(net, engine, report)


def test_traced_run_matches_untraced_and_restores_the_program():
    from repro.netsim.scheduler import Simulator
    from repro.traffic import workload as traffic_workload

    originals = (Simulator.schedule_at, Simulator.post_at,
                 traffic_workload.TrafficEngine.run)
    workload = TinyRound(3)
    plain = harness.time_once(workload)
    traced = harness.time_once(workload, traced=True)
    assert (Simulator.schedule_at, Simulator.post_at,
            traffic_workload.TrafficEngine.run) == originals
    assert traced.outcome.fingerprint() == plain.outcome.fingerprint()
    totals = traced.spans
    assert sum(totals.self_s.values()) == pytest.approx(totals.wall_s)
    assert totals.self_s["other"] >= 0
    for layer in ("netsim", "linklayer", "core", "traffic", "network"):
        assert totals.calls[layer] > 0


def test_instrumentation_uninstall_is_complete():
    from repro.netsim import scheduler

    before = dict(vars(scheduler.Simulator))
    with Instrumentation(Spans()):
        assert vars(scheduler.Simulator)["run"] is not before["run"]
    assert dict(vars(scheduler.Simulator)) == before
