"""Unit tests for the discrete-event kernel."""

import pytest

from repro.netsim import MS, S, Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30, lambda: fired.append("c"))
    sim.schedule(10, lambda: fired.append("a"))
    sim.schedule(20, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in range(10):
        sim.schedule(5.0, fired.append, tag)
    sim.run()
    assert fired == list(range(10))


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42.0]
    assert sim.now == 42.0


def test_schedule_with_args():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "payload")
    sim.run()
    assert out == ["payload"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(5.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10.0, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(10.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert not handle.active


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(100.0, fired.append, "late")
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_includes_boundary_event():
    sim = Simulator()
    fired = []
    sim.schedule(50.0, fired.append, "edge")
    sim.run(until=50.0)
    assert fired == ["edge"]


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    with pytest.raises(RuntimeError):
        sim.run(max_events=100)


def test_rng_reproducible_across_runs():
    values_a = Simulator(seed=7).rng.random()
    values_b = Simulator(seed=7).rng.random()
    assert values_a == values_b
    assert Simulator(seed=8).rng.random() != values_a


def test_pending_events_count():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events() == 2
    h1.cancel()
    assert sim.pending_events() == 1


def test_cancelled_heap_compacts_beyond_half_dead():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(100)]
    keep = sim.schedule(1000.0, fired.append, 1)
    assert len(sim._queue) == 101
    # Cancelling past the 50% mark triggers an in-place compaction.
    for handle in handles:
        handle.cancel()
    assert len(sim._queue) < 101
    assert sim.pending_events() == 1
    assert keep.active
    sim.run()
    assert fired == [1]


def test_small_heaps_skip_compaction():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
    for handle in handles:
        handle.cancel()
    # Below _COMPACT_MIN_QUEUE the dead entries stay until popped.
    assert len(sim._queue) == 10
    assert sim.pending_events() == 0
    sim.run()
    assert sim.events_processed == 0


def test_compaction_during_run_keeps_order():
    sim = Simulator()
    fired = []
    victims = [sim.schedule(50.0 + i, fired.append, f"dead{i}")
               for i in range(100)]
    sim.schedule(1.0, lambda: [handle.cancel() for handle in victims])
    sim.schedule(40.0, fired.append, "a")
    sim.schedule(60.0 + 100, fired.append, "b")
    sim.run()
    assert fired == ["a", "b"]


def test_post_at_fires_in_fifo_order_with_schedule():
    sim = Simulator()
    fired = []
    sim.schedule_at(5.0, fired.append, "handle")
    sim.post_at(5.0, fired.append, "pooled")
    sim.post(0.0, fired.append, "early")
    sim.run()
    assert fired == ["early", "handle", "pooled"]
    assert sim.now == 5.0


def test_post_at_recycles_handles():
    sim = Simulator()
    for _ in range(50):
        sim.post(1.0, lambda: None)
    sim.run()
    pool_size = len(sim._pool)
    assert pool_size > 0
    # A second wave reuses the pooled handles instead of growing the pool.
    for _ in range(pool_size):
        sim.post(1.0, lambda: None)
    assert len(sim._pool) == 0
    sim.run()
    assert len(sim._pool) == pool_size


def test_post_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.post_at(5.0, lambda: None)
    with pytest.raises(ValueError):
        sim.post(-1.0, lambda: None)


def test_run_until_advances_time_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=3 * S)
    assert sim.now == 3 * S


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1 * MS, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_next_id_counts_per_prefix_and_per_simulator():
    import pickle

    sim = Simulator()
    assert [sim.next_id("vc"), sim.next_id("req"), sim.next_id("vc")] == [
        "vc0", "req0", "vc1"]
    assert Simulator().next_id("vc") == "vc0"
    restored = pickle.loads(pickle.dumps(sim))
    assert restored.next_id("vc") == sim.next_id("vc") == "vc2"


def test_peek_time_discards_cancelled_heads():
    sim = Simulator()
    assert sim.peek_time() is None
    head = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    head.cancel()
    assert sim.peek_time() == 2.0
    assert sim.heap_size == 1
    assert sim.pending_events() == 1


def test_network_step_keeps_pending_count_exact():
    # Network._step skips cancelled heads before choosing its stop time;
    # that must go through the scheduler's cancel accounting, or
    # pending_events() under-counts and install/run_until_complete stop
    # while live events remain.
    from repro.traffic import build_topology

    net = build_topology("grid", 2, seed=7, formalism="bell")
    sim = net.sim
    head = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    head.cancel()
    net._step()
    live = sum(1 for _, _, handle in sim._queue if not handle.cancelled)
    assert sim.pending_events() == live == 0
    assert sim.now == 2.0
