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
    assert handle.cancelled or handle.callback is None


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
    assert not keep.cancelled and keep.callback is not None
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


def test_stop_ends_the_run_after_the_current_instant():
    sim = Simulator()
    fired = []

    def stopper():
        fired.append("stop")
        sim.stop()
        sim.schedule(0, fired.append, "posted")  # same instant, mid-batch

    sim.schedule(1.0, stopper)
    sim.schedule(1.0, fired.append, "queued")
    sim.schedule(2.0, fired.append, "later")
    sim.run(until=10.0)
    assert fired == ["stop", "queued", "posted"]
    assert sim.now == 1.0
    assert sim.pending_events() == 1
    sim.stop()  # outside a run: no effect on the next one
    sim.run()
    assert fired[-1] == "later" and sim.now == 2.0


def test_run_is_not_reentrant():
    sim = Simulator()
    sim.schedule(1.0, sim.run)
    with pytest.raises(RuntimeError, match="re-entrant"):
        sim.run()
    sim.schedule(1.0, lambda: None)
    sim.run()  # the guard is released after the failed run
    assert sim.now == 2.0


def test_run_until_complete_stops_at_the_last_terminal_instant():
    from repro.core import RequestStatus, UserRequest
    from repro.network.builder import build_chain_network

    net = build_chain_network(3, seed=5)
    circuit_id = net.establish_circuit("node0", "node2", 0.8)
    handles = [net.submit(circuit_id, UserRequest(num_pairs=n))
               for n in (1, 3)]
    net.run_until_complete(handles + handles[:1], timeout_s=60)
    assert all(h.status == RequestStatus.COMPLETED for h in handles)
    sim = net.sim
    assert sim.now == max(h.t_completed for h in handles)
    assert all(time > sim.now for time, _, handle in sim._queue
               if not handle.cancelled)
    assert all(h._waiter is None for h in handles)


def test_run_until_complete_on_an_empty_queue_runs_to_the_deadline():
    from repro.core import RequestHandle, UserRequest
    from repro.network.builder import build_chain_network

    net = build_chain_network(2, seed=1)
    assert net.sim.pending_events() == 0
    handle = RequestHandle(UserRequest(num_pairs=1))
    net.run_until_complete([handle], timeout_s=2.0)
    assert net.sim.now == 2.0 * S
    assert handle._waiter is None
