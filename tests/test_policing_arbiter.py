"""Policer shaping and DeviceArbiter FIFO under multi-circuit contention."""

import pytest

from repro.core.policing import Policer, PolicerDecision
from repro.core.requests import RequestStatus, UserRequest
from repro.netsim.scheduler import Simulator
from repro.network.arbiter import DeviceArbiter, acquire_ordered, release_all
from repro.network.builder import build_chain_network


def _request(request_id: str, pairs: int, eer: float) -> UserRequest:
    """A request named ``request_id`` demanding exactly ``eer`` pairs/s."""
    return UserRequest(num_pairs=pairs, delta_t=pairs / eer * 1e9,
                       request_id=request_id)


# ----------------------------------------------------------------------
# Policer: ACCEPT → QUEUE → start-on-free
# ----------------------------------------------------------------------

def test_policer_accept_then_queue_then_start_on_free():
    policer = Policer(max_eer=10.0)
    first = _request("first", 4, 6.0)
    second = _request("second", 4, 6.0)
    assert policer.admit(first) == PolicerDecision.ACCEPT
    assert policer.admit(second) == PolicerDecision.QUEUE
    assert policer.queued == 1
    assert policer.allocated_eer == pytest.approx(6.0)
    # Nothing startable while the first request holds the bandwidth.
    assert policer.next_startable() is None
    policer.release(first.request_id)
    started = policer.next_startable()
    assert started is second
    assert policer.queued == 0
    assert policer.allocated_eer == pytest.approx(6.0)


def test_policer_rejects_infeasible_and_counts():
    policer = Policer(max_eer=5.0)
    assert policer.admit(_request("greedy", 10, 8.0)) == PolicerDecision.REJECT
    # Rejection reserves nothing.
    assert policer.allocated_eer == 0.0
    assert policer.queued == 0


def test_policer_queue_is_fifo_no_overtaking():
    """A small request never overtakes the queued head (head-of-line)."""
    policer = Policer(max_eer=10.0)
    big = _request("big", 8, 8.0)
    blocked = _request("blocked", 8, 8.0)
    small = _request("small", 3, 3.0)
    assert policer.admit(big) == PolicerDecision.ACCEPT
    assert policer.admit(blocked) == PolicerDecision.QUEUE
    # 2 pairs/s are free and `small` alone would be accepted on an empty
    # queue, but the queue is non-empty: FIFO shaping queues it behind
    # `blocked` rather than letting it overtake.
    assert policer.admit(small) == PolicerDecision.QUEUE
    policer.release(big.request_id)
    assert policer.next_startable() is blocked
    assert policer.next_startable() is None  # small doesn't fit beside blocked
    policer.release(blocked.request_id)
    assert policer.next_startable() is small


def test_policer_drop_queued():
    policer = Policer(max_eer=4.0)
    active = _request("active", 4, 4.0)
    queued = _request("queued", 4, 4.0)
    policer.admit(active)
    policer.admit(queued)
    assert policer.drop_queued(queued.request_id) is True
    assert policer.drop_queued(queued.request_id) is False
    policer.release(active.request_id)
    assert policer.next_startable() is None


# ----------------------------------------------------------------------
# DeviceArbiter: FIFO ordering under contention
# ----------------------------------------------------------------------

def test_arbiter_fifo_order_and_wait_stats():
    sim = Simulator(seed=0)
    arbiter = DeviceArbiter(sim, name="dev", serialize=True)
    grants: list[str] = []

    def worker(tag: str, hold_ns: float):
        def on_grant():
            grants.append(tag)
            sim.schedule(hold_ns, arbiter.release)
        arbiter.acquire(on_grant)

    # Three circuits contend at t=0; two more join at t=5.
    for index in range(3):
        sim.schedule(0.0, worker, f"c{index}", 10.0)
    sim.schedule(5.0, worker, "c3", 10.0)
    sim.schedule(5.0, worker, "c4", 10.0)
    sim.run()
    assert grants == ["c0", "c1", "c2", "c3", "c4"]
    assert arbiter.grants == 5
    # c1 and c2 queue at t=0; c3 and c4 join at t=5, all before the first
    # release at t=10 — the queue peaks at four waiters.
    assert arbiter.max_queue_length == 4
    # c1 waited 10, c2 waited 20, c3 waited 25, c4 waited 35 ns.
    assert arbiter.total_wait == pytest.approx(10.0 + 20.0 + 25.0 + 35.0)
    assert arbiter.mean_wait == pytest.approx(arbiter.total_wait / 5)
    with pytest.raises(RuntimeError, match="release without acquire"):
        arbiter.release()  # idle again


def test_arbiter_parallel_mode_counts_grants_without_wait():
    sim = Simulator(seed=0)
    arbiter = DeviceArbiter(sim, name="dev", serialize=False)
    grants = []
    for _ in range(4):
        arbiter.acquire(lambda: grants.append(sim.now))
    sim.run()
    assert len(grants) == 4
    assert arbiter.grants == 4
    assert arbiter.total_wait == 0.0
    assert arbiter.mean_wait == 0.0


def test_arbiter_release_without_acquire_raises():
    sim = Simulator(seed=0)
    arbiter = DeviceArbiter(sim, name="dev", serialize=True)
    with pytest.raises(RuntimeError):
        arbiter.release()


def test_acquire_ordered_no_deadlock_on_crossed_requests():
    """Two multi-device reservations in opposite order both complete."""
    sim = Simulator(seed=0)
    a = DeviceArbiter(sim, name="a", serialize=True)
    b = DeviceArbiter(sim, name="b", serialize=True)
    done = []

    def reserve(tag, devices):
        def on_all():
            done.append(tag)
            sim.schedule(1.0, release_all, devices)
        acquire_ordered(devices, on_all)

    sim.schedule(0.0, reserve, "ab", [a, b])
    sim.schedule(0.0, reserve, "ba", [b, a])
    sim.run()
    assert sorted(done) == ["ab", "ba"]
    for arbiter in (a, b):  # both idle again
        with pytest.raises(RuntimeError, match="release without acquire"):
            arbiter.release()


# ----------------------------------------------------------------------
# Integration: shaping + teardown on a real circuit
# ----------------------------------------------------------------------

def test_queued_requests_start_when_bandwidth_frees():
    net = build_chain_network(3, seed=11, formalism="bell")
    circuit_id = net.establish_circuit("node0", "node2", 0.7, "short",
                                      max_eer=6.0)
    first = net.submit(circuit_id, _request("first", 3, 5.0))
    second = net.submit(circuit_id, _request("second", 3, 5.0))
    assert first.status == RequestStatus.ACTIVE
    assert second.status == RequestStatus.QUEUED
    net.run_until_complete([first, second], timeout_s=600.0)
    assert first.status == RequestStatus.COMPLETED
    assert second.status == RequestStatus.COMPLETED
    assert second.t_started is not None
    assert second.t_started >= first.t_completed


def test_teardown_aborts_queued_requests():
    """A torn-down circuit must abort shaped (queued) requests too."""
    net = build_chain_network(3, seed=12, formalism="bell")
    circuit_id = net.establish_circuit("node0", "node2", 0.7, "short",
                                      max_eer=6.0)
    active = net.submit(circuit_id, _request("active", 3, 5.0))
    queued = net.submit(circuit_id, _request("queued", 3, 5.0))
    assert queued.status == RequestStatus.QUEUED
    net.teardown_circuit(circuit_id)
    assert active.status == RequestStatus.ABORTED
    assert queued.status == RequestStatus.ABORTED
    # run_until_complete returns immediately: every handle is terminal.
    net.run_until_complete([active, queued], timeout_s=1.0)


def test_multi_circuit_contention_on_shared_link():
    """Several circuits through one bottleneck all make progress."""
    net = build_chain_network(4, seed=13, formalism="bell")
    circuits = [net.establish_circuit("node0", "node3", 0.7, "short")
                for _ in range(3)]
    handles = [net.submit(circuit_id, UserRequest(num_pairs=2))
               for circuit_id in circuits]
    sequences = {}
    for handle in handles:
        sequences[handle.request_id] = []
        handle.on_delivery(lambda delivery: sequences[
            delivery.request_id].append(delivery.sequence))
    net.run_until_complete(handles, timeout_s=900.0)
    for handle in handles:
        assert handle.status == RequestStatus.COMPLETED
        # Deliveries arrive in sequence order per circuit (FIFO demux).
        assert sequences[handle.request_id] == sorted(
            sequences[handle.request_id])
