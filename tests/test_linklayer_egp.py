"""Integration tests for the link layer EGP over simulated hardware."""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.hardware import HeraldedConnection, NEAR_TERM, SIMULATION, SingleClickModel
from repro.linklayer import Link
from repro.netsim import S, Simulator
from repro.netsim.ports import subscribe
from repro.network import QuantumNode
from repro.quantum import BellIndex, pair_fidelity


def make_link(seed=1, params=SIMULATION, length_km=0.002, slice_attempts=100,
              wire=True):
    """A two-node link; ``wire`` subscribes the two inboxes to its ends."""
    sim = Simulator(seed=seed)
    node_a = QuantumNode(sim, "alice", params)
    node_b = QuantumNode(sim, "bob", params)
    model = SingleClickModel(params, HeraldedConnection.lab(length_km))
    link = Link(sim, "alice-bob", node_a, node_b, model, slice_attempts)
    node_a.attach_link(link, "bob")
    node_b.attach_link(link, "alice")
    inbox_a, inbox_b = [], []
    if wire:
        subscribe_ends(link, inbox_a.append, inbox_b.append)
    return sim, link, node_a, node_b, inbox_a, inbox_b


def subscribe_ends(link, on_a, on_b):
    """Connect one delivery callback to each end of ``link``."""
    subscribe(link.delivery_port(link.node_a.name), on_a)
    subscribe(link.delivery_port(link.node_b.name), on_b)


def drain(node, delivery):
    """Consume a delivered pair: free its slot so generation continues."""
    node.qmm.free(delivery.entanglement_id)


def test_generates_pairs_at_both_ends():
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(wire=False)
    subscribe_ends(link, lambda d: (inbox_a.append(d), drain(node_a, d)),
                   lambda d: (inbox_b.append(d), drain(node_b, d)))
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    sim.run(until=1 * S)
    assert len(inbox_a) == len(inbox_b) > 5
    first_a, first_b = inbox_a[0], inbox_b[0]
    assert first_a.entanglement_id == first_b.entanglement_id
    assert first_a.bell_index == first_b.bell_index
    assert first_a.qubit is not first_b.qubit


def test_delivered_pairs_meet_min_fidelity():
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=3)
    link.set_request("vc0", min_fidelity=0.95, lpr=50.0)
    sim.run(until=0.5 * S)
    assert inbox_a, "no pairs generated"
    for delivery_a, delivery_b in zip(inbox_a, inbox_b):
        fidelity = pair_fidelity(delivery_a.qubit, delivery_b.qubit,
                                 delivery_a.bell_index)
        assert fidelity >= 0.95 - 1e-6
        assert delivery_a.goodness >= 0.95
        assert delivery_a.bell_index in (BellIndex.PSI_PLUS, BellIndex.PSI_MINUS)
        drain(node_a, delivery_a)
        drain(node_b, delivery_b)
        sim.run(until=sim.now)  # let the link restart


def test_generation_stalls_when_memory_full():
    # Capacity is 2 comm qubits per link end; without consuming pairs the
    # link must stop after two.
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=5)
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    sim.run(until=2 * S)
    assert len(inbox_a) == 2
    pool = node_a.qmm.comm_pool("alice-bob")
    assert pool.in_use == pool.capacity
    # Freeing one pair resumes generation.
    drain(node_a, inbox_a[0])
    drain(node_b, inbox_b[0])
    sim.run(until=4 * S)
    assert len(inbox_a) >= 3


def test_mean_generation_time_matches_model():
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=7, wire=False)
    times = []
    last = [0.0]

    def consume(delivery):
        times.append(sim.now - last[0])
        last[0] = sim.now
        drain(node_a, delivery)

    subscribe_ends(link, consume, lambda d: drain(node_b, d))
    link.set_request("vc0", min_fidelity=0.95, lpr=50.0)
    sim.run(until=20 * S)
    alpha = link.model.alpha_for_fidelity(0.95)
    expected = link.model.expected_pair_time(alpha)
    measured = sum(times) / len(times)
    assert measured == pytest.approx(expected, rel=0.2)


def test_fidelity_rate_tradeoff_visible_end_to_end():
    results = {}
    for fidelity in (0.85, 0.95):
        sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=11,
                                                                wire=False)
        count = []
        subscribe_ends(link, lambda d, n=node_a: drain(n, d),
                       lambda d, n=node_b: (count.append(1), drain(n, d)))
        link.set_request("vc0", min_fidelity=fidelity, lpr=50.0)
        sim.run(until=5 * S)
        results[fidelity] = len(count)
    assert results[0.85] > 1.5 * results[0.95]


def test_two_purposes_share_link_time():
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=13, wire=False)
    counts = {"vc0": 0, "vc1": 0}

    def consume(delivery):
        counts[delivery.purpose_id] += 1
        drain(node_a, delivery)

    subscribe_ends(link, consume, lambda d: drain(node_b, d))
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    link.set_request("vc1", min_fidelity=0.9, lpr=50.0)
    sim.run(until=10 * S)
    total = counts["vc0"] + counts["vc1"]
    assert total > 20
    assert counts["vc0"] == pytest.approx(counts["vc1"], rel=0.35)


def test_equal_time_share_means_unequal_pair_counts():
    """A higher-fidelity circuit gets the same time but fewer pairs."""
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=17, wire=False)
    counts = {"hi": 0, "lo": 0}

    def consume(delivery):
        counts[delivery.purpose_id] += 1
        drain(node_a, delivery)

    subscribe_ends(link, consume, lambda d: drain(node_b, d))
    link.set_request("hi", min_fidelity=0.95, lpr=50.0)
    link.set_request("lo", min_fidelity=0.85, lpr=50.0)
    sim.run(until=20 * S)
    assert counts["lo"] > 1.5 * counts["hi"]


def test_end_request_stops_generation():
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=19, wire=False)
    seen = []
    subscribe_ends(link, lambda d: drain(node_a, d),
                   lambda d: (seen.append(1), drain(node_b, d)))
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    sim.run(until=1 * S)
    assert seen
    link.end_request("vc0")
    count_at_stop = len(seen)
    sim.run(until=3 * S)
    # At most one in-flight round can still complete.
    assert len(seen) <= count_at_stop + 1
    assert "vc0" not in link._requests


def test_set_request_updates_existing():
    sim, link, *_ = make_link()
    link.set_request("vc0", min_fidelity=0.9, lpr=10.0)
    link.set_request("vc0", min_fidelity=0.85, lpr=20.0)
    assert link._requests["vc0"].lpr == 20.0


def test_infeasible_fidelity_raises():
    sim, link, *_ = make_link()
    with pytest.raises(ValueError):
        link.set_request("vc0", min_fidelity=0.9999, lpr=10.0)


def test_max_lpr_estimate():
    sim, link, *_ = make_link()
    # ~10 ms per pair at F=0.95 → on the order of 100 pairs/s.
    assert 30 < link.max_lpr(0.95) < 300
    assert link.max_lpr(0.85) > link.max_lpr(0.95)


def test_near_term_serializes_device():
    """With one comm qubit and serial devices, generation still works."""
    sim = Simulator(seed=23)
    node_a = QuantumNode(sim, "a", NEAR_TERM)
    node_b = QuantumNode(sim, "b", NEAR_TERM)
    model = SingleClickModel(NEAR_TERM, HeraldedConnection.telecom(25.0))
    link = Link(sim, "a-b", node_a, node_b, model, slice_attempts=1000)
    node_a.attach_link(link, "b")
    node_b.attach_link(link, "a")
    seen = []

    def consume_b(delivery):
        seen.append(delivery)
        node_b.qmm.free(delivery.entanglement_id)

    subscribe_ends(link, lambda d: node_a.qmm.free(d.entanglement_id),
                   consume_b)
    link.set_request("vc0", min_fidelity=0.7, lpr=1.0)
    sim.run(until=60 * S)
    assert len(seen) >= 2


def test_request_ended_while_waiting_for_device_aborts_round():
    """A round that waits for a serialised device whose request ends
    meanwhile gives back both slots and both arbiters, then the link
    starts a round for the next request."""
    params = dataclasses.replace(SIMULATION, parallel_links=False)
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=7,
                                                            params=params)
    pools = [node.qmm.comm_pool("alice-bob") for node in (node_a, node_b)]
    arbiters = [node_a.arbiter, node_b.arbiter]
    holder = []
    node_a.arbiter.acquire(lambda: holder.append(sim.now))  # someone else's
    sim.run(until=sim.now)
    assert holder
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    # The round took a slot at each end and now queues on node_a's device.
    assert [pool.in_use for pool in pools] == [1, 1]
    link.end_request("vc0")
    node_a.arbiter.release()
    sim.run(until=sim.now)
    assert [pool.in_use for pool in pools] == [0, 0]
    for arbiter in arbiters:
        with pytest.raises(RuntimeError, match="release without acquire"):
            arbiter.release()
    assert inbox_a == inbox_b == []

    # Again, with a second request waiting: the abort kicks it.
    node_a.arbiter.acquire(lambda: None)
    sim.run(until=sim.now)
    link.set_request("vc1", min_fidelity=0.9, lpr=50.0)  # its round waits
    link.set_request("vc2", min_fidelity=0.9, lpr=50.0)
    assert [pool.in_use for pool in pools] == [1, 1]
    link.end_request("vc1")
    node_a.arbiter.release()
    sim.run(until=sim.now + 0.5 * S)
    assert inbox_a and {delivery.purpose_id for delivery in inbox_a} == {"vc2"}


def _run_telemetry(seed=31, until=5 * S, script=None):
    """Full delivery trace of one link run; ``script`` mutates mid-run."""
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=seed,
                                                            wire=False)
    trace = []

    def consume(end, node):
        def handler(delivery):
            trace.append((end, sim.now, delivery.entanglement_id,
                          int(delivery.bell_index), delivery.purpose_id,
                          round(delivery.goodness, 12)))
            drain(node, delivery)
        return handler

    subscribe_ends(link, consume("a", node_a), consume("b", node_b))
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    if script:
        script(sim, link)
    sim.run(until=until)
    return trace, link.attempts_made, link.pairs_generated, link.busy_time


def _second_purpose_mid_run(sim, link):
    # A second purpose arriving at an arbitrary (non-boundary) time.
    sim.schedule(0.23 * S,
                 lambda: link.set_request("vc1", min_fidelity=0.9, lpr=50.0))


def _end_request_mid_run(sim, link):
    sim.schedule(0.31 * S, link.end_request, "vc0")


def _two_purposes_from_start(sim, link):
    # Weighted round robin between two eligible requests.
    link.set_request("vc1", min_fidelity=0.85, lpr=50.0)


#: name → (seed, script, (deliveries, sha256 of the trace repr,
#: attempts_made, pairs_generated, busy_time)).  Recorded from the link
#: layer at commit d32782d, whose batched-chain and event-per-slice paths
#: were pinned equal to each other; every interrupt script lands
#: mid-slice.
TELEMETRY_GOLDENS = {
    "steady": (31, None, (
        1898, "e5209c3dfbf09da05b0ad8995cdc1944"
        "1589e3f785906c4097bb678d936e5462",
        474336, 949, 4999975776.0)),
    "seed1": (1, None, (
        1904, "fa6e92b3f2c61c51240d6b3de6c1be49"
        "3b6207ba7f8476ec75f73f3962cf234a",
        474331, 952, 4999923071.0)),
    "seed7": (7, None, (
        1908, "6f9bee68bd6d7099b3d6fc7ca8b3bb87"
        "38c359511f9277bf0ca55456d225e467",
        474255, 954, 4999121955.0)),
    "seed12": (12, None, (
        2042, "9c14b5a69883ff90f259316a9f03deee"
        "4579b9650b66233906b1acd1b4d87d1a",
        474300, 1021, 4999596300.0)),
    "set_request": (31, _second_purpose_mid_run, (
        1898, "c840afcf603cd0870198db6d2028df8c"
        "ac55323e35a8e9c2008b7715f6b56611",
        474336, 949, 4999975776.0)),
    "end_request": (31, _end_request_mid_run, (
        128, "492e53b3bebcbddd20212376f489b8c0"
        "a1d3e4a533e65388365e0b6be1267ce3",
        29498, 64, 310938418.0)),
    "two_purposes": (41, _two_purposes_from_start, (
        2438, "8a0b8433e42db747951669627a6dd0e1"
        "33769a81ef7523a6695fea626bb5721c",
        474299, 1219, 4999585759.0)),
}


def _telemetry_digest(seed, script):
    trace, attempts, pairs, busy = _run_telemetry(seed=seed, script=script)
    digest = hashlib.sha256(repr(trace).encode()).hexdigest()
    return (len(trace), digest, attempts, pairs, busy), trace


@pytest.mark.parametrize("name", sorted(TELEMETRY_GOLDENS))
def test_link_telemetry_golden(name):
    """The delivery trace and link counters of each script are pinned
    bit for bit: a change to the generation loop that moves any draw,
    slice boundary or scheduler charge shows up here."""
    seed, script, golden = TELEMETRY_GOLDENS[name]
    got, trace = _telemetry_digest(seed, script)
    assert trace, "no pairs delivered"
    assert got == golden
    if script is _second_purpose_mid_run:
        assert {entry[4] for entry in trace} == {"vc0", "vc1"}


class TestRngBlockEquivalence:
    """The link refills a 256-draw uniform block; block draws must equal
    the same generator's sequential draws or buffering would change the
    trajectory."""

    def test_block_equals_sequential(self):
        block = np.random.default_rng(1234).random(64)
        rng = np.random.default_rng(1234)
        one_by_one = np.array([rng.random() for _ in range(64)])
        np.testing.assert_array_equal(block, one_by_one)


def test_statistics_counters():
    sim, link, node_a, node_b, inbox_a, inbox_b = make_link(seed=29, wire=False)
    subscribe_ends(link, lambda d: drain(node_a, d), lambda d: drain(node_b, d))
    link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
    sim.run(until=1 * S)
    assert link.pairs_generated > 0
    assert link.attempts_made >= link.pairs_generated
    assert 0 < link.busy_time <= 1 * S


def test_slice_sequence_with_three_weighted_purposes():
    """Three purposes of different weights share a link whose slices
    mostly fail (20 attempts at F = 0.85–0.95); one purpose ends inside
    one of its slices, and the link fails inside a slice and is restored
    later.  The per-slice ``(purpose, burst)`` sequence, the counters,
    the delivered correlators and the link's RNG position are pinned:
    every failed slice re-picks through the fair-share scheduler, so a
    change in how a slice continues that moves one pick or one draw
    shows here.  Recorded at commit a082060, which released both slots
    and re-acquired them after every failed multi-purpose slice."""
    t_end, t_fail, t_restore = 0.1234567 * S, 0.2345678 * S, 0.3456789 * S
    sim, link, node_a, node_b, _, _ = make_link(seed=37, slice_attempts=20,
                                                wire=False)
    delivered = []

    def consume_a(delivery):
        delivered.append((delivery.entanglement_id, delivery.purpose_id,
                          int(delivery.bell_index)))
        drain(node_a, delivery)

    subscribe_ends(link, consume_a, lambda d: drain(node_b, d))
    slices = []
    charge = link._scheduler.charge

    def recording_charge(purpose_id, busy):
        # Every slice charges its purpose once, at the slice's end.
        slices.append((purpose_id, round(busy / link._cycle_time), sim.now))
        charge(purpose_id, busy)

    link._scheduler.charge = recording_charge
    link.set_request("p0", min_fidelity=0.9, lpr=10.0)
    link.set_request("p1", min_fidelity=0.95, lpr=30.0)
    link.set_request("p2", min_fidelity=0.85, lpr=60.0)
    sim.schedule(t_end, link.end_request, "p1")
    sim.schedule(t_fail, link.fail)
    sim.schedule(t_restore, link.restore)
    sim.run(until=0.5 * S)

    def running_at(t):
        for purpose_id, burst, t_finish in slices:
            if t_finish - burst * link._cycle_time < t < t_finish:
                return purpose_id
        return None

    assert running_at(t_end) == "p1"
    assert running_at(t_fail) is not None
    assert not any(t_fail < t_finish - burst * link._cycle_time < t_restore
                   for _, burst, t_finish in slices)
    sequence = [(purpose_id, burst) for purpose_id, burst, _ in slices]
    counts = {purpose_id: sum(1 for p, _ in sequence if p == purpose_id)
              for purpose_id in ("p0", "p1", "p2")}
    assert (len(sequence), counts) == (
        1895, {"p0": 244, "p1": 178, "p2": 1473})
    assert hashlib.sha256(repr(sequence).encode()).hexdigest() == (
        "3283cc57023cb831d7005c796f5d58a2959593815cff5055a76340b0b429b60b")
    assert len(delivered) == link.pairs_generated == 94
    assert hashlib.sha256(repr(delivered).encode()).hexdigest() == (
        "f75b31df7322bb59f34a4d0e53ec405c0ad2b2e7bd9e3eae054be0e07213aa66")
    assert (link.attempts_made, link.busy_time) == (36897, 388931277.0)
    assert link._next_u() == 0.5607007853062053
