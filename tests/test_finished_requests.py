"""What happens to a request once it is finished, and what a run keeps.

* A TRACK or EXPIRE that arrives after its request finished behaves as it
  always has: the excess pair is dropped, an EARLY pair is reported
  EXPIRED, a cancelled rate-based request still delivers its in-flight
  pairs.  The observables below were recorded before end-nodes started to
  forget finished requests, and must not move.
* A finished request leaves nothing behind at its end-nodes: no record, no
  application registration, no handle listener.
* A run keeps per-session tallies and fidelity floats, never pair objects,
  so the live object count after a soak does not grow with its horizon.
"""

import gc
from collections import Counter
from functools import partial

import pytest

from repro.core import DeliveryStatus, RequestType, UserRequest
from repro.core.requests import PairDelivery
from repro.netsim.units import MS
from repro.network.builder import MatchedPair, _Submission, build_chain_network
from repro.traffic import TrafficEngine, build_topology
from repro.traffic import workload

#: Per case: the request, the circuit's cutoff policy and the seed.  A
#: 2 ms cutoff breaks many chains mid-flight; seed 3 makes each case hit
#: its late message (see :func:`_late_messages`).
CASES = {
    "keep": (partial(UserRequest, num_pairs=5), 2 * MS, 3),
    "early": (partial(UserRequest, num_pairs=5,
                      request_type=RequestType.EARLY), 2 * MS, 3),
    "cancelled_rate": (partial(UserRequest, rate=50.0), "loss", 3),
}

#: Observables of :func:`late_message_run`.  Node counters are
#: (pairs_delivered, pairs_expired, pairs_discarded, expires_sent,
#: tracks_relayed); notifications are counted by (handle status, delivery
#: status) at the moment the head-end listener saw them.
PINNED = {
    "keep": {
        "status": "completed",
        "at_finish": {"node0": (5, 11, 0, 0, 0), "node1": (0, 0, 23, 22, 10),
                      "node2": (4, 11, 0, 0, 0)},
        "final": {"node0": (5, 12, 0, 0, 0), "node1": (0, 0, 24, 24, 10),
                  "node2": (5, 12, 0, 0, 0)},
        "notifications": {("active", "confirmed"): 5},
        "matched": 5,
        "clock_ns": 2109536367.0,
    },
    "early": {
        "status": "completed",
        "at_finish": {"node0": (5, 5, 0, 0, 0), "node1": (0, 0, 7, 7, 10),
                      "node2": (4, 2, 0, 0, 0)},
        "final": {"node0": (5, 6, 0, 0, 0), "node1": (0, 0, 9, 8, 10),
                  "node2": (5, 2, 0, 0, 0)},
        "notifications": {("active", "pending"): 11,
                          ("active", "expired"): 5,
                          ("active", "confirmed"): 5,
                          ("completed", "expired"): 1},
        "matched": 5,
        "clock_ns": 2063798554.0,
    },
    "cancelled_rate": {
        "status": "completed",
        "at_finish": {"node0": (119, 0, 0, 0, 0), "node1": (0, 0, 0, 0, 240),
                      "node2": (119, 0, 0, 0, 0)},
        "final": {"node0": (121, 0, 0, 0, 0), "node1": (0, 0, 1, 1, 242),
                  "node2": (121, 1, 0, 0, 0)},
        "notifications": {("active", "confirmed"): 119,
                          ("completed", "confirmed"): 2},
        "matched": 121,
        "clock_ns": 3000000039.9999995,
    },
}


def _counters(net):
    return {name: (qnp.pairs_delivered, qnp.pairs_expired,
                   qnp.pairs_discarded, qnp.expires_sent,
                   qnp.tracks_relayed)
            for name, qnp in sorted(net.qnps.items())}


def late_message_run(case):
    """Run one request to its end, then 2 s more for the late messages.

    A 3 ms delay on every classical message keeps pairs in flight when
    the request finishes.  The rate-based request is cancelled after 1 s.
    """
    make_request, cutoff_policy, seed = CASES[case]
    net = build_chain_network(3, seed=seed)
    circuit_id = net.establish_circuit("node0", "node2", 0.8,
                                       cutoff_policy=cutoff_policy)
    net.set_message_delay(3 * MS)
    notifications, matched = [], []
    handle = net.submit(circuit_id, make_request(), on_matched=matched.append)
    handle.on_delivery(lambda delivery: notifications.append(
        (handle.status.value, delivery.status.value)))
    if case == "cancelled_rate":
        net.run(until_s=net.sim.now / 1e9 + 1.0)
        net.qnps["node0"].cancel(circuit_id, handle.request_id)
    else:
        net.run_until_complete([handle], timeout_s=600)
    at_finish = _counters(net)
    net.run(until_s=net.sim.now / 1e9 + 2.0)
    return net, circuit_id, handle, {
        "status": handle.status.value,
        "at_finish": at_finish,
        "final": _counters(net),
        "notifications": dict(Counter(notifications)),
        "matched": len(matched),
        "clock_ns": net.sim.now,
    }


def _late_messages(case, observed):
    """Messages of a case that arrived after its request finished."""
    if case == "keep":
        # TRACKs for excess pairs, dropped at the head-end.
        return (observed["final"]["node0"][1]
                - observed["at_finish"]["node0"][1])
    # An EXPIRE reported to the listener of an EARLY request, or a pair
    # delivered after the rate-based request was cancelled.
    late = ("completed", "expired" if case == "early" else "confirmed")
    return observed["notifications"].get(late, 0)


class TestLateMessages:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_late_track_and_expire_behave_as_pinned(self, case):
        _, _, _, observed = late_message_run(case)
        assert observed == PINNED[case]
        assert _late_messages(case, observed) > 0

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_confirmed_count_follows_the_notifications(self, case):
        _, _, handle, observed = late_message_run(case)
        assert handle.pairs_confirmed == sum(
            count for (_, status), count in observed["notifications"].items()
            if status == "confirmed")

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_finished_request_leaves_nothing_behind(self, case):
        net, circuit_id, handle, _ = late_message_run(case)
        for name in ("node0", "node2"):
            qnp = net.qnps[name]
            runtime = qnp._circuits[circuit_id]
            assert runtime.requests == {}
            assert runtime.active == {}
            assert runtime.in_transit == {}
            assert qnp._apps == {}
        assert handle._listeners is None
        # A listener registered now would never be called.
        handle.on_delivery(pytest.fail)
        assert handle._listeners is None


class TestEarlySessionCounting:
    def test_report_matches_streamed_counter_with_early_sessions(
            self, monkeypatch):
        """EARLY pairs notify twice (PENDING, then CONFIRMED or EXPIRED);
        the report's ``pairs_confirmed`` and the streamed counter must
        both count each confirmed pair once."""
        monkeypatch.setattr(workload, "UserRequest", partial(
            UserRequest, request_type=RequestType.EARLY))
        notified = Counter()
        original = workload.TrafficEngine._count_deliveries

        def count_and_watch(engine, record):
            record.handle.on_delivery(
                lambda d: notified.update([d.status]))
            original(engine, record)

        monkeypatch.setattr(workload.TrafficEngine, "_count_deliveries",
                            count_and_watch)
        net = build_topology("grid", 3, seed=8, formalism="bell")
        engine = TrafficEngine(net, circuits=4, load=0.8, seed=8)
        report = engine.run(horizon_s=0.3, drain_s=0.2)
        assert notified[DeliveryStatus.PENDING] > 0
        tallied = sum(tally.pairs_confirmed
                      for tally in report.classes.values())
        assert tallied == engine._c_pairs.value
        assert tallied == notified[DeliveryStatus.CONFIRMED]
        assert tallied == sum(circuit.pairs_confirmed
                              for circuit in report.circuits)


def _grid_edges(size):
    edges = []
    for row in range(size):
        for col in range(size):
            if col + 1 < size:
                edges.append((f"g{row}x{col}", f"g{row}x{col + 1}"))
            if row + 1 < size:
                edges.append((f"g{row}x{col}", f"g{row + 1}x{col}"))
    return edges


def _soak_live_objects(horizon_s):
    """Run the soak_bell scenario (96 single-hop bell circuits on a 4x4
    grid, load 0.9, seed 7) and count what survives it."""
    net = build_topology("grid", 4, seed=7, formalism="bell")
    engine = TrafficEngine(net, circuits=96, load=0.9, seed=7,
                           endpoint_pairs=_grid_edges(4),
                           max_sessions=40000)
    engine.run(horizon_s=horizon_s, drain_s=0.2)
    gc.collect()
    live = Counter(type(obj) for obj in gc.get_objects())
    counts = {cls.__name__: live[cls]
              for cls in (_Submission, PairDelivery, MatchedPair)}
    return len(engine.records), counts


class TestSoakRetention:
    def test_live_pair_objects_do_not_grow_with_horizon(self):
        short_sessions, short = _soak_live_objects(0.15)
        long_sessions, long = _soak_live_objects(0.45)
        assert long_sessions > 2 * short_sessions
        for name, count in long.items():
            assert count <= short[name], (name, short, long)
