"""Tests for circuit liveness monitoring, failure injection and tracing."""

import pytest

from repro.analysis import EventLog, attach_trace
from repro.core import RequestStatus, UserRequest
from repro.network.builder import build_chain_network


class TestChannelCut:
    def test_cut_channel_drops_messages(self):
        from repro.netsim import ClassicalChannel, Simulator
        from repro.netsim.ports import subscribe

        sim = Simulator()
        channel = ClassicalChannel(sim, length_km=1.0)
        inbox = []
        subscribe(channel.port("b"), inbox.append)
        end_a = subscribe(channel.port("a"), lambda m: None)
        channel.cut()
        end_a.tx("lost")
        sim.run()
        assert inbox == []
        channel.restore()
        end_a.tx("found")
        sim.run()
        assert inbox == ["found"]


class TestLiveness:
    def test_healthy_circuit_stays_up(self):
        net = build_chain_network(3, seed=31)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        net.watch_circuit(circuit_id, interval_ms=20.0)
        net.run(until_s=1.0)
        assert net.liveness["node0"].is_watching(circuit_id)
        assert circuit_id in net.qnps["node0"].circuit_ids

    def test_cut_tears_circuit_down_and_aborts_requests(self):
        net = build_chain_network(3, seed=32)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        net.watch_circuit(circuit_id, interval_ms=20.0, miss_limit=3)
        handle = net.submit(circuit_id, UserRequest(num_pairs=10 ** 6))
        net.run(until_s=0.2)
        assert handle.status == RequestStatus.ACTIVE
        # Sever the second hop's classical channel.
        net.channels[1].cut()
        net.run(until_s=1.0)
        assert handle.status == RequestStatus.ABORTED
        assert circuit_id not in net.qnps["node0"].circuit_ids
        assert not net.liveness["node0"].is_watching(circuit_id)

    def test_watch_requires_head_end(self):
        net = build_chain_network(3, seed=33)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        route = net.route_of(circuit_id)
        with pytest.raises(ValueError):
            net.liveness["node2"].watch(circuit_id, route.path)

    def test_duplicate_watch_rejected(self):
        net = build_chain_network(3, seed=34)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        net.watch_circuit(circuit_id)
        with pytest.raises(ValueError):
            net.watch_circuit(circuit_id)

    def test_unwatch_stops_monitoring(self):
        net = build_chain_network(3, seed=35)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        net.watch_circuit(circuit_id)
        net.liveness["node0"].unwatch(circuit_id)
        net.channels[0].cut()
        net.run(until_s=1.0)
        # No monitor → no teardown.
        assert circuit_id in net.qnps["node0"].circuit_ids


class TestTracing:
    def run_traced(self, num_pairs=2, seed=36):
        net = build_chain_network(3, seed=seed)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        log = attach_trace(net)
        handle = net.submit(circuit_id, UserRequest(num_pairs=num_pairs))
        net.run_until_complete([handle], timeout_s=120)
        return net, log, handle

    def test_sequence_of_kinds(self):
        net, log, handle = self.run_traced()
        kinds = [event.kind for event in log]
        assert kinds[0] == "REQUEST"
        for expected in ("FORWARD", "LINK_PAIR", "SWAP", "TRACK", "PAIR",
                         "COMPLETE"):
            assert expected in kinds, expected

    def test_forward_precedes_first_swap(self):
        net, log, handle = self.run_traced()
        first_forward = log.first("FORWARD")
        first_swap = log.first("SWAP")
        assert first_forward.time <= first_swap.time

    def test_swaps_only_at_intermediate(self):
        net, log, handle = self.run_traced()
        assert all(event.node == "node1" for event in log.of_kind("SWAP"))

    def test_pair_events_at_both_ends(self):
        net, log, handle = self.run_traced()
        pair_nodes = {event.node for event in log.of_kind("PAIR")}
        assert pair_nodes == {"node0", "node2"}

    def test_filters(self):
        net, log, handle = self.run_traced()
        assert len(log.at_node("node1")) > 0
        assert log.first("NOPE") is None
        assert len(log.of_kind("SWAP", "PAIR")) == \
            len(log.of_kind("SWAP")) + len(log.of_kind("PAIR"))

    def test_render_sequence(self):
        net, log, handle = self.run_traced()
        text = log.render_sequence(["node0", "node1", "node2"], max_events=40)
        lines = text.splitlines()
        assert "node0" in lines[0] and "node2" in lines[0]
        assert any("SWAP" in line for line in lines)

    def test_event_str(self):
        log = EventLog()
        log.record(1.5e6, "n", "KIND", foo=1)
        assert "KIND" in str(log.events[0])
        assert "foo=1" in str(log.events[0])
