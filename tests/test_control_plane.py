"""Tests for routing (fidelity budget), signalling and reliable transport."""

import pytest

from repro.control import RouteError
from repro.control.transport import make_reliable_pair
from repro.core import CircuitRole, RequestStatus
from repro.netsim import LossyChannel, MS, S, Simulator
from repro.netsim.ports import subscribe
from repro.network.builder import build_chain_network, build_dumbbell_network


class TestRouting:
    def test_route_shortest_path(self):
        net = build_dumbbell_network(seed=1)
        route = net.controller.compute_route("A0", "B0", 0.8)
        assert route.path == ["A0", "MA", "MB", "B0"]
        assert route.num_links == 3

    def test_link_fidelity_exceeds_target(self):
        net = build_chain_network(3, seed=1)
        route = net.controller.compute_route("node0", "node2", 0.8)
        assert route.link_fidelity > 0.8
        assert route.estimated_fidelity >= 0.8 - 1e-9

    def test_longer_paths_need_better_links(self):
        net = build_chain_network(5, seed=1)
        short = net.controller.compute_route("node0", "node2", 0.8)
        long = net.controller.compute_route("node0", "node4", 0.8)
        assert long.link_fidelity > short.link_fidelity

    def test_higher_target_needs_better_links(self):
        net = build_dumbbell_network(seed=1)
        low = net.controller.compute_route("A0", "B0", 0.8)
        high = net.controller.compute_route("A0", "B0", 0.9)
        assert high.link_fidelity > low.link_fidelity
        # Better links are slower: lower LPR.
        assert high.max_lpr < low.max_lpr

    def test_infeasible_fidelity_rejected(self):
        net = build_chain_network(3, seed=1)
        with pytest.raises(RouteError):
            net.controller.compute_route("node0", "node2", 0.99)

    def test_bad_target_rejected(self):
        net = build_chain_network(3, seed=1)
        with pytest.raises(RouteError):
            net.controller.compute_route("node0", "node2", 0.3)

    def test_no_path_rejected(self):
        net = build_chain_network(3, seed=1)
        with pytest.raises(RouteError):
            net.controller.compute_route("node0", "ghost", 0.8)

    def test_short_cutoff_shorter_than_loss_cutoff(self):
        """With minute-long memories the loss cutoff is huge; the 'short'
        policy (0.85 generation quantile) is much tighter (Sec 5.1)."""
        net = build_dumbbell_network(seed=1)
        loss = net.controller.compute_route("A0", "B0", 0.8, "loss")
        short = net.controller.compute_route("A0", "B0", 0.8, "short")
        assert short.cutoff < loss.cutoff / 5

    def test_short_cutoff_relaxes_link_fidelity(self):
        """Fig 8 insight: a tighter cutoff bounds idle decoherence, so the
        routing algorithm can relax per-link fidelity requirements."""
        net = build_dumbbell_network(seed=1)
        loss = net.controller.compute_route("A0", "B0", 0.85, "loss")
        short = net.controller.compute_route("A0", "B0", 0.85, "short")
        assert short.link_fidelity <= loss.link_fidelity

    def test_explicit_cutoff(self):
        net = build_chain_network(3, seed=1)
        route = net.controller.compute_route("node0", "node2", 0.8, 50 * MS)
        assert route.cutoff == 50 * MS

    def test_none_cutoff_disables(self):
        net = build_chain_network(3, seed=1)
        route = net.controller.compute_route("node0", "node2", 0.8, None)
        assert route.cutoff is None

    def test_shorter_t2_shrinks_loss_cutoff(self):
        from repro.hardware import SIMULATION

        long_memory = build_chain_network(3, seed=1)
        short_memory = build_chain_network(3, seed=1,
                                           params=SIMULATION.with_t2(1 * S))
        long_route = long_memory.controller.compute_route("node0", "node2", 0.8)
        short_route = short_memory.controller.compute_route("node0", "node2", 0.8)
        assert short_route.cutoff < long_route.cutoff

    def test_eer_at_most_lpr(self):
        net = build_dumbbell_network(seed=1)
        route = net.controller.compute_route("A0", "B0", 0.8, "short")
        assert 0 < route.eer <= route.max_lpr


class TestSignalling:
    def test_entries_installed_along_path(self):
        net = build_chain_network(3, seed=2)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        head = net.qnps["node0"].circuit(circuit_id)
        middle = net.qnps["node1"].circuit(circuit_id)
        tail = net.qnps["node2"].circuit(circuit_id)
        assert head.entry.role == CircuitRole.HEAD
        assert middle.entry.role == CircuitRole.INTERMEDIATE
        assert tail.entry.role == CircuitRole.TAIL
        assert head.entry.downstream_node == "node1"
        assert tail.entry.upstream_node == "node1"

    def test_labels_match_across_nodes(self):
        net = build_chain_network(3, seed=2)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        head = net.qnps["node0"].circuit(circuit_id).entry
        middle = net.qnps["node1"].circuit(circuit_id).entry
        assert head.downstream_link_label == middle.upstream_link_label

    def test_teardown_uninstalls_everywhere(self):
        net = build_chain_network(3, seed=2)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        net.teardown_circuit(circuit_id)
        net.run(until_s=0.1)
        for name in ("node0", "node1", "node2"):
            assert circuit_id not in net.qnps[name].circuit_ids

    def test_teardown_aborts_active_requests(self):
        from repro.core import UserRequest

        net = build_chain_network(3, seed=2)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        handle = net.submit(circuit_id, UserRequest(num_pairs=1000))
        net.teardown_circuit(circuit_id)
        assert handle.status == RequestStatus.ABORTED

    def test_multiple_circuits_coexist(self):
        net = build_dumbbell_network(seed=2)
        first = net.establish_circuit("A0", "B0", 0.8)
        second = net.establish_circuit("A1", "B1", 0.8)
        assert first != second
        assert set(net.qnps["MA"].circuit_ids) == {first, second}


class TestReliableTransport:
    def test_delivers_over_lossy_channel(self):
        sim = Simulator(seed=5)
        channel = LossyChannel(sim, length_km=1.0, loss_probability=0.3)
        end_a, end_b = make_reliable_pair(sim, channel, rto=1 * MS)
        received = []
        subscribe(end_b.port("rx"), received.append)
        subscribe(end_a.port("rx"), lambda m: None)
        for i in range(50):
            end_a.send(i)
        sim.run(until=5 * S)
        assert received == list(range(50))
        assert end_a.retransmissions > 0

    def test_in_order_without_loss(self):
        sim = Simulator(seed=6)
        channel = LossyChannel(sim, length_km=1.0, loss_probability=0.0)
        end_a, end_b = make_reliable_pair(sim, channel, rto=1 * MS)
        received = []
        subscribe(end_b.port("rx"), received.append)
        subscribe(end_a.port("rx"), lambda m: None)
        for i in range(20):
            end_a.send(i)
        sim.run(until=1 * S)
        assert received == list(range(20))
        assert end_a.retransmissions == 0

    def test_bidirectional(self):
        sim = Simulator(seed=7)
        channel = LossyChannel(sim, length_km=1.0, loss_probability=0.2)
        end_a, end_b = make_reliable_pair(sim, channel, rto=1 * MS)
        inbox_a, inbox_b = [], []
        subscribe(end_a.port("rx"), inbox_a.append)
        subscribe(end_b.port("rx"), inbox_b.append)
        for i in range(20):
            end_a.send(("to-b", i))
            end_b.send(("to-a", i))
        sim.run(until=5 * S)
        assert inbox_b == [("to-b", i) for i in range(20)]
        assert inbox_a == [("to-a", i) for i in range(20)]

    def test_rto_validation(self):
        sim = Simulator()
        channel = LossyChannel(sim)
        with pytest.raises(ValueError):
            make_reliable_pair(sim, channel, rto=0.0)
