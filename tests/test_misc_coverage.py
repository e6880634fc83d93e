"""Coverage for small helpers not exercised elsewhere."""

import math

import pytest

from repro.core import RequestStatus, UserRequest
from repro.hardware import apply_memory_noise, stamp
from repro.netsim import Entity, Simulator
from repro.network.builder import build_chain_network
from repro.quantum import bell_dm, create_pair, pair_fidelity


class TestEntity:
    def test_defaults_and_helpers(self):
        sim = Simulator()
        entity = Entity(sim, "thing")
        assert entity.name == "thing"
        assert entity.now == 0.0
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert entity.now == 5.0

    def test_default_name_is_class_name(self):
        sim = Simulator()
        assert Entity(sim).name == "Entity"


class TestPairNoise:
    def test_apply_pair_noise_ages_both_halves(self):
        qa, qb = create_pair(bell_dm(0))
        stamp(qa, 0.0, math.inf, 1e6)
        stamp(qb, 0.0, math.inf, 1e6)
        apply_memory_noise(qa, 1e6)
        apply_memory_noise(qb, 1e6)
        # Both dephased: worse than one-sided aging.
        one_a, one_b = create_pair(bell_dm(0))
        stamp(one_a, 0.0, math.inf, 1e6)
        stamp(one_b, 0.0, math.inf, math.inf)
        apply_memory_noise(one_a, 1e6)
        apply_memory_noise(one_b, 1e6)
        assert pair_fidelity(qa, qb, 0) < pair_fidelity(one_a, one_b, 0)


class TestNetworkFacade:
    def test_run_until_complete_times_out_gracefully(self):
        net = build_chain_network(2, seed=61)
        circuit_id = net.establish_circuit("node0", "node1", 0.85)
        handle = net.submit(circuit_id, UserRequest(num_pairs=10 ** 9))
        net.run_until_complete([handle], timeout_s=0.5)
        assert handle.status == RequestStatus.ACTIVE  # not done, no hang

    def test_run_until_complete_handles_rejected(self):
        net = build_chain_network(2, seed=62)
        circuit_id = net.establish_circuit("node0", "node1", 0.85, max_eer=1.0)
        handle = net.submit(circuit_id, UserRequest(rate=100.0))
        assert handle.status == RequestStatus.REJECTED
        net.run_until_complete([handle], timeout_s=5.0)  # returns immediately

    def test_node_and_link_accessors(self):
        net = build_chain_network(2, seed=63)
        assert net.node("node0").name == "node0"
        link = net.link_between("node0", "node1")
        assert link is net.link_between("node1", "node0")
        with pytest.raises(KeyError):
            net.node("ghost")

    def test_route_of_unknown_circuit(self):
        net = build_chain_network(2, seed=64)
        with pytest.raises(KeyError):
            net.route_of("ghost")

    def test_teardown_unknown_circuit_is_noop(self):
        net = build_chain_network(2, seed=65)
        net.teardown_circuit("ghost")  # no crash

    def test_establish_rejects_unreachable_fidelity(self):
        from repro.control.routing import RouteError

        net = build_chain_network(3, seed=66)
        with pytest.raises(RouteError):
            net.establish_circuit("node0", "node2", 0.995)


class TestQnpApi:
    def test_submit_at_tail_rejected(self):
        net = build_chain_network(2, seed=67)
        circuit_id = net.establish_circuit("node0", "node1", 0.85)
        with pytest.raises(ValueError):
            net.qnps["node1"].submit(circuit_id, UserRequest(num_pairs=1))

    def test_duplicate_circuit_install_rejected(self):
        net = build_chain_network(2, seed=68)
        circuit_id = net.establish_circuit("node0", "node1", 0.85)
        entry = net.qnps["node0"]._circuits[circuit_id].entry
        with pytest.raises(ValueError):
            net.qnps["node0"].install_circuit(entry)

    def test_cancel_unknown_request_is_noop(self):
        net = build_chain_network(2, seed=69)
        circuit_id = net.establish_circuit("node0", "node1", 0.85)
        net.qnps["node0"].cancel(circuit_id, "ghost")

    def test_cancel_queued_request_drops_it(self):
        net = build_chain_network(2, seed=70)
        circuit_id = net.establish_circuit("node0", "node1", 0.85,
                                           max_eer=10.0)
        net.submit(circuit_id, UserRequest(rate=9.0))
        queued = net.submit(circuit_id, UserRequest(rate=5.0))
        assert queued.status == RequestStatus.QUEUED
        net.qnps["node0"].cancel(circuit_id, queued.request_id)
        head_runtime = net.qnps["node0"]._circuits[circuit_id]
        assert head_runtime.policer.queued == 0
