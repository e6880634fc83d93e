"""Tests for the coordinated link-scheduling extension."""

import pytest

from repro.core import RequestStatus, UserRequest
from repro.hardware import HeraldedConnection, SIMULATION, SingleClickModel
from repro.linklayer import Link
from repro.netsim import S, Simulator
from repro.netsim.ports import subscribe
from repro.network import QuantumNode
from repro.network.builder import build_dumbbell_network


class TestLinkPriorities:
    def make_link(self):
        sim = Simulator(seed=1)
        node_a = QuantumNode(sim, "a", SIMULATION)
        node_b = QuantumNode(sim, "b", SIMULATION)
        model = SingleClickModel(SIMULATION, HeraldedConnection.lab(0.002))
        link = Link(sim, "a~b", node_a, node_b, model)
        node_a.attach_link(link, "b")
        node_b.attach_link(link, "a")
        return sim, link, node_a, node_b

    def test_boosted_purpose_preferred(self):
        sim, link, node_a, node_b = self.make_link()
        counts = {"vc0": 0, "vc1": 0}

        def consume(delivery):
            counts[delivery.purpose_id] += 1
            node_a.qmm.free(delivery.entanglement_id)

        subscribe(link.delivery_port("a"), consume)
        subscribe(link.delivery_port("b"),
                  lambda d: node_b.qmm.free(d.entanglement_id))
        link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
        link.set_request("vc1", min_fidelity=0.9, lpr=50.0)
        link.set_priority("vc1", "a", boosted=True)
        sim.run(until=5 * S)
        # The boosted purpose gets (nearly) all the service.
        assert counts["vc1"] > 4 * max(counts["vc0"], 1)

    def test_unboost_restores_fair_share(self):
        sim, link, node_a, node_b = self.make_link()
        counts = {"vc0": 0, "vc1": 0}

        def consume(delivery):
            counts[delivery.purpose_id] += 1
            node_a.qmm.free(delivery.entanglement_id)

        subscribe(link.delivery_port("a"), consume)
        subscribe(link.delivery_port("b"),
                  lambda d: node_b.qmm.free(d.entanglement_id))
        link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
        link.set_request("vc1", min_fidelity=0.9, lpr=50.0)
        link.set_priority("vc1", "a", boosted=True)
        link.set_priority("vc1", "a", boosted=False)
        sim.run(until=8 * S)
        assert counts["vc0"] == pytest.approx(counts["vc1"], rel=0.4)

    def test_priority_per_flagging_node(self):
        sim, link, node_a, node_b = self.make_link()
        link.set_request("vc0", min_fidelity=0.9, lpr=50.0)
        link.set_priority("vc0", "a", boosted=True)
        link.set_priority("vc0", "b", boosted=True)
        link.set_priority("vc0", "a", boosted=False)
        # Still boosted: node b's flag remains.
        assert link._boosted("vc0")
        link.set_priority("vc0", "b", boosted=False)
        assert not link._boosted("vc0")


class TestCoordinatedStack:
    def test_flag_default_off(self):
        net = build_dumbbell_network(seed=2)
        assert all(not qnp.coordinated_scheduling for qnp in net.qnps.values())

    def test_coordinated_mode_completes_and_beats_plain(self):
        circuits = [("A0", "B0"), ("A1", "B1"), ("A0", "B1"), ("A1", "B0")]
        latencies = {}
        for coordinated in (False, True):
            net = build_dumbbell_network(seed=3)
            for qnp in net.qnps.values():
                qnp.coordinated_scheduling = coordinated
            circuit_ids = [net.establish_circuit(a, b, 0.8, "loss")
                           for a, b in circuits]
            handles = [net.submit(cid, UserRequest(num_pairs=4))
                       for cid in circuit_ids]
            net.run_until_complete(handles, timeout_s=600)
            assert all(h.status == RequestStatus.COMPLETED for h in handles)
            latencies[coordinated] = max(h.latency for h in handles)
        assert latencies[True] < latencies[False]
