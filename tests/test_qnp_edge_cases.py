"""Edge-case and failure-path tests for the QNP."""

import pytest

from repro.core import (
    DeliveryStatus,
    RequestStatus,
    RequestType,
    UserRequest,
)
from repro.netsim.units import MS, S
from repro.network.builder import (
    build_chain_network,
    build_dumbbell_network,
    build_near_term_chain,
)


class TestEarlyDeliveryExpiry:
    def test_early_pair_can_expire_after_delivery(self):
        """EARLY hands the qubit over before tracking completes; if the
        chain breaks, the application must get the EXPIRED notification
        (Sec 4.1 'Early delivery')."""
        net = build_chain_network(3, seed=41)
        # Tight explicit cutoff: many chains break mid-flight.
        circuit_id = net.establish_circuit("node0", "node2", 0.8,
                                           cutoff_policy=2 * MS)
        events = []
        handle = net.submit(circuit_id,
                            UserRequest(num_pairs=5,
                                        request_type=RequestType.EARLY))
        handle.on_delivery(lambda d: events.append(d.status))
        net.run_until_complete([handle], timeout_s=600)
        assert handle.status == RequestStatus.COMPLETED
        assert DeliveryStatus.PENDING in events
        assert events.count(DeliveryStatus.CONFIRMED) == 5
        # With such a tight cutoff at least some early pairs expired.
        assert events.count(DeliveryStatus.EXPIRED) >= 1


class TestStragglerPairs:
    def test_pairs_after_completion_are_discarded_cleanly(self):
        net = build_chain_network(3, seed=42)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        handle = net.submit(circuit_id, UserRequest(num_pairs=2))
        net.run_until_complete([handle], timeout_s=120)
        assert handle.status == RequestStatus.COMPLETED
        # Let any in-flight stragglers resolve; memory must drain back.
        net.run(until_s=net.sim.now / 1e9 + 3.0)
        for name in ("node0", "node1", "node2"):
            qmm = net.node(name).qmm
            for pool in (*qmm._link_pools.values(), qmm._storage_pool):
                assert pool.in_use == 0, (name, pool.name)

    def test_exactly_requested_count_delivered(self):
        net = build_chain_network(3, seed=43)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        handle = net.submit(circuit_id, UserRequest(num_pairs=7))
        net.run_until_complete([handle], timeout_s=120)
        net.run(until_s=net.sim.now / 1e9 + 2.0)
        assert handle.pairs_confirmed == 7


class TestSharedLinksOppositeCircuits:
    def test_two_circuits_opposite_directions_share_a_link(self):
        """A0→B1 and A1→B0 traverse MA-MB in the same physical direction
        but are installed independently; both must complete."""
        net = build_dumbbell_network(seed=44)
        first = net.establish_circuit("A0", "B1", 0.8, "short")
        second = net.establish_circuit("B0", "A1", 0.8, "short")
        handle_a = net.submit(first, UserRequest(num_pairs=4))
        handle_b = net.submit(second, UserRequest(num_pairs=4))
        net.run_until_complete([handle_a, handle_b], timeout_s=600)
        assert handle_a.status == RequestStatus.COMPLETED
        assert handle_b.status == RequestStatus.COMPLETED

    def test_reversed_circuit_roles(self):
        """The same node is head for one circuit and tail for another."""
        net = build_chain_network(3, seed=45)
        forward = net.establish_circuit("node0", "node2", 0.8)
        backward = net.establish_circuit("node2", "node0", 0.8)
        handle_f = net.submit(forward, UserRequest(num_pairs=3))
        handle_b = net.submit(backward, UserRequest(num_pairs=3))
        net.run_until_complete([handle_f, handle_b], timeout_s=600)
        assert handle_f.status == RequestStatus.COMPLETED
        assert handle_b.status == RequestStatus.COMPLETED


class TestLongerChains:
    def test_five_node_chain(self):
        net = build_chain_network(5, seed=46)
        circuit_id = net.establish_circuit("node0", "node4", 0.7)
        matched_pairs = []
        handle = net.submit(circuit_id, UserRequest(num_pairs=3),
                            on_matched=matched_pairs.append)
        net.run_until_complete([handle], timeout_s=600)
        assert handle.status == RequestStatus.COMPLETED
        for matched in matched_pairs:
            assert matched.fidelity >= 0.7 - 0.05
        # Three repeaters all swapped.
        for name in ("node1", "node2", "node3"):
            assert net.qnps[name].swaps_performed >= 3


class TestMixedAggregation:
    def test_keep_and_measure_share_circuit(self):
        net = build_chain_network(3, seed=47)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        keep = net.submit(circuit_id, UserRequest(num_pairs=3))
        measure = net.submit(circuit_id,
                             UserRequest(num_pairs=3,
                                         request_type=RequestType.MEASURE))
        kept, measured = [], []
        keep.on_delivery(kept.append)
        measure.on_delivery(measured.append)
        net.run_until_complete([keep, measure], timeout_s=600)
        assert keep.status == RequestStatus.COMPLETED
        assert measure.status == RequestStatus.COMPLETED
        assert all(d.qubit is not None for d in kept
                   if d.status == DeliveryStatus.CONFIRMED)
        assert all(d.measurement in (0, 1) for d in measured)


class TestUninstall:
    def test_uninstall_mid_request_aborts(self):
        net = build_chain_network(3, seed=48)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        handle = net.submit(circuit_id, UserRequest(num_pairs=10 ** 6))
        net.run(until_s=0.5)
        net.teardown_circuit(circuit_id)
        assert handle.status == RequestStatus.ABORTED
        net.run(until_s=1.5)
        # Links stop generating for the torn circuit.
        link = net.link_between("node0", "node1")
        assert f"label:{circuit_id}" not in link._requests

    def test_messages_for_torn_circuit_dropped(self):
        net = build_chain_network(3, seed=49)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        net.submit(circuit_id, UserRequest(num_pairs=10 ** 6))
        net.run(until_s=0.2)
        net.teardown_circuit(circuit_id)
        # In-flight TRACK/EXPIRE messages must not crash the engines.
        net.run(until_s=1.0)


class TestNearTermStoragePath:
    def test_intermediate_moves_pairs_to_storage(self):
        """With one comm qubit per node the middle node must park the
        first pair in carbon storage to free the electron (Sec 5.3)."""
        net = build_near_term_chain(num_nodes=3, seed=50)
        circuit_id = net.establish_circuit_manual(
            ["node0", "node1", "node2"], link_fidelity=0.8,
            cutoff=3.0 * S, max_eer=5.0, estimated_fidelity=0.55)
        matched_pairs = []
        handle = net.submit(circuit_id, UserRequest(num_pairs=2),
                            on_matched=matched_pairs.append)
        net.run_until_complete([handle], timeout_s=600)
        assert handle.status == RequestStatus.COMPLETED
        # Storage pool was actually exercised.
        assert net.node("node1").params.storage_qubits > 0
        for matched in matched_pairs:
            assert matched.fidelity > 0.4

    def test_near_term_serial_links_still_complete(self):
        net = build_near_term_chain(num_nodes=3, seed=51)
        circuit_id = net.establish_circuit_manual(
            ["node0", "node1", "node2"], link_fidelity=0.75,
            cutoff=4.0 * S, max_eer=5.0, estimated_fidelity=0.5)
        handle = net.submit(circuit_id, UserRequest(num_pairs=1))
        net.run_until_complete([handle], timeout_s=600)
        assert handle.status == RequestStatus.COMPLETED


class TestMessageDataclasses:
    def test_direction_reverse(self):
        from repro.core.messages import Direction

        assert Direction.DOWNSTREAM.reverse is Direction.UPSTREAM
        assert Direction.UPSTREAM.reverse is Direction.DOWNSTREAM

    def test_routing_entry_validation(self):
        from repro.core import RoutingEntry

        with pytest.raises(ValueError):
            RoutingEntry(circuit_id="c", node="n", upstream_node=None,
                         downstream_node=None, upstream_link=None,
                         downstream_link=None, upstream_link_label=None,
                         downstream_link_label=None,
                         downstream_min_fidelity=None,
                         downstream_max_lpr=None, circuit_max_eer=1.0,
                         cutoff=None)
        with pytest.raises(ValueError):
            RoutingEntry(circuit_id="c", node="n", upstream_node=None,
                         downstream_node="m", upstream_link=None,
                         downstream_link=None, upstream_link_label=None,
                         downstream_link_label=None,
                         downstream_min_fidelity=0.9,
                         downstream_max_lpr=10.0, circuit_max_eer=1.0,
                         cutoff=None)

    def test_circuit_roles(self):
        from repro.core import CircuitRole, RoutingEntry

        head = RoutingEntry(circuit_id="c", node="a", upstream_node=None,
                            downstream_node="b", upstream_link=None,
                            downstream_link="l", upstream_link_label=None,
                            downstream_link_label="L",
                            downstream_min_fidelity=0.9,
                            downstream_max_lpr=10.0, circuit_max_eer=1.0,
                            cutoff=None)
        assert head.role == CircuitRole.HEAD
        tail = RoutingEntry(circuit_id="c", node="b", upstream_node="a",
                            downstream_node=None, upstream_link="l",
                            downstream_link=None, upstream_link_label="L",
                            downstream_link_label=None,
                            downstream_min_fidelity=None,
                            downstream_max_lpr=None, circuit_max_eer=1.0,
                            cutoff=None)
        assert tail.role == CircuitRole.TAIL
