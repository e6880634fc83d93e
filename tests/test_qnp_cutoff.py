"""Tests for the cutoff mechanism, EXPIRE propagation and decoherence.

These exercise the paper's core decoherence machinery (Sec 4.1): discard
records, expiry notifications to end-nodes, the end-node no-cutoff rule,
and the fidelity impact of short memory lifetimes.
"""

from repro.core import RequestStatus, UserRequest
from repro.hardware import SIMULATION
from repro.netsim.units import MS, S
from repro.network.builder import build_chain_network


def short_memory_net(t2_s=0.05, seed=1, num_nodes=3):
    """A chain on hardware with deliberately poor memory."""
    return build_chain_network(num_nodes, seed=seed,
                               params=SIMULATION.with_t2(t2_s * S))


class TestCutoffDiscards:
    def test_pairs_are_discarded_under_tight_cutoff(self):
        net = build_chain_network(3, seed=1)
        # Explicit 3 ms cutoff against ~5 ms mean generation: many discards.
        circuit_id = net.establish_circuit("node0", "node2", 0.8,
                                           cutoff_policy=3 * MS)
        handle = net.submit(circuit_id, UserRequest(num_pairs=3))
        net.run_until_complete([handle], timeout_s=300)
        middle = net.qnps["node1"]
        assert middle.pairs_discarded > 0
        assert handle.status == RequestStatus.COMPLETED

    def test_discarded_pairs_free_memory(self):
        net = build_chain_network(3, seed=2)
        circuit_id = net.establish_circuit("node0", "node2", 0.8,
                                           cutoff_policy=2 * MS)
        net.submit(circuit_id, UserRequest(num_pairs=5))
        net.run(until_s=5.0)
        # No leaked slots at the intermediate node: everything in use is
        # bounded by capacity and nothing is stuck.
        qmm = net.node("node1").qmm
        for pool in (*qmm._link_pools.values(), qmm._storage_pool):
            assert pool.in_use <= pool.capacity

    def test_expires_reach_end_nodes(self):
        net = build_chain_network(3, seed=3)
        circuit_id = net.establish_circuit("node0", "node2", 0.8,
                                           cutoff_policy=2 * MS)
        handle = net.submit(circuit_id, UserRequest(num_pairs=3))
        net.run_until_complete([handle], timeout_s=300)
        middle = net.qnps["node1"]
        head = net.qnps["node0"]
        tail = net.qnps["node2"]
        assert middle.expires_sent > 0
        # End-nodes dropped their halves on EXPIRE (never on a local timer).
        assert head.pairs_expired + tail.pairs_expired > 0

    def test_no_cutoff_mode_never_discards(self):
        net = build_chain_network(3, seed=4)
        circuit_id = net.establish_circuit("node0", "node2", 0.8,
                                           cutoff_policy=None)
        handle = net.submit(circuit_id, UserRequest(num_pairs=5))
        net.run_until_complete([handle], timeout_s=300)
        assert handle.status == RequestStatus.COMPLETED
        assert net.qnps["node1"].pairs_discarded == 0
        assert net.qnps["node1"].expires_sent == 0


class TestDecoherenceImpact:
    def test_short_memory_lowers_delivered_fidelity_without_cutoff(self):
        """Without a cutoff, pairs wait arbitrarily long: ground-truth
        fidelity of delivered pairs degrades on short-lived memory."""
        good = build_chain_network(3, seed=5)
        good_id = good.establish_circuit("node0", "node2", 0.8, None)
        good_handle = good.submit(good_id, UserRequest(num_pairs=8),
                                  record_fidelity=True)
        good.run_until_complete([good_handle], timeout_s=300)

        bad = short_memory_net(t2_s=0.02, seed=5)
        bad_id = bad.establish_circuit_manual(
            ["node0", "node1", "node2"], link_fidelity=0.9, cutoff=None,
            max_eer=100.0, estimated_fidelity=0.8)
        bad_handle = bad.submit(bad_id, UserRequest(num_pairs=8),
                                record_fidelity=True)
        bad.run_until_complete([bad_handle], timeout_s=300)

        good_mean = sum(good_handle.fidelities) / \
            len(good_handle.fidelities)
        bad_mean = sum(bad_handle.fidelities) / \
            len(bad_handle.fidelities)
        assert bad_mean < good_mean

    def test_cutoff_protects_fidelity_on_short_memory(self):
        """Same poor memory: adding a cutoff keeps delivered pairs good —
        the central claim of Fig 10."""
        results = {}
        for label, cutoff in (("with", 5 * MS), ("without", None)):
            net = short_memory_net(t2_s=0.03, seed=6)
            circuit_id = net.establish_circuit_manual(
                ["node0", "node1", "node2"], link_fidelity=0.92,
                cutoff=cutoff, max_eer=100.0, estimated_fidelity=0.8)
            handle = net.submit(circuit_id, UserRequest(num_pairs=8),
                                record_fidelity=True)
            net.run_until_complete([handle], timeout_s=600)
            fidelities = handle.fidelities
            results[label] = sum(fidelities) / len(fidelities)
        assert results["with"] > results["without"]

    def test_throughput_grows_with_memory_lifetime(self):
        """Fig 10a/b trend: longer T2* → higher throughput at fixed cutoff."""
        counts = {}
        for t2_s in (0.02, 2.0):
            net = short_memory_net(t2_s=t2_s, seed=7)
            circuit_id = net.establish_circuit_manual(
                ["node0", "node1", "node2"], link_fidelity=0.9,
                cutoff=4 * MS if t2_s < 1 else 40 * MS,
                max_eer=100.0, estimated_fidelity=0.8)
            handle = net.submit(circuit_id, UserRequest(num_pairs=10_000))
            net.run(until_s=net.sim.now / 1e9 + 10.0)
            counts[t2_s] = handle.pairs_confirmed
        assert counts[2.0] > counts[0.02]


class TestMessageDelays:
    def test_quantum_operations_do_not_block_on_messages(self):
        """Lazy tracking: swaps proceed regardless of control latency, so
        moderate delays (well below the cutoff) barely hurt throughput."""
        counts = {}
        for delay in (0.0, 1 * MS):
            net = build_chain_network(3, seed=8)
            circuit_id = net.establish_circuit("node0", "node2", 0.8, "short")
            net.set_message_delay(delay)
            handle = net.submit(circuit_id, UserRequest(num_pairs=10_000))
            net.run(until_s=net.sim.now / 1e9 + 8.0)
            counts[delay] = handle.pairs_confirmed
        assert counts[1 * MS] > 0.5 * counts[0.0]

    def test_blocking_tracking_suffers_under_delay(self):
        """Ablation: a protocol that waits for TRACKs before swapping loses
        throughput once message delays bite (Sec 4.1's design argument)."""
        delay = 5 * MS
        counts = {}
        for blocking in (False, True):
            net = build_chain_network(3, seed=9)
            for qnp in net.qnps.values():
                qnp.blocking_tracking = blocking
            circuit_id = net.establish_circuit("node0", "node2", 0.8, "short")
            net.set_message_delay(delay)
            handle = net.submit(circuit_id, UserRequest(num_pairs=10_000))
            net.run(until_s=net.sim.now / 1e9 + 8.0)
            counts[blocking] = handle.pairs_confirmed
        assert counts[False] > counts[True]
