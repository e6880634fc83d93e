"""Tests for resilient routing: metrics, failure injection, recovery."""

import pytest

from repro.control.routing import PATH_METRICS, RouteError
from repro.core.requests import RequestStatus, UserRequest
from repro.netsim.ports import subscribe
from repro.network.builder import build_chain_network
from repro.traffic import TrafficEngine, build_topology, fault_schedule


# ----------------------------------------------------------------------
# Path metrics
# ----------------------------------------------------------------------

class TestPathMetrics:
    def test_metric_registry(self):
        assert PATH_METRICS == ("hops", "utilisation", "fidelity-cost")

    def test_unknown_metric_rejected(self):
        net = build_topology("ring", 5, seed=1, formalism="bell")
        net.finalise()
        with pytest.raises(RouteError, match="unknown path metric"):
            net.controller.compute_route("r0", "r2", 0.7, "short",
                                         metric="nope")
        with pytest.raises(ValueError):
            TrafficEngine(net, circuits=1, metric="nope")

    def test_hops_metric_picks_shortest_path(self):
        net = build_topology("ring", 5, seed=2, formalism="bell")
        circuit_id = net.establish_circuit("r0", "r2", 0.7, "short",
                                           metric="hops")
        assert net.route_of(circuit_id).path == ["r0", "r1", "r2"]

    def test_utilisation_metric_avoids_loaded_links(self):
        """A second circuit between the same endpoints takes the detour."""
        net = build_topology("ring", 5, seed=3, formalism="bell")
        first = net.establish_circuit("r0", "r2", 0.7, "short",
                                      metric="utilisation")
        second = net.establish_circuit("r0", "r2", 0.7, "short",
                                       metric="utilisation")
        assert net.route_of(first).path == ["r0", "r1", "r2"]
        assert net.route_of(second).path == ["r0", "r4", "r3", "r2"]

    def test_fidelity_cost_metric_prefers_headroom(self):
        net = build_topology("ring", 5, seed=4, formalism="bell")
        circuit_id = net.establish_circuit("r0", "r2", 0.7, "short",
                                           metric="fidelity-cost")
        route = net.route_of(circuit_id)
        # Shortest path needs the lowest per-link fidelity = most headroom.
        assert route.num_links == 2
        assert route.metric == "fidelity-cost"

    def test_share_accounting_install_teardown(self):
        net = build_topology("ring", 4, seed=5, formalism="bell")
        circuit_id = net.establish_circuit("r0", "r2", 0.7, "short")
        controller = net.controller
        assert controller.max_link_share() > 0
        net.teardown_circuit(circuit_id)
        assert controller.max_link_share() == 0.0
        assert controller.link_share == {}

    def test_down_link_excluded_from_routing(self):
        net = build_topology("ring", 5, seed=6, formalism="bell")
        net.finalise()
        net.fail_link("r0", "r1")
        route = net.controller.compute_route("r0", "r2", 0.7, "short")
        assert route.path == ["r0", "r4", "r3", "r2"]
        net.restore_link("r0", "r1")
        route = net.controller.compute_route("r0", "r2", 0.7, "short")
        assert route.path == ["r0", "r1", "r2"]


# ----------------------------------------------------------------------
# Link failure mechanics
# ----------------------------------------------------------------------

class TestLinkFailure:
    def test_down_link_stalls_generation_and_restore_resumes(self):
        net = build_chain_network(2, seed=11, formalism="bell")
        link = net.link_between("node0", "node1")
        count = [0]

        def consume(delivery):
            count[0] += 1
            for name in ("node0", "node1"):
                net.node(name).qmm.free(delivery.entanglement_id)

        for name, handler in (("node0", consume), ("node1", lambda d: None)):
            port = link.delivery_port(name)
            port.disconnect()  # detach the network layer the builder wired
            subscribe(port, handler)
        link.set_request("probe", min_fidelity=0.8, lpr=100.0)
        net.run(until_s=0.05)
        assert count[0] > 0
        net.fail_link("node0", "node1")
        frozen = count[0]
        net.run(until_s=0.15)
        assert count[0] <= frozen + 1  # at most the in-flight round
        net.restore_link("node0", "node1")
        net.run(until_s=0.25)
        assert count[0] > frozen + 1

    def test_fail_link_cuts_classical_channel(self):
        net = build_chain_network(3, seed=12, formalism="bell")
        net.fail_link("node1", "node2")
        assert not net.link_is_up("node1", "node2")
        assert net.link_is_up("node0", "node1")
        net.restore_link("node1", "node2")
        assert net.link_is_up("node1", "node2")


# ----------------------------------------------------------------------
# Circuit recovery (Network level)
# ----------------------------------------------------------------------

class TestCircuitRecovery:
    def test_failed_circuit_recovers_on_disjoint_path(self):
        net = build_topology("ring", 5, seed=21, formalism="bell")
        circuit_id = net.establish_circuit("r0", "r2", 0.7, "short")
        assert net.route_of(circuit_id).path == ["r0", "r1", "r2"]
        ready = []
        net.watch_circuit(
            circuit_id, interval_ms=10.0, miss_limit=2,
            on_failure=lambda cid: net.recover_circuit(
                cid, on_ready=ready.append))
        handle = net.submit(circuit_id, UserRequest(num_pairs=10 ** 6))
        net.run(until_s=0.05)
        assert handle.status == RequestStatus.ACTIVE
        net.fail_link("r0", "r1")
        net.run(until_s=0.5)
        # The old circuit died, its request aborted, a new one is up.
        assert handle.status == RequestStatus.ABORTED
        assert circuit_id not in net.qnps["r0"].circuit_ids
        assert len(ready) == 1
        new_id = ready[0]
        new_path = net.route_of(new_id).path
        assert new_path == ["r0", "r4", "r3", "r2"]
        # The new circuit carries traffic over the surviving path.
        handle2 = net.submit(new_id, UserRequest(num_pairs=3))
        net.run_until_complete([handle2], timeout_s=30.0)
        assert handle2.status == RequestStatus.COMPLETED

    def test_unrecoverable_circuit_reports_lost(self):
        net = build_chain_network(3, seed=22, formalism="bell")
        circuit_id = net.establish_circuit("node0", "node2", 0.7, "short")
        outcomes = []
        net.watch_circuit(
            circuit_id, interval_ms=10.0, miss_limit=2,
            on_failure=lambda cid: outcomes.append(net.recover_circuit(cid)))
        handle = net.submit(circuit_id, UserRequest(num_pairs=10 ** 6))
        net.run(until_s=0.05)
        net.fail_link("node0", "node1")
        net.run(until_s=0.5)
        assert outcomes == [None]  # no surviving path on a chain
        assert handle.status == RequestStatus.ABORTED
        assert circuit_id not in net.qnps["node0"].circuit_ids

    def test_recover_unknown_circuit_is_noop(self):
        net = build_topology("ring", 4, seed=23, formalism="bell")
        net.finalise()
        assert net.recover_circuit("vc999:r0->r2") is None


# ----------------------------------------------------------------------
# Fault schedule
# ----------------------------------------------------------------------

class TestFaultSchedule:
    EDGES = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]

    def test_deterministic_and_bounded(self):
        first = fault_schedule(self.EDGES, 1e9, fail_links=2, seed=5)
        second = fault_schedule(self.EDGES, 1e9, fail_links=2, seed=5)
        assert first == second
        assert fault_schedule(self.EDGES, 1e9, fail_links=2, seed=6) != first
        downs = [event for event in first if event.kind == "down"]
        assert len(downs) == 2
        assert all(0 < event.at_ns < 1e9 for event in first)
        assert {event.edge for event in downs} <= {
            tuple(sorted(edge)) for edge in self.EDGES}

    def test_scheduled_outages_are_repaired(self):
        events = fault_schedule(self.EDGES, 1e9, fail_links=2,
                                mttr_s=0.1, seed=7)
        by_edge = {}
        for event in events:
            by_edge.setdefault(event.edge, []).append(event.kind)
        for kinds in by_edge.values():
            assert kinds == ["down", "up"]

    def test_poisson_mode_sorted_and_alternating(self):
        events = fault_schedule(self.EDGES, 5e9, fail_links=2,
                                mtbf_s=0.5, mttr_s=0.1, seed=8)
        times = [event.at_ns for event in events]
        assert times == sorted(times)
        by_edge = {}
        for event in events:
            by_edge.setdefault(event.edge, []).append(event.kind)
        for kinds in by_edge.values():
            assert all(kind == ("down" if i % 2 == 0 else "up")
                       for i, kind in enumerate(kinds))

    def test_engine_rejects_outage_knobs_without_victims(self):
        net = build_topology("ring", 4, seed=9, formalism="bell")
        with pytest.raises(ValueError, match="fail_links"):
            TrafficEngine(net, circuits=1, mtbf_s=1.0)
        with pytest.raises(ValueError, match="fail_links"):
            TrafficEngine(net, circuits=1, mttr_s=0.5)
        with pytest.raises(ValueError, match="mtbf_s"):
            TrafficEngine(net, circuits=1, fail_links=1, mtbf_s=0.0)
        with pytest.raises(ValueError, match="mttr_s"):
            TrafficEngine(net, circuits=1, fail_links=1, mttr_s=-1.0)

    def test_validation_and_empty_cases(self):
        assert fault_schedule(self.EDGES, 1e9, fail_links=0) == []
        assert fault_schedule([], 1e9, fail_links=2) == []
        with pytest.raises(ValueError):
            fault_schedule(self.EDGES, 1e9, fail_links=-1)
        with pytest.raises(ValueError):
            fault_schedule(self.EDGES, 1e9, fail_links=1, mtbf_s=0.0)
        with pytest.raises(ValueError):
            fault_schedule(self.EDGES, 1e9, fail_links=1, mttr_s=-1.0)


# ----------------------------------------------------------------------
# Traffic engine with failures
# ----------------------------------------------------------------------

def _faulted_run(seed, **kwargs):
    net = build_topology("ring", 5, seed=seed, formalism="bell")
    engine = TrafficEngine(net, circuits=3, load=0.8, seed=seed,
                           fail_links=1, **kwargs)
    report = engine.run(horizon_s=0.6, drain_s=0.4)
    return engine, report


class TestEngineRecovery:
    def test_sessions_recover_over_surviving_path(self):
        engine, report = _faulted_run(seed=31)
        assert engine.link_down_count >= 1
        assert report.recovery is not None
        assert report.recovery.circuits_recovered >= 1
        assert report.recovery.circuits_lost == 0
        assert report.sessions_recovered >= 1
        assert report.sessions_lost == 0
        recovered = [circuit for circuit in engine.circuits
                     if circuit.recoveries > 0]
        assert recovered
        text = report.render()
        assert "routing and recovery" in text
        assert "RECOVERED" in text

    def test_lost_sessions_counted_not_hung(self):
        """No disjoint path (tree topology): sessions are LOST, the run
        still completes and every handle reaches a terminal state."""
        net = build_topology("tree", 2, seed=32, formalism="bell")
        engine = TrafficEngine(net, circuits=2, load=0.8, seed=32,
                               fail_links=2, max_hops=3)
        report = engine.run(horizon_s=0.6, drain_s=0.4)
        assert engine.link_down_count >= 1
        assert report.recovery.circuits_lost >= 1
        assert report.sessions_lost >= 1
        for record in engine.records:
            assert record.handle.status in (
                RequestStatus.COMPLETED, RequestStatus.ABORTED,
                RequestStatus.ACTIVE, RequestStatus.REJECTED)
        lost = [record for record in engine.records
                if record.outcome == "lost"]
        assert all(record.handle.status == RequestStatus.ABORTED
                   for record in lost)

    def test_faulted_run_deterministic(self):
        import re

        def normalised(report):
            # Circuit IDs draw from a process-global counter; a fresh
            # process (the CLI) starts at vc0, but two in-process runs
            # must be compared modulo the allocation offset.
            return re.sub(r"vc\d+:", "vc_:", report.render())

        _, first = _faulted_run(seed=33)
        _, second = _faulted_run(seed=33)
        assert normalised(first) == normalised(second)
        assert first.total_sessions == second.total_sessions
        assert first.sessions_recovered == second.sessions_recovered
        assert first.fidelities == second.fidelities

    def test_utilisation_spreads_better_than_hops_on_grid(self):
        """The acceptance scenario: 8 circuits on a 4x4 grid — the
        utilisation metric's max per-link load share must be strictly
        below the hops baseline."""
        shares = {}
        for metric in ("hops", "utilisation"):
            net = build_topology("grid", 4, seed=7, formalism="bell")
            engine = TrafficEngine(net, circuits=8, load=0.7, seed=7,
                                   metric=metric)
            engine.install()
            shares[metric] = engine.max_link_share
        assert shares["utilisation"] < shares["hops"]

    def test_report_without_faults_has_routing_section(self):
        net = build_topology("ring", 4, seed=34, formalism="bell")
        engine = TrafficEngine(net, circuits=2, seed=34)
        report = engine.run(horizon_s=0.3, drain_s=0.2)
        assert report.recovery is not None
        assert report.recovery.link_down_events == 0
        assert report.recovery.metric == "hops"
        assert report.recovery.max_link_share > 0
        text = report.render()
        assert "routing and recovery" in text
        assert "link failures" not in text
