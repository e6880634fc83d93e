"""Tests for the traffic subsystem: topologies, arrivals, workload, metrics."""

import hashlib
import random

import networkx as nx
import pytest

from repro.core.requests import RequestStatus
from repro.network.builder import build_network_from_graph
from repro.network.graph import is_connected
from repro.traffic import (
    DEFAULT_CLASSES,
    TOPOLOGIES,
    PriorityClass,
    TrafficEngine,
    build_topology,
    poisson_schedule,
    topology_graph,
)
from repro.traffic.arrivals import (
    pick_class,
    sample_exponential,
    sample_geometric,
)


# ----------------------------------------------------------------------
# Topology catalogue
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind,size", [
    ("grid", 3), ("ring", 5), ("star", 3), ("erdos-renyi", 12),
    ("waxman", 12), ("tree", 3),
])
def test_catalogue_graphs_connected_and_deterministic(kind, size):
    graph = topology_graph(kind, size, seed=4)
    assert is_connected(graph)
    assert graph.number_of_nodes() >= 2
    assert all(isinstance(node, str) for node in graph.nodes)
    again = topology_graph(kind, size, seed=4)
    assert sorted(graph.edges) == sorted(again.edges)


def test_catalogue_expected_shapes():
    assert topology_graph("grid", 4).number_of_nodes() == 16
    assert len(topology_graph("ring", 7).edges) == 7
    star = topology_graph("star", 3)
    assert sum(1 for edge in star.edges if "hub" in edge) == 3
    assert star.number_of_nodes() == 7  # hub + 3 arms x 2
    tree = topology_graph("tree", 2)
    assert tree.number_of_nodes() == 7  # balanced binary, height 2


def test_catalogue_rejects_bad_input():
    with pytest.raises(ValueError):
        topology_graph("nope", 4)
    with pytest.raises(ValueError):
        topology_graph("grid", 1)
    with pytest.raises(ValueError):
        topology_graph("ring", 2)
    with pytest.raises(ValueError):
        topology_graph("star", 1)


def test_build_network_from_graph_wires_everything():
    graph = topology_graph("ring", 4, seed=0)
    net = build_network_from_graph(graph, seed=5, formalism="bell")
    assert len(net.nodes) == 4
    assert len(net.links) == 4
    assert net.controller is not None
    assert net.formalism == "bell"
    circuit_id = net.establish_circuit("r0", "r2", 0.7, "short")
    assert net.route_of(circuit_id).num_links == 2


def test_build_network_from_graph_validation():
    lonely = nx.Graph()
    lonely.add_node("a")
    with pytest.raises(ValueError):
        build_network_from_graph(lonely)
    disconnected = nx.Graph()
    disconnected.add_edge("a", "b")
    disconnected.add_edge("c", "d")
    with pytest.raises(ValueError):
        build_network_from_graph(disconnected)


# ----------------------------------------------------------------------
# Arrivals
# ----------------------------------------------------------------------

def test_poisson_schedule_deterministic_and_sorted():
    first = poisson_schedule(3, 1e9, 5e7, seed=9)
    second = poisson_schedule(3, 1e9, 5e7, seed=9)
    assert first == second
    times = [spec.arrival_ns for spec in first]
    assert times == sorted(times)
    assert all(0 < t < 1e9 for t in times)
    assert {spec.circuit_index for spec in first} <= {0, 1, 2}
    assert poisson_schedule(3, 1e9, 5e7, seed=10) != first


def test_poisson_schedule_per_circuit_means():
    # Circuit 0 fires ~20x more often than circuit 1.
    schedule = poisson_schedule(2, 1e9, [1e6, 2e7], seed=3)
    count_fast = sum(1 for s in schedule if s.circuit_index == 0)
    count_slow = sum(1 for s in schedule if s.circuit_index == 1)
    assert count_fast > 5 * count_slow
    with pytest.raises(ValueError):
        poisson_schedule(2, 1e9, [1e6], seed=3)
    with pytest.raises(ValueError):
        poisson_schedule(2, 1e9, [1e6, -1.0], seed=3)


def test_poisson_schedule_max_sessions_caps_earliest():
    full = poisson_schedule(2, 1e9, 1e6, seed=1)
    capped = poisson_schedule(2, 1e9, 1e6, seed=1, max_sessions=10)
    assert capped == full[:10]


def test_sampling_helpers():
    rng = random.Random(0)
    gaps = [sample_exponential(rng, 100.0) for _ in range(2000)]
    assert sum(gaps) / len(gaps) == pytest.approx(100.0, rel=0.2)
    sizes = [sample_geometric(rng, 4.0) for _ in range(2000)]
    assert min(sizes) >= 1
    assert sum(sizes) / len(sizes) == pytest.approx(4.0, rel=0.2)
    assert sample_geometric(rng, 1.0) == 1
    names = [pick_class(rng, DEFAULT_CLASSES).name for _ in range(2000)]
    assert names.count("best-effort") > names.count("gold")


def test_priority_class_validation():
    with pytest.raises(ValueError):
        PriorityClass("x", share=0.0, mean_pairs=2.0, eer_fraction=0.1)
    with pytest.raises(ValueError):
        PriorityClass("x", share=0.5, mean_pairs=0.5, eer_fraction=0.1)
    with pytest.raises(ValueError):
        PriorityClass("x", share=0.5, mean_pairs=2.0, eer_fraction=-1.0)


# ----------------------------------------------------------------------
# Workload engine + telemetry
# ----------------------------------------------------------------------

def _small_run(seed: int, formalism: str = "bell", load: float = 0.8):
    net = build_topology("ring", 5, seed=seed, formalism=formalism)
    engine = TrafficEngine(net, circuits=4, load=load, seed=seed)
    report = engine.run(horizon_s=0.5, drain_s=0.5)
    return engine, report


def test_engine_runs_concurrent_circuits_and_reports():
    engine, report = _small_run(seed=21)
    assert len(engine.circuits) == 4
    assert report.total_sessions > 0
    assert report.total_confirmed_pairs > 0
    assert report.throughput_pairs_per_s > 0
    assert report.mean_fidelity is not None
    # Admission accounting is complete and consistent.
    for tally in report.classes.values():
        assert tally.submitted == tally.accepted + tally.queued + tally.rejected
        assert (tally.completed + tally.aborted + tally.unfinished
                <= tally.submitted)
    # Telemetry covers the whole topology.
    assert len(report.links) == 5
    assert len(report.arbiters) == 5
    assert all(0.0 <= stats.utilisation <= 1.0 for stats in report.links)
    # Circuits were torn down at the end of the run.
    assert all(not qnp._circuits for qnp in engine.net.qnps.values())
    # The report renders all its tables.
    text = report.render()
    assert "admission and completion" in text
    assert "per-circuit telemetry" in text
    assert "per-link utilisation" in text


def test_engine_deterministic_for_seed():
    _, first = _small_run(seed=22)
    _, second = _small_run(seed=22)
    assert first.total_sessions == second.total_sessions
    assert first.total_confirmed_pairs == second.total_confirmed_pairs
    assert first.fidelities == second.fidelities
    assert [stats.pairs_generated for stats in first.links] \
        == [stats.pairs_generated for stats in second.links]
    for name in first.classes:
        assert first.classes[name].__dict__ == second.classes[name].__dict__


#: Report fields of the seed-7 3×3 grid workload, recorded at commit
#: d32782d (where they were also pinned equal between the batched-chain
#: and event-per-slice link layers).  The fidelity lists are pinned by
#: the sha256 of their repr.
GRID_GOLDEN = {
    "total_sessions": 108,
    "total_confirmed_pairs": 375,
    "throughput_pairs_per_s": 468.75,
    "fidelities_sha256": "56375085ee182021657ddc4e48ae4e26"
                         "ea037c050bc5bac3656aecbc2ca6bf0a",
    "pairs_generated": [0, 158, 191, 218, 0, 78, 154, 83, 138, 83, 0, 0],
    "attempts_made": [0, 49636, 54930, 67235, 0, 33097, 50897, 31617,
                      39540, 33425, 0, 0],
    "utilisation": [0.0, 0.654016345, 0.7237714125, 0.88590516875, 0.0,
                    0.43609434625, 0.67063159625, 0.41659349625,
                    0.520988925, 0.44041615625, 0.0, 0.0],
    "classes": {
        "gold": {"submitted": 21, "accepted": 11, "queued": 10,
                 "rejected": 0, "completed": 20, "aborted": 1,
                 "unfinished": 0, "recovered": 0, "lost": 0,
                 "pairs_confirmed": 125},
        "silver": {"submitted": 36, "accepted": 23, "queued": 13,
                   "rejected": 0, "completed": 36, "aborted": 0,
                   "unfinished": 0, "recovered": 0, "lost": 0,
                   "pairs_confirmed": 141},
        "best-effort": {"submitted": 51, "accepted": 35, "queued": 16,
                        "rejected": 0, "completed": 47, "aborted": 4,
                        "unfinished": 0, "recovered": 0, "lost": 0,
                        "pairs_confirmed": 109},
    },
}


def _grid_fields():
    net = build_topology("grid", 3, seed=7, formalism="bell")
    engine = TrafficEngine(net, circuits=4, load=0.8, seed=7)
    report = engine.run(horizon_s=0.5, drain_s=0.3)
    fidelities = (report.fidelities,
                  [tally.fidelities for tally in report.classes.values()])
    return {
        "total_sessions": report.total_sessions,
        "total_confirmed_pairs": report.total_confirmed_pairs,
        "throughput_pairs_per_s": report.throughput_pairs_per_s,
        "fidelities_sha256": hashlib.sha256(
            repr(fidelities).encode()).hexdigest(),
        "pairs_generated": [s.pairs_generated for s in report.links],
        "attempts_made": [s.attempts_made for s in report.links],
        "utilisation": [s.utilisation for s in report.links],
        "classes": {name: {key: value
                           for key, value in tally.__dict__.items()
                           if key != "fidelities"}
                    for name, tally in report.classes.items()},
    }


def test_grid_report_golden():
    """Whole-stack determinism pin: the seed-7 grid workload's report
    fields are bit-identical to the recorded golden."""
    assert _grid_fields() == GRID_GOLDEN


def test_engine_both_formalisms_complete():
    for formalism in ("dm", "bell"):
        _, report = _small_run(seed=23, formalism=formalism)
        assert report.formalism == formalism
        assert report.total_confirmed_pairs > 0


def test_engine_records_rejections_for_infeasible_class():
    net = build_topology("ring", 4, seed=24, formalism="bell")
    greedy = (PriorityClass("greedy", share=1.0, mean_pairs=3.0,
                            eer_fraction=2.0),)
    engine = TrafficEngine(net, circuits=2, load=0.5, classes=greedy, seed=24)
    report = engine.run(horizon_s=0.3, drain_s=0.1)
    tally = report.classes["greedy"]
    assert tally.submitted > 0
    assert tally.rejected == tally.submitted
    assert report.total_confirmed_pairs == 0


def test_engine_respects_policer_queue_decisions():
    engine, report = _small_run(seed=25, load=3.0)
    queued = sum(t.queued for t in report.classes.values())
    assert queued > 0  # heavy overload must shape some sessions
    # Queued sessions either started later, finished, or were aborted at
    # teardown — none left dangling.
    for record in engine.records:
        assert record.handle.status in (
            RequestStatus.COMPLETED, RequestStatus.ABORTED,
            RequestStatus.ACTIVE, RequestStatus.REJECTED)
    aborted = sum(t.aborted for t in report.classes.values())
    unfinished = sum(t.unfinished for t in report.classes.values())
    assert aborted + unfinished > 0


def test_engine_explicit_endpoints_and_errors():
    net = build_topology("ring", 5, seed=26, formalism="bell")
    engine = TrafficEngine(net, circuits=2, seed=26,
                           endpoint_pairs=[("r0", "r2")])
    circuits = engine.install()
    assert len(circuits) == 2
    assert all({c.head, c.tail} == {"r0", "r2"} for c in circuits)
    with pytest.raises(ValueError):
        TrafficEngine(net, circuits=0)
    with pytest.raises(ValueError):
        TrafficEngine(net, load=0.0)
    unreachable = TrafficEngine(net, circuits=1, min_hops=9, max_hops=9)
    with pytest.raises(ValueError):
        unreachable.install()


def test_engine_reuses_small_endpoint_pool():
    """More circuits than endpoint pairs is fine: pairs are reused."""
    net = build_topology("ring", 4, seed=27, formalism="bell")
    engine = TrafficEngine(net, circuits=7, seed=27,
                           endpoint_pairs=[("r0", "r2")])
    assert len(engine.install()) == 7


def test_engine_is_one_shot():
    engine, _ = _small_run(seed=28)
    with pytest.raises(RuntimeError, match="already ran"):
        engine.run(horizon_s=0.1)


def test_registry_matches_cli_choices():
    assert set(TOPOLOGIES) == {"grid", "ring", "star", "erdos-renyi",
                               "waxman", "tree"}
