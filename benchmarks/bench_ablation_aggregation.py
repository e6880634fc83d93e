"""Ablation: request aggregation onto shared circuits (Sec 4.1 claim).

The paper argues aggregation improves resource sharing at swap nodes: a
repeater may only swap pairs belonging to the same circuit, so splitting
identical requests over many circuits fragments the swap-matching pool
(and multiplies data plane state).

The ablation issues the same workload — four 25-pair requests between A0
and B0 — either aggregated on one virtual circuit or spread over four
parallel circuits between the same end-points, and compares total
completion time, averaged over ``figutils.SEEDS``.
"""

import pytest

from repro.analysis import mean, render_table
from repro.core import RequestStatus, UserRequest
from repro.network.builder import build_dumbbell_network

from figutils import SEEDS, write_result

NUM_REQUESTS = 4
PAIRS = 25
TIMEOUT_S = 1800.0


def run_aggregated(seed: int) -> float:
    net = build_dumbbell_network(seed=seed)
    circuit_id = net.establish_circuit("A0", "B0", 0.8, "short")
    handles = [net.submit(circuit_id, UserRequest(num_pairs=PAIRS))
               for _ in range(NUM_REQUESTS)]
    net.run_until_complete(handles, timeout_s=TIMEOUT_S)
    assert all(h.status == RequestStatus.COMPLETED for h in handles)
    return max(h.t_completed for h in handles) / 1e6


def run_fragmented(seed: int) -> float:
    net = build_dumbbell_network(seed=seed)
    circuit_ids = [net.establish_circuit("A0", "B0", 0.8, "short")
                   for _ in range(NUM_REQUESTS)]
    handles = [net.submit(circuit_id, UserRequest(num_pairs=PAIRS))
               for circuit_id in circuit_ids]
    net.run_until_complete(handles, timeout_s=TIMEOUT_S)
    completed = [h for h in handles if h.t_completed is not None]
    assert completed, "no fragmented request completed"
    if len(completed) < len(handles):
        # Some requests starved entirely: report the timeout horizon.
        return net.sim.now / 1e6
    return max(h.t_completed for h in completed) / 1e6


@pytest.fixture(scope="module")
def results():
    return {"aggregated": mean([run_aggregated(seed) for seed in SEEDS]),
            "fragmented": mean([run_fragmented(seed) for seed in SEEDS])}


def test_ablation_aggregation(results):
    table = render_table(
        ["strategy", "total completion (ms)"],
        [["one shared circuit", round(results["aggregated"], 1)],
         ["four parallel circuits", round(results["fragmented"], 1)]],
        title=(f"Ablation — aggregation: {NUM_REQUESTS} requests × {PAIRS} "
               f"pairs between A0 and B0, mean of seeds {SEEDS}"))
    write_result("ablation_aggregation", table)


def test_aggregation_outperforms_fragmentation(results):
    assert results["aggregated"] < results["fragmented"]
