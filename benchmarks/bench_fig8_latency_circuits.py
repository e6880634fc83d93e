"""Figure 8: request latency vs simultaneous requests over shared circuits.

Paper setup: 1–8 simultaneous requests of 100 pairs each, spread
round-robin across 1, 2 or 4 circuits that all share the MA–MB bottleneck
of the Fig 7 dumbbell; long vs short cutoff.  Reported: the average latency
of the requests on the A0-B0 circuit.

Expected shapes (all asserted):

* (a,b,d,e) latency grows roughly linearly with the number of requests for
  1 and 2 circuits — circuits are shared efficiently;
* (c) with 4 circuits and the long cutoff the network collapses ("quantum
  congestion collapse"): two comm qubits per link end clog with pairs that
  have no swap partner;
* (f) the short cutoff discards unmatched pairs quickly and restores
  near-linear scaling, and generally lowers latency (the routing budget can
  relax per-link fidelities).

Every point runs 100-pair requests, request counts 1..8, on each of
``figutils.SEEDS``; the table and the shape assertions use the seed mean.
"""

import pytest

from repro.analysis import mean, render_table
from repro.core import UserRequest
from repro.network.builder import build_dumbbell_network

from figutils import SEEDS, write_result

PAIRS_PER_REQUEST = 100
REQUEST_COUNTS = tuple(range(1, 9))
TIMEOUT_S = 3600.0

CIRCUIT_SETS = {
    1: [("A0", "B0")],
    2: [("A0", "B0"), ("A1", "B1")],
    4: [("A0", "B0"), ("A1", "B1"), ("A0", "B1"), ("A1", "B0")],
}


def run_point(num_circuits: int, cutoff_policy: str, num_requests: int,
              seed: int) -> float:
    """Mean latency (ms) of requests on the A0-B0 circuit."""
    net = build_dumbbell_network(seed=seed)
    circuit_ids = [net.establish_circuit(a, b, 0.8, cutoff_policy)
                   for a, b in CIRCUIT_SETS[num_circuits]]
    handles = []
    for index in range(num_requests):
        circuit_id = circuit_ids[index % len(circuit_ids)]
        handles.append((circuit_id,
                        net.submit(circuit_id,
                                   UserRequest(num_pairs=PAIRS_PER_REQUEST))))
    net.run_until_complete([h for _, h in handles], timeout_s=TIMEOUT_S)
    a0b0 = [h for cid, h in handles
            if cid == circuit_ids[0] and h.latency is not None]
    assert a0b0, "no completed A0-B0 requests"
    return mean([h.latency for h in a0b0]) / 1e6


def run_panel_grid() -> dict:
    results = {}
    for cutoff_policy in ("loss", "short"):
        for num_circuits in (1, 2, 4):
            series = []
            for num_requests in REQUEST_COUNTS:
                values = [run_point(num_circuits, cutoff_policy,
                                    num_requests, seed) for seed in SEEDS]
                series.append(mean(values))
            results[(cutoff_policy, num_circuits)] = series
    return results


@pytest.fixture(scope="module")
def panel_grid():
    return run_panel_grid()


def test_fig8_latency_vs_requests(panel_grid):
    rows = []
    for num_requests_index, num_requests in enumerate(REQUEST_COUNTS):
        row = [num_requests]
        for cutoff_policy in ("loss", "short"):
            for num_circuits in (1, 2, 4):
                row.append(round(panel_grid[(cutoff_policy, num_circuits)]
                                 [num_requests_index], 1))
        rows.append(row)
    table = render_table(
        ["requests",
         "long/1c (ms)", "long/2c (ms)", "long/4c (ms)",
         "short/1c (ms)", "short/2c (ms)", "short/4c (ms)"],
        rows,
        title=(f"Fig 8 — mean A0-B0 request latency, {PAIRS_PER_REQUEST} "
               f"pairs/request, mean of seeds {SEEDS}\n"
               "paper shape: linear for 1-2 circuits; collapse for 4 "
               "circuits + long cutoff; short cutoff restores scaling"))
    write_result("fig8_latency_circuits", table)


def test_fig8_linear_scaling_one_two_circuits(panel_grid):
    """(a,b,d,e): latency grows with request count, roughly linearly."""
    for cutoff_policy in ("loss", "short"):
        for num_circuits in (1, 2):
            series = panel_grid[(cutoff_policy, num_circuits)]
            assert series[-1] > series[0], (cutoff_policy, num_circuits)
            # FIFO service of k requests: mean latency ratio ≈ (k+1)/2.
            ratio = series[-1] / series[0]
            expected = (REQUEST_COUNTS[-1] + 1) / 2
            assert 0.3 * expected < ratio < 3.0 * expected, \
                (cutoff_policy, num_circuits, ratio)


def test_fig8_congestion_collapse_four_circuits(panel_grid):
    """(c): 4 circuits + long cutoff ≫ 2 circuits (congestion collapse)."""
    four_long = panel_grid[("loss", 4)][-1]
    two_long = panel_grid[("loss", 2)][-1]
    assert four_long > 3.0 * two_long, (four_long, two_long)


def test_fig8_short_cutoff_restores_scaling(panel_grid):
    """(f): the short cutoff clears the collapse."""
    four_long = panel_grid[("loss", 4)][-1]
    four_short = panel_grid[("short", 4)][-1]
    assert four_short < four_long / 2.0, (four_short, four_long)
