"""Figure 9: latency vs throughput on A0-B0, empty vs congested network.

Paper setup: two circuits (A0-B0 and A1-B1, short cutoff).  A stream of
3-pair requests is issued on A0-B0 at increasing frequency; in the
"congested" case A1-B1 simultaneously runs one long-lived flow competing
for the MA–MB bottleneck.  Latency of requests issued after warm-up is
plotted against the measured circuit throughput.

Expected shapes (asserted):

* latency is flat until the circuit saturates, then grows;
* the congested circuit saturates at **more than half** the empty-network
  throughput — the counter-intuitive paper finding: the slower bottleneck
  means the outer links almost always have a pair ready to swap, so less
  bottleneck capacity is wasted.
"""

import pytest

from repro.analysis import mean, render_table
from repro.core import UserRequest
from repro.netsim.units import MS, S
from repro.network.builder import build_dumbbell_network

from figutils import scale, write_result

PAIRS_PER_REQUEST = 3
INTERVALS_MS = scale(quick=(1500.0, 600.0, 250.0, 100.0, 45.0),
                     full=(2000.0, 1000.0, 500.0, 250.0, 125.0, 60.0, 30.0))
SIM_SECONDS = scale(quick=18.0, full=50.0)
WARMUP_SECONDS = scale(quick=9.0, full=40.0)


def run_point(interval_ms: float, congested: bool, seed: int = 1) -> tuple:
    """Returns (mean latency ms, throughput pairs/s) at one request rate."""
    net = build_dumbbell_network(seed=seed)
    a0b0 = net.establish_circuit("A0", "B0", 0.8, "short")
    a1b1 = net.establish_circuit("A1", "B1", 0.8, "short")
    if congested:
        net.submit(a1b1, UserRequest(num_pairs=10 ** 6))

    handles = []
    delivered_at = []

    def submit_one():
        handle = net.submit(a0b0, UserRequest(num_pairs=PAIRS_PER_REQUEST))
        handle.on_delivery(lambda delivery: delivered_at.append(
            delivery.t_delivered))
        handles.append((net.sim.now, handle))
        if net.sim.now < SIM_SECONDS * S:
            net.sim.schedule(interval_ms * MS, submit_one)

    net.sim.schedule(0.0, submit_one)
    net.run(until_s=net.sim.now / 1e9 + SIM_SECONDS)

    window_start = WARMUP_SECONDS * S
    latencies = []
    deliveries = [t for t in delivered_at if t >= window_start]
    for submitted_at, handle in handles:
        if submitted_at < window_start or handle.latency is None:
            continue
        latencies.append(handle.latency / 1e6)
    window_s = SIM_SECONDS - WARMUP_SECONDS
    throughput = len(deliveries) / window_s
    return (mean(latencies) if latencies else float("nan"), throughput)


@pytest.fixture(scope="module")
def sweep():
    results = {}
    for congested in (False, True):
        series = []
        for interval_ms in INTERVALS_MS:
            series.append(run_point(interval_ms, congested))
        results[congested] = series
    return results


def test_fig9_latency_vs_throughput(benchmark, sweep):
    results = benchmark.pedantic(lambda: sweep, rounds=1, iterations=1)
    rows = []
    for index, interval_ms in enumerate(INTERVALS_MS):
        empty_latency, empty_tp = results[False][index]
        congested_latency, congested_tp = results[True][index]
        rows.append([interval_ms,
                     round(empty_tp, 2), round(empty_latency, 1),
                     round(congested_tp, 2), round(congested_latency, 1)])
    table = render_table(
        ["request interval (ms)", "empty tp (pairs/s)", "empty latency (ms)",
         "congested tp (pairs/s)", "congested latency (ms)"],
        rows,
        title=("Fig 9 — A0-B0 latency vs throughput, 3-pair requests\n"
               "paper shape: flat latency until saturation; congested "
               "saturates at more than half the empty throughput"))
    write_result("fig9_latency_throughput", table)


def test_fig9_latency_flat_before_saturation(benchmark, sweep):
    empty = sweep[False]
    # The two slowest request rates sit well below saturation: latency
    # there differs by far less than the saturated latency.
    assert empty[0][0] < 3.0 * empty[1][0] + 50.0


def test_fig9_saturation_throughputs(benchmark, sweep):
    empty_saturation = max(tp for _, tp in sweep[False])
    congested_saturation = max(tp for _, tp in sweep[True])
    assert congested_saturation < empty_saturation
    # The paper's counter-intuitive finding: more than half survives.
    assert congested_saturation > 0.5 * empty_saturation, \
        (congested_saturation, empty_saturation)


def test_fig9_latency_rises_at_saturation(benchmark, sweep):
    # The congested circuit is fully saturated at the fastest request rate:
    # its latency explodes relative to the unsaturated level.
    congested = sweep[True]
    assert congested[-1][0] > 10.0 * congested[0][0]
    # The empty network is just reaching saturation there: the upturn is
    # visible against its flat region.
    empty = sweep[False]
    flat_level = min(latency for latency, _ in empty[:-1])
    assert empty[-1][0] > 1.2 * flat_level
