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

Past saturation some requests are still waiting at the horizon.  Their
latency is censored: each counts ``horizon − t_submitted``, a lower bound,
and the table shows how many were censored.  Every point runs on each of
``figutils.SEEDS``; latency and throughput are the seed means.
"""

import pytest

from repro.analysis import mean, render_table
from repro.core import UserRequest
from repro.netsim.units import MS, S
from repro.network.builder import build_dumbbell_network

from figutils import SEEDS, write_result

PAIRS_PER_REQUEST = 3
INTERVALS_MS = (2000.0, 1000.0, 500.0, 250.0, 125.0, 60.0, 30.0)
SIM_SECONDS = 50.0
WARMUP_SECONDS = 40.0


def censored_latency(handles, window_start: float, horizon: float) -> tuple:
    """Mean latency (ms) of the requests submitted at or after
    ``window_start`` (ns), and how many of them had not completed by
    ``horizon`` (ns).

    A request without a latency at the horizon counts ``horizon −
    t_submitted``, a lower bound on its latency, so the mean is a lower
    bound whenever the count is non-zero.  (Fig 9's requests carry no
    deadline and no circuit is torn down, so a request without a latency
    is one still queued or running.)
    """
    latencies = []
    censored = 0
    for handle in handles:
        if handle.t_submitted < window_start:
            continue
        if handle.latency is None:
            censored += 1
            latencies.append(horizon - handle.t_submitted)
        else:
            latencies.append(handle.latency)
    return mean(latencies) / 1e6, censored


def run_point(interval_ms: float, congested: bool, seed: int) -> tuple:
    """Returns (mean latency ms, throughput pairs/s, censored requests) at
    one request rate."""
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
        handles.append(handle)
        if net.sim.now < SIM_SECONDS * S:
            net.sim.schedule(interval_ms * MS, submit_one)

    net.sim.schedule(0.0, submit_one)
    net.run(until_s=net.sim.now / 1e9 + SIM_SECONDS)

    window_start = WARMUP_SECONDS * S
    latency_ms, censored = censored_latency(handles, window_start, net.sim.now)
    deliveries = [t for t in delivered_at if t >= window_start]
    throughput = len(deliveries) / (SIM_SECONDS - WARMUP_SECONDS)
    return latency_ms, throughput, censored


@pytest.fixture(scope="module")
def sweep():
    """Per congestion case, one ``(latency ms, throughput, censored)``
    per request interval: seed means, and the censored total."""
    results = {}
    for congested in (False, True):
        series = []
        for interval_ms in INTERVALS_MS:
            runs = [run_point(interval_ms, congested, seed) for seed in SEEDS]
            series.append((mean([run[0] for run in runs]),
                           mean([run[1] for run in runs]),
                           sum(run[2] for run in runs)))
        results[congested] = series
    return results


def test_fig9_latency_vs_throughput(sweep):
    rows = []
    for index, interval_ms in enumerate(INTERVALS_MS):
        empty_latency, empty_tp, empty_censored = sweep[False][index]
        congested_latency, congested_tp, congested_censored = sweep[True][index]
        rows.append([interval_ms,
                     round(empty_tp, 2), round(empty_latency, 1),
                     empty_censored,
                     round(congested_tp, 2), round(congested_latency, 1),
                     congested_censored])
    table = render_table(
        ["request interval (ms)", "empty tp (pairs/s)", "empty latency (ms)",
         "empty censored", "congested tp (pairs/s)",
         "congested latency (ms)", "congested censored"],
        rows,
        title=(f"Fig 9 — A0-B0 latency vs throughput, 3-pair requests, mean "
               f"of seeds {SEEDS}; censored: requests unfinished at the "
               "horizon (latency counted to the horizon)\n"
               "paper shape: flat latency until saturation; congested "
               "saturates at more than half the empty throughput"))
    write_result("fig9_latency_throughput", table)


def test_fig9_latency_flat_before_saturation(sweep):
    empty = sweep[False]
    # The two slowest request rates sit well below saturation: latency
    # there differs by far less than the saturated latency.
    assert empty[0][0] < 3.0 * empty[1][0] + 50.0


def test_fig9_saturation_throughputs(sweep):
    empty_saturation = max(point[1] for point in sweep[False])
    congested_saturation = max(point[1] for point in sweep[True])
    assert congested_saturation < empty_saturation
    # The paper's counter-intuitive finding: more than half survives.
    assert congested_saturation > 0.5 * empty_saturation, \
        (congested_saturation, empty_saturation)


def test_fig9_latency_rises_at_saturation(sweep):
    # The congested circuit is fully saturated at the fastest request rate:
    # its latency explodes relative to the unsaturated level.
    congested = sweep[True]
    assert congested[-1][0] > 10.0 * congested[0][0]
    # The empty network is just reaching saturation there: the upturn is
    # visible against its flat region.
    empty = sweep[False]
    flat_level = min(point[0] for point in empty[:-1])
    assert empty[-1][0] > 1.2 * flat_level
