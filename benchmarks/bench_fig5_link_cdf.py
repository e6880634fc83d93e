"""Figure 5: CDF of the time to generate one link-pair.

Paper: fidelity 0.95 over a 2 m fibre with the simulation parameters —
"on average we have to wait 10 ms and 95% of link-pairs are generated
within 30 ms".

This bench runs the link layer continuously on one link, records the
inter-pair times, and prints the CDF alongside the paper's two anchor
points.  Shape checks: unimodal geometric-like CDF, mean ≈ 10 ms, 95th
percentile within a factor of two of 30 ms.  The CDF pools the same number
of inter-pair times from each of ``figutils.SEEDS``, so its mean is the
seed mean.
"""

from repro.analysis import Cdf, mean, render_table
from repro.netsim.ports import subscribe
from repro.netsim.units import MS
from repro.network.builder import build_chain_network

from figutils import SEEDS, write_result

NUM_PAIRS = 3000
FIDELITY = 0.95


def collect_interpair_times(seed: int) -> list[float]:
    net = build_chain_network(2, seed=seed)
    link = net.link_between("node0", "node1")
    times: list[float] = []
    last = [None]

    def on_pair(delivery):
        if last[0] is not None:
            times.append(net.sim.now - last[0])
            if len(times) == NUM_PAIRS:
                net.sim.stop()
        last[0] = net.sim.now
        for node_name in ("node0", "node1"):
            net.node(node_name).qmm.free(delivery.entanglement_id)

    for name, handler in (("node0", on_pair), ("node1", lambda d: None)):
        port = link.delivery_port(name)
        port.disconnect()  # detach the network layer the builder wired
        subscribe(port, handler)
    link.set_request("fig5", min_fidelity=FIDELITY, lpr=100.0)
    net.sim.run()
    return times[:NUM_PAIRS]


def test_fig5_link_pair_generation_cdf():
    times = [t for seed in SEEDS for t in collect_interpair_times(seed)]
    cdf = Cdf.from_samples(times)
    mean_ms = mean(times) / MS
    p95_ms = cdf.quantile(0.95) / MS

    rows = []
    for t_ms in (1, 5, 10, 15, 20, 25, 30, 40, 50, 75, 100):
        rows.append([t_ms, round(cdf.at(t_ms * MS), 3)])
    rows.append(["mean (ms)", round(mean_ms, 2)])
    rows.append(["p95 (ms)", round(p95_ms, 2)])
    table = render_table(
        ["time (ms)", "fraction of pairs generated"], rows,
        title=(f"Fig 5 — CDF of link-pair generation time, F={FIDELITY}, 2 m "
               f"fibre ({len(times)} pairs, seeds {SEEDS})\n"
               "paper: mean ≈ 10 ms, 95% within 30 ms"))
    write_result("fig5_link_cdf", table)

    # Shape assertions against the paper's anchors.
    assert 5 <= mean_ms <= 20, f"mean {mean_ms:.1f} ms vs paper ~10 ms"
    assert 15 <= p95_ms <= 60, f"p95 {p95_ms:.1f} ms vs paper ~30 ms"
    # Geometric-like: the CDF at the mean is near 1 - 1/e.
    assert 0.5 < cdf.at(mean(times)) < 0.75
