#!/usr/bin/env python
"""Perf-trajectory harness: micro benchmarks on both state backends.

Runs the engine micro benchmarks on the exact density-matrix formalism
*and* the Bell-diagonal formalism and writes ``BENCH_<rev>.json`` (median
ns per op, plus the bell-vs-dm speedup ratios) so the performance
trajectory is tracked across PRs.  The two formalisms of a ratio op are
timed in alternating batches, and the ratio is the median of the
per-round ratios, so host drift during the run does not land on one side
only::

    PYTHONPATH=src python benchmarks/run_bench.py            # BENCH_<git rev>.json
    PYTHONPATH=src python benchmarks/run_bench.py --out x.json --rounds 9

Timings are plain ``perf_counter_ns`` medians, which is what the JSON
trail needs (comparable numbers, not statistics).
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path


def _git_revision() -> str:
    from repro.campaign import git_revision

    return git_revision(Path(__file__).resolve().parent)


def _batch_timer(fn, iterations: int):
    """Warm ``fn`` and return a callable timing one batch (ns per call).

    A benchmark whose calls consume their inputs carries a
    ``prepare(count)`` attribute that builds the inputs of the next
    ``count`` calls; it runs untimed before each batch.
    """
    prepare = getattr(fn, "prepare", None)
    if prepare is not None:
        prepare(1)
    fn()  # warm caches — steady-state cost is what the trajectory tracks

    def batch() -> float:
        if prepare is not None:
            prepare(iterations)
        start = time.perf_counter_ns()
        for _ in range(iterations):
            fn()
        return (time.perf_counter_ns() - start) / iterations

    return batch


# ----------------------------------------------------------------------
# Benchmark bodies
# ----------------------------------------------------------------------

def bench_decoherence_channel():
    from repro.quantum import decoherence_kraus

    return lambda: decoherence_kraus(5e6, 3.6e12, 6e10)


def bench_alpha_for_fidelity():
    from repro.hardware import HeraldedConnection, SIMULATION, SingleClickModel

    state = {"n": 0}

    def run():
        # Fresh model each call: measures the uncached scan (the set_request
        # path on a new link), not the dict hit.
        model = SingleClickModel(SIMULATION, HeraldedConnection.lab(0.002))
        state["n"] += 1
        return model.alpha_for_fidelity(0.9)

    return run


def bench_bsm(formalism: str):
    from repro.quantum import NoisyOpParams, bell_state_measurement, get_backend

    ops = NoisyOpParams(two_qubit_gate_fidelity=0.998,
                        readout_error0=0.002, readout_error1=0.002)
    backend = get_backend(formalism)
    weights = (0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3)
    rng = random.Random(1)
    # Each swap consumes its two pairs; building them is not the swap's
    # cost, so they are made before the timed batch.
    pairs = []

    def prepare(count):
        pairs[:] = [(backend.create_pair_from_weights(weights),
                     backend.create_pair_from_weights(weights))
                    for _ in range(count)]

    def run():
        (_, mid1), (mid2, _) = pairs.pop()
        return bell_state_measurement(mid1, mid2, rng, ops)

    run.prepare = prepare
    return run


def bench_averaged_swap_map():
    from repro.quantum import NoisyOpParams, averaged_swap_dm, werner_dm

    ops = NoisyOpParams(two_qubit_gate_fidelity=0.998,
                        readout_error0=0.002, readout_error1=0.002)
    rho = werner_dm(0.9)
    return lambda: averaged_swap_dm(rho, rho, ops)


#: Filled by the traffic-soak benchmark as a side channel: sustained
#: end-to-end pair throughput (pairs per simulated second) per formalism.
TRAFFIC_STATS: dict[str, float] = {}

#: Simulator events processed per traffic scenario (the event-churn
#: trajectory; a seed-deterministic count, not a speed).
EVENT_STATS: dict[str, int] = {}

#: Final metrics-registry counters of the soak run, per formalism — the
#: same series ``--metrics-out`` streams, recorded here so BENCH files
#: carry the registry view of the scenario alongside the wall times.
OBS_STATS: dict[str, dict] = {}

#: Peak RSS (kB) observed right after each soak scenario — the memory
#: trajectory of the long-horizon workload, gated by the
#: ``compare_bench.py`` RSS ceiling so session-state leaks cannot creep
#: back in silently.
RSS_STATS: dict[str, int] = {}


def _max_rss_kb():
    """Peak resident set size so far in kB (None off POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def bench_traffic_round(formalism: str):
    """Sustained concurrent traffic: 8 circuits on a 3x3 grid.

    Times one full workload round (install 8 circuits, 1 s of Poisson
    session traffic at load 0.8, drain, teardown).  Paths include swaps,
    so this is the scenario where the state formalisms genuinely differ —
    the ``traffic_round`` bell-over-dm ratio floor is enforced on it.
    """
    from repro.traffic import TrafficEngine, build_topology

    def run():
        net = build_topology("grid", 3, seed=7, formalism=formalism)
        engine = TrafficEngine(net, circuits=8, load=0.8, seed=7)
        report = engine.run(horizon_s=1.0, drain_s=0.5)
        assert len(engine.circuits) >= 8
        assert report.total_confirmed_pairs > 0
        EVENT_STATS[f"traffic_round_{formalism}"] = net.sim.events_processed
        return report.total_confirmed_pairs

    return run


def run_soak(formalism: str = "bell", **engine_options):
    """Run the ``traffic_soak`` scenario; returns ``(engine, report)``.

    96 single-hop circuits on a 4x4 grid at load 0.9, seed 7, for 0.5
    simulated seconds plus a 0.3 s drain.  ``engine_options`` go to
    :class:`~repro.traffic.TrafficEngine` (``metrics_out``,
    ``checkpoint_out``, ...), so the benchmark and the CI soak steps run
    one and the same scenario.
    """
    from repro.traffic import TrafficEngine, build_topology

    net = build_topology("grid", 4, seed=7, formalism=formalism)
    engine = TrafficEngine(net, circuits=96, load=0.9, seed=7,
                           min_hops=1, max_hops=1, max_sessions=40000,
                           **engine_options)
    return engine, engine.run(horizon_s=0.5, drain_s=0.3)


def bench_traffic_soak(formalism: str):
    """Pair-rate soak: :func:`run_soak`.

    The sustained-throughput scenario behind ``traffic_pairs_per_s``:
    single-hop circuits run at the link EER (no swap losses), so the
    simulated pair rate — and with it the number of live pairs and
    scheduler events per simulated second — is an order of magnitude
    above ``traffic_round``.  ``traffic_pairs_per_s`` is a simulated rate,
    fixed by the seed; the wall-clock cost is the op's own time.
    """

    def run():
        engine, report = run_soak(formalism)
        net = engine.net
        assert report.total_confirmed_pairs > 0
        TRAFFIC_STATS[formalism] = round(report.throughput_pairs_per_s, 2)
        EVENT_STATS[f"traffic_soak_{formalism}"] = net.sim.events_processed
        from repro.obs import REQUIRED_SERIES

        counters = net.obs.snapshot()["counters"]
        OBS_STATS[formalism] = {name: counters[name]
                                for name in REQUIRED_SERIES}
        rss = _max_rss_kb()
        if rss is not None:
            RSS_STATS[f"traffic_soak_{formalism}"] = rss
        return report.total_confirmed_pairs

    return run


def bench_route_compute(metric: str):
    """Routing-computation cost per metric on a 4x4 grid.

    Cycles through corner-to-corner and cross pairs so the budget cache
    is exercised the way a traffic install exercises it, and clears the
    installed-load state between rounds so ``utilisation`` scoring work
    is measured against a loaded network.
    """
    from repro.traffic import build_topology

    net = build_topology("grid", 4, seed=3, formalism="bell")
    net.finalise()
    controller = net.controller
    pairs = [("g0x0", "g3x3"), ("g0x3", "g3x0"), ("g1x0", "g2x3"),
             ("g0x1", "g3x2")]
    state = {"i": 0}

    def run():
        head, tail = pairs[state["i"] % len(pairs)]
        state["i"] += 1
        route = controller.compute_route(head, tail, 0.7, "short",
                                         metric=metric)
        circuit_id = f"bench{state['i']}"
        controller.register_install(circuit_id, route)
        if state["i"] % len(pairs) == 0:
            for j in range(state["i"] - len(pairs) + 1, state["i"] + 1):
                controller.register_teardown(f"bench{j}")
        return route

    return run


def bench_apps_round(app: str, formalism: str):
    """One application-service workload round (the repro.apps layer).

    A small ring workload with every circuit running ``app``: times the
    full delivery fan-in — matching, the app's per-pair consumption
    (measurements for qkd, DEJMPS rounds for distil) and the SLO
    reduction — on top of the traffic engine.
    """
    from repro.traffic import TrafficEngine, build_topology

    def run():
        net = build_topology("ring", 5, seed=7, formalism=formalism)
        engine = TrafficEngine(net, circuits=2, load=0.7, seed=7,
                               apps=[app])
        report = engine.run(horizon_s=0.3, drain_s=0.15)
        assert len(report.apps) == 2
        assert sum(o.pairs_consumed for o in report.apps) > 0
        return report.total_confirmed_pairs

    return run


def bench_campaign_cell(formalism: str):
    """One campaign cell end to end (the per-cell cost a grid multiplies).

    Executes the CI smoke spec's faulted cell — ring:5, 2 circuits,
    0.3 s of traffic with one link failure — through the campaign
    runner's ``run_cell`` path, including telemetry reduction.
    """
    from repro.campaign import FaultSpec, CampaignCell, run_cell

    cell = CampaignCell(
        index=0, topology="ring", size=5, formalism=formalism,
        metric="hops", faults=FaultSpec(fail_links=1), app=None,
        circuits=2, load=0.7, seed=7, horizon_s=0.3, drain_s=0.15,
        target_fidelity=0.7)

    def run():
        result = run_cell(cell)
        assert not result.error
        assert result.pairs > 0
        return result.pairs

    return run


def bench_link_delivery_round(formalism: str):
    """Steady-state link generation *plus* delivered-pair consumption.

    Replaces the retired ``link_generation_round`` op, whose timed body
    rebuilt the network (and re-ran the α scan) every call and consumed
    pairs without ever touching their state: construction allocation noise
    dominated and the remaining loop was backend-neutral, so its bell/dm
    ratio flickered around 1.0 — the spurious 0.84x "bell slower than dm"
    reading of BENCH_c001c5d.json.  Here the network is built and warmed
    once, and the timed 100 ms windows cover what a delivery actually
    costs end to end: generation, the evaluation-side fidelity read and
    state consumption, exactly the plumbing of ``Network._match``.  The
    state work is where the formalisms genuinely differ, so bell ≥ dm is
    a gated invariant (``compare_bench.py --check-speedups``).
    """
    from repro.netsim.ports import subscribe
    from repro.network.builder import build_chain_network
    from repro.quantum.fidelity import pair_fidelity
    from repro.quantum.operations import discard

    net = build_chain_network(2, seed=9, formalism=formalism)
    link = net.link_between("node0", "node1")
    node_a, node_b = net.node("node0"), net.node("node1")
    count = [0]

    def consume(delivery):
        count[0] += 1
        qubit_a = node_a.qmm.get(delivery.entanglement_id)
        qubit_b = node_b.qmm.get(delivery.entanglement_id)
        assert pair_fidelity(qubit_a, qubit_b, int(delivery.bell_index)) > 0.5
        node_a.qmm.free(delivery.entanglement_id)
        node_b.qmm.free(delivery.entanglement_id)
        discard(qubit_a, qubit_b)

    for name, handler in (("node0", consume), ("node1", lambda d: None)):
        port = link.delivery_port(name)
        port.disconnect()  # detach the network layer the builder wired
        subscribe(port, handler)
    link.set_request("micro", min_fidelity=0.8, lpr=200.0)
    net.sim.run(until=net.sim.now + 1e8)  # warm to steady state
    assert count[0] > 5

    def run():
        before = count[0]
        net.sim.run(until=net.sim.now + 1e8)  # 100 ms simulated
        assert count[0] > before
        return count[0]

    return run


#: Ops timed on both formalisms whose bell-over-dm ratio is reported.
RATIO_OPS = ("bsm", "link_delivery_round", "traffic_round", "traffic_soak")

#: name → (factory, iterations per round)
BENCHMARKS = {
    "decoherence_channel": (bench_decoherence_channel, 2000),
    "alpha_for_fidelity": (bench_alpha_for_fidelity, 20),
    "bsm_dm": (lambda: bench_bsm("dm"), 50),
    "bsm_bell": (lambda: bench_bsm("bell"), 500),
    "averaged_swap_map": (bench_averaged_swap_map, 2000),
    "route_compute_hops": (lambda: bench_route_compute("hops"), 4),
    "route_compute_utilisation":
        (lambda: bench_route_compute("utilisation"), 4),
    "route_compute_fidelity_cost":
        (lambda: bench_route_compute("fidelity-cost"), 4),
    "link_delivery_round_dm":
        (lambda: bench_link_delivery_round("dm"), 20),
    "link_delivery_round_bell":
        (lambda: bench_link_delivery_round("bell"), 20),
    "traffic_round_dm": (lambda: bench_traffic_round("dm"), 1),
    "traffic_round_bell": (lambda: bench_traffic_round("bell"), 1),
    "traffic_soak_dm": (lambda: bench_traffic_soak("dm"), 1),
    "traffic_soak_bell": (lambda: bench_traffic_soak("bell"), 1),
    "campaign_cell_bell": (lambda: bench_campaign_cell("bell"), 1),
    "apps_qkd_round_bell": (lambda: bench_apps_round("qkd", "bell"), 1),
    "apps_distil_round_dm": (lambda: bench_apps_round("distil", "dm"), 1),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7,
                        help="timed batches per benchmark (median reported)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output path (default: BENCH_<rev>.json in the"
                             " repository root)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="run a subset of benchmarks by name")
    args = parser.parse_args(argv)

    revision = _git_revision()
    selected = [name for name in BENCHMARKS
                if not args.only or name in args.only]
    samples: dict[str, list[float]] = {}
    speedups = {}
    for name in selected:
        if name in samples:
            continue
        op = name.rsplit("_", 1)[0]
        pair = (f"{op}_dm", f"{op}_bell")
        if op in RATIO_OPS and all(key in selected for key in pair):
            # Alternate dm and bell batches so host drift lands on both
            # sides of the ratio alike, and gate the per-round ratios.
            timers = [_batch_timer(BENCHMARKS[key][0](), BENCHMARKS[key][1])
                      for key in pair]
            for key in pair:
                samples[key] = []
            for round_index in range(args.rounds):
                order = (0, 1) if round_index % 2 == 0 else (1, 0)
                for side in order:
                    samples[pair[side]].append(timers[side]())
            ratios = [dm / bell for dm, bell
                      in zip(samples[pair[0]], samples[pair[1]])]
            speedups[op] = round(statistics.median(ratios), 2)
        else:
            factory, iterations = BENCHMARKS[name]
            timer = _batch_timer(factory(), iterations)
            samples[name] = [timer() for _ in range(args.rounds)]
    results: dict[str, float] = {}
    for name in selected:
        median = statistics.median(samples[name])
        results[name] = round(median, 1)
        print(f"{name:30s} {median / 1e3:12.2f} us/op")
    for op, speedup in speedups.items():
        print(f"{op}: bell is {speedup}x faster than dm")

    payload = {
        "revision": revision,
        "unit": "ns_per_op_median",
        "rounds": args.rounds,
        "results": results,
        "speedup_bell_over_dm": speedups,
    }
    if TRAFFIC_STATS:
        # Sustained end-to-end throughput of the traffic_soak scenario
        # (pairs per simulated second; deterministic for a fixed seed).
        payload["traffic_pairs_per_s"] = dict(sorted(TRAFFIC_STATS.items()))
        for formalism, value in sorted(TRAFFIC_STATS.items()):
            print(f"soak throughput ({formalism}): {value} pairs/s")
    if EVENT_STATS:
        payload["events_processed"] = dict(sorted(EVENT_STATS.items()))
    if OBS_STATS:
        # The soak's final registry counters (what a --metrics-out final
        # snapshot would carry) — deterministic for a fixed seed.
        payload["obs_counters"] = dict(sorted(OBS_STATS.items()))
    if RSS_STATS:
        # Peak RSS right after each soak scenario, gated by the
        # compare_bench.py ceiling (memory-leak tripwire).
        payload["soak_max_rss_kb"] = dict(sorted(RSS_STATS.items()))
        for name, value in sorted(RSS_STATS.items()):
            print(f"soak peak rss ({name}): {value} kB")
    try:
        import resource

        # Linux reports ru_maxrss in KiB; the absolute value matters less
        # than its trajectory across BENCH_<rev>.json files.
        payload["max_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
    except ImportError:  # pragma: no cover - non-POSIX platforms
        pass
    out = args.out or (Path(__file__).resolve().parent.parent
                       / f"BENCH_{revision}.json")
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
