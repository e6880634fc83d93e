#!/usr/bin/env python
"""Formalism-ratio floors: bell must stay faster than dm on state work.

Times three ops on the exact density-matrix formalism *and* the
Bell-diagonal formalism — a noisy Bell-state measurement (``bsm``), a
steady-state link delivery window (``link_delivery_round``) and a
multi-hop traffic round (``traffic_round``) — and checks each
bell-over-dm speed ratio against :data:`SPEEDUP_FLOORS`.  The two
formalisms of an op are timed in alternating batches, and the ratio is
the median of the per-round ratios, so host drift during the run lands
on both sides alike::

    PYTHONPATH=src python benchmarks/run_bench.py --rounds 3

Exits 1 when a ratio is below its floor or an op with a floor was not
measured.  End-to-end speed is ``perfbench``'s, gated by
``benchmarks/perf_ab.py``.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time


def _batch_timer(fn, iterations: int):
    """Warm ``fn`` and return a callable timing one batch (ns per call).

    A benchmark whose calls consume their inputs carries a
    ``prepare(count)`` attribute that builds the inputs of the next
    ``count`` calls; it runs untimed before each batch.
    """
    prepare = getattr(fn, "prepare", None)
    if prepare is not None:
        prepare(1)
    fn()  # warm caches — the steady-state cost is what the ratio compares

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


def bench_traffic_round(formalism: str):
    """Sustained concurrent traffic: 8 circuits on a 3x3 grid.

    Times one full workload round (install 8 circuits, 1 s of Poisson
    session traffic at load 0.8, drain, teardown).  Paths include swaps,
    so this is the scenario where the state formalisms genuinely differ.
    """
    from repro.traffic import TrafficEngine, build_topology

    def run():
        net = build_topology("grid", 3, seed=7, formalism=formalism)
        engine = TrafficEngine(net, circuits=8, load=0.8, seed=7)
        report = engine.run(horizon_s=1.0, drain_s=0.5)
        assert len(engine.circuits) >= 8
        assert report.total_confirmed_pairs > 0
        return report.total_confirmed_pairs

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
    a floor in :data:`SPEEDUP_FLOORS`.
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


#: op → (factory taking the formalism, iterations per timed batch).
BENCHMARKS = {
    "bsm": (bench_bsm, {"dm": 50, "bell": 500}),
    "link_delivery_round": (bench_link_delivery_round, {"dm": 20, "bell": 20}),
    "traffic_round": (bench_traffic_round, {"dm": 1, "bell": 1}),
}

#: The bell-over-dm speed ratio each op must reach.  The fast
#: Bell-diagonal formalism being *slower* than the exact engine on a state
#: heavy op is a regression by construction (BENCH_c001c5d.json recorded
#: exactly that for the old link-generation op before it was rebuilt to
#: measure delivery work); the floors keep it from reappearing silently.
#:
#: A ratio moves when either engine does, so each floor is set from the
#: bell slowdown it tolerates, ratio ÷ floor, and never below 1.0 (bell
#: never slower than dm).  When the dm engine moved to one superoperator
#: contraction per channel, its speed-up shrank the ratios with bell
#: unchanged (BENCH_d32782d.json → BENCH_c5b974e.json): ``bsm`` 21.1 → 4.9
#: and ``traffic_round`` 3.46 → 1.42.  The floors were re-derived so the
#: tolerated bell slowdown did not grow: ``bsm`` 4.9 / 4.22 → 1.2 (it
#: tolerated 21.1 / 5 = 4.22x), ``traffic_round`` 1.42 / 1.73 = 0.82,
#: raised to 1.0 (it tolerated 3.46 / 2 = 1.73x).
SPEEDUP_FLOORS = {
    "bsm": 1.2,
    "link_delivery_round": 1.0,
    "traffic_round": 1.0,
}


def measure(rounds: int) -> dict[str, float]:
    """Median bell-over-dm speed ratio of every op in :data:`BENCHMARKS`.

    Each round times one dm batch and one bell batch, alternating which
    goes first, and the ratio is the median of the per-round ratios.
    """
    speedups = {}
    for op, (factory, iterations) in BENCHMARKS.items():
        timers = [_batch_timer(factory(formalism), iterations[formalism])
                  for formalism in ("dm", "bell")]
        samples = ([], [])
        for round_index in range(rounds):
            order = (0, 1) if round_index % 2 == 0 else (1, 0)
            for side in order:
                samples[side].append(timers[side]())
        dm_ns, bell_ns = (statistics.median(side) for side in samples)
        print(f"{op:22s} dm {dm_ns / 1e3:12.2f} us/op   bell "
              f"{bell_ns / 1e3:12.2f} us/op")
        speedups[op] = round(statistics.median(
            dm / bell for dm, bell in zip(*samples)), 2)
    return speedups


def check_floors(speedups: dict[str, float],
                 floors: dict[str, float] | None = None) -> list[str]:
    """Floor violations (empty list = pass); a missing op is one."""
    floors = SPEEDUP_FLOORS if floors is None else floors
    failures = []
    for op, floor in sorted(floors.items()):
        value = speedups.get(op)
        if value is None:
            failures.append(f"{op}: not measured (floor {floor:g})")
        elif value < floor:
            failures.append(f"{op}: bell/dm speedup {value:.2f} is below "
                            f"the floor {floor:g}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=7,
                        help="timed batches per formalism and op (the"
                             " median per-round ratio is reported)")
    args = parser.parse_args(argv)
    speedups = measure(args.rounds)
    for op, speedup in speedups.items():
        print(f"{op}: bell is {speedup}x faster than dm "
              f"(floor {SPEEDUP_FLOORS[op]:g})")
    failures = check_floors(speedups)
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("OK: every bell/dm ratio is at or above its floor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
