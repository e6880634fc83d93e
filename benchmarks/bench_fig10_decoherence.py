"""Figure 10: robustness against decoherence.

Three panels:

* **(a, b)** throughput of two competing circuits (A0-B0 at F=0.9, A1-B1 at
  F=0.8) as a function of the memory lifetime T2*, comparing the QNP's
  cutoff mechanism against the "simpler protocol" baseline — no network
  cutoff, end-nodes discard end-to-end pairs below the fidelity threshold
  using a simulation oracle (physically impossible, as the paper stresses);
* **(c)** throughput vs artificial classical-message processing delay at
  T2* ≈ 1.6 s: flat until the delay approaches the cutoff, then the
  delivered pairs fall below threshold.

Asserted shapes: throughput increases with T2*; the F=0.9 circuit suffers
more; the cutoff beats the oracle baseline at short lifetimes ("low but not
zero"); and the delay curve is flat early and collapses late.  Every point
runs on each of ``figutils.SEEDS``; throughputs are the seed means.
"""

import pytest

from repro.analysis import render_table
from repro.control.routing import RouteError
from repro.core import UserRequest
from repro.hardware import SIMULATION
from repro.netsim.units import MS, S
from repro.network.builder import build_dumbbell_network

from figutils import SEEDS, seed_mean, write_result

T2_SWEEP_S = (0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 25.0)
DELAY_SWEEP_MS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0)
SIM_SECONDS = 20.0
WARMUP_SECONDS = 4.0
FIDELITIES = {"A0-B0": 0.9, "A1-B1": 0.8}


def _build(t2_s: float, seed: int):
    return build_dumbbell_network(seed=seed, params=SIMULATION.with_t2(t2_s * S))


def _accepted_at(times: list):
    """An ``on_matched`` consumer noting when each accepted pair arrived."""
    def note(matched) -> None:
        if matched.accepted:
            times.append(matched.head_delivery.t_delivered)
    return note


def _measure(net, accepted: dict) -> dict:
    """Accepted-pair throughput per circuit label in the steady window."""
    net.run(until_s=net.sim.now / 1e9 + SIM_SECONDS)
    window_start = net.sim.now - (SIM_SECONDS - WARMUP_SECONDS) * S
    window_s = SIM_SECONDS - WARMUP_SECONDS
    return {label: sum(1 for t in times if t >= window_start) / window_s
            for label, times in accepted.items()}


def run_t2_point(t2_s: float, use_cutoff: bool, seed: int) -> dict:
    """Throughput of both circuits at one memory lifetime."""
    net = _build(t2_s, seed)
    accepted = {}
    for label, (head, tail) in (("A0-B0", ("A0", "B0")),
                                ("A1-B1", ("A1", "B1"))):
        target = FIDELITIES[label]
        try:
            route = net.controller.compute_route(head, tail, target, "loss")
        except RouteError:
            continue
        if use_cutoff:
            circuit_id = net._install(route, None)
        else:
            # Baseline: same link fidelities, no cutoff anywhere; the
            # end-nodes filter with the simulation oracle.
            circuit_id = net.establish_circuit_manual(
                route.path, route.link_fidelity, cutoff=None,
                max_eer=route.eer, estimated_fidelity=route.estimated_fidelity)
        accepted[label] = []
        net.submit(circuit_id, UserRequest(num_pairs=10 ** 6),
                   oracle_min_fidelity=target,
                   on_matched=_accepted_at(accepted[label]))
    measured = _measure(net, accepted)
    for label in FIDELITIES:
        measured.setdefault(label, 0.0)
    return measured


def run_delay_point(delay_ms: float, seed: int) -> dict:
    """Panel (c): throughput at T2*=1.6 s under injected message delay."""
    net = _build(1.6, seed)
    accepted = {}
    cutoffs = {}
    for label, (head, tail) in (("A0-B0", ("A0", "B0")),
                                ("A1-B1", ("A1", "B1"))):
        target = FIDELITIES[label]
        circuit_id = net.establish_circuit(head, tail, target, "loss")
        cutoffs[label] = net.route_of(circuit_id).cutoff
        accepted[label] = []
        net.submit(circuit_id, UserRequest(num_pairs=10 ** 6),
                   oracle_min_fidelity=target,
                   on_matched=_accepted_at(accepted[label]))
    net.set_message_delay(delay_ms * MS)
    measured = _measure(net, accepted)
    measured["cutoff_ms"] = min(cutoffs.values()) / 1e6
    return measured


@pytest.fixture(scope="module")
def t2_sweep():
    results = {}
    for t2_s in T2_SWEEP_S:
        results[t2_s] = {
            variant: seed_mean([run_t2_point(t2_s, use_cutoff, seed)
                                 for seed in SEEDS])
            for variant, use_cutoff in (("cutoff", True), ("oracle", False))
        }
    return results


@pytest.fixture(scope="module")
def delay_sweep():
    return {delay: seed_mean([run_delay_point(delay, seed) for seed in SEEDS])
            for delay in DELAY_SWEEP_MS}


def test_fig10ab_throughput_vs_memory_lifetime(t2_sweep):
    rows = []
    for t2_s in T2_SWEEP_S:
        point = t2_sweep[t2_s]
        rows.append([t2_s,
                     round(point["cutoff"]["A0-B0"], 2),
                     round(point["oracle"]["A0-B0"], 2),
                     round(point["cutoff"]["A1-B1"], 2),
                     round(point["oracle"]["A1-B1"], 2)])
    table = render_table(
        ["T2* (s)",
         "F=0.9 cutoff (pairs/s)", "F=0.9 oracle (pairs/s)",
         "F=0.8 cutoff (pairs/s)", "F=0.8 oracle (pairs/s)"],
        rows,
        title=("Fig 10(a,b) — throughput vs memory lifetime; QNP cutoff vs "
               f"no-cutoff + end-node fidelity oracle, mean of seeds {SEEDS}\n"
               "paper shape: throughput grows with T2*; F=0.9 hit harder; "
               "cutoff ≥ oracle baseline"))
    write_result("fig10ab_decoherence", table)


def test_fig10ab_throughput_grows_with_lifetime(t2_sweep):
    lows = t2_sweep[T2_SWEEP_S[0]]["cutoff"]
    highs = t2_sweep[T2_SWEEP_S[-1]]["cutoff"]
    assert highs["A0-B0"] > lows["A0-B0"]
    assert highs["A1-B1"] >= lows["A1-B1"]


def test_fig10ab_high_fidelity_circuit_suffers_more(t2_sweep):
    """F=0.9 needs slower links and a tighter swap window: lower rate."""
    for t2_s in T2_SWEEP_S:
        point = t2_sweep[t2_s]["cutoff"]
        assert point["A0-B0"] <= point["A1-B1"] + 0.5, (t2_s, point)


def test_fig10ab_cutoff_beats_oracle_baseline(t2_sweep):
    """The cutoff outperforms even the physically impossible oracle where
    the mechanism matters: the high-fidelity circuit, whose swap window is
    tight, at every memory lifetime (the paper's Fig 10a emphasis — the
    F=0.8 circuit's curves nearly coincide in Fig 10b and are within noise
    of each other here too)."""
    for t2_s in T2_SWEEP_S:
        cutoff = t2_sweep[t2_s]["cutoff"]["A0-B0"]
        oracle = t2_sweep[t2_s]["oracle"]["A0-B0"]
        assert cutoff >= oracle, (t2_s, cutoff, oracle)
    # And at the shortest lifetime the margin is decisive: the oracle
    # baseline essentially stops delivering F=0.9 pairs.
    shortest = t2_sweep[T2_SWEEP_S[0]]
    assert shortest["cutoff"]["A0-B0"] >= 2.0 * shortest["oracle"]["A0-B0"]


def test_fig10ab_low_but_not_zero(t2_sweep):
    """Paper: 'the F=0.9 with cutoff throughput becomes low, but not zero'."""
    shortest = t2_sweep[T2_SWEEP_S[0]]["cutoff"]
    assert shortest["A0-B0"] > 0.0


def test_fig10c_message_delay(delay_sweep):
    cutoff_ms = delay_sweep[DELAY_SWEEP_MS[0]]["cutoff_ms"]
    rows = [[delay,
             round(delay_sweep[delay]["A0-B0"], 2),
             round(delay_sweep[delay]["A1-B1"], 2)] for delay in DELAY_SWEEP_MS]
    table = render_table(
        ["message delay (ms)", "F=0.9 tp (pairs/s)", "F=0.8 tp (pairs/s)"],
        rows,
        title=(f"Fig 10(c) — throughput vs classical message delay at "
               f"T2*=1.6 s (qubit cutoff ≈ {cutoff_ms:.1f} ms), mean of seeds "
               f"{SEEDS}\n"
               "paper shape: flat until the delay approaches the cutoff, "
               "then the delivered pairs fall below threshold"))
    write_result("fig10c_message_delay", table)


def test_fig10c_flat_below_cutoff_then_collapse(delay_sweep):
    baseline = delay_sweep[DELAY_SWEEP_MS[0]]
    cutoff_ms = baseline["cutoff_ms"]
    small_delays = [d for d in DELAY_SWEEP_MS if d <= cutoff_ms / 4 and d > 0]
    large_delays = [d for d in DELAY_SWEEP_MS if d >= cutoff_ms]
    for delay in small_delays:
        assert delay_sweep[delay]["A1-B1"] > 0.5 * baseline["A1-B1"], delay
    assert large_delays, f"sweep never crossed the cutoff ({cutoff_ms} ms)"
    worst = delay_sweep[max(large_delays)]
    assert worst["A0-B0"] < 0.4 * max(baseline["A0-B0"], 0.1) + 0.05
