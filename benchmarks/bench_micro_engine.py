"""Microbenchmarks of the simulation substrate.

Not a paper figure — these keep the engine's costs visible (the whole
evaluation rests on them) and give pytest-benchmark real timing series:
event scheduling, the density-matrix swap, memory-decoherence channels,
heralded-state construction and a full link-layer generation round.
"""

import random

import pytest

from repro.hardware import HeraldedConnection, SIMULATION, SingleClickModel
from repro.netsim import Simulator
from repro.quantum import (
    NoisyOpParams,
    averaged_swap_dm,
    bell_state_measurement,
    decoherence_kraus,
    get_backend,
    werner_dm,
)

OPS = NoisyOpParams(two_qubit_gate_fidelity=0.998,
                    readout_error0=0.002, readout_error1=0.002)


def test_micro_event_scheduling(benchmark):
    def schedule_and_drain():
        sim = Simulator()
        for i in range(1000):
            sim.schedule(float(i % 97), lambda: None)
        sim.run()
        return sim.events_processed

    assert benchmark(schedule_and_drain) == 1000


@pytest.mark.parametrize("formalism", ["dm", "bell"])
def test_micro_bell_state_measurement(benchmark, formalism):
    rng = random.Random(1)
    backend = get_backend(formalism)
    weights = (0.95, 0.05 / 3, 0.05 / 3, 0.05 / 3)

    def swap_once():
        qa, q_mid1 = backend.create_pair_from_weights(weights)
        q_mid2, qc = backend.create_pair_from_weights(weights)
        return bell_state_measurement(q_mid1, q_mid2, rng, OPS)

    assert benchmark(swap_once) in range(4)


def test_micro_averaged_swap_map(benchmark):
    rho = werner_dm(0.9)

    def budget_step():
        return averaged_swap_dm(rho, rho, OPS)

    result = benchmark(budget_step)
    assert result.shape == (4, 4)


def test_micro_decoherence_channel(benchmark):
    def build_channel():
        return decoherence_kraus(5e6, 3.6e12, 6e10)

    ops = benchmark(build_channel)
    assert len(ops) >= 1


def test_micro_heralded_state(benchmark):
    model = SingleClickModel(SIMULATION, HeraldedConnection.lab(0.002))
    rng = random.Random(2)

    def one_sample():
        return model.sample(0.05, rng)

    sample = benchmark(one_sample)
    assert sample.attempts >= 1


@pytest.mark.parametrize("formalism", ["dm", "bell"])
def test_micro_link_generation_round(benchmark, formalism):
    """Full stack cost of producing ~20 link pairs on one link."""
    from repro.netsim.ports import subscribe
    from repro.network.builder import build_chain_network

    def produce_pairs():
        net = build_chain_network(2, seed=9, formalism=formalism)
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
        link.set_request("micro", min_fidelity=0.9, lpr=100.0)
        net.sim.run(until=1e8)  # 100 ms simulated
        return count[0]

    assert benchmark(produce_pairs) > 5
