"""Ablation: the cutoff mechanism (Sec 4.1 / Fig 10 design claim).

Compares three strategies on a 3-node chain with deliberately short memory
(T2* = 50 ms), all using the same link fidelity:

* **cutoff** — the QNP's mechanism: discard unswapped intermediate pairs
  after a fixed window;
* **oracle** — no cutoff; end-nodes discard end-to-end pairs below the
  fidelity threshold using the simulation's ground truth (the paper's
  "simpler protocol", impossible outside a simulator);
* **none** — no cutoff, deliver everything.

Measured: useful throughput (pairs above threshold per second) and mean
delivered fidelity, averaged over ``figutils.SEEDS``.  Asserted: the
cutoff yields at least the oracle's useful throughput, and "none" delivers
garbage fidelity.
"""

import pytest

from repro.analysis import mean, render_table
from repro.core import UserRequest
from repro.hardware import SIMULATION
from repro.netsim.units import MS, S
from repro.network.builder import build_chain_network

from figutils import SEEDS, seed_mean, write_result

T2_S = 0.05
LINK_FIDELITY = 0.92
TARGET = 0.8
CUTOFF = 5 * MS
SIM_SECONDS = 30.0


def run_variant(cutoff, oracle_threshold, seed: int) -> dict:
    net = build_chain_network(3, seed=seed,
                              params=SIMULATION.with_t2(T2_S * S))
    circuit_id = net.establish_circuit_manual(
        ["node0", "node1", "node2"], link_fidelity=LINK_FIDELITY,
        cutoff=cutoff, max_eer=200.0, estimated_fidelity=TARGET)
    matched = []
    net.submit(circuit_id, UserRequest(num_pairs=10 ** 6),
               oracle_min_fidelity=oracle_threshold,
               on_matched=matched.append)
    net.run(until_s=net.sim.now / 1e9 + SIM_SECONDS)
    fidelities = [m.fidelity for m in matched]
    useful = sum(1 for m in matched if m.fidelity >= TARGET)
    return {
        "useful_tp": useful / SIM_SECONDS,
        "delivered_tp": sum(1 for m in matched if m.accepted) / SIM_SECONDS,
        "mean_fidelity": mean(fidelities) if fidelities else 0.0,
    }


@pytest.fixture(scope="module")
def variants():
    results = {}
    for name, cutoff, oracle_threshold in (("cutoff", CUTOFF, None),
                                           ("oracle", None, TARGET),
                                           ("none", None, None)):
        results[name] = seed_mean([run_variant(cutoff, oracle_threshold, seed)
                                   for seed in SEEDS])
    return results


def test_ablation_cutoff(variants):
    rows = [[name,
             round(data["useful_tp"], 2),
             round(data["delivered_tp"], 2),
             round(data["mean_fidelity"], 3)]
            for name, data in variants.items()]
    table = render_table(
        ["strategy", "useful tp (pairs/s ≥ F)", "accepted tp (pairs/s)",
         "mean fidelity"],
        rows,
        title=(f"Ablation — cutoff vs oracle vs none "
               f"(T2*={T2_S}s, link F={LINK_FIDELITY}, target F={TARGET}), "
               f"mean of seeds {SEEDS}"))
    write_result("ablation_cutoff", table)


def test_cutoff_at_least_matches_oracle(variants):
    """Sec 5.2: the cutoff beats the physically impossible oracle."""
    assert variants["cutoff"]["useful_tp"] >= variants["oracle"]["useful_tp"]


def test_no_cutoff_fidelity_collapses(variants):
    assert variants["none"]["mean_fidelity"] < variants["cutoff"]["mean_fidelity"]
    assert variants["none"]["mean_fidelity"] < TARGET


def test_cutoff_delivers_above_threshold(variants):
    assert variants["cutoff"]["mean_fidelity"] >= TARGET - 0.05
