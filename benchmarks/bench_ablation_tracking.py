"""Ablation: lazy vs blocking entanglement tracking (Sec 4.1 design claim).

The QNP's lazy tracking lets entanglement swaps proceed without waiting for
classical control messages.  The ablation flips the
``blocking_tracking`` switch — swaps wait until the TRACK message for the
upstream pair has arrived (the synchronised hop-by-hop style the paper
argues against) — and sweeps the classical message delay.

Asserted, on throughputs averaged over ``figutils.SEEDS``: with no delay
the two variants are comparable, and as the delay grows the blocking
variant loses throughput much faster.
"""

import pytest

from repro.analysis import mean, render_table
from repro.core import UserRequest
from repro.netsim.units import MS
from repro.network.builder import build_chain_network

from figutils import SEEDS, write_result

DELAYS_MS = (0.0, 1.0, 2.0, 5.0, 10.0)
SIM_SECONDS = 20.0


def run_variant(blocking: bool, delay_ms: float, seed: int) -> float:
    net = build_chain_network(3, seed=seed)
    for qnp in net.qnps.values():
        qnp.blocking_tracking = blocking
    circuit_id = net.establish_circuit("node0", "node2", 0.8, "short")
    net.set_message_delay(delay_ms * MS)
    handle = net.submit(circuit_id, UserRequest(num_pairs=10 ** 6))
    net.run(until_s=net.sim.now / 1e9 + SIM_SECONDS)
    return handle.pairs_confirmed / SIM_SECONDS


@pytest.fixture(scope="module")
def sweep():
    return {
        (blocking, delay): mean([run_variant(blocking, delay, seed)
                                 for seed in SEEDS])
        for blocking in (False, True)
        for delay in DELAYS_MS
    }


def test_ablation_tracking(sweep):
    rows = [[delay,
             round(sweep[(False, delay)], 2),
             round(sweep[(True, delay)], 2)]
            for delay in DELAYS_MS]
    table = render_table(
        ["message delay (ms)", "lazy tracking (pairs/s)",
         "blocking tracking (pairs/s)"],
        rows,
        title=("Ablation — lazy vs blocking entanglement tracking "
               f"(3-node chain, F=0.8, short cutoff), mean of seeds {SEEDS}"))
    write_result("ablation_tracking", table)


def test_lazy_dominates_blocking(sweep):
    for delay in DELAYS_MS:
        assert sweep[(False, delay)] >= sweep[(True, delay)] * 0.9, delay


def test_blocking_degrades_with_delay(sweep):
    worst_delay = DELAYS_MS[-1]
    lazy_drop = sweep[(False, worst_delay)] / max(sweep[(False, 0.0)], 1e-9)
    blocking_drop = sweep[(True, worst_delay)] / max(sweep[(True, 0.0)], 1e-9)
    assert blocking_drop < lazy_drop, (blocking_drop, lazy_drop)
