#!/usr/bin/env python3
"""The Fig 11 scenario: the QNP on near-future hardware.

Three nodes, 25 km apart, near-term NV parameters (Tables 1–2's right
column): one communication qubit per node (links take turns), carbon
storage with nuclear dephasing during entanglement attempts, telecom
frequency conversion losses.  As in the paper, the routing tables are
populated manually — link fidelities set as high as the hardware allows and
a hand-tuned cutoff — and we request 10 pairs at the entanglement-witness
threshold F ≥ 0.5.

Run:  python examples/near_future_hardware.py
"""

from repro import UserRequest, build_near_term_chain
from repro.netsim.units import S


def main() -> None:
    net = build_near_term_chain(num_nodes=3, length_km=25.0, seed=3)
    link = net.link_between("node0", "node1")
    alpha = link.model.alpha_for_fidelity(0.8)
    print("Near-term hardware (Fig 11 configuration)")
    print(f"  attempt cycle     : {link.model.cycle_time / 1e3:.1f} µs "
          "(dominated by the 2×12.5 km herald round trip)")
    print(f"  success/attempt   : {link.model.success_probability(alpha):.2e}")
    print(f"  mean link-pair    : {link.model.expected_pair_time(alpha) / 1e9:.2f} s")
    print()

    circuit_id = net.establish_circuit_manual(
        path=["node0", "node1", "node2"],
        link_fidelity=0.8,          # as high as the hardware supports
        cutoff=3.0 * S,             # hand-tuned (Sec 5.3)
        max_eer=5.0,
        estimated_fidelity=0.55,
    )
    matched_pairs = []
    handle = net.submit(circuit_id, UserRequest(num_pairs=10),
                        on_matched=matched_pairs.append)
    net.run_until_complete([handle], timeout_s=600)

    print(f"request status: {handle.status.value}, "
          f"{handle.pairs_confirmed} pairs delivered")
    print(f"{'pair':>4}  {'arrival (s)':>11}  {'fidelity':>8}")
    for matched in sorted(matched_pairs,
                          key=lambda m: m.head_delivery.t_delivered):
        head = matched.head_delivery
        print(f"{head.sequence:>4}  {head.t_delivered / 1e9:>11.1f}  "
              f"{matched.fidelity:>8.3f}")
    witnesses = sum(1 for m in matched_pairs if m.fidelity > 0.5)
    print(f"\n{witnesses}/{len(matched_pairs)} pairs above the "
          "F=0.5 entanglement witness threshold.")


if __name__ == "__main__":
    main()
