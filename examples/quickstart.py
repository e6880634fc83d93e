#!/usr/bin/env python3
"""Quickstart: end-to-end entanglement over a three-node repeater chain.

Builds a chain of three quantum nodes (two links, one entanglement-swapping
repeater in the middle), installs a virtual circuit for fidelity ≥ 0.8, and
requests five entangled pairs.  Prints, for every delivered pair, the Bell
state the network reported and the ground-truth fidelity read from the
simulation (something a real network could never do — Sec 4.1).

Run:  python examples/quickstart.py
"""

from repro import UserRequest, build_chain_network


def main() -> None:
    net = build_chain_network(num_nodes=3, seed=42)
    circuit_id = net.establish_circuit("node0", "node2", target_fidelity=0.8)
    route = net.route_of(circuit_id)

    print("Virtual circuit installed")
    print(f"  path            : {' -> '.join(route.path)}")
    print(f"  link fidelity   : {route.link_fidelity:.4f} "
          "(chosen by the routing budget)")
    print(f"  cutoff          : {route.cutoff / 1e6:.2f} ms")
    print(f"  worst-case F    : {route.estimated_fidelity:.4f}")
    print(f"  max LPR         : {route.max_lpr:.0f} pairs/s")
    print()

    matched_pairs = []
    handle = net.submit(circuit_id, UserRequest(num_pairs=5),
                        on_matched=matched_pairs.append)
    net.run_until_complete([handle], timeout_s=120)

    print(f"Request {handle.request_id}: {handle.status.value} "
          f"in {handle.latency / 1e6:.1f} ms")
    print(f"{'pair':>4}  {'Bell state':>10}  {'fidelity':>8}  {'age (ms)':>8}")
    for matched in matched_pairs:
        head = matched.head_delivery
        age_ms = (head.t_delivered - head.t_created) / 1e6
        print(f"{head.sequence:>4}  {str(head.bell_state):>10}  "
              f"{matched.fidelity:>8.4f}  {age_ms:>8.2f}")

    middle = net.qnps["node1"]
    print()
    print(f"Repeater node1 performed {middle.swaps_performed} entanglement "
          f"swaps and discarded {middle.pairs_discarded} decohered pairs.")


if __name__ == "__main__":
    main()
