#!/usr/bin/env python3
"""Trace the QNP message sequence of Fig 6 from a live run.

Attaches a span tracer to every node of a four-node chain (two swapping
repeaters, like the figure), requests two pairs, and renders the observed
protocol sequence: REQUEST → FORWARD cascade → link pairs → SWAPs →
TRACKs in both directions → PAIR deliveries → COMPLETE cascade.

Run:  python examples/sequence_trace.py
"""

from repro import UserRequest, build_chain_network
from repro.analysis import attach_tracer


def main() -> None:
    net = build_chain_network(num_nodes=4, seed=5)
    circuit_id = net.establish_circuit("node0", "node3", target_fidelity=0.75)
    tracer = attach_tracer(net)
    handle = net.submit(circuit_id, UserRequest(num_pairs=2))
    net.run_until_complete([handle], timeout_s=300)

    nodes = ["node0", "node1", "node2", "node3"]
    print("Observed QNP sequence (compare with Fig 6 of the paper):\n")
    print(tracer.render_sequence(nodes, max_events=60))

    print("\nEvent counts:")
    for kind in ("REQUEST", "FORWARD", "LINK_PAIR", "SWAP", "TRACK",
                 "PAIR", "COMPLETE", "EXPIRE", "CUTOFF_DISCARD"):
        count = len(tracer.of_kind(kind))
        if count:
            print(f"  {kind:<15} {count}")


if __name__ == "__main__":
    main()
