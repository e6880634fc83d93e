#!/usr/bin/env python3
"""Quantum teleportation over QNP-delivered pairs ("create and keep").

The create-and-keep use case of Sec 3.1: the application asks for pairs in
a definite Bell state (final_state=Φ+, so the head-end applies the Pauli
correction from the tracking information) and then teleports data qubits
from the head-end to the tail-end through them.

The example prepares random single-qubit states, teleports each through a
delivered pair, and verifies the received state against the original using
the simulation's ground truth.

Run:  python examples/teleportation.py
"""

import numpy as np

from repro import UserRequest, build_chain_network
from repro.quantum import BellIndex, QState, Qubit, ry, teleport


def random_state_qubit(rng) -> tuple[Qubit, np.ndarray]:
    """A fresh qubit in a random meridian state, plus its ideal vector."""
    theta = rng.random() * np.pi
    qubit = Qubit("data")
    state = QState.ground(qubit)
    rotation = ry(theta)
    state.apply_unitary(rotation, [qubit])
    ideal = rotation @ np.array([1.0, 0.0], dtype=complex)
    return qubit, ideal


def main() -> None:
    net = build_chain_network(num_nodes=3, seed=11)
    circuit_id = net.establish_circuit("node0", "node2", target_fidelity=0.85)
    # Keep both halves of every pair seen at both ends (a truthy return
    # takes the qubits over from the network façade).
    matched_pairs = []

    def keep(pair) -> bool:
        matched_pairs.append(pair)
        return True

    handle = net.submit(circuit_id,
                        UserRequest(num_pairs=5, final_state=BellIndex.PHI_PLUS),
                        on_matched=keep)
    net.run_until_complete([handle], timeout_s=180)

    rng = net.sim.rng
    print("Teleporting random qubits node0 → node2 through delivered pairs\n")
    print(f"{'pair':>4}  {'reported state':>14}  {'teleport fidelity':>17}")
    for pair in sorted(matched_pairs, key=lambda m: m.head_delivery.sequence):
        head_delivery, tail_delivery = pair.head_delivery, pair.tail_delivery
        data_qubit, ideal = random_state_qubit(rng)
        received = teleport(data_qubit, head_delivery.qubit,
                            tail_delivery.qubit, rng)
        dm = received.state.reduced_dm([received])
        fidelity = float(np.real(ideal.conj() @ dm @ ideal))
        print(f"{head_delivery.sequence:>4}  "
              f"{str(head_delivery.bell_state):>14}  {fidelity:>17.4f}")

    print("\nAll pairs were Pauli-corrected to Φ+ by the head-end, so the")
    print("teleportation correction depends only on the local BSM outcome.")


if __name__ == "__main__":
    main()
