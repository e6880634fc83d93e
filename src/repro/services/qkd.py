"""BBM92 quantum key distribution on top of the QNP.

The canonical "measure directly" application (Sec 3.1): both end-points
measure their half of each delivered pair in a randomly chosen basis, then
sift over the classical channel, keeping rounds where the bases matched.
The Bell-state information delivered by the QNP tells each side how to
reconcile outcomes:

* Z-basis round: the XOR of the two outcomes equals the Bell state's
  parity bit (Ψ states anti-correlate, Φ states correlate),
* X-basis round: the XOR equals the phase bit.

The quantum bit error rate (QBER) of the sifted key certifies the link: for
basic QKD the paper quotes a threshold fidelity of about 0.8, i.e. a QBER
of a few percent per basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.requests import DeliveryStatus, PairDelivery
from .fidelity_test import expected_xor


@dataclass
class SiftedKey:
    """Result of a BBM92 session."""

    key_bits: list[int]
    qber: float
    sifted_rounds: int
    total_rounds: int
    #: Basis-resolved tallies (asymmetric error rates matter: heralded
    #: states carry more phase than parity error, and the asymptotic
    #: secret fraction keys off each basis separately).
    errors_z: int = 0
    rounds_z: int = 0
    errors_x: int = 0
    rounds_x: int = 0

    @property
    def sift_ratio(self) -> float:
        return self.sifted_rounds / self.total_rounds if self.total_rounds else 0.0

    @property
    def qber_z(self) -> float:
        """Error rate of the Z-basis sifted rounds."""
        return self.errors_z / self.rounds_z if self.rounds_z else 0.0

    @property
    def qber_x(self) -> float:
        """Error rate of the X-basis sifted rounds."""
        return self.errors_x / self.rounds_x if self.rounds_x else 0.0


@dataclass
class _Round:
    basis: str
    bit: int
    bell_state: int


class BBM92Endpoint:
    """One end of a BBM92 session.

    Feed it confirmed KEEP deliveries; it measures the local qubit in a
    random basis using the node's device.  (With MEASURE requests the basis
    is fixed per request, so key distribution uses KEEP + local measurement,
    which also exercises the create-side API.)
    """

    def __init__(self, device, rng):
        self.device = device
        self.rng = rng
        self.rounds: dict = {}

    def absorb(self, delivery: PairDelivery) -> None:
        if delivery.status != DeliveryStatus.CONFIRMED or delivery.qubit is None:
            return
        basis = "Z" if self.rng.random() < 0.5 else "X"
        bit, _ = self.device.measure(delivery.qubit, basis)
        self.rounds[delivery.pair_id] = _Round(
            basis=basis, bit=bit, bell_state=int(delivery.bell_state))


def sift(head: BBM92Endpoint, tail: BBM92Endpoint) -> SiftedKey:
    """Classical sifting: compare bases, reconcile with the Bell state.

    Returns the head-side key; the error count measures how often the
    reconciled outcomes disagree (the QBER).
    """
    key_bits: list[int] = []
    errors = 0
    common = sorted(set(head.rounds) & set(tail.rounds))
    sifted = 0
    by_basis = {"Z": [0, 0], "X": [0, 0]}  # basis → [errors, rounds]
    for pair_id in common:
        round_head = head.rounds[pair_id]
        round_tail = tail.rounds[pair_id]
        if round_head.basis != round_tail.basis:
            continue
        sifted += 1
        tally = by_basis[round_head.basis]
        tally[1] += 1
        expected = expected_xor(round_head.bell_state, round_head.basis)
        if (round_head.bit ^ round_tail.bit) != expected:
            errors += 1
            tally[0] += 1
        key_bits.append(round_head.bit)
    qber = errors / sifted if sifted else 0.0
    return SiftedKey(key_bits=key_bits, qber=qber,
                     sifted_rounds=sifted, total_rounds=len(common),
                     errors_z=by_basis["Z"][0], rounds_z=by_basis["Z"][1],
                     errors_x=by_basis["X"][0], rounds_x=by_basis["X"][1])


def run_bbm92(net, circuit_id: str, num_pairs: int,
              timeout_s: float = 600.0) -> SiftedKey:
    """Convenience driver: request pairs on a circuit and distil a key.

    The head end measures each pair as it is delivered; the tail end
    measures its deliveries, in arrival order, once the run is over.
    """
    from ..core.requests import UserRequest

    route = net.route_of(circuit_id)
    head_name, tail_name = route.path[0], route.path[-1]
    head = BBM92Endpoint(net.node(head_name).device, net.sim.rng)
    tail = BBM92Endpoint(net.node(tail_name).device, net.sim.rng)
    tail_deliveries = []
    handle = net.submit(circuit_id, UserRequest(num_pairs=num_pairs),
                        on_tail_delivery=tail_deliveries.append)
    handle.on_delivery(head.absorb)
    net.run_until_complete([handle], timeout_s=timeout_s)
    for delivery in tail_deliveries:
        tail.absorb(delivery)
    return sift(head, tail)
