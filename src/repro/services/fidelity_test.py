"""End-to-end fidelity test rounds (Sec 3.4 / 4.1 "Fidelity test rounds").

The network cannot read a pair's fidelity, so it consumes a sample of pairs
as *test rounds*: both ends measure in the same basis and the correlation
statistics bound the fidelity of the untouched pairs from the same circuit.

For a Bell-diagonal state with weights (p0, p1, p2, p3) relative to the
reported Bell frame:

* the Z-basis error rate is  e_Z = p1 + p3  (parity-flipped components),
* the X-basis error rate is  e_X = p2 + p3  (phase-flipped components),

so  F = p0 ≥ 1 − e_Z − e_X.  This is the same method ref [19] applies per
link, lifted to end-to-end pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class FidelityEstimate:
    """Outcome of a batch of test rounds."""

    fidelity_lower_bound: float
    error_rate_z: float
    error_rate_x: float
    rounds_z: int
    rounds_x: int

    def standard_error(self) -> float:
        """Binomial standard error of the combined bound."""
        total = 0.0
        for error, rounds in ((self.error_rate_z, self.rounds_z),
                              (self.error_rate_x, self.rounds_x)):
            if rounds > 0:
                total += error * (1.0 - error) / rounds
        return math.sqrt(total)


def expected_xor(bell_state: int, basis: str) -> int:
    """Expected XOR of same-basis outcomes on a pair in ``bell_state``.

    Z-basis outcomes XOR to the state's parity bit, X-basis outcomes to
    its phase bit — the reconciliation rule test rounds (and BBM92
    sifting) check correlations against.
    """
    return bell_state & 1 if basis == "Z" else (bell_state >> 1) & 1
