"""NV-centre device model.

The device owns the node's qubits and performs the *physical* operations the
protocol stack requests: Bell-state measurements for entanglement swaps,
Pauli corrections, single-qubit measurements, and (in the near-term model)
moving a freshly generated pair from the communication qubit into carbon
storage.  Every operation takes the durations of Table 1 and applies the
noise of Table 1 through the density-matrix engine.

The near-term peculiarities of Sec 5.3 / Appendix B are modelled:

* a single communication qubit means only one link can run entanglement
  generation at a time (arbitrated by the network layer's task scheduler),
* each entanglement attempt dephases co-located carbon storage qubits
  (nuclear spin dephasing, Kalb et al. [44]) — charged analytically per
  attempt batch.
"""

from __future__ import annotations

from typing import Optional

from ..netsim.entity import Entity
from ..netsim.scheduler import Simulator
from ..quantum.operations import (
    NoisyOpParams,
    bell_state_measurement,
    measure_qubit,
    pauli_correct,
)
from ..quantum.qubit import Qubit
from .memory import apply_memory_noise, stamp
from .parameters import HardwareParams


class NVDevice(Entity):
    """The quantum hardware of one node."""

    def __init__(self, sim: Simulator, params: HardwareParams, name: str = ""):
        super().__init__(sim, name or "nv-device")
        self.params = params
        self.ops = NoisyOpParams(
            two_qubit_gate_fidelity=params.gates.two_qubit_gate_fidelity,
            single_qubit_gate_fidelity=params.gates.electron_single_qubit_fidelity,
            readout_error0=params.gates.readout_error0,
            readout_error1=params.gates.readout_error1,
        )
        #: Storage qubits currently holding halves of pairs (near-term model);
        #: tracked so entanglement attempts can dephase them.
        self._stored: list[Qubit] = []
        # Hot-path constants (attribute chains cost on every generation round).
        self._nuclear_q = params.nuclear_dephasing_per_attempt
        self._electron_t1 = params.electron_t1
        self._electron_t2 = params.electron_t2

    # ------------------------------------------------------------------
    # Qubit lifecycle
    # ------------------------------------------------------------------

    def adopt_comm_qubit(self, qubit: Qubit) -> None:
        """Register a freshly generated communication qubit with the device."""
        stamp(qubit, self.sim._now, self._electron_t1, self._electron_t2)

    def move_to_storage(self, qubit: Qubit) -> float:
        """Move a qubit from the communication spin into carbon storage.

        Models the E-C two-qubit gate plus carbon initialisation: applies
        two-qubit-gate depolarizing noise and carbon init infidelity as
        extra dephasing, re-stamps the qubit with carbon lifetimes, and
        returns the operation's duration (the caller accounts for time).
        """
        apply_memory_noise(qubit, self.now)
        if qubit.state is None:
            raise ValueError("cannot move a freed qubit to storage")
        gates = self.params.gates
        # Imperfect move: treat the E-C gate as a dephasing-equivalent error
        # on the moved qubit (exact two-qubit modelling would need the
        # electron's post-move state, which is immediately reset).
        error = (1.0 - gates.two_qubit_gate_fidelity) + (1.0 - gates.carbon_init_fidelity)
        if error > 0:
            qubit.state.apply_dephasing(min(error, 0.5), qubit)
        stamp(qubit, self.now, self.params.carbon_t1, self.params.carbon_t2)
        self._stored.append(qubit)
        return gates.two_qubit_gate_duration + gates.carbon_init_duration

    def release_storage(self, qubit: Qubit) -> None:
        """Forget a storage qubit (it was consumed or discarded)."""
        if qubit in self._stored:
            self._stored.remove(qubit)

    # ------------------------------------------------------------------
    # Physical operations
    # ------------------------------------------------------------------

    def bell_state_measurement(self, qubit_a: Qubit, qubit_b: Qubit) -> tuple[int, float]:
        """Noisy BSM on two co-located qubits.

        Returns ``(outcome_index, duration_ns)``.  Memory noise is brought
        up to date first.
        """
        apply_memory_noise(qubit_a, self.now)
        apply_memory_noise(qubit_b, self.now)
        self.release_storage(qubit_a)
        self.release_storage(qubit_b)
        outcome = bell_state_measurement(qubit_a, qubit_b, self.sim.rng, self.ops)
        return outcome, self.params.gates.bsm_duration

    def measure(self, qubit: Qubit, basis: str = "Z") -> tuple[int, float]:
        """Noisy single-qubit measurement; returns (bit, duration)."""
        apply_memory_noise(qubit, self.now)
        self.release_storage(qubit)
        bit = measure_qubit(qubit, self.sim.rng, basis, self.ops)
        return bit, self.params.gates.electron_readout_duration

    def pauli_correct(self, qubit: Qubit, frame_index: int) -> float:
        """Apply a Pauli frame correction; returns the duration."""
        apply_memory_noise(qubit, self.now)
        pauli_correct(qubit, frame_index, self.ops)
        return self.params.gates.electron_single_qubit_duration

    def discard(self, qubit: Qubit) -> None:
        """Trace a qubit out (cutoff expiry or demux cross-check failure).

        No memory noise is brought up to date first: a trace-preserving
        channel on the qubit cannot change what is left once it is traced
        out.
        """
        self.release_storage(qubit)
        if qubit.state is not None:
            qubit.state.remove(qubit)

    # ------------------------------------------------------------------
    # Near-term storage dephasing
    # ------------------------------------------------------------------

    def charge_attempt_noise(self, attempts: int,
                             exclude: Optional[Qubit] = None) -> None:
        """Dephase stored qubits for a batch of entanglement attempts.

        Every optical attempt resets the electron spin, which dephases the
        nuclear-spin storage qubits with a small per-attempt probability.
        The aggregate phase-flip probability over ``attempts`` attempts with
        per-attempt probability q is (1 − (1 − 2q)^attempts)/2.
        """
        q = self._nuclear_q
        if not self._stored or q <= 0 or attempts <= 0:
            return
        aggregate = (1.0 - (1.0 - 2.0 * q) ** attempts) / 2.0
        for qubit in list(self._stored):
            if qubit is exclude or qubit.state is None:
                continue
            apply_memory_noise(qubit, self.now)
            qubit.state.apply_dephasing(aggregate, qubit)
