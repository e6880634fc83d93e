"""Higher-level quantum network services built on the QNP (Sec 3.3/4.3)."""

from .distillation import (
    DistillationModule,
    DistillationOutcome,
    dejmps_round,
    normalise_to_phi_plus,
    pauli_twirl,
    theoretical_dejmps_fidelity,
    theoretical_dejmps_success,
)
from .fidelity_test import FidelityEstimate
from .qkd import BBM92Endpoint, SiftedKey, run_bbm92, sift

__all__ = [
    "DistillationModule",
    "DistillationOutcome",
    "dejmps_round",
    "normalise_to_phi_plus",
    "pauli_twirl",
    "theoretical_dejmps_fidelity",
    "theoretical_dejmps_success",
    "FidelityEstimate",
    "BBM92Endpoint",
    "SiftedKey",
    "run_bbm92",
    "sift",
]
