"""Closed-form Bell-diagonal analytics: a test oracle.

Closed-form predictions for the quantities the control plane cares
about.  No simulation code uses them; ``test_quantum_analytic.py`` pins
them to the exact density-matrix engine and ``test_backends.py`` pins the
Bell-diagonal backend to them.

All formulas operate on Bell-diagonal states written as weight vectors
``(p0, p1, p2, p3)`` over the Bell basis of :mod:`repro.quantum.bell`
(the packed two-bit index: bit 1 = phase flip, bit 0 = parity flip).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

BellWeights = np.ndarray


def werner_weights(fidelity: float) -> BellWeights:
    """Werner state weights with the given fidelity to B0."""
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError("fidelity must be in [0, 1]")
    rest = (1.0 - fidelity) / 3.0
    return np.array([fidelity, rest, rest, rest])


def validate_weights(weights: Sequence[float]) -> BellWeights:
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (4,):
        raise ValueError("need four Bell weights")
    if np.any(weights < -1e-12) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must be a probability vector")
    return weights


def swap_weights(weights_a: Sequence[float],
                 weights_b: Sequence[float]) -> BellWeights:
    """Bell weights after a perfect entanglement swap with frame correction.

    With lazy tracking the reported index is the XOR composition, so the
    corrected output weights are the XOR-convolution (Klein four-group
    convolution) of the input weight vectors:

        p_out[k] = Σ_{i ⊕ j = k} p_a[i] · p_b[j]

    Exact for Bell-diagonal inputs (verified against the engine).
    """
    weights_a = validate_weights(weights_a)
    weights_b = validate_weights(weights_b)
    out = np.zeros(4)
    for i in range(4):
        for j in range(4):
            out[i ^ j] += weights_a[i] * weights_b[j]
    return out


def chain_weights(link_weights: Sequence[float], num_links: int) -> BellWeights:
    """Weights of an end-to-end pair after a chain of identical swaps."""
    if num_links < 1:
        raise ValueError("need at least one link")
    result = validate_weights(link_weights)
    for _ in range(num_links - 1):
        result = swap_weights(result, link_weights)
    return result


def swap_fidelity(fidelity_a: float, fidelity_b: float) -> float:
    """Werner ⋆ Werner swap fidelity: F' = F_a F_b + (1−F_a)(1−F_b)/3."""
    return float(swap_weights(werner_weights(fidelity_a),
                              werner_weights(fidelity_b))[0])


def chain_fidelity(link_fidelity: float, num_links: int) -> float:
    """End-to-end Werner fidelity of an L-link swap chain.

    Closed form: F_L = 1/4 + 3/4 · ((4F−1)/3)^L — the fundamental
    exponential decay with path length that motivates distillation
    (Sec 4.3).
    """
    if num_links < 1:
        raise ValueError("need at least one link")
    contrast = (4.0 * link_fidelity - 1.0) / 3.0
    return 0.25 + 0.75 * contrast ** num_links


def dephased_weights(weights: Sequence[float], elapsed: float,
                     t2: float, both_sides: bool = True) -> BellWeights:
    """Bell weights after pure dephasing of one or both qubits.

    Dephasing mixes each state with its phase-flipped partner
    (B0 ↔ B2, B1 ↔ B3).  The mixing probability for one qubit over time t
    is (1 − e^{−t/T2})/2; two independent qubits compose by XOR of flips.
    """
    weights = validate_weights(weights)
    if elapsed < 0:
        raise ValueError("elapsed must be non-negative")
    p_single = 0.0 if math.isinf(t2) else (1.0 - math.exp(-elapsed / t2)) / 2.0
    if both_sides:
        # Probability the *net* phase flip is odd across the two qubits.
        p_flip = 2.0 * p_single * (1.0 - p_single)
    else:
        p_flip = p_single
    out = weights.copy()
    for index in range(4):
        partner = index ^ 0b10
        out[index] = (1 - p_flip) * weights[index] + p_flip * weights[partner]
    return out


def fidelity_after_storage(fidelity: float, elapsed: float, t2: float,
                           both_sides: bool = True) -> float:
    """Werner-pair fidelity after idling in dephasing memory."""
    return float(dephased_weights(werner_weights(fidelity), elapsed, t2,
                                  both_sides)[0])


def depolarized_weights(weights: Sequence[float], p: float) -> BellWeights:
    """Bell weights after two-qubit depolarizing noise (gate error model)."""
    weights = validate_weights(weights)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    uniform = np.full(4, 0.25)
    return (1.0 - 16.0 * p / 15.0) * weights + (16.0 * p / 15.0) * uniform


def required_link_fidelity(target: float, num_links: int) -> float:
    """Invert :func:`chain_fidelity`: the per-link Werner fidelity needed
    for an L-link chain to reach ``target`` (noiseless swaps, no storage).
    """
    if not 0.25 <= target < 1.0:
        raise ValueError("target must be in [0.25, 1)")
    if num_links < 1:
        raise ValueError("need at least one link")
    contrast = ((target - 0.25) / 0.75) ** (1.0 / num_links)
    return (3.0 * contrast + 1.0) / 4.0


def qber_z(weights: Sequence[float]) -> float:
    """Z-basis error rate of a Bell-diagonal pair: parity-flip weight."""
    weights = validate_weights(weights)
    return float(weights[1] + weights[3])


def qber_x(weights: Sequence[float]) -> float:
    """X-basis error rate: phase-flip weight."""
    weights = validate_weights(weights)
    return float(weights[2] + weights[3])
