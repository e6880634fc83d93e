"""Single-click heralded entanglement generation model.

This is the physical mechanism under the link layer (Sec 2.2 / 3.5): both
nodes entangle their communication qubit with an emitted photon, the photons
interfere at a midpoint station, and a single detector click heralds an
entangled pair in Ψ+ or Ψ− (which one is known from which detector fired).

The bright-state population ``alpha`` is the fidelity-vs-rate knob the link
layer exposes upward (Sec 2.3 P1):

* success probability per attempt  p ≈ 2 α (1−α) η  with
  η = p_zero_phonon × collection × detection × fibre transmissivity,
* produced fidelity  F ≈ (1 − α − penalties) · (1 + coherence)/2, where the
  coherence factor folds in interferometric visibility and optical phase
  noise Δφ, and the penalties cover double excitation and dark counts.

The model is analytic, so the link layer can (i) pick the largest α meeting
a requested minimum fidelity, (ii) fast-forward through failed attempts by
sampling the geometric distribution instead of simulating every attempt —
the key scaling trick documented in DESIGN.md.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional

import numpy as np

from ..quantum.bell import BellIndex
from .fibre import HeraldedConnection
from .parameters import HardwareParams

#: Smallest α the hardware can be asked to run at — below this, rates are
#: pointlessly low and the analytics degenerate.
MIN_ALPHA = 1e-3
#: Largest α: beyond one half the "bright" component dominates.
MAX_ALPHA = 0.5

#: Shared α scan grid for :meth:`SingleClickModel.alpha_for_fidelity` —
#: log-spaced over the legal range, built once per process.
_ALPHA_GRID = np.geomspace(MIN_ALPHA, MAX_ALPHA, 400)
_ALPHA_GRID.setflags(write=False)


class SingleClickModel:
    """Analytic single-click entanglement model for one physical link."""

    def __init__(self, params: HardwareParams, connection: HeraldedConnection):
        self.params = params
        self.connection = connection
        # Hot-path caches.  Both ``params`` and ``connection`` are frozen
        # dataclasses, so every derived quantity is a pure function of the
        # constructor arguments; the link layer asks for the same handful of
        # α values millions of times per run.
        self._success_cache: dict[float, float] = {}
        self._fidelity_cache: dict[float, float] = {}
        self._log_miss_cache: dict[float, float] = {}
        self._alpha_cache: dict[float, float] = {}
        self._dm_cache: dict[tuple, np.ndarray] = {}
        self._weights_cache: dict[tuple, np.ndarray] = {}

    @property
    def cache_key(self) -> tuple:
        """Value identity of the physical model for cross-instance memos.

        Two models with equal keys produce identical statistics, so
        consumers (e.g. the routing budget solver) may share solves
        across instances.  Subclasses fold in any extra knobs that
        change the physics — see :class:`MidpointHeraldModel`.
        """
        return (type(self).__name__, self.params, self.connection)

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    @cached_property
    def cycle_time(self) -> float:
        """Duration of one entanglement attempt in ns.

        Electron spin initialisation, photon emission, flight to the
        midpoint, herald signal back, plus fixed sequence overhead.
        """
        gates = self.params.gates
        return (gates.electron_init_duration
                + self.params.tau_e + self.params.tau_w
                + self.connection.herald_round_trip
                + self.params.attempt_overhead)

    # ------------------------------------------------------------------
    # Success statistics
    # ------------------------------------------------------------------

    @cached_property
    def detection_efficiency(self) -> float:
        """Photon detection probability from one node, fibre included.

        Uses the lossier segment (conservative for asymmetric midpoints).
        """
        fibre = min(self.connection.segment_a.transmissivity,
                    self.connection.segment_b.transmissivity)
        return (self.params.p_zero_phonon * self.params.collection_efficiency
                * self.params.p_detection * fibre)

    def dark_probability(self) -> float:
        """Probability of a dark count per detector and herald window.

        The overridable seam between the physical models: the analytic
        model integrates the dark-count rate over the detector's own
        window (τ_w); the time-windowed midpoint model
        (:class:`MidpointHeraldModel`) integrates it over its explicit
        coincidence window instead.
        """
        return self.params.dark_count_probability()

    def _produced_stats(self, alpha):
        """(success probability, garbage weight, produced fidelity).

        The single home of the single-click physics formulas; ``alpha`` may
        be a scalar or an array (the α-scan of :meth:`alpha_for_fidelity`
        evaluates the whole grid in one call).  Scalar callers go through
        the per-α caches below, so the numpy overhead is paid once per α.
        """
        alpha = np.asarray(alpha, dtype=float)
        eta = self.detection_efficiency
        dark = 2.0 * self.dark_probability()
        p = np.minimum(2.0 * alpha * (1.0 - alpha) * eta + dark, 1.0)
        dark_fraction = np.where(p > 0, dark / np.where(p > 0, p, 1.0), 0.0)
        garbage = np.minimum(
            alpha + self.params.p_double_excitation + dark_fraction, 1.0)
        fidelity = (1.0 - garbage) * (1.0 + self.coherence_factor()) / 2.0
        return p, garbage, fidelity

    def success_probability(self, alpha: float) -> float:
        """Probability that one attempt heralds a pair."""
        cached = self._success_cache.get(alpha)
        if cached is not None:
            return cached
        self._check_alpha(alpha)
        p = float(self._produced_stats(alpha)[0])
        self._success_cache[alpha] = p
        return p

    def log_miss_probability(self, alpha: float) -> float:
        """``log(1 − p_success)`` — the geometric-sampling constant.

        Owned here so the inverse-CDF attempt sampler has exactly one
        source (cached per request by the link layer's inlined hot path).
        """
        log_miss = self._log_miss_cache.get(alpha)
        if log_miss is None:
            log_miss = math.log(1.0 - self.success_probability(alpha))
            self._log_miss_cache[alpha] = log_miss
        return log_miss

    def expected_pair_time(self, alpha: float) -> float:
        """Mean time to produce one pair, in ns."""
        return self.cycle_time / self.success_probability(alpha)

    def time_quantile(self, alpha: float, quantile: float) -> float:
        """Time by which a pair is produced with the given probability.

        Used for the paper's "shorter cutoff" (the time at which a link has
        0.85 probability of having generated a pair, Sec 5.1) and by the
        routing protocol's rate estimates.
        """
        if not 0.0 < quantile < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        p = self.success_probability(alpha)
        attempts = math.ceil(math.log(1.0 - quantile) / math.log(1.0 - p))
        return attempts * self.cycle_time

    # ------------------------------------------------------------------
    # Produced state
    # ------------------------------------------------------------------

    @cached_property
    def _coherence_factor(self) -> float:
        return self.params.visibility * math.exp(-self.params.delta_phi ** 2 / 2.0)

    def coherence_factor(self) -> float:
        """Off-diagonal contrast of the heralded state.

        Interferometric visibility times the Gaussian phase-noise envelope
        exp(−Δφ²/2).
        """
        return self._coherence_factor

    def garbage_weight(self, alpha: float) -> float:
        """Weight of the separable |11⟩-type admixture in the heralded state.

        Bright-state population α, double excitation, and false heralds from
        dark counts.
        """
        self._check_alpha(alpha)
        return float(self._produced_stats(alpha)[1])

    def fidelity(self, alpha: float) -> float:
        """Fidelity of the heralded pair to its reported Bell state."""
        cached = self._fidelity_cache.get(alpha)
        if cached is not None:
            return cached
        self._check_alpha(alpha)
        value = float(self._produced_stats(alpha)[2])
        self._fidelity_cache[alpha] = value
        return value

    def alpha_for_fidelity(self, min_fidelity: float) -> float:
        """Largest α whose produced fidelity still meets ``min_fidelity``.

        This is the link layer's QoS knob: higher α means faster pairs at
        lower fidelity.  Raises ``ValueError`` when the hardware cannot
        reach the requested fidelity at any α (policing input).
        """
        if not 0.0 < min_fidelity <= 1.0:
            raise ValueError("min_fidelity must be in (0, 1]")
        cached = self._alpha_cache.get(min_fidelity)
        if cached is not None:
            return cached
        # Fidelity is not monotone in α: dark counts poison the state at very
        # small α (their share of heralds grows as the signal shrinks), while
        # the bright-state admixture dominates at large α.  Scan a log-spaced
        # grid for the *largest* feasible α — largest means fastest pairs.
        grid, fidelities = self._fidelity_grid
        feasible = np.flatnonzero(fidelities >= min_fidelity)
        if feasible.size == 0:
            best = float(fidelities.max())
            raise ValueError(
                f"link cannot reach fidelity {min_fidelity:.3f}"
                f" (best achievable ≈ {best:.3f})")
        alpha = float(grid[feasible[-1]])
        # Refine upward within the last grid cell (fidelity is locally
        # decreasing there).
        step = alpha * 0.01
        while alpha + step <= MAX_ALPHA and self.fidelity(alpha + step) >= min_fidelity:
            alpha += step
        self._alpha_cache[min_fidelity] = alpha
        return alpha

    @cached_property
    def _fidelity_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(α grid, produced fidelity) — the scan of :meth:`fidelity`
        evaluated in one vectorized sweep instead of 400 Python calls."""
        return _ALPHA_GRID, self._produced_stats(_ALPHA_GRID)[2]

    def produced_dm(self, alpha: float, bell_index: BellIndex) -> np.ndarray:
        """Density matrix of the heralded pair.

        Basis |00⟩,|01⟩,|10⟩,|11⟩.  The entangled component is Ψ± with
        reduced off-diagonal contrast; the garbage component is |11⟩ (both
        spins bright).

        Memoized per ``(alpha, bell_index)`` — the link layer produces
        thousands of identical states per run — and returned **read-only**;
        callers must copy before mutating.
        """
        key = (alpha, int(bell_index))
        cached = self._dm_cache.get(key)
        if cached is not None:
            return cached
        if bell_index not in (BellIndex.PSI_PLUS, BellIndex.PSI_MINUS):
            raise ValueError("single-click heralding produces Ψ+ or Ψ− only")
        sign = 1.0 if bell_index == BellIndex.PSI_PLUS else -1.0
        coherence = self.coherence_factor()
        w = self.garbage_weight(alpha)
        dm = np.zeros((4, 4), dtype=complex)
        dm[0b01, 0b01] = 0.5
        dm[0b10, 0b10] = 0.5
        dm[0b01, 0b10] = sign * 0.5 * coherence
        dm[0b10, 0b01] = sign * 0.5 * coherence
        dm = (1.0 - w) * dm
        dm[0b11, 0b11] += w
        dm.setflags(write=False)
        self._dm_cache[key] = dm
        return dm

    def produced_weights(self, alpha: float, bell_index: BellIndex) -> np.ndarray:
        """Bell-diagonal weights of the heralded pair (``"bell"`` formalism).

        The exact diagonal ⟨B_i|ρ|B_i⟩ of :meth:`produced_dm`: the Ψ±
        doublet splits according to the coherence factor and the |11⟩
        garbage contributes w/2 to each Φ state (its Φ+/Φ− coherence is
        dropped — the twirled approximation the Bell formalism documents).
        Memoized and read-only like :meth:`produced_dm`.
        """
        key = (alpha, int(bell_index))
        cached = self._weights_cache.get(key)
        if cached is not None:
            return cached
        if bell_index not in (BellIndex.PSI_PLUS, BellIndex.PSI_MINUS):
            raise ValueError("single-click heralding produces Ψ+ or Ψ− only")
        coherence = self.coherence_factor()
        w = self.garbage_weight(alpha)
        weights = np.empty(4)
        weights[int(bell_index)] = (1.0 - w) * (1.0 + coherence) / 2.0
        weights[int(bell_index) ^ 0b10] = (1.0 - w) * (1.0 - coherence) / 2.0
        weights[BellIndex.PHI_PLUS] = w / 2.0
        weights[BellIndex.PHI_MINUS] = w / 2.0
        weights.setflags(write=False)
        self._weights_cache[key] = weights
        return weights

    # ------------------------------------------------------------------

    @staticmethod
    def _check_alpha(alpha: float) -> None:
        if not MIN_ALPHA <= alpha <= MAX_ALPHA:
            raise ValueError(f"alpha {alpha} outside [{MIN_ALPHA}, {MAX_ALPHA}]")


class MidpointHeraldModel(SingleClickModel):
    """Single-click model with an explicit midpoint coincidence window.

    The analytic base model assumes the midpoint detector integrates over
    the full detection window τ_w with ideal gating.  This variant models
    a midpoint station whose detector opens a **coincidence time window**
    of ``W`` ns when the first photon could arrive, so

    * only the fraction ``1 − exp(−W/τ_e)`` of the exponentially shaped
      photon wave-packet (emission constant τ_e) falls inside the window —
      folded into :attr:`detection_efficiency`;
    * dark counts integrate over ``W`` rather than τ_w —
      :meth:`dark_probability` becomes ``1 − exp(−rate·W)``.

    Everything downstream (α selection, geometric fast-forward, produced
    states) is inherited unchanged, so the link layer can swap the models
    per link (``--physical midpoint``).
    """

    def __init__(self, params: HardwareParams, connection: HeraldedConnection,
                 coincidence_window: Optional[float] = None):
        super().__init__(params, connection)
        if coincidence_window is None:
            coincidence_window = params.tau_w
        if coincidence_window <= 0:
            raise ValueError("coincidence window must be positive")
        #: Width of the midpoint coincidence window, ns.
        self.coincidence_window = coincidence_window

    @property
    def cache_key(self) -> tuple:
        """Adds the coincidence window to the base model's value identity."""
        return (type(self).__name__, self.params, self.connection,
                self.coincidence_window)

    @cached_property
    def window_acceptance(self) -> float:
        """Fraction of the photon wave-packet inside the window."""
        return 1.0 - math.exp(-self.coincidence_window / self.params.tau_e)

    @cached_property
    def detection_efficiency(self) -> float:
        """Base detection efficiency times the window acceptance."""
        base = SingleClickModel.detection_efficiency.func(self)
        return base * self.window_acceptance

    def dark_probability(self) -> float:
        """Dark-count probability integrated over the coincidence window."""
        return 1.0 - math.exp(
            -self.params.dark_count_rate * self.coincidence_window)
