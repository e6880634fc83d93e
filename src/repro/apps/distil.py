"""Inter-circuit DEJMPS distillation as a traffic application service.

The paper's layered-service pattern (Sec 4.3): a circuit delivers pairs
to a distillation module at its end-points, and the module's output —
fewer, better pairs — is what the consumer actually sees.  Consecutive
deliveries are paired through
:class:`repro.services.distillation.DistillationModule` (normalised to
the Φ+ frame from the delivered Bell-state information, twirled, one
DEJMPS round), and the service scores the circuit by the fidelity *gain*
of the surviving pairs over the same circuit's raw deliveries.

Gates are ideal (:data:`~repro.quantum.operations.PERFECT_OPS`): the
service isolates what the protocol buys on the pairs this network
actually delivers, not what device noise takes back.
"""

from __future__ import annotations

from ..analysis.stats import mean
from ..quantum.fidelity import pair_fidelity
from ..quantum.operations import discard
from ..services.distillation import DistillationModule
from .base import AppContext, AppService, register_app
from .slo import SLOTarget


@register_app
class DistilApp(AppService):
    """Pair consecutive deliveries through DEJMPS; score the gain."""

    name = "distil"
    headline_metric = "fidelity_gain"
    slo_targets = (
        SLOTarget("fidelity_gain", 0.0, ">"),
        SLOTarget("rounds_attempted", 1, ">="),
    )

    #: Two nested DEJMPS rounds: single-click pairs carry a bit/bit-phase
    #: error mix for which one round is nearly neutral — it converts the
    #: structure into phase errors the second round then crushes (the
    #: DEJMPS two-cycle the distillation module's tests pin).
    levels = 2

    def __init__(self, ctx: AppContext):
        super().__init__(ctx)
        self._module = DistillationModule(ctx.rng, twirl=True,
                                          levels=self.levels)
        self._raw_fidelities: list[float] = []
        self._distilled_fidelities: list[float] = []

    def consume(self, pair) -> bool:
        """Feed one delivery into the distillation ladder (owns the pair)."""
        self.pairs_consumed += 1
        if pair.fidelity is not None:
            self._raw_fidelities.append(pair.fidelity)
        self._module.absorb(pair.head_delivery.qubit,
                            pair.tail_delivery.qubit,
                            pair.head_delivery.bell_state)
        self._drain()
        return True

    def _drain(self) -> None:
        """Score and free the pairs that survived the final level.

        ``absorb`` normalised every input into the Φ+ frame, so the
        surviving pair's fidelity is read against Φ+.
        """
        while self._module.distilled:
            qubit_a, qubit_b = self._module.distilled.pop()
            self._distilled_fidelities.append(
                pair_fidelity(qubit_a, qubit_b, 0))
            discard(qubit_a, qubit_b)

    def metrics(self) -> dict:
        """Raw vs distilled fidelity, yield and success statistics."""
        self._module.discard_pending()
        raw = mean(self._raw_fidelities) if self._raw_fidelities else None
        distilled = (mean(self._distilled_fidelities)
                     if self._distilled_fidelities else None)
        metrics = {
            "pairs_in": self.pairs_consumed,
            "pairs_out": len(self._distilled_fidelities),
            "rounds_attempted": self._module.rounds_attempted,
            "rounds_succeeded": self._module.rounds_succeeded,
            "success_rate": round(self._module.success_rate, 6),
        }
        if raw is not None:
            metrics["raw_fidelity"] = round(raw, 6)
        if distilled is not None:
            metrics["distilled_fidelity"] = round(distilled, 6)
        if raw is not None and distilled is not None:
            metrics["fidelity_gain"] = round(distilled - raw, 6)
        return metrics
