"""Service-level objectives for application sessions.

The paper argues (Sec 3.1, Sec 6) that a quantum network exists to meet
*application* demands — a QKD stream needs its QBER under the threshold
the ~0.8 fidelity budget implies, a certification service needs its
probe statistics to clear the advertised fidelity — so the application
layer scores every circuit against explicit, per-app objectives rather
than raw delivery counts.

The schema is deliberately small and serialisable:

* :class:`SLOTarget` — one named bound on one app metric ("``qber`` must
  be ≤ 0.1333");
* :class:`SLOCheck` — that bound evaluated against a measured value;
* :class:`SLOVerdict` — the conjunction over an app's targets.

Apps declare their default targets as class attributes
(:attr:`repro.apps.base.AppService.slo_targets`) and may specialise them
per circuit from the :class:`~repro.apps.base.AppContext` (e.g. the
teleport bound derives from the run's target fidelity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

#: Comparison senses an :class:`SLOTarget` understands.
SENSES = ("<=", ">=", ">", "<")


@dataclass(frozen=True)
class SLOTarget:
    """One named service-level objective: a bound on one app metric."""

    #: Key into the app's ``metrics()`` dict.
    metric: str
    #: The bound the metric is compared against.
    bound: float
    #: Comparison sense: the objective is met when ``value <sense> bound``.
    sense: str = ">="

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"unknown SLO sense {self.sense!r} "
                             f"(have: {', '.join(SENSES)})")

    def check(self, value: Optional[float]) -> "SLOCheck":
        """Evaluate this target against a measured metric value.

        A missing metric (``None`` — e.g. no pairs ever reached the app)
        never meets an objective.
        """
        if value is None:
            ok = False
        elif self.sense == "<=":
            ok = value <= self.bound
        elif self.sense == ">=":
            ok = value >= self.bound
        elif self.sense == ">":
            ok = value > self.bound
        else:
            ok = value < self.bound
        return SLOCheck(metric=self.metric, bound=self.bound,
                        sense=self.sense, value=value, ok=ok)

    def label(self) -> str:
        """Compact rendering for tables ("qber <= 0.133")."""
        return f"{self.metric} {self.sense} {self.bound:g}"


@dataclass(frozen=True)
class SLOCheck:
    """One evaluated objective: target, measured value, outcome."""

    metric: str
    bound: float
    sense: str
    value: Optional[float]
    ok: bool

    def label(self) -> str:
        """Compact rendering for tables ("qber 0.08 <= 0.133: ok")."""
        value = "-" if self.value is None else f"{self.value:.4g}"
        return (f"{self.metric} {value} {self.sense} {self.bound:g}: "
                f"{'ok' if self.ok else 'MISS'}")


@dataclass(frozen=True)
class SLOVerdict:
    """An app session's verdict: every objective evaluated, plus the
    conjunction."""

    met: bool
    checks: tuple = field(default_factory=tuple)

    @property
    def failed_checks(self) -> tuple:
        """The checks that missed their bound."""
        return tuple(check for check in self.checks if not check.ok)


def evaluate_slo(targets: Sequence[SLOTarget], metrics: dict) -> SLOVerdict:
    """Evaluate every target against a metrics dict.

    With no targets the verdict is trivially met (an app without
    objectives cannot fail them).
    """
    checks = tuple(target.check(metrics.get(target.metric))
                   for target in targets)
    return SLOVerdict(met=all(check.ok for check in checks), checks=checks)


def werner_qber(fidelity: float) -> float:
    """QBER of BBM92 on a Werner pair of the given fidelity.

    For the Werner state with weights ``(F, p, p, p)``, ``p = (1−F)/3``,
    the sifted error rate in either basis is the weight of the two Bell
    components flipped in that basis: ``e = 2(1−F)/3``.  At the paper's
    basic-QKD threshold fidelity of 0.8 this is the canonical "few
    percent per basis" bound of Sec 3.1 (≈ 13.3% combined).
    """
    if not 0.0 <= fidelity <= 1.0:
        raise ValueError("fidelity must be in [0, 1]")
    return 2.0 * (1.0 - fidelity) / 3.0


#: The paper's basic-QKD threshold fidelity (Sec 3.1).
QKD_THRESHOLD_FIDELITY = 0.8

#: Maximum acceptable QBER: the Werner-equivalent error rate at the
#: threshold fidelity.
QKD_MAX_QBER = werner_qber(QKD_THRESHOLD_FIDELITY)

#: The end-to-end fidelity a QKD session *demands* from the network.
#: The 0.8 threshold is where the asymptotic secret fraction reaches
#: zero; an application that intends to distil key asks for headroom
#: above it so the fraction stays positive under finite sampling and
#: device readout noise.  This is the SLO-drives-the-network pattern of
#: "A Design for an Early Quantum Network": the demand raises the
#: circuit's routed fidelity target, not just the verdict afterwards.
QKD_DEMAND_FIDELITY = 0.9


#: Best average teleportation fidelity achievable with no entanglement
#: at all (measure-and-reconstruct): the quantum-usefulness bar a
#: teleport stream must clear.
CLASSICAL_TELEPORT_FIDELITY = 2.0 / 3.0


def teleport_fidelity(pair_fidelity: float) -> float:
    """Average teleported-state fidelity through a pair of fidelity F.

    The standard relation between the entanglement fidelity of the
    resource pair and the average output fidelity of teleportation over
    uniformly random input states: ``F_tele = (2F + 1) / 3``.
    """
    if not 0.0 <= pair_fidelity <= 1.0:
        raise ValueError("fidelity must be in [0, 1]")
    return (2.0 * pair_fidelity + 1.0) / 3.0
