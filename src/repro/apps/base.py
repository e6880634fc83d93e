"""The application-service protocol: how apps consume delivered pairs.

The QNP's job ends when a confirmed end-to-end pair (or measurement
outcome) reaches the end-points; an *application service* is what turns
that stream into application-level outcomes — a sifted key, a distilled
pair, a teleported state, a certification verdict.  This module defines
the seam between the two:

* :class:`AppContext` — everything a per-circuit app instance may touch:
  the two end-point devices (for local measurements), a dedicated seeded
  RNG stream, and the circuit's fidelity figures;
* :class:`AppService` — the consumer protocol: ``consume`` absorbs one
  :class:`~repro.network.builder.MatchedPair` as it is delivered (and
  says whether the app took ownership of the qubits), ``metrics``
  reduces the session, ``finalise`` wraps it into an :class:`AppOutcome`
  with an SLO verdict;
* the registry (:func:`register_app`, :func:`get_app`, :data:`APP_NAMES`)
  that the traffic engine, the campaign ``app`` axis and the CLI
  ``--apps`` flag all validate against.

Apps run on the *evaluation side* of the façade, like the fidelity
oracle: they see both halves of each pair, which no real distributed
application could.  That is deliberate — the subsystem scores the
network the way *Benchmarking of Quantum Protocols* does, by
protocol-level figures of merit, and the ground-truth view is what makes
those figures exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .slo import SLOVerdict, evaluate_slo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..network.builder import MatchedPair


@dataclass
class AppContext:
    """Per-circuit context handed to an app service instance."""

    #: Circuit identity (the head-end's view; recovery keeps it stable
    #: from the app's perspective via the traffic engine's indexing).
    circuit_index: int
    circuit_id: str
    head: str
    tail: str
    #: End-point quantum devices, for local measurements.
    head_device: object
    tail_device: object
    #: Dedicated deterministic RNG stream for this app instance (disjoint
    #: from the workload's arrival/endpoint/fault streams).
    rng: random.Random
    #: The routing budget's worst-case fidelity for this circuit.
    estimated_fidelity: float
    #: The run's end-to-end fidelity target.
    target_fidelity: float


@dataclass
class AppOutcome:
    """One finished app session: metrics plus the SLO verdict."""

    app: str
    circuit_index: int
    circuit_id: str
    pairs_consumed: int
    #: The app's reduced metrics (plain floats/ints, JSON-ready).
    metrics: dict = field(default_factory=dict)
    slo: SLOVerdict = field(default_factory=lambda: SLOVerdict(met=True))

    @property
    def headline(self) -> Optional[float]:
        """The app's single headline metric (None when nothing measured)."""
        key = HEADLINE_METRICS.get(self.app)
        if key is None:
            return None
        return self.metrics.get(key)


class AppService:
    """Base class for application services consuming one circuit's pairs.

    Subclasses set :attr:`name` (registry key / CLI spelling),
    :attr:`headline_metric` (the one number a summary table shows) and
    :attr:`slo_targets`, and implement :meth:`consume` and
    :meth:`metrics`.
    """

    #: Registry key and CLI spelling.
    name: str = ""
    #: Key into :meth:`metrics` shown as the app's single summary number.
    headline_metric: str = ""
    #: Default objectives; instances may specialise from their context.
    slo_targets: tuple = ()
    #: End-to-end fidelity this app *demands* from the network: the
    #: traffic engine raises the circuit's routed fidelity target to at
    #: least this before installation (0 = no demand beyond the run's).
    min_fidelity: float = 0.0

    def __init__(self, ctx: AppContext):
        self.ctx = ctx
        self.pairs_consumed = 0
        #: Simulated span of the finished workload (set by :meth:`finalise`
        #: before it calls :meth:`metrics`; rate metrics divide by this).
        self.elapsed_s = 0.0

    def consume(self, pair: "MatchedPair") -> bool:
        """Absorb one delivered end-to-end pair.

        Called synchronously from the delivery plumbing the moment both
        halves of a pair were seen.  Returns True when the app took
        ownership of the pair's qubits (it measured or will free them);
        False lets the façade consume them as usual.
        """
        raise NotImplementedError

    def metrics(self) -> dict:
        """Reduce the session into plain-scalar metrics."""
        raise NotImplementedError

    def finalise(self, elapsed_s: float) -> AppOutcome:
        """Close the session: metrics + SLO verdict.

        ``elapsed_s`` is the simulated span of the workload, for rate
        metrics (apps that need it read it from ``self.elapsed_s``
        inside :meth:`metrics`).
        """
        self.elapsed_s = elapsed_s
        metrics = self.metrics()
        return AppOutcome(
            app=self.name,
            circuit_index=self.ctx.circuit_index,
            circuit_id=self.ctx.circuit_id,
            pairs_consumed=self.pairs_consumed,
            metrics=metrics,
            slo=evaluate_slo(self.slo_targets, metrics),
        )


@dataclass
class AppSummary:
    """All of one app's sessions in a run, rolled up."""

    app: str
    circuits: int = 0
    #: Circuits whose session met every SLO objective.
    circuits_met: int = 0
    pairs_consumed: int = 0
    _headlines: list = field(default_factory=list)

    @property
    def headline(self) -> Optional[float]:
        """Mean of the app's headline metric across its circuits."""
        if not self._headlines:
            return None
        return sum(self._headlines) / len(self._headlines)

    @property
    def slo_label(self) -> str:
        """Compact "met/total" rendering for tables."""
        return f"{self.circuits_met}/{self.circuits}"


def summarise_apps(outcomes) -> dict[str, AppSummary]:
    """Roll per-circuit :class:`AppOutcome`\\ s up by app name (sorted)."""
    summaries: dict[str, AppSummary] = {}
    for outcome in outcomes:
        summary = summaries.setdefault(outcome.app, AppSummary(outcome.app))
        summary.circuits += 1
        summary.circuits_met += 1 if outcome.slo.met else 0
        summary.pairs_consumed += outcome.pairs_consumed
        headline = outcome.headline
        if headline is not None:
            summary._headlines.append(headline)
    return dict(sorted(summaries.items()))


#: name → AppService subclass.
_APP_REGISTRY: dict[str, type] = {}

#: name → headline metric key (kept alongside the registry so outcomes
#: remain summarisable even after pickling strips the class).
HEADLINE_METRICS: dict[str, str] = {}


def register_app(app_type: type) -> type:
    """Register an :class:`AppService` subclass (usable as a decorator)."""
    if not app_type.name:
        raise ValueError("an app service needs a non-empty name")
    _APP_REGISTRY[app_type.name] = app_type
    HEADLINE_METRICS[app_type.name] = app_type.headline_metric
    return app_type


def get_app(name: str) -> type:
    """Resolve an app name to its service class (ValueError names both
    the offender and the vocabulary)."""
    try:
        return _APP_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown app {name!r} (have: {', '.join(sorted(_APP_REGISTRY))})"
        ) from None


def app_names() -> tuple:
    """The registered app vocabulary, sorted."""
    return tuple(sorted(_APP_REGISTRY))
