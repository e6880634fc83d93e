"""Stochastic session workloads: Poisson arrivals and priority classes.

A *session* is one application-level request for end-to-end pairs on one
circuit: it arrives at a Poisson instant, asks for a sampled number of
pairs and — except for best-effort traffic — carries a deadline that
translates into a minimum EER demand (``UserRequest.minimum_eer``), which
is what the head-end policer admits, shapes or rejects against.

Each circuit draws its sessions from its own seeded RNG stream, so given
the same seed, class mix and load the workload is byte-for-byte identical
regardless of what the simulation itself does.  :class:`SessionArrivals`
merges the streams lazily, one session at a time in ``(arrival_ns,
circuit_index)`` order, so a run holds one pending session per circuit
rather than its whole schedule; :func:`poisson_schedule` is the same
merge materialised.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class PriorityClass:
    """One class of service in the workload mix.

    ``eer_fraction`` is the share of the circuit's maximum EER a session
    demands (through its deadline): the policer ACCEPTs while fractions
    sum below 1, QUEUEs the overflow, and REJECTs any class whose
    fraction alone exceeds 1.  A fraction of 0 means best-effort — no
    deadline, zero minimum EER, always admitted.
    """

    name: str
    #: Relative probability that a session belongs to this class.
    share: float
    #: Mean pairs per session (sampled geometrically, minimum 1).
    mean_pairs: float
    #: Fraction of the circuit's max EER one session demands (0 = none).
    eer_fraction: float

    def __post_init__(self):
        if self.share <= 0:
            raise ValueError("class share must be positive")
        if self.mean_pairs < 1:
            raise ValueError("mean_pairs must be at least 1")
        if self.eer_fraction < 0:
            raise ValueError("eer_fraction cannot be negative")


#: Default three-class mix: premium sessions that hog half the circuit,
#: standard sessions at a quarter, and best-effort filler.
DEFAULT_CLASSES = (
    PriorityClass("gold", share=0.2, mean_pairs=6.0, eer_fraction=0.5),
    PriorityClass("silver", share=0.3, mean_pairs=4.0, eer_fraction=0.25),
    PriorityClass("best-effort", share=0.5, mean_pairs=3.0, eer_fraction=0.0),
)


def stream_seed(seed: int, index: int) -> int:
    """A distinct, deterministic RNG seed per (workload seed, stream)."""
    return seed * 1_000_003 + index + 1


@dataclass(frozen=True, slots=True)
class SessionSpec:
    """One scheduled session: when, where, what."""

    circuit_index: int
    arrival_ns: float
    priority: PriorityClass
    num_pairs: int


def sample_exponential(rng: random.Random, mean: float) -> float:
    """One exponential inter-arrival gap with the given mean."""
    return rng.expovariate(1.0 / mean)


def sample_geometric(rng: random.Random, mean: float) -> int:
    """A geometric session size with the given mean, minimum 1."""
    if mean <= 1.0:
        return 1
    # Geometric on {1, 2, ...} with success probability 1/mean.
    p = 1.0 / mean
    return 1 + int(math.log(1.0 - rng.random()) / math.log(1.0 - p))


def pick_class(rng: random.Random,
               classes: Sequence[PriorityClass]) -> PriorityClass:
    """Sample a priority class proportionally to the shares."""
    total = sum(cls.share for cls in classes)
    point = rng.random() * total
    for cls in classes:
        point -= cls.share
        if point < 0:
            return cls
    return classes[-1]


class SessionArrivals:
    """The workload's sessions, merged lazily from per-circuit streams.

    An iterator over :class:`SessionSpec` in ``(arrival_ns,
    circuit_index)`` order: independent Poisson streams per circuit, each
    from its own seed-stable RNG (:func:`stream_seed`), cut at
    ``horizon_ns`` and, across circuits, after ``max_sessions`` sessions
    (earliest win).  It holds each circuit's RNG and next arrival time,
    not the schedule, and it pickles, so a checkpoint carries its
    position.

    ``mean_interarrival_ns`` applies per circuit — a scalar for a uniform
    workload or one value per circuit (circuits have different
    capacities, so calibrating offered load needs per-circuit rates).
    """

    def __init__(self, num_circuits: int, horizon_ns: float,
                 mean_interarrival_ns: float | Sequence[float],
                 classes: Sequence[PriorityClass] = DEFAULT_CLASSES,
                 seed: int = 0, max_sessions: Optional[int] = None):
        if num_circuits < 1:
            raise ValueError("need at least one circuit")
        if horizon_ns <= 0:
            raise ValueError("horizon must be positive")
        if isinstance(mean_interarrival_ns, (int, float)):
            means = [float(mean_interarrival_ns)] * num_circuits
        else:
            means = [float(mean) for mean in mean_interarrival_ns]
            if len(means) != num_circuits:
                raise ValueError("need one mean inter-arrival per circuit")
        if any(mean <= 0 for mean in means):
            raise ValueError("mean inter-arrival must be positive")
        if not classes:
            raise ValueError("need at least one priority class")
        if max_sessions is not None and max_sessions < 0:
            raise ValueError("max_sessions cannot be negative")
        self.horizon_ns = horizon_ns
        self.classes = tuple(classes)
        self._means = means
        #: Sessions still to yield (None: no cap).
        self._remaining = max_sessions
        self._rngs = [random.Random(stream_seed(seed, index))
                      for index in range(num_circuits)]
        #: ``(arrival_ns, circuit_index)`` of each stream's next session,
        #: ascending; a circuit appears at most once.  The session's class
        #: and size are drawn when it is taken, which is the stream's own
        #: draw order: gap, class, size, gap, ...
        self._next: list[tuple[float, int]] = []
        for index, rng in enumerate(self._rngs):
            arrival_ns = sample_exponential(rng, means[index])
            if arrival_ns < horizon_ns:
                bisect.insort(self._next, (arrival_ns, index))

    def __iter__(self) -> "SessionArrivals":
        return self

    def __next__(self) -> SessionSpec:
        if not self._next or self._remaining == 0:
            raise StopIteration
        arrival_ns, index = self._next.pop(0)
        if self._remaining is not None:
            self._remaining -= 1
        rng = self._rngs[index]
        cls = pick_class(rng, self.classes)
        spec = SessionSpec(circuit_index=index, arrival_ns=arrival_ns,
                           priority=cls,
                           num_pairs=sample_geometric(rng, cls.mean_pairs))
        following = arrival_ns + sample_exponential(rng, self._means[index])
        if following < self.horizon_ns:
            bisect.insort(self._next, (following, index))
        return spec


def poisson_schedule(num_circuits: int, horizon_ns: float,
                     mean_interarrival_ns: float | Sequence[float],
                     classes: Sequence[PriorityClass] = DEFAULT_CLASSES,
                     seed: int = 0,
                     max_sessions: Optional[int] = None) -> list[SessionSpec]:
    """Materialise the full workload of :class:`SessionArrivals` (same
    arguments): every circuit's sessions, merged by arrival time and cut
    after ``max_sessions``."""
    return list(SessionArrivals(num_circuits, horizon_ns,
                                mean_interarrival_ns, classes=classes,
                                seed=seed, max_sessions=max_sessions))
