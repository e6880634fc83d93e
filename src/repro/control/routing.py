"""Central routing controller: metric-driven path selection + budgets.

The paper's Sec 5 controller uses a "rudimentary algorithm" (plain
shortest path over identical links) and explicitly leaves smarter path
selection and fault handling open.  This module keeps that algorithm as
the ``hops`` metric and generalises it: candidate paths are enumerated
with Yen's k-shortest-paths, each candidate is checked for fidelity
feasibility, and a pluggable **path metric** picks among the feasible
candidates (see :data:`PATH_METRICS`):

* ``hops`` — the paper's baseline: the first feasible shortest path;
* ``utilisation`` — penalise links by their currently-installed LPR
  share (tracked at circuit install/teardown), spreading circuits across
  the topology instead of piling them onto the same shortest links;
* ``fidelity-cost`` — prefer the candidate whose solved per-link
  fidelity leaves the most headroom below the hardware ceiling.

Links taken down by failure injection (:meth:`CentralController.
set_link_state`) are excluded from candidate enumeration, which is what
circuit recovery (:meth:`repro.network.builder.Network.recover_circuit`)
relies on to re-route around an outage.

For the selected path the controller computes, exactly as before:

* the **per-link minimum fidelity**, found by binary search over the exact
  worst-case composition: every link pair is assumed to sit in memory for
  one full cutoff window before being swapped, and the L−1 noisy swaps are
  composed with the outcome-averaged swap map (one precomputed bilinear
  kernel contraction per swap),
* the **cutoff time**, per policy:

  - ``"loss"`` (the paper's default): the time for a link pair to lose
    ~1.5 % of its initial fidelity,
  - ``"short"``: the time by which a link has 0.85 probability of having
    generated a pair (Sec 5.1's "shorter cutoff"),
  - an explicit number (ns), or ``None`` to disable the mechanism,

* the link-pair rate (LPR) each link can sustain at that fidelity and the
  resulting end-to-end rate (EER) estimate used for policing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from ..hardware.heralded import SingleClickModel
from ..netsim.units import S
from ..network.graph import Graph, NoPathError, shortest_simple_paths
from ..quantum.bell import BellIndex
from ..quantum.channels import decoherence_kraus
from ..quantum.fidelity import bell_fidelity
from ..quantum.gates import PAULI_FRAME
from ..quantum.operations import NoisyOpParams, averaged_swap_dm
from ..core.circuit import RoutingEntry

CutoffPolicy = Union[str, float, None]

#: Fraction of initial fidelity lost at the "loss" cutoff (Sec 5).
LOSS_CUTOFF_FRACTION = 0.015
#: Generation-probability quantile of the "short" cutoff (Sec 5.1).
SHORT_CUTOFF_QUANTILE = 0.85
#: The supported path-selection metrics (the CLI's ``--metric`` choices).
PATH_METRICS = ("hops", "utilisation", "fidelity-cost")
#: Candidate paths enumerated per route computation (Yen's algorithm).
DEFAULT_K_PATHS = 8


class RouteError(Exception):
    """No path can satisfy the requested end-to-end fidelity."""


@dataclass
class RouteComputation:
    """Everything the signalling protocol needs to install a circuit."""

    path: list[str]
    link_names: list[str]
    link_fidelity: float
    cutoff: Optional[float]
    max_lpr: float
    eer: float
    estimated_fidelity: float
    target_fidelity: float
    #: Path metric that selected this route (``hops`` for manual routes).
    metric: str = "hops"

    @property
    def num_links(self) -> int:
        """Number of physical links (= entanglement swaps + 1) on the path."""
        return len(self.link_names)


#: The Pauli frame X on the second qubit, which rotates Ψ+ into Φ+.
_PSI_TO_PHI = np.kron(np.eye(2, dtype=complex), PAULI_FRAME[1])
_PSI_TO_PHI_DAG = _PSI_TO_PHI.conj().T
_IDENTITY = np.eye(2, dtype=complex)


def _canonical_link_dm(model: SingleClickModel, link_fidelity: float) -> np.ndarray:
    """Produced link state, rotated into the Φ+ frame.

    The heralded state is Ψ±; lazy tracking folds the frame into the
    delivered Bell index, so budgeting in the canonical frame is exact.
    """
    alpha = model.alpha_for_fidelity(link_fidelity)
    dm = model.produced_dm(alpha, BellIndex.PSI_PLUS)
    return _PSI_TO_PHI_DAG @ dm @ _PSI_TO_PHI


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2×2 matrices: the same broadcast multiply that
    ``np.kron`` performs, without its generic shape handling."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _age_pair(dm: np.ndarray, elapsed: float, t1: float, t2: float) -> np.ndarray:
    """Apply memory decoherence to both qubits of a pair state."""
    if elapsed <= 0:
        return dm
    aged = np.zeros_like(dm)
    for op_a in decoherence_kraus(elapsed, t1, t2):
        big = _kron2(op_a, _IDENTITY)
        aged += big @ dm @ big.conj().T
    result = np.zeros_like(dm)
    for op_b in decoherence_kraus(elapsed, t1, t2):
        big = _kron2(_IDENTITY, op_b)
        result += big @ aged @ big.conj().T
    return result


#: Process-wide budget/ceiling memoisation.  The solves depend only on
#: *values* — hardware parameters, fibre connection, chain length, target,
#: cutoff policy, memory lifetimes and gate-noise knobs — all of which are
#: hashable frozen dataclasses, so controllers of identical networks (every
#: benchmark round, every campaign cell replica, every test building the
#: same topology) share one solve instead of redoing the bisection cascade
#: per controller instance.  An infeasible solve is cached as its error *message*: a
#: cached exception object would collect a traceback on every re-raise,
#: and those frames would keep each failing caller's network alive.
_BUDGET_CACHE: dict[tuple, Union[tuple, str]] = {}
_CEILING_CACHE: dict[tuple, float] = {}


class CentralController:
    """Centralised routing: k-path candidates, metrics, fidelity budgets."""

    def __init__(self, graph: Graph, links: dict, memory_t1: float,
                 memory_t2: float, ops: NoisyOpParams, metric: str = "hops",
                 k_paths: int = DEFAULT_K_PATHS):
        """``links`` maps ``frozenset({u, v})`` → :class:`~repro.linklayer.egp.Link`.

        ``metric`` is the default path metric (one of :data:`PATH_METRICS`,
        overridable per :meth:`compute_route` call); ``k_paths`` bounds the
        candidate enumeration.
        """
        if metric not in PATH_METRICS:
            raise ValueError(f"unknown path metric {metric!r} "
                             f"(have: {', '.join(PATH_METRICS)})")
        if k_paths < 1:
            raise ValueError("k_paths must be at least 1")
        self.graph = graph
        self.links = links
        self.memory_t1 = memory_t1
        self.memory_t2 = memory_t2
        self.ops = ops
        self.metric = metric
        self.k_paths = k_paths
        #: Links currently taken down by failure injection.
        self._down: set[frozenset] = set()
        #: circuit_id → per-link share contributions of its installed route.
        self._installed: dict[str, dict[frozenset, float]] = {}
        #: link edge → total installed LPR share (the utilisation metric).
        self.link_share: dict[frozenset, float] = {}
        #: Number of completed route computations (telemetry).
        self.route_computations = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def compute_route(self, head: str, tail: str, target_fidelity: float,
                      cutoff_policy: CutoffPolicy = "loss",
                      metric: Optional[str] = None) -> RouteComputation:
        """Select a path by the active metric and solve its budget.

        Enumerates up to ``k_paths`` loop-free candidate paths (shortest
        first, down links excluded), solves the fidelity budget per
        candidate, and returns the feasible candidate the metric scores
        best.  Raises :class:`RouteError` when no candidate is feasible.
        """
        metric = self.metric if metric is None else metric
        if metric not in PATH_METRICS:
            raise RouteError(f"unknown path metric {metric!r} "
                             f"(have: {', '.join(PATH_METRICS)})")
        if not 0.5 <= target_fidelity < 1.0:
            raise RouteError(f"target fidelity {target_fidelity} must be in [0.5, 1)")

        def candidates():
            # Lazy: the 'hops' metric stops after the first feasible
            # candidate, so Yen's algorithm must not enumerate all
            # k_paths up front.
            try:
                yield from itertools.islice(
                    shortest_simple_paths(self.graph, head, tail,
                                          ignore_edges=map(tuple, self._down)),
                    self.k_paths)
            except NoPathError as exc:
                raise RouteError(
                    f"no usable path from {head} to {tail}") from exc

        best: Optional[RouteComputation] = None
        best_score: Optional[tuple] = None
        last_error: Optional[RouteError] = None
        for index, path in enumerate(candidates()):
            try:
                route = self._route_for_path(path, target_fidelity,
                                             cutoff_policy, metric)
            except RouteError as exc:
                # Candidates only get longer, and longer paths need a
                # strictly higher link fidelity: once a length is
                # infeasible every later candidate is too.
                last_error = exc
                break
            score = self._score(path, route, metric, index)
            if best_score is None or score < best_score:
                best, best_score = route, score
            if metric == "hops":
                # The Sec 5 baseline: first feasible shortest candidate.
                break
        if best is None:
            raise last_error or RouteError(
                f"no feasible path from {head} to {tail} "
                f"at fidelity {target_fidelity:.3f}")
        self.route_computations += 1
        return best

    # ------------------------------------------------------------------
    # Installed-load tracking (the utilisation metric's state)
    # ------------------------------------------------------------------

    def register_install(self, circuit_id: str, route: RouteComputation) -> None:
        """Record an installed circuit's LPR share on each of its links.

        The contribution per link is the fraction of the link's pair
        generation time the circuit needs to sustain its admitted EER:
        ``eer / max_lpr(link fidelity)`` — the paper's matched-pair
        probability.  It is continuous in the route's length and cutoff,
        so shares discriminate between placements that an integer
        circuits-per-link count would tie.
        """
        shares: dict[frozenset, float] = {}
        for i in range(len(route.path) - 1):
            edge = frozenset((route.path[i], route.path[i + 1]))
            capacity = self.links[edge].max_lpr(route.link_fidelity)
            share = route.eer / capacity if capacity > 0 else 1.0
            shares[edge] = share
            self.link_share[edge] = self.link_share.get(edge, 0.0) + share
        self._installed[circuit_id] = shares

    def register_teardown(self, circuit_id: str) -> None:
        """Return a torn-down circuit's LPR share to its links."""
        shares = self._installed.pop(circuit_id, None)
        if shares is None:
            return
        for edge, share in shares.items():
            remaining = self.link_share.get(edge, 0.0) - share
            if remaining <= 1e-12:
                self.link_share.pop(edge, None)
            else:
                self.link_share[edge] = remaining

    def max_link_share(self) -> float:
        """Largest installed LPR share across all links (0 when idle)."""
        return max(self.link_share.values(), default=0.0)

    # ------------------------------------------------------------------
    # Link liveness (failure injection)
    # ------------------------------------------------------------------

    def set_link_state(self, edge: frozenset, up: bool) -> None:
        """Mark a link up or down; down links leave candidate enumeration."""
        if up:
            self._down.discard(frozenset(edge))
        else:
            self._down.add(frozenset(edge))

    # ------------------------------------------------------------------
    # Candidate solving and scoring
    # ------------------------------------------------------------------

    def _route_for_path(self, path: list[str], target_fidelity: float,
                        cutoff_policy: CutoffPolicy,
                        metric: str) -> RouteComputation:
        """Solve the fidelity budget along one concrete candidate path."""
        link_objects = [self._link(path[i], path[i + 1])
                        for i in range(len(path) - 1)]
        num_links = len(link_objects)
        model = link_objects[0].model  # identical links (Sec 5 assumption)
        link_fidelity, cutoff, estimated = self._solve_budget(
            model, num_links, target_fidelity, cutoff_policy)
        max_lpr = min(link.max_lpr(link_fidelity) for link in link_objects)
        eer = self._estimate_eer(model, link_fidelity, cutoff, max_lpr)
        return RouteComputation(
            path=list(path),
            link_names=[link.name for link in link_objects],
            link_fidelity=link_fidelity,
            cutoff=cutoff,
            max_lpr=max_lpr,
            eer=eer,
            estimated_fidelity=estimated,
            target_fidelity=target_fidelity,
            metric=metric,
        )

    def _solve_budget(self, model: SingleClickModel, num_links: int,
                      target_fidelity: float, cutoff_policy: CutoffPolicy
                      ) -> tuple[float, Optional[float], float]:
        """Memoised (link fidelity, cutoff, worst-case fidelity) solve."""
        # Key by physical parameter *values*, not model or controller
        # identity: every Link owns its own SingleClickModel instance, but
        # links with the same hardware and fibre share the budget solution
        # — across controllers too (the module-level cache), since the
        # solve also folds in the controller's memory lifetimes and gate
        # noise, which are part of the key.  ``model.cache_key`` carries
        # the model class and its knobs, so analytic and midpoint links
        # over identical fibre never share a solve.
        key = (model.cache_key, num_links,
               target_fidelity, cutoff_policy,
               self.memory_t1, self.memory_t2, self.ops)
        cached = _BUDGET_CACHE.get(key)
        if cached is not None:
            if isinstance(cached, str):
                raise RouteError(cached)
            return cached
        try:
            solution = self._solve_budget_uncached(model, num_links,
                                                   target_fidelity,
                                                   cutoff_policy)
        except RouteError as exc:
            _BUDGET_CACHE[key] = str(exc)
            raise
        _BUDGET_CACHE[key] = solution
        return solution

    def _solve_budget_uncached(self, model: SingleClickModel, num_links: int,
                               target_fidelity: float,
                               cutoff_policy: CutoffPolicy
                               ) -> tuple[float, Optional[float], float]:
        ceiling = self._fidelity_ceiling(model)
        if ceiling < target_fidelity:
            raise RouteError(
                f"links cannot produce fidelity {target_fidelity:.3f} "
                f"(ceiling ≈ {ceiling:.3f})")
        # The link state enters the worst case only through α =
        # alpha_for_fidelity(link fidelity), which lies on a discrete
        # lattice, so most bisection probes repeat an earlier evaluation.
        evaluations: dict[tuple, float] = {}

        def worst_case(link_fidelity: float, window: float) -> float:
            key = (model.alpha_for_fidelity(link_fidelity), num_links, window)
            value = evaluations.get(key)
            if value is None:
                value = evaluations[key] = self._worst_case_fidelity(
                    model, link_fidelity, num_links, window)
            return value

        # Fixed-point iteration between the cutoff window and the link
        # fidelity (each depends on the other through the decoherence
        # budget); converges in a couple of rounds.
        link_fidelity = min(ceiling, max(target_fidelity, 0.9))
        cutoff = self._cutoff_for(model, link_fidelity, cutoff_policy)
        for _ in range(3):
            link_fidelity = self._solve_link_fidelity(
                worst_case, num_links, target_fidelity, cutoff, ceiling)
            cutoff = self._cutoff_for(model, link_fidelity, cutoff_policy)
        estimated = worst_case(link_fidelity, cutoff if cutoff else 0.0)
        return link_fidelity, cutoff, estimated

    def _score(self, path: list[str], route: RouteComputation, metric: str,
               index: int) -> tuple:
        """Comparable score per candidate — lower wins, ties break on the
        candidate's enumeration order (shortest first) for determinism."""
        if metric == "utilisation":
            shares = [self.link_share.get(frozenset((path[i], path[i + 1])),
                                          0.0)
                      for i in range(len(path) - 1)]
            return (round(max(shares), 9), round(sum(shares), 9),
                    len(path), index)
        if metric == "fidelity-cost":
            # Lower required link fidelity = more headroom below the
            # hardware ceiling before the budget breaks.
            return (round(route.link_fidelity, 9), len(path), index)
        return (len(path), index)  # hops

    def build_entries(self, circuit_id: str, route: RouteComputation,
                      max_eer: Optional[float] = None) -> list[RoutingEntry]:
        """Materialise the per-node routing table rows for a route."""
        label = f"label:{circuit_id}"
        eer = max_eer if max_eer is not None else route.eer
        entries = []
        path = route.path
        for index, node in enumerate(path):
            upstream = path[index - 1] if index > 0 else None
            downstream = path[index + 1] if index < len(path) - 1 else None
            entries.append(RoutingEntry(
                circuit_id=circuit_id,
                node=node,
                upstream_node=upstream,
                downstream_node=downstream,
                upstream_link=route.link_names[index - 1] if upstream else None,
                downstream_link=route.link_names[index] if downstream else None,
                upstream_link_label=label if upstream else None,
                downstream_link_label=label if downstream else None,
                downstream_min_fidelity=route.link_fidelity if downstream else None,
                downstream_max_lpr=route.max_lpr if downstream else None,
                circuit_max_eer=eer,
                cutoff=route.cutoff,
                estimated_fidelity=route.estimated_fidelity,
            ))
        return entries

    # ------------------------------------------------------------------
    # Budget internals
    # ------------------------------------------------------------------

    def _worst_case_fidelity(self, model: SingleClickModel, link_fidelity: float,
                             num_links: int, cutoff: float) -> float:
        """Worst-case end-to-end fidelity: every pair aged one full cutoff
        window, then L−1 noisy swaps (the Sec 5 budget)."""
        aged = _age_pair(_canonical_link_dm(model, link_fidelity), cutoff,
                         self.memory_t1, self.memory_t2)
        rho = aged
        for _ in range(num_links - 1):
            rho = averaged_swap_dm(rho, aged, self.ops)
        return bell_fidelity(rho, 0)

    @staticmethod
    def _solve_link_fidelity(worst_case: Callable[[float, float], float],
                             num_links: int, target: float,
                             cutoff: Optional[float], ceiling: float) -> float:
        """Bisect the lowest link fidelity whose ``worst_case`` meets
        ``target``; ``worst_case(link_fidelity, window)`` is the solve's
        memoised :meth:`_worst_case_fidelity`."""
        window = cutoff if cutoff else 0.0
        if worst_case(ceiling, window) < target:
            raise RouteError(
                f"path of {num_links} links cannot meet fidelity {target:.3f} "
                f"even at the link ceiling {ceiling:.3f}")
        low, high = target, ceiling
        for _ in range(40):
            mid = (low + high) / 2
            if worst_case(mid, window) >= target:
                high = mid
            else:
                low = mid
        return high

    def _cutoff_for(self, model: SingleClickModel, link_fidelity: float,
                    policy: CutoffPolicy) -> Optional[float]:
        if policy is None:
            return None
        if isinstance(policy, (int, float)):
            if policy <= 0:
                raise RouteError("explicit cutoff must be positive")
            return float(policy)
        if policy == "short":
            return model.time_quantile(model.alpha_for_fidelity(link_fidelity),
                                       SHORT_CUTOFF_QUANTILE)
        if policy == "loss":
            return self._loss_cutoff(model, link_fidelity)
        raise RouteError(f"unknown cutoff policy {policy!r}")

    def _loss_cutoff(self, model: SingleClickModel, link_fidelity: float) -> float:
        """Time for a link pair to lose LOSS_CUTOFF_FRACTION of its fidelity."""
        dm = _canonical_link_dm(model, link_fidelity)
        initial = bell_fidelity(dm, 0)
        target = initial * (1.0 - LOSS_CUTOFF_FRACTION)
        low, high = 0.0, 60.0 * S
        while bell_fidelity(_age_pair(dm, high, self.memory_t1, self.memory_t2),
                            0) > target:
            high *= 4.0
            if high > 1e15:  # pragma: no cover - essentially noiseless memory
                return high
        for _ in range(60):
            mid = (low + high) / 2
            aged = _age_pair(dm, mid, self.memory_t1, self.memory_t2)
            if bell_fidelity(aged, 0) > target:
                low = mid
            else:
                high = mid
        return (low + high) / 2

    def _estimate_eer(self, model: SingleClickModel, link_fidelity: float,
                      cutoff: Optional[float], max_lpr: float) -> float:
        """EER estimate: the bottleneck LPR times the probability that the
        matching pair arrives within the cutoff window."""
        if cutoff is None:
            return max_lpr
        alpha = model.alpha_for_fidelity(link_fidelity)
        p = model.success_probability(alpha)
        attempts_in_window = max(1.0, cutoff / model.cycle_time)
        p_match = 1.0 - (1.0 - p) ** attempts_in_window
        return max_lpr * p_match

    def _fidelity_ceiling(self, model: SingleClickModel) -> float:
        key = model.cache_key
        cached = _CEILING_CACHE.get(key)
        if cached is None:
            # One vectorised sweep: the same per-α arithmetic as
            # ``model.fidelity``, without 200 cold per-α calls.
            grid = np.geomspace(1e-3, 0.5, 200)
            cached = float(model._produced_stats(grid)[2].max()) - 1e-6
            _CEILING_CACHE[key] = cached
        return cached

    def _link(self, node_a: str, node_b: str):
        try:
            return self.links[frozenset((node_a, node_b))]
        except KeyError:
            raise RouteError(f"no link between {node_a} and {node_b}") from None
