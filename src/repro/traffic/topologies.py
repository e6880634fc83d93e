"""Topology catalogue: seeded generators for evaluation networks.

The paper evaluates the QNP on hand-built chains and the Fig 7 dumbbell;
routing and benchmarking studies of quantum networks sweep much richer
shapes — grids and random graphs (Shi & Qian, arXiv:1909.09329), Waxman
graphs (the classic internet-topology model) and trees.  This module
generates those families and wires them into full
:class:`~repro.network.builder.Network` stacks through
:func:`~repro.network.builder.build_network_from_graph`.

Every generator is deterministic in ``(size, seed)``; random families
(Erdős–Rényi, Waxman) are post-processed into a single connected
component so every endpoint pair is routable.  The random families draw
from ``random.Random(seed)`` in the same order as networkx's
``gnp_random_graph`` and ``waxman_graph``, so they give the same edge
sets.

The ``TOPOLOGIES`` registry maps catalogue names (the CLI's
``--topology`` choices) to ``(size, seed) -> Graph`` builders.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable

from ..hardware.parameters import HardwareParams, SIMULATION
from ..network.builder import Network, build_network_from_graph
from ..network.graph import Graph, connected_components


def grid_graph(size: int, seed: int = 0) -> Graph:
    """A ``size × size`` square lattice (nodes ``g<row>x<col>``)."""
    if size < 2:
        raise ValueError("a grid needs size >= 2")
    graph = Graph()
    for row in range(size):
        for col in range(size):
            name = f"g{row}x{col}"
            graph.add_node(name)
            if row > 0:
                graph.add_edge(f"g{row - 1}x{col}", name)
            if col > 0:
                graph.add_edge(f"g{row}x{col - 1}", name)
    return graph


def ring_graph(size: int, seed: int = 0) -> Graph:
    """A cycle of ``size`` nodes (nodes ``r<i>``)."""
    if size < 3:
        raise ValueError("a ring needs size >= 3")
    graph = Graph()
    names = [f"r{i}" for i in range(size)]
    for left, right in zip(names, names[1:] + names[:1]):
        graph.add_edge(left, right)
    return graph


def star_of_chains_graph(size: int, seed: int = 0,
                         arm_length: int = 2) -> Graph:
    """``size`` repeater chains of ``arm_length`` hops meeting at a hub.

    Models a metropolitan exchange: end-nodes at the arm tips, repeaters
    along the arms, one shared switching hub (nodes ``hub`` and
    ``a<arm>n<depth>``).
    """
    if size < 2:
        raise ValueError("a star needs at least two arms")
    if arm_length < 1:
        raise ValueError("arms need at least one hop")
    graph = Graph()
    for arm in range(size):
        previous = "hub"
        for depth in range(arm_length):
            name = f"a{arm}n{depth}"
            graph.add_edge(previous, name)
            previous = name
    return graph


def erdos_renyi_graph(size: int, seed: int = 0,
                      p: float | None = None) -> Graph:
    """A G(n, p) random graph, forced connected (nodes ``n<i>``).

    ``p`` defaults to ``2 ln(n) / n`` — comfortably above the
    connectivity threshold — and any residual components are stitched
    together with seeded extra edges.
    """
    if size < 2:
        raise ValueError("an Erdős–Rényi graph needs size >= 2")
    if p is None:
        p = min(1.0, 2.0 * math.log(max(size, 2)) / size)
    rng = random.Random(seed)
    graph = _empty_graph("n", size)
    for u, v in itertools.combinations(range(size), 2):
        if rng.random() < p:
            graph.add_edge(f"n{u}", f"n{v}")
    return _ensure_connected(graph, random.Random(seed))


def waxman_graph(size: int, seed: int = 0, beta: float = 0.6,
                 alpha: float = 0.4) -> Graph:
    """A Waxman spatial random graph, forced connected (nodes ``w<i>``)."""
    if size < 2:
        raise ValueError("a Waxman graph needs size >= 2")
    # Waxman-1 in the unit square: join u, v with probability
    # beta * exp(-d(u, v) / (alpha * L)), L the largest distance.
    rng = random.Random(seed)
    pos = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(size)]
    longest = max(math.dist(a, b) for a, b in itertools.combinations(pos, 2))
    graph = _empty_graph("w", size)
    for u, v in itertools.combinations(range(size), 2):
        if rng.random() < beta * math.exp(-math.dist(pos[u], pos[v])
                                          / (alpha * longest)):
            graph.add_edge(f"w{u}", f"w{v}")
    return _ensure_connected(graph, random.Random(seed))


def tree_graph(size: int, seed: int = 0, branching: int = 2) -> Graph:
    """A balanced tree of height ``size`` (nodes ``t<i>``)."""
    if size < 1:
        raise ValueError("a tree needs height >= 1")
    total = (size + 1 if branching == 1
             else (1 - branching ** (size + 1)) // (1 - branching))
    graph = _empty_graph("t", total)
    for child in range(1, total):  # breadth-first numbering, root t0
        graph.add_edge(f"t{(child - 1) // branching}", f"t{child}")
    return graph


def _empty_graph(prefix: str, size: int) -> Graph:
    graph = Graph()
    for i in range(size):
        graph.add_node(f"{prefix}{i}")
    return graph


def _ensure_connected(graph: Graph, rng: random.Random) -> Graph:
    """Stitch components together with deterministic extra edges."""
    components = sorted((sorted(component) for component
                         in connected_components(graph)),
                        key=lambda component: component[0])
    for previous, current in zip(components, components[1:]):
        graph.add_edge(rng.choice(previous), rng.choice(current))
    return graph


#: Catalogue name → seeded graph builder (the CLI's ``--topology`` choices).
TOPOLOGIES: dict[str, Callable[..., Graph]] = {
    "grid": grid_graph,
    "ring": ring_graph,
    "star": star_of_chains_graph,
    "erdos-renyi": erdos_renyi_graph,
    "waxman": waxman_graph,
    "tree": tree_graph,
}


def topology_graph(kind: str, size: int, seed: int = 0, **kwargs) -> Graph:
    """Generate a catalogue topology as a graph."""
    try:
        builder = TOPOLOGIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown topology {kind!r} (have: {', '.join(sorted(TOPOLOGIES))})"
        ) from None
    return builder(size, seed=seed, **kwargs)


def build_topology(kind: str, size: int, seed: int = 0,
                   params: HardwareParams = SIMULATION,
                   formalism: str = "dm", length_km: float = 0.002,
                   slice_attempts: int = 100,
                   physical: str = "analytic", **kwargs) -> Network:
    """Generate a catalogue topology and wire it into a full network."""
    graph = topology_graph(kind, size, seed=seed, **kwargs)
    return build_network_from_graph(graph, length_km=length_km, params=params,
                                    seed=seed, slice_attempts=slice_attempts,
                                    formalism=formalism, physical=physical)
