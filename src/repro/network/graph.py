"""The topology graph: an adjacency dict, BFS and Yen's k-shortest paths.

Everything the stack needs from a graph library, in the standard
library.  A :class:`Graph` is an insertion-ordered adjacency dict
(``{node: {neighbour: None}}``), so neighbour iteration follows the
order nodes and edges were added — which is what makes BFS ties and
Yen's candidate order deterministic for a given wiring.

* :func:`bfs_lengths` — hop distances from one node, optionally bounded;
  connectivity and components are derived from it;
* :func:`shortest_simple_paths` — loop-free paths from shortest to
  longest (Yen's algorithm), with a set of edges to treat as absent.
"""

from __future__ import annotations

from bisect import insort
from itertools import count
from typing import Hashable, Iterable, Iterator, Optional

Node = Hashable


class NoPathError(LookupError):
    """No path joins the two nodes (or one of them is not in the graph)."""


class Graph:
    """An undirected simple graph over hashable nodes."""

    def __init__(self) -> None:
        self._adj: dict[Node, dict[Node, None]] = {}

    @property
    def nodes(self):
        """The nodes, in insertion order."""
        return self._adj.keys()

    @property
    def edges(self) -> list[tuple[Node, Node]]:
        """Each edge once, as ``(first-added endpoint, other)``."""
        seen: set = set()
        edges = []
        for node, neighbours in self._adj.items():
            edges.extend((node, other) for other in neighbours
                         if other not in seen)
            seen.add(node)
        return edges

    def add_node(self, node: Node) -> None:
        self._adj.setdefault(node, {})

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the edge ``u — v`` (and either node if it is new)."""
        self._adj.setdefault(u, {})[v] = None
        self._adj.setdefault(v, {})[u] = None

    def number_of_nodes(self) -> int:
        return len(self._adj)


def bfs_lengths(graph: Graph, source: Node,
                cutoff: Optional[int] = None) -> dict[Node, int]:
    """Hop distance from ``source`` to every node within ``cutoff`` hops."""
    adj = graph._adj
    lengths = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and (cutoff is None or depth < cutoff):
        depth += 1
        reached = []
        for node in frontier:
            for other in adj[node]:
                if other not in lengths:
                    lengths[other] = depth
                    reached.append(other)
        frontier = reached
    return lengths


def connected_components(graph: Graph) -> list[set]:
    """The node sets of the connected components."""
    components: list[set] = []
    seen: set = set()
    for node in graph.nodes:
        if node not in seen:
            component = set(bfs_lengths(graph, node))
            seen |= component
            components.append(component)
    return components


def is_connected(graph: Graph) -> bool:
    """Whether every node reaches every other (false for an empty graph)."""
    if not graph.number_of_nodes():
        return False
    first = next(iter(graph.nodes))
    return len(bfs_lengths(graph, first)) == graph.number_of_nodes()


# Yen's algorithm below is a port of the unweighted branch of networkx
# 3.6's ``shortest_simple_paths`` with its ``PathBuffer`` and
# ``_bidirectional_shortest_path`` helpers (networkx is BSD-3-Clause,
# Copyright (C) 2004-2024, NetworkX Developers).  The search order, and
# so the candidate order including ties, is the same.

def shortest_simple_paths(graph: Graph, source: Node, target: Node,
                          ignore_edges: Iterable[tuple[Node, Node]] = ()
                          ) -> Iterator[list]:
    """Yield the loop-free ``source`` → ``target`` paths, shortest first.

    Edges in ``ignore_edges`` (either orientation) are treated as absent.
    Paths of equal length come in the order of the networkx
    implementation.  Raises :class:`NoPathError` on the first ``next``
    when either node is missing or no path exists.
    """
    if source not in graph._adj or target not in graph._adj:
        raise NoPathError(f"{source!r} or {target!r} is not in the graph")
    absent = set()
    for u, v in ignore_edges:
        absent.add((u, v))
        absent.add((v, u))
    accepted: list[list] = []
    buffer = _PathBuffer()
    previous = None
    while True:
        if not previous:
            path = _bidirectional_shortest_path(graph, source, target,
                                                (), absent)
            buffer.push(len(path), path)
        else:
            ignore_nodes: set = set()
            ignore = set(absent)
            for i in range(1, len(previous)):
                root = previous[:i]
                for path in accepted:
                    if path[:i] == root:
                        ignore.add((path[i - 1], path[i]))
                        ignore.add((path[i], path[i - 1]))
                try:
                    spur = _bidirectional_shortest_path(
                        graph, root[-1], target, ignore_nodes, ignore)
                except NoPathError:
                    pass
                else:
                    buffer.push(i + len(spur), root[:-1] + spur)
                ignore_nodes.add(root[-1])
        if not buffer:
            return
        previous = buffer.pop()
        yield previous
        accepted.append(previous)


class _PathBuffer:
    """Candidate paths by cost, first pushed first among equals, no repeats.

    A sorted list rather than networkx's heap: ``(cost, counter)`` keys
    are unique, so both pop the same path, and only the scheduler owns a
    heap in this code base.
    """

    def __init__(self) -> None:
        self.paths: set[tuple] = set()
        self.sorted: list = []
        self.counter = count()

    def __len__(self) -> int:
        return len(self.sorted)

    def push(self, cost: int, path: list) -> None:
        key = tuple(path)
        if key not in self.paths:
            insort(self.sorted, (cost, next(self.counter), path))
            self.paths.add(key)

    def pop(self) -> list:
        path = self.sorted.pop(0)[2]
        self.paths.remove(tuple(path))
        return path


def _bidirectional_shortest_path(graph: Graph, source: Node, target: Node,
                                 ignore_nodes, ignore_edges) -> list:
    """A shortest path avoiding ``ignore_nodes`` and (directed) ``ignore_edges``.

    BFS from both ends, always expanding the smaller fringe, until the
    searches meet.
    """
    if source in ignore_nodes or target in ignore_nodes:
        raise NoPathError(f"no path between {source!r} and {target!r}")
    if source == target:
        return [source]
    adj = graph._adj
    pred = {source: None}
    succ = {target: None}
    forward = [source]
    reverse = [target]
    meet = None
    while forward and reverse and meet is None:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            mine, other, fringe = pred, succ, forward
        else:
            level, reverse = reverse, []
            mine, other, fringe = succ, pred, reverse
        for node in level:
            for nxt in adj[node]:
                if nxt in ignore_nodes or (node, nxt) in ignore_edges:
                    continue
                if nxt not in mine:
                    fringe.append(nxt)
                    mine[nxt] = node
                if nxt in other:
                    meet = nxt
                    break
            if meet is not None:
                break
    if meet is None:
        raise NoPathError(f"no path between {source!r} and {target!r}")
    path = []
    node = meet
    while node is not None:
        path.append(node)
        node = succ[node]
    node = pred[path[0]]
    while node is not None:
        path.insert(0, node)
        node = pred[node]
    return path
