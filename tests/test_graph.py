"""networkx as the reference for the in-repo graph module.

``repro.network.graph`` and the catalogue generators replace the parts of
networkx the stack used.  networkx stays a test dependency so these
oracles can check, on random graphs and seeds, that the replacements
give the same answers: the same edge sets from every seeded generator,
the same BFS distances, and Yen's candidate paths in the same order,
ties included.
"""

import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.graph import (
    Graph,
    NoPathError,
    bfs_lengths,
    connected_components,
    is_connected,
    shortest_simple_paths,
)
from repro.traffic.topologies import erdos_renyi_graph, tree_graph, waxman_graph


def _edge_set(graph):
    return {frozenset(edge) for edge in graph.edges}


def _reference_connected(graph, rng):
    """The catalogue's component stitching, on a networkx graph."""
    components = sorted((sorted(component) for component
                         in nx.connected_components(graph)),
                        key=lambda component: component[0])
    for previous, current in zip(components, components[1:]):
        graph.add_edge(rng.choice(previous), rng.choice(current))
    return graph


def _reference_erdos_renyi(size, seed, p):
    graph = nx.gnp_random_graph(size, p, seed=seed)
    graph = nx.relabel_nodes(graph, {i: f"n{i}" for i in range(size)})
    return _reference_connected(graph, random.Random(seed))


def _reference_waxman(size, seed, beta, alpha):
    graph = nx.waxman_graph(size, beta=beta, alpha=alpha, seed=seed)
    graph = nx.relabel_nodes(graph, {i: f"w{i}" for i in range(size)})
    return _reference_connected(graph, random.Random(seed))


def _reference_tree(height, branching):
    graph = nx.balanced_tree(branching, height)
    return nx.relabel_nodes(
        graph, {i: f"t{i}" for i in range(graph.number_of_nodes())})


_seeds = st.integers(0, 2 ** 32 - 1)
_unit = st.floats(0.0, 1.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30), _seeds, st.one_of(st.none(), _unit))
def test_erdos_renyi_matches_networkx(size, seed, p):
    graph = erdos_renyi_graph(size, seed=seed, p=p)
    if p is None:
        p = min(1.0, 2.0 * math.log(size) / size)
    reference = _reference_erdos_renyi(size, seed, p)
    assert set(graph.nodes) == set(reference.nodes)
    assert _edge_set(graph) == _edge_set(reference)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30), _seeds, st.floats(0.05, 1.0), st.floats(0.05, 1.0))
def test_waxman_matches_networkx(size, seed, beta, alpha):
    graph = waxman_graph(size, seed=seed, beta=beta, alpha=alpha)
    reference = _reference_waxman(size, seed, beta, alpha)
    assert set(graph.nodes) == set(reference.nodes)
    assert _edge_set(graph) == _edge_set(reference)


@pytest.mark.parametrize("height,branching",
                         itertools.product(range(1, 6), range(1, 4)))
def test_tree_matches_networkx(height, branching):
    graph = tree_graph(height, branching=branching)
    reference = _reference_tree(height, branching)
    assert set(graph.nodes) == set(reference.nodes)
    assert _edge_set(graph) == _edge_set(reference)


def _random_graphs(seed, size, density):
    """The same random graph as an in-repo ``Graph`` and an ``nx.Graph``.

    Both get the nodes, then the edges, in the same shuffled order, so
    their adjacency dicts iterate alike — as the routing graph does, which
    ``build_network_from_graph`` fills in sorted order.
    """
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(size)]
    rng.shuffle(names)
    pairs = [pair for pair in itertools.combinations(names, 2)
             if rng.random() < density]
    rng.shuffle(pairs)
    ours, theirs = Graph(), nx.Graph()
    for name in names:
        ours.add_node(name)
        theirs.add_node(name)
    for u, v in pairs:
        ours.add_edge(u, v)
        theirs.add_edge(u, v)
    return ours, theirs, rng


_graph_draws = st.tuples(_seeds, st.integers(2, 12), st.floats(0.1, 0.9))


def _paths_or_none(generator, limit, no_path):
    try:
        return list(itertools.islice(generator, limit))
    except no_path:
        return None


@settings(max_examples=200, deadline=None)
@given(_graph_draws, st.floats(0.0, 0.5), st.integers(1, 40))
def test_yen_candidates_match_networkx(draw, down_share, limit):
    ours, theirs, rng = _random_graphs(*draw)
    nodes = list(ours.nodes)
    head, tail = rng.sample(nodes, 2)
    down = [edge for edge in ours.edges if rng.random() < down_share]
    view = nx.restricted_view(theirs, [], down) if down else theirs
    expected = _paths_or_none(nx.shortest_simple_paths(view, head, tail),
                              limit, nx.NetworkXNoPath)
    actual = _paths_or_none(
        shortest_simple_paths(ours, head, tail, ignore_edges=down),
        limit, NoPathError)
    assert actual == expected


def test_yen_rejects_unknown_nodes():
    graph = Graph()
    graph.add_edge("a", "b")
    with pytest.raises(NoPathError):
        next(shortest_simple_paths(graph, "a", "z"))


@settings(max_examples=150, deadline=None)
@given(_graph_draws, st.one_of(st.none(), st.integers(0, 6)))
def test_bfs_matches_networkx(draw, cutoff):
    ours, theirs, _ = _random_graphs(*draw)
    expected = dict(nx.all_pairs_shortest_path_length(theirs, cutoff=cutoff))
    assert {node: bfs_lengths(ours, node, cutoff=cutoff)
            for node in ours.nodes} == expected
    assert is_connected(ours) == nx.is_connected(theirs)
    assert (sorted(map(sorted, connected_components(ours)))
            == sorted(map(sorted, nx.connected_components(theirs))))
    assert len(ours.edges) == theirs.number_of_edges()
