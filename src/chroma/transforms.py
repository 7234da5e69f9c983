"""Structure-preserving constructions between oriented and edge-colored graphs.

The signature of an orientation colors each underlying edge with its arc's
head id, so directed cycles correspond exactly to properly colored cycles.
The dual graph is the bipartite double that preserves properly colored and
rainbow complete-bipartite subgraphs in both directions. The k-blow-up
replaces each vertex of a digraph with an independent block of k copies.
"""
from __future__ import annotations

from itertools import product

from .core import EdgeColoredGraph, OrientedGraph


def signature(D: OrientedGraph) -> EdgeColoredGraph:
    """Underlying graph of D with every edge colored by its arc's head id."""
    edges = [(min(t, h), max(t, h), h) for t, h in D.arcs]
    return EdgeColoredGraph(D.n, edges)


def dual_graph(G: EdgeColoredGraph) -> EdgeColoredGraph:
    """Bipartite double of G on 2n vertices.

    Each edge (u, v, c) becomes the two edges (u, n+v, c) and (v, n+u, c);
    the bipartition is (first n vertices, last n vertices). Color degrees are
    preserved: d^c(v) equals d^c at both copies of v.
    """
    n = G.n
    edges = []
    for u, v, c in G.edges:
        edges.append((u, n + v, c))
        edges.append((v, n + u, c))
    return EdgeColoredGraph(2 * n, edges, bipartition=(range(n), range(n, 2 * n)))


def blow_up(D: OrientedGraph, k: int) -> OrientedGraph:
    """Replace each vertex of D by an independent block of k copies.

    Vertex i maps to the block {k*i, ..., k*i + k - 1}; each arc (i, j)
    becomes all k*k arcs from block i to block j. The shortest directed
    cycle length is preserved.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"blow-up factor must be a positive integer, got {k!r}")
    arcs = [
        (i * k + a, j * k + b)
        for i, j in D.arcs
        for a, b in product(range(k), range(k))
    ]
    return OrientedGraph(D.n * k, arcs)
