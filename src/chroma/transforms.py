"""Structure-preserving constructions between oriented and edge-colored graphs.

The signature of an orientation colors each underlying edge with its arc's
head id, so directed cycles correspond exactly to properly colored cycles.
The dual graph is the bipartite double that preserves properly colored and
rainbow complete-bipartite subgraphs in both directions. The k-blow-up
replaces each vertex of a digraph with an independent block of k copies.
A relabelling moves vertices and renames colors, keeping the structure.
"""
from __future__ import annotations

from itertools import product

from .core import EdgeColoredGraph, OrientedGraph, _require_int


def _signature_rows(arcs) -> list[tuple[int, int, int]]:
    """The edge (min(t, h), max(t, h), h) of each arc t -> h, ascending."""
    rows = [(t, h, h) if t < h else (h, t, h) for t, h in arcs]
    rows.sort()
    return rows


def signature(D: OrientedGraph) -> EdgeColoredGraph:
    """Underlying graph of D with every edge colored by its arc's head id.

    The rows are built canonical, (min, max, head), and sorted, so the
    constructor checks each row once, keeps no duplicate set and runs no
    sort.
    """
    return EdgeColoredGraph(D.n, _signature_rows(D.arcs))


def dual_graph(G: EdgeColoredGraph) -> EdgeColoredGraph:
    """Bipartite double of G on 2n vertices.

    Each edge (u, v, c) becomes the two edges (u, n+v, c) and (v, n+u, c);
    the bipartition is (first n vertices, last n vertices). Color degrees are
    preserved: d^c(v) equals d^c at both copies of v. The rows are formed
    from G.adj, u ascending and its neighbors ascending, so the constructor
    checks each row once, keeps no duplicate set and runs no sort.
    """
    n = G.n
    edges = [(u, n + v, c) for u, nbrs in enumerate(G.adj) for v, c in nbrs]
    return EdgeColoredGraph(2 * n, edges, bipartition=(range(n), range(n, 2 * n)))


def blow_up(D: OrientedGraph, k: int) -> OrientedGraph:
    """Replace each vertex of D by an independent block of k copies.

    Vertex i maps to the block {k*i, ..., k*i + k - 1}; each arc (i, j)
    becomes all k*k arcs from block i to block j. The shortest directed
    cycle length is preserved.
    """
    _require_int("blow-up factor", k, 1)
    arcs = [
        (i * k + a, j * k + b)
        for i, j in D.arcs
        for a, b in product(range(k), range(k))
    ]
    return OrientedGraph(D.n * k, arcs)


def relabel(G: EdgeColoredGraph, perm, colors=None) -> EdgeColoredGraph:
    """G with its vertex v moved to perm[v], a permutation of range(n), and,
    when colors is given, each color c renamed colors[c]; a bipartition
    moves with its vertices.
    """
    if sorted(perm) != list(range(G.n)):
        raise ValueError("perm is not a permutation of the vertices")
    rows = [(perm[u], perm[v], c if colors is None else colors[c]) for u, v, c in G.edges]
    sides = G.bipartition
    parts = None if sides is None else tuple([perm[v] for v in side] for side in sides)
    return EdgeColoredGraph(G.n, rows, bipartition=parts)
