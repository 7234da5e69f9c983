"""Search-free checks: verify_witness for witnesses, verify_orientation for
colored orientations and their reports. Imports chroma.core and the stdlib only.
"""
from __future__ import annotations

from itertools import chain
from typing import Optional

from .core import ColoredOrientation, EdgeColoredGraph, Witness, is_properly_colored, is_rainbow


def _cycle_edges(cycle):
    k = len(cycle)
    return [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]


def _host_edges(host, kind: str, groups) -> Optional[list[tuple[int, ...]]]:
    """The edges a witness of kind on the vertex groups must have, or None
    when one of them is missing from host.

    The pairs are S x T for a K_{s,t} (groups S, T) and the consecutive
    pairs of each cycle otherwise. For a directed cycle the edges are the
    arcs of host on them, read from host.arcs as (tail, head) or
    (tail, head, color); otherwise they are (min, max, color) triples.
    """
    if kind in ("pc-kst", "rainbow-kst"):
        S, T = groups
        pairs = [(u, v) for u in S for v in T]
    else:
        pairs = [p for cycle in groups for p in _cycle_edges(cycle)]
    if kind == "directed-cycle":
        arcs = {arc[:2]: arc for arc in host.arcs}
        edges = [arcs.get(p) for p in pairs]
    else:
        colors = host.pair_colors
        edges = []
        for u, v in pairs:
            e = (u, v) if u < v else (v, u)
            edges.append((*e, colors[e]) if e in colors else None)
    return None if None in edges else edges


def verify_witness(host, w: Witness) -> bool:
    """Re-verify a witness against its host graph; False on any mismatch.

    Vertex ids and edge entries must be ints, not bools (True and 1.0
    would pass as 1). The vertices must be pairwise distinct: two nonempty
    sides for a K_{s,t}, one cycle of length at least 3 (several for
    disjoint-cycles) otherwise. The edges must be exactly the host's edges
    that the structure needs (see _host_edges), in any order. Colored
    witnesses must then be properly colored, and the rainbow kinds rainbow.
    """
    groups = w.vertices
    if w.kind in ("pc-kst", "rainbow-kst"):
        shaped = len(groups) == 2 and all(groups)
    else:
        shaped = (
            bool(groups)
            and (len(groups) == 1 or w.kind == "disjoint-cycles")
            and all(len(g) >= 3 for g in groups)
        )
    flat = [v for g in groups for v in g]
    # Only a digraph has arcs, and only an edge-colored graph has colors.
    if (w.kind == "directed-cycle") == isinstance(host, EdgeColoredGraph):
        return False
    kinds = set(map(type, chain(flat, *w.edges)))
    if any(not issubclass(k, int) or k is bool for k in kinds):
        return False
    if not shaped or len(set(flat)) != len(flat):
        return False
    want = _host_edges(host, w.kind, groups)
    if want is None or sorted(w.edges) != sorted(want):
        return False
    if w.kind == "directed-cycle":
        return True
    # A rainbow edge set is properly colored as well.
    if w.kind in ("rainbow-kst", "rainbow-cycle"):
        return is_rainbow(host, want)
    return is_properly_colored(host, want)


def verify_orientation(
    G: EdgeColoredGraph, D: ColoredOrientation, s: int, report: dict
) -> Optional[str]:
    """None when the colored orientation D of G and its report keep every
    unconditional invariant of the construction, else the first one broken:
    each arc is an edge of G in G's color; at each vertex the in-arc and
    out-arc colors are disjoint (so directed paths and cycles are properly
    colored), with at most s - 1 in-arc colors; the report's n is G.n and
    each vertex's dplus its out-degree in D. Anti-parallel arcs are left to
    the ColoredOrientation constructor, which refuses them."""
    colors = G.pair_colors
    ins: list[set[int]] = [set() for _ in range(G.n)]
    outs: list[set[int]] = [set() for _ in range(G.n)]
    dplus = [0] * G.n
    for t, h, c in D.arcs:
        if colors.get((t, h) if t < h else (h, t), -1) != c:  # colors are >= 0
            return "every arc matches a host edge and color"
        ins[h].add(c)
        outs[t].add(c)
        dplus[t] += 1
    if any(i & o for i, o in zip(ins, outs)):
        return "per-vertex in-arc and out-arc color sets are disjoint"
    if any(len(i) > s - 1 for i in ins):
        return "per-vertex in-arc color set has size at most s-1"
    # Vertex keys are ints in memory and strings once the report is JSON; a
    # report, per_vertex or row that is not an object matches nothing.
    per_vertex = report.get("per_vertex", {}) if isinstance(report, dict) else None
    if isinstance(per_vertex, dict) and report.get("n") == G.n:
        rows = {str(v): row for v, row in per_vertex.items()}
        got = [rows.get(str(v)) for v in range(G.n)]
        if all(isinstance(row, dict) and row.get("dplus") == d for row, d in zip(got, dplus)):
            return None
    return "the report's n and per-vertex dplus match the orientation"
