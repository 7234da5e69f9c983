"""Saturation-greedy subgraph extraction and the orientation construction.

Given a bipartite edge-colored graph, `saturation_extract` produces a
spanning subgraph whose side-2 color degrees are capped at s-1 while side-1
color degrees drop by at most a controlled amount whenever the input has no
properly colored K_{s,t}. `construct_orientation` runs the extraction on the
dual graph and reads off an orientation whose directed paths, and hence
directed cycles, are properly colored in the host. The dual is never built:
its left copy u is joined to the right copy of v exactly when uv is an edge
of G, so the extraction reads G's own edges, once: one pass over G.edges
keeps, at each vertex, its edge to the smallest neighbor of each color.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EdgeColoredGraph, ColoredOrientation, _require_int, color_degree
from .transforms import dual_graph  # unused here; bench/tracing.py wraps it by this path

# Slack used when rounding the real-valued growth threshold to an integer
# count; counts are integers, so "at least x" means "at least ceil(x)" up to
# floating-point noise on integral x.
_EPS = 1e-9


def _check_st(s: int, t: int) -> None:
    """Refuse (s, t) outside the paper's range t >= s >= 2; every function
    of the package that takes s and t checks them here."""
    _require_int("s", s, 2)
    _require_int("t", t, s)


def sigma(s: int, t: int) -> float:
    """Coefficient of the side-1 color-degree loss bound."""
    _check_st(s, t)
    return s * ((t - 1) / math.factorial(s - 1)) ** (1.0 / s)


def default_x(s: int, t: int, n2: int) -> float:
    """Growth threshold minimizing the loss bound for a side-2 part of size n2."""
    _check_st(s, t)
    _require_int("n2", n2, 0)
    return (s - 1) * ((t - 1) / math.factorial(s - 1)) ** (1.0 / s) * n2 ** (1.0 - 1.0 / s)


@dataclass(frozen=True)
class SaturationState:
    """Greedy growth record.

    selected lists the chosen side-1 vertices in order. kept_colors maps
    each side-2 vertex to its color set toward the selected set at the pick
    that saturated it (brought it to s-1 distinct colors), or at the end if
    none did; saturated vertices keep exactly s-1 colors, unsaturated ones
    at most s-2.
    """

    selected: tuple[int, ...]
    kept_colors: dict[int, frozenset[int]]
    x: float

    @property
    def l(self) -> int:
        return len(self.selected)


@dataclass(frozen=True)
class ExtractionResult:
    """Extracted spanning subgraph plus the saturation state that produced it."""

    H: EdgeColoredGraph
    state: SaturationState
    deltas: dict[int, int]


def _color_firsts(G):
    """One map per vertex of G, from each color at the vertex to its
    smallest neighbor joined by that color, made in one pass over G.edges.

    Edges are sorted with u < v, so each vertex meets its neighbors in
    ascending order: setdefault keeps the smallest neighbor of each color,
    and the map lists its colors in the order of those neighbors, which is
    ascending too. len(firsts[v]) is v's color degree.
    """
    firsts: list[dict[int, int]] = [{} for _ in range(G.n)]
    for u, v, c in G.edges:
        firsts[u].setdefault(c, v)
        firsts[v].setdefault(c, u)
    return firsts


def _saturation_extract_on_parts(firsts, side1, side2, s, x):
    """Run the saturation greedy from side1 toward side2 at growth threshold
    x, over the one-edge-per-color maps firsts of _color_firsts(G).

    Every neighbor of a side-1 vertex must lie in side 2. That holds for the
    two sides of a bipartition, and for side1 = side2 = range(n), which is
    the dual graph of G with vertex ids left unshifted: the left copy u is
    joined to the right copy of v exactly when uv is an edge of G. Returns
    the SaturationState; an edge (u, v, c) of firsts[u], u in side 1,
    survives exactly when c is in its kept_colors[v].

    The greedy is specified as: pick the first side-1 vertex, in ascending
    order, that is not yet selected and has at least x fresh neighbors
    (unsaturated, joined by a color they have not yet seen), then restart
    the scan, until no vertex qualifies. One ascending pass selects exactly
    the same vertices in the same order. A pick only adds colors to
    colors_seen and saturates vertices, so a vertex's fresh count can only
    fall; a vertex that fails once fails at every later step. When the pass
    reaches u, every smaller unselected vertex has failed, so u is the
    restart scan's next pick exactly when it qualifies now. The pass reads
    each one-edge-per-color map at most twice, O(sum of degrees) in all,
    where restarting costs O(l * sum of degrees) for l picks. Within one
    map each neighbor appears at most once, so the order of a map cannot
    change a pick.
    """
    need = max(1, math.ceil(x - _EPS))
    side2 = sorted(side2)

    # During the growth a side-2 vertex is saturated exactly when it has
    # its kept colors.
    colors_seen: dict[int, set[int]] = {v: set() for v in side2}
    kept_colors: dict[int, frozenset[int]] = {}
    selected: list[int] = []

    for u in sorted(side1):
        first = firsts[u].items()
        cnt = 0
        for c, v in first:
            if v not in kept_colors and c not in colors_seen[v]:
                cnt += 1
                if cnt >= need:
                    break
        if cnt < need:
            continue
        selected.append(u)
        for c, v in first:
            if c not in colors_seen[v]:
                colors_seen[v].add(c)
                if v not in kept_colors and len(colors_seen[v]) >= s - 1:
                    kept_colors[v] = frozenset(colors_seen[v])

    for v in side2:
        if v not in kept_colors:
            kept_colors[v] = frozenset(colors_seen[v])
    return SaturationState(tuple(selected), kept_colors, x)


def saturation_extract(G: EdgeColoredGraph, s: int, t: int) -> ExtractionResult:
    """Extract a spanning subgraph with side-2 color degrees capped at s-1.

    The algorithm first keeps one edge per color at each side-1 vertex, then
    greedily grows a side-1 set: scanning side 1 in ascending id order, a
    vertex qualifies while it has at least x = default_x(s, t, n2) neighbors
    that are unsaturated and reachable through a color the neighbor has not
    yet seen toward the grown set; the first qualifier is appended and the
    scan restarts, until no vertex qualifies (one ascending pass selects the
    same vertices; see _saturation_extract_on_parts). Each side-2 vertex
    then keeps exactly the colors it had seen when it saturated (all of its
    colors, if it never did), and an edge survives exactly when its color is
    kept at its side-2 endpoint.

    Unconditionally every side-2 color degree of H is at most s-1 (exactly
    s-1 at saturated vertices; at most 1 for s=2, making H pseudo side-2
    canonical). When G has no properly colored K_{s,t}, every side-1 vertex
    loses at most sigma(s, t) * n2^(1-1/s) from its color degree. In the
    degenerate regime where s-1 reaches the side-2 color degrees the cap
    never binds and H keeps everything the side-proper step kept.
    """
    if G.bipartition is None:
        raise ValueError("saturation_extract requires a bipartition")
    side1, side2 = G.bipartition
    side1 = sorted(side1)
    firsts = _color_firsts(G)
    state = _saturation_extract_on_parts(firsts, side1, side2, s, default_x(s, t, len(side2)))
    kept = [(u, v, c) for u in side1 for c, v in firsts[u].items() if c in state.kept_colors[v]]
    H = EdgeColoredGraph(G.n, kept, G.bipartition)
    deltas = {u: len(firsts[u]) - color_degree(H, u) for u in side1}
    return ExtractionResult(H, state, deltas)


def _orient(G, s, t, parts):
    """The orientation construction over the given (side1, side2) parts.

    Builds the one-edge-per-color maps of G once and runs the saturation
    greedy on them once per part; every vertex must be side 1 of exactly
    one part and side 2 of exactly one part, so side2_colors holds each
    vertex's kept colors as a side-2 vertex. The arcs are then read off the
    maps in one ascending pass: u -> v of color c survives the greedy when
    c is kept at v, and is deleted when c is kept at u. The kept color sets
    are fixed before any deletion, so the order of the deletions cannot
    matter, and the arcs come out sorted. A vertex of side 1 in a part is
    bounded against the size of that part's side 2.

    The report is read off the maps: a vertex's color degree is the size of
    its map, and its out-degree counts the arcs with that tail.
    """
    firsts = _color_firsts(G)
    side2_colors: dict[int, frozenset[int]] = {}
    states = []
    for side1, side2 in parts:
        state = _saturation_extract_on_parts(firsts, side1, side2, s, default_x(s, t, len(side2)))
        side2_colors.update(state.kept_colors)
        states.append(state)
    arcs = [
        (u, v, c)
        for u, first in enumerate(firsts)
        for c, v in first.items()
        if c in side2_colors[v] and c not in side2_colors[u]
    ]
    D = ColoredOrientation(G, arcs)

    sig = sigma(s, t)
    loss = [0.0] * G.n
    for side1, side2 in parts:
        side_loss = sig * len(side2) ** (1.0 - 1.0 / s) + s
        for v in side1:
            loss[v] = side_loss
    dplus = [0] * G.n
    for e in arcs:
        dplus[e[0]] += 1
    per_vertex = {}
    for v in range(G.n):
        dc = len(firsts[v])
        bound = dc - loss[v]
        per_vertex[v] = {"dplus": dplus[v], "dc": dc, "bound": bound,
                         "margin": dplus[v] - bound}
    ls = [state.l for state in states]
    xs = [state.x for state in states]
    if len(states) == 1:
        ls, xs = ls[0], xs[0]
    report = {
        "n": G.n, "per_vertex": per_vertex, "s": s, "t": t, "l": ls, "x": xs, "sigma": sig,
    }
    return D.support, D, report


def construct_orientation(
    G: EdgeColoredGraph, s: int, t: int
) -> tuple[EdgeColoredGraph, ColoredOrientation, dict]:
    """Orient a spanning subgraph of G so directed paths are properly colored.

    Runs the saturation extraction on the dual graph of G, deletes every
    surviving left-copy edge whose color appears at the matching right copy,
    and orients u -> v exactly when the left edge u -> right copy of v
    survives. The dual is implicit: its left copy u is joined to the right
    copy of v exactly when uv is an edge of G, so the extraction reads G's
    own edges with side 1 = side 2 = all vertices. Unconditionally the
    result has no anti-parallel arcs, at every vertex the in-arc colors and
    out-arc colors are disjoint (so directed paths and cycles are properly
    colored), and the in-arc color set has size at most s-1. When G has no
    properly colored K_{s,t} (and t < n, so the loss bound is meaningful),
    every vertex keeps out-degree greater than its color degree minus
    (sigma(s, t) * n^(1-1/s) + s).

    Returns (H, D, report). H is D.support: the arcs unoriented, with G's
    bipartition, built once when D's constructor checks them. The report
    carries per-vertex out-degree, color degree, bound and margin plus the
    extraction diagnostics l, x = default_x(s, t, n) and sigma.
    """
    return _orient(G, s, t, [(range(G.n), range(G.n))])


def construct_orientation_bipartite(
    G: EdgeColoredGraph, s: int, t: int
) -> tuple[EdgeColoredGraph, ColoredOrientation, dict]:
    """Bipartite variant with per-side degree bounds.

    The extraction is applied separately to the two bipartite halves of the
    dual graph (left copies of side 1 against right copies of side 2, and
    vice versa) before the shared deletion step, so the conditional bound
    for a vertex of side i uses the opposite side's size. The report's l
    and x are lists over the two halves; each x is default_x(s, t, size of
    that half's side 2).
    """
    if G.bipartition is None:
        raise ValueError("construct_orientation_bipartite requires a bipartition")
    side1, side2 = G.bipartition
    return _orient(G, s, t, [(side1, side2), (side2, side1)])
