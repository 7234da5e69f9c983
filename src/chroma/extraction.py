"""Saturation-greedy subgraph extraction and the orientation construction.

Given a bipartite edge-colored graph, `saturation_extract` produces a
spanning subgraph whose side-2 color degrees are capped at s-1 while side-1
color degrees drop by at most a controlled amount whenever the input has no
properly colored K_{s,t}. `construct_orientation` runs the extraction on the
dual graph and reads off an orientation whose directed paths, and hence
directed cycles, are properly colored in the host. The dual is never built:
its left copy u is joined to the right copy of v exactly when uv is an edge
of G, so the extraction reads G's own adjacency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EdgeColoredGraph, ColoredOrientation, color_degree
from .transforms import dual_graph  # unused here; bench/tracing.py wraps it by this path

# Slack used when rounding the real-valued growth threshold to an integer
# count; counts are integers, so "at least x" means "at least ceil(x)" up to
# floating-point noise on integral x.
_EPS = 1e-9


def _check_st(s: int, t: int) -> None:
    if not isinstance(s, int) or not isinstance(t, int) or not 2 <= s <= t:
        raise ValueError(f"parameters must satisfy 2 <= s <= t, got s={s!r}, t={t!r}")


def sigma(s: int, t: int) -> float:
    """Coefficient of the side-1 color-degree loss bound."""
    _check_st(s, t)
    return s * ((t - 1) / math.factorial(s - 1)) ** (1.0 / s)


def default_x(s: int, t: int, n2: int) -> float:
    """Growth threshold minimizing the loss bound for a side-2 part of size n2."""
    _check_st(s, t)
    if n2 < 0:
        raise ValueError("n2 must be nonnegative")
    return (s - 1) * ((t - 1) / math.factorial(s - 1)) ** (1.0 / s) * n2 ** (1.0 - 1.0 / s)


@dataclass(frozen=True)
class ExtractionParams:
    """Parameters of the saturation-greedy extraction.

    x overrides the growth threshold; when None the optimizing default for
    the instance's side-2 size is used. An override is for studying the
    threshold's sensitivity; the stated side-1 loss bound is tuned to the
    default.
    """

    s: int
    t: int
    x: float | None = None

    def __post_init__(self):
        _check_st(self.s, self.t)
        if self.x is not None:
            x = float(self.x)
            if not math.isfinite(x) or x <= 0:
                raise ValueError(f"x must be a finite positive real, got {self.x!r}")
            object.__setattr__(self, "x", x)

    @property
    def sigma(self) -> float:
        return sigma(self.s, self.t)


@dataclass(frozen=True)
class SaturationState:
    """Greedy growth record.

    selected lists the chosen side-1 vertices in order. sat_index maps each
    side-2 vertex to the 1-based growth step at which it saturated (reached
    s-1 distinct colors toward the selected set), or to l = len(selected) if
    it never did. kept_colors maps each side-2 vertex to its color set at
    that moment; saturated vertices keep exactly s-1 colors, unsaturated
    ones at most s-2.
    """

    selected: tuple[int, ...]
    sat_index: dict[int, int]
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


def _saturation_extract_on_parts(G, side1, side2, s, t, x_override):
    """Run the saturation greedy from side1 toward side2 on G.adj.

    Every neighbor of a side-1 vertex must lie in side 2. That holds for the
    two sides of a bipartition, and for side1 = side2 = range(n), which is
    the dual graph of G with vertex ids left unshifted: the left copy u is
    joined to the right copy of v exactly when uv is an edge of G. Returns
    (kept, state); kept lists the surviving edges as (u, v, c) with u in
    side 1 and v in side 2.
    """
    side1 = sorted(side1)
    side2 = sorted(side2)
    n2 = len(side2)
    x = float(x_override) if x_override is not None else default_x(s, t, n2)
    if not math.isfinite(x):
        raise ValueError(f"growth threshold x is not finite: {x!r}")
    need = max(1, math.ceil(x - _EPS))

    # One edge per color at each side-1 vertex; G.adj lists neighbors in
    # ascending order, so the kept edge goes to the smallest neighbor id.
    g0: dict[int, list[tuple[int, int]]] = {}
    for u in side1:
        first: dict[int, int] = {}
        for v, c in G.adj[u]:
            first.setdefault(c, v)
        g0[u] = sorted((v, c) for c, v in first.items())

    colors_seen: dict[int, set[int]] = {v: set() for v in side2}
    saturated: dict[int, bool] = {v: False for v in side2}
    sat_index: dict[int, int] = {}
    kept_colors: dict[int, frozenset[int]] = {}
    selected: list[int] = []
    in_selected: set[int] = set()

    while True:
        pick = None
        for u in side1:
            if u in in_selected:
                continue
            cnt = 0
            for v, c in g0[u]:
                if not saturated[v] and c not in colors_seen[v]:
                    cnt += 1
                    if cnt >= need:
                        break
            if cnt >= need:
                pick = u
                break
        if pick is None:
            break
        selected.append(pick)
        in_selected.add(pick)
        step = len(selected)
        for v, c in g0[pick]:
            if c not in colors_seen[v]:
                colors_seen[v].add(c)
                if not saturated[v] and len(colors_seen[v]) >= s - 1:
                    saturated[v] = True
                    sat_index[v] = step
                    kept_colors[v] = frozenset(colors_seen[v])

    l = len(selected)
    for v in side2:
        if not saturated[v]:
            sat_index[v] = l
            kept_colors[v] = frozenset(colors_seen[v])

    kept = [(u, v, c) for u in side1 for v, c in g0[u] if c in kept_colors[v]]
    return kept, SaturationState(tuple(selected), sat_index, kept_colors, x)


def saturation_extract(G: EdgeColoredGraph, params: ExtractionParams) -> ExtractionResult:
    """Extract a spanning subgraph with side-2 color degrees capped at s-1.

    The algorithm first keeps one edge per color at each side-1 vertex, then
    greedily grows a side-1 set: scanning side 1 in ascending id order, a
    vertex qualifies while it has at least x neighbors that are unsaturated
    and reachable through a color the neighbor has not yet seen toward the
    grown set; the first qualifier is appended and the scan restarts, until
    no vertex qualifies. Each side-2 vertex then keeps exactly the colors it
    had seen when it saturated (all of its colors, if it never did), and an
    edge survives exactly when its color is kept at its side-2 endpoint.

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
    kept, state = _saturation_extract_on_parts(
        G, side1, side2, params.s, params.t, params.x
    )
    H = EdgeColoredGraph(G.n, kept, G.bipartition)
    deltas = {u: color_degree(G, u) - color_degree(H, u) for u in sorted(side1)}
    return ExtractionResult(H, state, deltas)


def _orient(G, s, t, x, parts):
    """The orientation construction over the given (side1, side2) parts.

    Runs the saturation greedy once per part; every vertex must be side 2 of
    exactly one part. A kept edge u -> v is then deleted when its color is
    kept at u as a side-2 vertex. The kept color sets are fixed before any
    deletion, so the order of the deletions cannot matter. The survivors are
    the arcs. A vertex of side 1 in a part is bounded against the size of
    that part's side 2.
    """
    _check_st(s, t)
    kept: list[tuple[int, int, int]] = []
    side2_colors: dict[int, frozenset[int]] = {}
    states = []
    for side1, side2 in parts:
        part_kept, state = _saturation_extract_on_parts(G, side1, side2, s, t, x)
        kept += part_kept
        side2_colors.update(state.kept_colors)
        states.append(state)
    arcs = [(u, v, c) for u, v, c in kept if c not in side2_colors[u]]
    D = ColoredOrientation(G, arcs)
    H = EdgeColoredGraph(G.n, arcs, G.bipartition)

    sig = sigma(s, t)
    loss = [0.0] * G.n
    for side1, side2 in parts:
        side_loss = sig * len(side2) ** (1.0 - 1.0 / s) + s
        for v in side1:
            loss[v] = side_loss
    per_vertex = {}
    for v in range(G.n):
        dplus = D.out_degree(v)
        dc = color_degree(G, v)
        bound = dc - loss[v]
        per_vertex[v] = {"dplus": dplus, "dc": dc, "bound": bound, "margin": dplus - bound}
    ls = [state.l for state in states]
    xs = [state.x for state in states]
    if len(states) == 1:
        ls, xs = ls[0], xs[0]
    report = {
        "n": G.n, "per_vertex": per_vertex, "s": s, "t": t, "l": ls, "x": xs, "sigma": sig,
    }
    return H, D, report


def construct_orientation(
    G: EdgeColoredGraph, s: int, t: int, x: float | None = None
) -> tuple[EdgeColoredGraph, ColoredOrientation, dict]:
    """Orient a spanning subgraph of G so directed paths are properly colored.

    Runs the saturation extraction on the dual graph of G, deletes every
    surviving left-copy edge whose color appears at the matching right copy,
    and orients u -> v exactly when the left edge u -> right copy of v
    survives. The dual is implicit: its left copy u is joined to the right
    copy of v exactly when uv is an edge of G, so the extraction reads G's
    own adjacency with side 1 = side 2 = all vertices. Unconditionally the
    result has no anti-parallel arcs, at every vertex the in-arc colors and
    out-arc colors are disjoint (so directed paths and cycles are properly
    colored), and the in-arc color set has size at most s-1. When G has no
    properly colored K_{s,t} (and t < n, so the loss bound is meaningful),
    every vertex keeps out-degree greater than its color degree minus
    (sigma(s, t) * n^(1-1/s) + s).

    Returns (H, D, report) where H is the unoriented arc support and the
    report carries per-vertex out-degree, color degree, bound and margin
    plus the extraction diagnostics l, x and sigma.
    """
    return _orient(G, s, t, x, [(range(G.n), range(G.n))])


def construct_orientation_bipartite(
    G: EdgeColoredGraph, s: int, t: int, x: float | None = None
) -> tuple[EdgeColoredGraph, ColoredOrientation, dict]:
    """Bipartite variant with per-side degree bounds.

    The extraction is applied separately to the two bipartite halves of the
    dual graph (left copies of side 1 against right copies of side 2, and
    vice versa) before the shared deletion step, so the conditional bound
    for a vertex of side i uses the opposite side's size. The report's l
    and x are lists over the two halves.
    """
    if G.bipartition is None:
        raise ValueError("construct_orientation_bipartite requires a bipartition")
    side1, side2 = G.bipartition
    return _orient(G, s, t, x, [(side1, side2), (side2, side1)])
