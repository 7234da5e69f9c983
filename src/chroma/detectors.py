"""Bounded-exhaustive search oracles for colored and directed structures.

These searches define ground truth at desk scale. "Not found" and "budget
exceeded" are distinct outcomes: exhausted-none asserts the whole search
space was covered, while budget-exceeded makes no claim. Every witness is
re-verified against the host before being returned.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Union

from .core import (
    ColoredOrientation,
    EdgeColoredGraph,
    OrientedGraph,
    Witness,
    color_degree,
    is_properly_colored,
    is_rainbow,
    total_color_degree,
)
from .extraction import construct_orientation, sigma

FOUND = "found"
EXHAUSTED = "exhausted-none"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchBudget:
    """Limits on a single search invocation; None means unbounded."""

    max_nodes: Optional[int] = None
    time_limit_s: Optional[float] = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.time_limit_s is not None and self.time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    status: str
    witness: Optional[Witness]
    nodes: int
    elapsed_s: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness.to_dict() if self.witness else None,
            "nodes": self.nodes,
            "elapsed_s": self.elapsed_s,
            "details": self.details,
        }


class _BudgetStop(Exception):
    pass


class _Clock:
    """Node and wall-clock accounting shared across search stages."""

    __slots__ = ("nodes", "max_nodes", "deadline", "start")

    def __init__(self, budget: Optional[SearchBudget]):
        self.nodes = 0
        self.max_nodes = budget.max_nodes if budget else None
        self.start = time.monotonic()
        self.deadline = (
            self.start + budget.time_limit_s
            if budget and budget.time_limit_s is not None
            else None
        )

    def tick(self, k: int = 1) -> None:
        self.nodes += k
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetStop
        # check the wall clock on the first tick, then every 512 nodes
        if self.deadline is not None and self.nodes % 512 <= k:
            if time.monotonic() > self.deadline:
                raise _BudgetStop

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start


def _outcome(status, witness, clock, **details) -> SearchOutcome:
    return SearchOutcome(status, witness, clock.nodes, clock.elapsed, dict(details))


def verify_witness(host, w: Witness) -> bool:
    """Re-verify a witness against its host graph; False on any mismatch."""
    try:
        if w.kind in ("pc-kst", "rainbow-kst"):
            return _verify_kst(host, w)
        if w.kind in ("pc-cycle", "rainbow-cycle"):
            return _verify_colored_cycle(host, w)
        if w.kind == "directed-cycle":
            return _verify_directed_cycle(host, w)
        if w.kind == "disjoint-cycles":
            return _verify_disjoint(host, w)
    except (ValueError, IndexError):
        return False
    return False


def _verify_kst(G: EdgeColoredGraph, w: Witness) -> bool:
    if len(w.vertices) != 2:
        return False
    S, T = w.vertices
    if not S or not T or set(S) & set(T):
        return False
    if len(set(S)) != len(S) or len(set(T)) != len(T):
        return False
    expected = {(min(u, v), max(u, v)) for u in S for v in T}
    got = {(e[0], e[1]) for e in w.edges}
    if got != expected or len(w.edges) != len(expected):
        return False
    for u, v, c in w.edges:
        if not G.has_edge(u, v) or G.color_of(u, v) != c:
            return False
    if not is_properly_colored(G, w.edges):
        return False
    if w.kind == "rainbow-kst" and not is_rainbow(G, w.edges):
        return False
    return True


def _cycle_edges(cycle):
    k = len(cycle)
    return [(cycle[i], cycle[(i + 1) % k]) for i in range(k)]


def _verify_colored_cycle(G: EdgeColoredGraph, w: Witness) -> bool:
    if len(w.vertices) != 1:
        return False
    cycle = w.vertices[0]
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    expected = {(min(a, b), max(a, b)) for a, b in _cycle_edges(cycle)}
    got = {(e[0], e[1]) for e in w.edges}
    if got != expected or len(w.edges) != len(expected):
        return False
    for u, v, c in w.edges:
        if not G.has_edge(u, v) or G.color_of(u, v) != c:
            return False
    if not is_properly_colored(G, w.edges):
        return False
    if w.kind == "rainbow-cycle" and not is_rainbow(G, w.edges):
        return False
    return True


def _verify_directed_cycle(D, w: Witness) -> bool:
    if len(w.vertices) != 1:
        return False
    cycle = w.vertices[0]
    if len(cycle) < 2 or len(set(cycle)) != len(cycle):
        return False
    if isinstance(D, ColoredOrientation):
        arcs = {(t, h): c for t, h, c in D.arcs}
        for t, h in _cycle_edges(cycle):
            if (t, h) not in arcs:
                return False
        for e in w.edges:
            if len(e) != 3 or arcs.get((e[0], e[1])) != e[2]:
                return False
    else:
        arcset = set(D.arcs)
        for t, h in _cycle_edges(cycle):
            if (t, h) not in arcset:
                return False
        for e in w.edges:
            if tuple(e[:2]) not in arcset:
                return False
    return len(w.edges) == len(cycle)


def _verify_disjoint(G: EdgeColoredGraph, w: Witness) -> bool:
    seen: set[int] = set()
    all_edges = []
    for cycle in w.vertices:
        if len(cycle) < 3 or len(set(cycle)) != len(cycle):
            return False
        if seen & set(cycle):
            return False
        seen |= set(cycle)
        edges = []
        for a, b in _cycle_edges(cycle):
            if not G.has_edge(a, b):
                return False
            edges.append((min(a, b), max(a, b), G.color_of(a, b)))
        if not is_properly_colored(G, edges):
            return False
        all_edges.extend(edges)
    return sorted(tuple(e) for e in w.edges) == sorted(all_edges)


def _checked(G, w: Witness) -> Witness:
    if not verify_witness(G, w):
        raise RuntimeError(f"internal error: {w.kind} witness failed re-verification")
    return w


# ---------------------------------------------------------------------------
# Complete bipartite detectors
# ---------------------------------------------------------------------------

def _color_matching(pairs, t: int, clock: _Clock) -> bool:
    """Whether the color pairs (c(a,w), c(b,w)) of the candidates w of a
    pair {a, b} hold t pairs with distinct first and distinct second colors.

    This is a matching of size t in the bipartite graph joining a-colors to
    b-colors, one edge per candidate, so it decides whether a properly
    colored K_{2,t} sits on {a, b}. Reading the candidates costs one tick
    each, and Kuhn's augmenting paths one tick per edge they look at; they
    stop as soon as the matching reaches size t.
    """
    clock.tick(len(pairs))
    options: dict[int, list[int]] = {}
    for ca, cb in pairs:
        options.setdefault(ca, []).append(cb)
    # t colors on each side are needed. For t = 2 they also suffice (Koenig):
    # a size-2 matching is missing only when one color covers every edge.
    if len(options) < t or len({cb for _, cb in pairs}) < t:
        return False
    owner: dict[int, int] = {}  # b-color -> the a-color matched to it

    def augment(ca: int, seen: set[int]) -> bool:
        for cb in options[ca]:
            clock.tick()
            if cb in seen:
                continue
            seen.add(cb)
            if cb not in owner or augment(owner[cb], seen):
                owner[cb] = ca
                return True
        return False

    size = 0
    for ca in options:
        if augment(ca, set()):
            size += 1
            if size == t:
                return True
    return False


def _kst_impl(G: EdgeColoredGraph, s: int, t: int, clock: _Clock, rainbow: bool):
    """K_{s,t} search: s-subsets S ascending, T grown by backtracking.

    T is grown from the common neighbors whose star to S is rainbow, in
    ascending order, keeping a used-color set per S-vertex (properly colored
    mode) or one set shared by all of S (rainbow mode); the first T found is
    the lexicographically least one for the first S that has any.

    For properly colored K_{2,t} the backtracking runs only on the first
    pair that _color_matching accepts, which yields the same witness, so
    the search costs O(pairs x candidates) for t = 2 and
    O(pairs x t x candidates) for larger t.
    Each pair costs one tick, the matching one tick per candidate it reads
    and per edge its augmenting paths look at, and the backtracking one tick
    per candidate it tries.
    """
    n = G.n
    nbr = G.neighbor_sets
    colors = G.pair_colors
    by_matching = s == 2 and not rainbow

    for S in combinations(range(n), s):
        clock.tick()
        common = nbr[S[0]]
        for u in S[1:]:
            common = common & nbr[u]
            if len(common) < t:
                break
        if len(common) < t:
            continue
        candidates = []
        star = {}
        for w in sorted(common - set(S)):
            cols = tuple(
                colors[(u, w)] if u < w else colors[(w, u)] for u in S
            )
            if len(set(cols)) == s:
                candidates.append(w)
                star[w] = cols
        if len(candidates) < t:
            continue
        if by_matching and not _color_matching(star.values(), t, clock):
            continue

        chosen: list[int] = []
        # One set per S-vertex, or in rainbow mode one set standing for all.
        used_at = [set()] * s if rainbow else [set() for _ in S]

        def extend(start: int) -> bool:
            if len(chosen) == t:
                return True
            for idx in range(start, len(candidates)):
                if len(candidates) - idx < t - len(chosen):
                    return False
                w = candidates[idx]
                clock.tick()
                cols = star[w]
                if any(c in used for c, used in zip(cols, used_at)):
                    continue
                chosen.append(w)
                for c, used in zip(cols, used_at):
                    used.add(c)
                if extend(idx + 1):
                    return True
                chosen.pop()
                for c, used in zip(cols, used_at):
                    used.discard(c)
            return False

        if extend(0):
            T = tuple(chosen)
            edges = sorted(
                (min(u, w), max(u, w), colors[(min(u, w), max(u, w))])
                for u in S
                for w in T
            )
            kind = "rainbow-kst" if rainbow else "pc-kst"
            return _checked(G, Witness(kind, (tuple(S), T), tuple(edges)))
    return None


def _run_kst(G, s, t, budget, rainbow: bool) -> SearchOutcome:
    if not isinstance(s, int) or not isinstance(t, int) or s < 1 or t < 1:
        raise ValueError(f"s and t must be positive integers, got {s!r}, {t!r}")
    clock = _Clock(budget)
    try:
        w = _kst_impl(G, s, t, clock, rainbow)
    except _BudgetStop:
        return _outcome(BUDGET_EXCEEDED, None, clock)
    return _outcome(FOUND if w else EXHAUSTED, w, clock)


def find_pc_kst(
    G: EdgeColoredGraph, s: int, t: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Search for a properly colored K_{s,t}: disjoint vertex sets S (size s)
    and T (size t), complete bipartite in G, where every S-vertex sees t
    distinct colors and every T-vertex sees s distinct colors.

    For s = 2 each vertex pair is decided by a color-pair matching (see
    _color_matching), in O(pairs x candidates) time for t = 2; s >= 3
    backtracks.
    """
    return _run_kst(G, s, t, budget, rainbow=False)


def find_rainbow_kst(
    G: EdgeColoredGraph, s: int, t: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Like find_pc_kst but all s*t edge colors must be pairwise distinct."""
    return _run_kst(G, s, t, budget, rainbow=True)


# ---------------------------------------------------------------------------
# Cycle detectors
# ---------------------------------------------------------------------------

def _pc_cycle_impl(G: EdgeColoredGraph, lengths, clock: _Clock):
    """Iterative-deepening DFS for a shortest properly colored cycle.

    Tries the given cycle lengths in ascending order, skipping those above
    n. For each length the start vertex is the cycle minimum and paths
    extend through larger-id vertices with color-changing edges only; the
    closing edge must differ in color from both its cycle neighbors. The
    first cycle found is the shortest, lexicographically least one among
    the lengths tried.
    """
    n = G.n
    adj = G.adj
    colors = G.pair_colors

    for L in lengths:
        if L > n:
            break
        for start in range(n):
            path = [start]
            on_path = {start}
            edge_cols: list[int] = []

            def dfs() -> Optional[tuple[int, ...]]:
                v = path[-1]
                if len(path) == L:
                    key = (start, v) if start < v else (v, start)
                    c = colors.get(key)
                    clock.tick()
                    if c is not None and c != edge_cols[-1] and c != edge_cols[0]:
                        return tuple(path)
                    return None
                for w, c in adj[v]:
                    if w <= start or w in on_path:
                        continue
                    if edge_cols and c == edge_cols[-1]:
                        continue
                    clock.tick()
                    path.append(w)
                    on_path.add(w)
                    edge_cols.append(c)
                    got = dfs()
                    if got:
                        return got
                    path.pop()
                    on_path.discard(w)
                    edge_cols.pop()
                return None

            cycle = dfs()
            if cycle:
                edges = sorted(
                    (min(a, b), max(a, b), colors[(min(a, b), max(a, b))])
                    for a, b in _cycle_edges(cycle)
                )
                return _checked(G, Witness("pc-cycle", (cycle,), tuple(edges)))
    return None


def find_pc_cycle_upto(
    G: EdgeColoredGraph, r: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Find a shortest properly colored cycle of length at most r."""
    if not isinstance(r, int) or r < 3:
        raise ValueError(f"r must be an integer >= 3, got {r!r}")
    clock = _Clock(budget)
    try:
        w = _pc_cycle_impl(G, range(3, r + 1), clock)
    except _BudgetStop:
        return _outcome(BUDGET_EXCEEDED, None, clock)
    return _outcome(FOUND if w else EXHAUSTED, w, clock)


def _rainbow_c4_impl(G: EdgeColoredGraph, clock: _Clock):
    n = G.n
    nbr = G.neighbor_sets
    colors = G.pair_colors

    def col(a, b):
        return colors[(a, b) if a < b else (b, a)]

    for a, b in combinations(range(n), 2):
        clock.tick()
        common = sorted(nbr[a] & nbr[b])
        if len(common) < 2:
            continue
        for u, w in combinations(common, 2):
            clock.tick()
            cs = (col(a, u), col(u, b), col(b, w), col(w, a))
            if len(set(cs)) == 4:
                cycle = (a, u, b, w)
                edges = sorted(
                    (min(x, y), max(x, y), col(x, y)) for x, y in _cycle_edges(cycle)
                )
                return _checked(G, Witness("rainbow-cycle", (cycle,), tuple(edges)))
    return None


def find_rainbow_c4(
    G: EdgeColoredGraph, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Search for a 4-cycle whose four edges have pairwise distinct colors.

    Enumerates vertex pairs and pairs of their common neighbors.
    """
    clock = _Clock(budget)
    try:
        w = _rainbow_c4_impl(G, clock)
    except _BudgetStop:
        return _outcome(BUDGET_EXCEEDED, None, clock)
    return _outcome(FOUND if w else EXHAUSTED, w, clock)


def _shortest_directed_cycle_impl(D, clock: _Clock) -> Optional[Witness]:
    """BFS from every vertex for a shortest directed cycle of D.

    Each BFS level ticks the clock once per frontier vertex, so a budget
    stops the search at most n nodes past its limit.
    """
    n = D.n
    if isinstance(D, ColoredOrientation):
        out = [[h for h, _ in row] for row in D.out_adj]
        ins = [[t for t, _ in row] for row in D.in_adj]
    else:
        out = [list(row) for row in D.out_adj]
        ins = [list(row) for row in D.in_adj]

    best_cycle: Optional[list[int]] = None
    for s in range(n):
        if best_cycle is not None and len(best_cycle) == 3:
            break
        dist = {s: 0}
        parent = {s: None}
        frontier = [s]
        limit = len(best_cycle) - 1 if best_cycle is not None else None
        d = 0
        while frontier:
            clock.tick(len(frontier))
            if limit is not None and d >= limit:
                break
            nxt = []
            for v in frontier:
                for w in out[v]:
                    if w not in dist:
                        dist[w] = d + 1
                        parent[w] = v
                        nxt.append(w)
            frontier = nxt
            d += 1
        closing = None
        for u in ins[s]:
            if u in dist and (closing is None or dist[u] < dist[closing]):
                closing = u
        if closing is None:
            continue
        length = dist[closing] + 1
        if best_cycle is None or length < len(best_cycle):
            path = []
            v = closing
            while v is not None:
                path.append(v)
                v = parent[v]
            best_cycle = list(reversed(path))

    if best_cycle is None:
        return None
    cycle = tuple(best_cycle)
    if isinstance(D, ColoredOrientation):
        arc_colors = {(t, h): c for t, h, c in D.arcs}
        edges = tuple((t, h, arc_colors[(t, h)]) for t, h in _cycle_edges(cycle))
    else:
        edges = tuple(_cycle_edges(cycle))
    w = Witness("directed-cycle", (cycle,), edges)
    if not verify_witness(D, w):
        raise RuntimeError("internal error: directed-cycle witness failed re-verification")
    return w


def shortest_directed_cycle(
    D: Union[OrientedGraph, ColoredOrientation]
) -> SearchOutcome:
    """Exact shortest directed cycle by BFS from every vertex, O(n(n+m)).

    Always exact: returns found with a shortest cycle, or exhausted-none for
    acyclic inputs.
    """
    clock = _Clock(None)
    w = _shortest_directed_cycle_impl(D, clock)
    if w is None:
        return _outcome(EXHAUSTED, None, clock)
    return _outcome(FOUND, w, clock, length=len(w.vertices[0]))


# ---------------------------------------------------------------------------
# Derived pipelines
# ---------------------------------------------------------------------------

def _kst_to_c4_witness(G: EdgeColoredGraph, w: Witness) -> Witness:
    (a, b), (u, v) = w.vertices
    cycle = (a, u, b, v)
    edges = sorted(
        (min(x, y), max(x, y), G.color_of(x, y)) for x, y in _cycle_edges(cycle)
    )
    return _checked(G, Witness("pc-cycle", (cycle,), tuple(edges)))


def _directed_to_pc_witness(G: EdgeColoredGraph, w: Witness) -> Witness:
    cycle = w.vertices[0]
    edges = sorted(
        (min(a, b), max(a, b), G.color_of(a, b)) for a, b in _cycle_edges(cycle)
    )
    return _checked(G, Witness("pc-cycle", (cycle,), tuple(edges)))


def pc_short_cycle_pipeline(
    G: EdgeColoredGraph, r: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Three-stage search for a properly colored cycle of length at most r.

    Stage 1 looks for a properly colored K_{2,2}, which is a properly
    colored C4. Stage 2 builds the orientation for s=t=2 and takes a
    shortest directed cycle, which maps back to a properly colored cycle of
    the same length. Stage 3 falls back to the bounded DFS cycle search
    over lengths 3 and 5..r. The three searches tick one clock, so a node
    or time budget stops whichever of them is running.
    The report carries the orientation's minimum out-degree and its margin
    over ceil(n/r).
    """
    if not isinstance(r, int) or r < 4:
        raise ValueError(f"r must be an integer >= 4, got {r!r}")
    clock = _Clock(budget)
    details: dict = {"r": r}

    try:
        w = _kst_impl(G, 2, 2, clock, rainbow=False)
        if w is not None:
            details["stage"] = 1
            return _outcome(FOUND, _kst_to_c4_witness(G, w), clock, **details)

        if G.n > 2:
            _, D, _report = construct_orientation(G, 2, 2)
            min_dplus = min(D.out_degree(v) for v in range(G.n))
            target = math.ceil(G.n / r)
            details["min_outdegree"] = min_dplus
            details["outdegree_target"] = target
            details["outdegree_margin"] = min_dplus - target
            w = _shortest_directed_cycle_impl(D, clock)
            if w is not None and len(w.vertices[0]) <= r:
                details["stage"] = 2
                return _outcome(FOUND, _directed_to_pc_witness(G, w), clock, **details)

        # Stage 1 decided length 4: a properly colored C4 is a properly
        # colored K_{2,2}.
        w = _pc_cycle_impl(G, (3, *range(5, r + 1)), clock)
    except _BudgetStop:
        return _outcome(BUDGET_EXCEEDED, None, clock, **details)
    if w is not None:
        details["stage"] = 3
        return _outcome(FOUND, w, clock, **details)
    return _outcome(EXHAUSTED, None, clock, **details)


def _drop_vertices(G: EdgeColoredGraph, dead: set[int]) -> EdgeColoredGraph:
    edges = [(u, v, c) for u, v, c in G.edges if u not in dead and v not in dead]
    return EdgeColoredGraph(G.n, edges)


def disjoint_pc_cycles(
    G: EdgeColoredGraph, k: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Greedily collect up to k vertex-disjoint properly colored cycles.

    Each round finds one properly colored cycle in the residual graph (a
    properly colored C4 first, then a shortest directed cycle of the
    orientation construction, then the exhaustive bounded DFS), removes its
    vertices, and repeats. With fewer than k cycles the outcome is
    exhausted-none and the partial family rides in the details; this is a
    greedy heuristic, not an exact packing decision.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    clock = _Clock(budget)
    cycles: list[tuple[int, ...]] = []
    dead: set[int] = set()
    residual = G

    def finish(status):
        details = {"requested": k, "cycles": [list(c) for c in cycles]}
        if status == FOUND:
            edges = []
            for cyc in cycles:
                edges.extend(
                    (min(a, b), max(a, b), G.color_of(a, b))
                    for a, b in _cycle_edges(cyc)
                )
            w = _checked(G, Witness("disjoint-cycles", tuple(cycles), tuple(sorted(edges))))
            return _outcome(FOUND, w, clock, **details)
        return _outcome(status, None, clock, **details)

    while len(cycles) < k:
        cycle = None
        try:
            w = _kst_impl(residual, 2, 2, clock, rainbow=False)
            if w is not None:
                cycle = _kst_to_c4_witness(residual, w).vertices[0]
            else:
                if residual.n > 2 and residual.m > 0:
                    _, D, _rep = construct_orientation(residual, 2, 2)
                    w = _shortest_directed_cycle_impl(D, clock)
                    if w is not None:
                        cycle = w.vertices[0]
                if cycle is None and residual.m > 0:
                    # length 4 is decided by the K_{2,2} search above
                    w = _pc_cycle_impl(residual, (3, *range(5, residual.n + 1)), clock)
                    if w is not None:
                        cycle = w.vertices[0]
        except _BudgetStop:
            return finish(BUDGET_EXCEEDED)
        if cycle is None:
            return finish(EXHAUSTED)
        cycles.append(tuple(cycle))
        dead |= set(cycle)
        residual = _drop_vertices(G, dead)
    return finish(FOUND)


# ---------------------------------------------------------------------------
# Rainbow extraction and degree thresholds
# ---------------------------------------------------------------------------

def extract_rainbow_kst(G: EdgeColoredGraph, S, B, t: int) -> Witness:
    """Extract a rainbow K_{s,t} from a properly colored complete K_{s,|B|}.

    Preconditions: the bipartite subgraph between S and B is complete and
    properly colored, and |B| >= t + s(t-1)(s-1) where s = |S|. The greedy
    grows the chosen side one vertex at a time, always taking the smallest
    id whose s new edge colors all avoid the colors already used.
    """
    S = tuple(sorted(set(S)))
    B = tuple(sorted(set(B)))
    s = len(S)
    if not isinstance(t, int) or t < 1:
        raise ValueError(f"t must be a positive integer, got {t!r}")
    if s < 1 or not B:
        raise ValueError("S and B must be nonempty")
    if set(S) & set(B):
        raise ValueError("S and B must be disjoint")
    if len(B) < t + s * (t - 1) * (s - 1):
        raise ValueError(
            f"|B|={len(B)} is below the required {t + s * (t - 1) * (s - 1)}"
        )
    star_edges = []
    for u in S:
        for v in B:
            if not G.has_edge(u, v):
                raise ValueError(f"subgraph between S and B is not complete: missing {{{u},{v}}}")
            star_edges.append((min(u, v), max(u, v), G.color_of(u, v)))
    if not is_properly_colored(G, star_edges):
        raise ValueError("subgraph between S and B is not properly colored")

    chosen = [B[0]]
    used = {G.color_of(u, B[0]) for u in S}
    while len(chosen) < t:
        pick = None
        for v in B:
            if v in chosen:
                continue
            cols = [G.color_of(u, v) for u in S]
            if all(c not in used for c in cols):
                pick = v
                break
        if pick is None:  # impossible under the stated precondition
            raise RuntimeError("internal error: rainbow growth ran out of candidates")
        chosen.append(pick)
        used.update(G.color_of(u, pick) for u in S)

    T = tuple(chosen)
    edges = sorted((min(u, v), max(u, v), G.color_of(u, v)) for u in S for v in T)
    return _checked(G, Witness("rainbow-kst", (S, T), tuple(edges)))


def _total_degree_requirement(s: int, t: int, n: int, parts=None) -> float:
    """Total color degree above which a properly colored K_{s,t} is forced.

    On n vertices: n^2/2 + sigma * n^(2-1/s) + s * n. With parts = (n1, n2),
    the bipartite form n1 n2 + sigma * (n1 n2^(1-1/s) + n2 n1^(1-1/s))
    + s (n1 + n2).
    """
    sig = sigma(s, t)
    if parts is None:
        return n * n / 2.0 + sig * n ** (2.0 - 1.0 / s) + s * n
    n1, n2 = parts
    return (
        n1 * n2
        + sig * (n1 * n2 ** (1.0 - 1.0 / s) + n2 * n1 ** (1.0 - 1.0 / s))
        + s * (n1 + n2)
    )


def check_total_degree_threshold(
    G: EdgeColoredGraph, s: int, t: int
) -> tuple[bool, float]:
    """Evaluate the total color degree threshold that forces a properly
    colored K_{s,t}; uses the bipartite form when a bipartition is present.

    Returns (threshold exceeded, margin = total - threshold).
    """
    if not isinstance(s, int) or not isinstance(t, int) or not 2 <= s <= t:
        raise ValueError(f"parameters must satisfy 2 <= s <= t, got s={s!r}, t={t!r}")
    parts = None if G.bipartition is None else tuple(len(side) for side in G.bipartition)
    margin = total_color_degree(G) - _total_degree_requirement(s, t, G.n, parts)
    return margin > 0, margin


# ---------------------------------------------------------------------------
# Exhaustive cycle enumeration (small-graph oracle support)
# ---------------------------------------------------------------------------

def all_simple_cycles(n: int, edge_pairs) -> list[tuple[int, ...]]:
    """All simple cycles of an undirected graph, one canonical tuple each.

    Canonical form: the sequence starts at the cycle's smallest vertex and
    runs toward the smaller of its two neighbors on the cycle. Intended for
    small n; the count grows exponentially.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for e in edge_pairs:
        u, v = e[0], e[1]
        adj[u].append(v)
        adj[v].append(u)
    for row in adj:
        row.sort()

    cycles: list[tuple[int, ...]] = []
    path: list[int] = []
    on_path: set[int] = set()

    def dfs(start: int, v: int):
        for w in adj[v]:
            if w == start and len(path) >= 3:
                if path[1] < path[-1]:
                    cycles.append(tuple(path))
            elif w > start and w not in on_path:
                path.append(w)
                on_path.add(w)
                dfs(start, w)
                path.pop()
                on_path.discard(w)

    for start in range(n):
        path = [start]
        on_path = {start}
        dfs(start, start)
    return cycles
