"""Bounded-exhaustive search oracles for colored and directed structures.

These searches define ground truth at desk scale. "Not found" and "budget
exceeded" are distinct outcomes: exhausted-none asserts the whole search
space was covered, while budget-exceeded makes no claim. _search builds
each witness and checks it against the host once, after its search.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, dropwhile
from typing import Optional, Union

from .core import (
    ColoredOrientation,
    EdgeColoredGraph,
    OrientedGraph,
    Witness,
    _require_int,
    _require_real,
    color_degree,  # unused here; bench/tracing.py wraps it by this path
    is_properly_colored,
    total_color_degree,
)
from .check import _host_edges, verify_witness
# construct_orientation is unused here; bench/tracing.py wraps it by this path
from .extraction import _check_st, construct_orientation, sigma

FOUND = "found"
EXHAUSTED = "exhausted-none"
BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class SearchBudget:
    """Limits on a single search invocation; None means unbounded.

    max_nodes must be a positive int (not a bool) and time_limit_s a finite
    positive real; NaN or infinity would silently mean no limit.
    """

    max_nodes: Optional[int] = None
    time_limit_s: Optional[float] = None

    def __post_init__(self):
        nodes, limit = self.max_nodes, self.time_limit_s
        if nodes is not None:
            _require_int("max_nodes", nodes, 1)
        if limit is not None:
            limit = _require_real("time_limit_s", limit, 0, math.inf, lo_open=True)
            object.__setattr__(self, "time_limit_s", limit)


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
    """Raised by _Clock.tick with the limit that fired: "nodes" or "time"."""


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
            raise _BudgetStop("nodes")
        # check the wall clock on the first tick, then every 512 nodes
        if self.deadline is not None and self.nodes % 512 <= k:
            if time.monotonic() > self.deadline:
                raise _BudgetStop("time")

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self.start


def _search(budget: Optional[SearchBudget], body, details: dict, host, kind: str) -> SearchOutcome:
    """Run body(clock) as one search under a new clock for budget.

    body returns None, for exhausted-none, or the vertex groups of a
    kind-witness on host, for found with the witness _witness builds and
    checks; a budget stop anywhere inside makes it budget-exceeded, with
    details["stopped_by"] the limit that fired ("nodes" or "time"). The
    outcome carries details as body left it, filled as it went.
    """
    clock = _Clock(budget)
    try:
        groups = body(clock)
    except _BudgetStop as stop:
        details["stopped_by"] = stop.args[0]
        return SearchOutcome(BUDGET_EXCEEDED, None, clock.nodes, clock.elapsed, details)
    w = None if groups is None else _witness(host, kind, *groups)
    return SearchOutcome(FOUND if w else EXHAUSTED, w, clock.nodes, clock.elapsed, details)


def _witness(host, kind: str, *groups) -> Witness:
    """The witness of kind on the vertex groups of host, with the edges of
    _host_edges (sorted for the colored kinds, in cycle order for a directed
    cycle), once verify_witness has accepted it; a refusal is a bug."""
    edges = _host_edges(host, kind, groups) or []  # None: an edge is missing
    if kind != "directed-cycle":
        edges.sort()
    w = Witness(kind, groups, edges)
    # Bare name: the bench tracer's wrap of chroma.detectors.verify_witness sees it.
    if not verify_witness(host, w):
        raise RuntimeError(f"internal error: {kind} witness failed re-verification")
    return w


# ---------------------------------------------------------------------------
# Complete bipartite detectors
# ---------------------------------------------------------------------------

def _color_matching(pairs, t: int, clock: _Clock) -> bool:
    """Whether the color pairs (c(a,w), c(b,w)) of the candidates w of a
    pair {a, b} hold t pairs with distinct first and distinct second colors,
    for t >= 3.

    This is a matching of size t in the bipartite graph joining a-colors to
    b-colors, one edge per candidate, so it decides whether a properly
    colored K_{2,t} sits on {a, b}. The caller has ticked one node per
    candidate as it read them; Kuhn's augmenting paths cost one tick per
    edge they look at, and stop as soon as the matching reaches size t.
    """
    options: dict[int, list[int]] = {}
    for ca, cb in pairs:
        options.setdefault(ca, []).append(cb)
    if len(options) < t or len({cb for _, cb in pairs}) < t:
        return False
    owner: dict[int, int] = {}  # b-color -> the a-color matched to it
    size = 0
    for ca in options:
        if _augment(ca, set(), options, owner, clock):
            size += 1
            if size == t:
                return True
    return False


def _augment(ca: int, seen: set[int], options, owner, clock: _Clock) -> bool:
    """Kuhn's augmenting path from the a-color ca for _color_matching, one
    tick per edge it looks at; a module-level function, so no call leaves a
    reference cycle behind."""
    for cb in options[ca]:
        clock.tick()
        if cb in seen:
            continue
        seen.add(cb)
        if cb not in owner or _augment(owner[cb], seen, options, owner, clock):
            owner[cb] = ca
            return True
    return False


# Nodes per live edge that the cycle DFS from one start spends before it
# pays for that start's _return_table, which ticks at most twice per edge
# end.
_WALK_SWITCH = 3


def _subsets(s: int, walks: _WalkClasses, L: int):
    """(S, pool) for the s-subsets S of the core of walks in ascending
    order, pool being the set the search may draw its other vertices from
    (None: every vertex, when the core is all of the graph's vertices).
    From the subset at which the clock reaches walks.switch on, they are
    the subsets of the vertices admitted for length L, with those as the
    pool (see _WalkClasses, rent then buy). Every search on the view draws
    its vertices here.
    """
    core = walks.core()
    clock, switch = walks.clock, walks.switch
    pool = None if len(core) == walks.G.n else set(core)
    for S in combinations(core, s):
        if clock.nodes >= switch:
            keep = walks.admitted(L)
            pool = set(keep)
            for rest in dropwhile(S.__gt__, combinations(keep, s)):
                yield rest, pool
            return
        yield S, pool


def _kst_impl(s: int, t: int, rainbow: bool, walks: _WalkClasses):
    """(S, T) for the first s-subset S, in the order _subsets hands them
    over for length 4, that has t common neighbors whose star to S is
    properly colored (or, with rainbow, rainbow), T the lexicographically
    least of them; or None. All on the view walks and its clock.

    Any two S-vertices and two T-vertices of such a K_{s,t} span a properly
    colored C4, so each of its vertices is in the core and admitted for
    length 4, and the witness is that of a scan over every vertex.

    For s = 2 a pair {a, b} holds a properly colored K_{2,t} exactly when
    its candidates' color pairs (c(a,w), c(b,w)) hold a matching of size t,
    and a rainbow K_{2,t} is properly colored, so a pair without it holds
    neither. The loop that reads the candidates notes whether each side
    shows a second color, which decides the matching for t = 2 and is its
    first test for larger t; then _least_pair finds the least T for t = 2
    in linear time, so the scan costs O(pairs x candidates), and
    _color_matching gates the pair for t >= 3. Past t = 2, T is grown by
    backtracking (_extend), in ascending order, keeping a used-color set per
    S-vertex (properly colored mode) or one set shared by all of S (rainbow
    mode).

    One tick per subset, and for s = 2 one per candidate read when there
    are at least t; the helpers tick their own steps. A candidate's colors
    are read from neighbor -> color maps of the S-vertices, each built from
    G.adj the first time one of its subsets gets that far.
    """
    G, clock = walks.G, walks.clock
    nbr = G.neighbor_sets
    adj = G.adj
    maps: list[Optional[dict[int, int]]] = [None] * G.n

    def color_map(v: int) -> dict[int, int]:
        m = maps[v]
        if m is None:
            m = maps[v] = dict(adj[v])
        return m

    by_matching = s == 2
    for S, pool in _subsets(s, walks, 4):
        clock.tick()
        common = nbr[S[0]] if pool is None else pool & nbr[S[0]]
        for u in S[1:]:
            common = common & nbr[u]
            if len(common) < t:
                break
        if len(common) < t:
            continue
        candidates = []
        if by_matching:
            # The first candidate's colors, and whether a second color has
            # shown up on each side. A matching of size 2 needs two colors
            # on each side, and they suffice (Koenig, 1931): it is missing
            # only when one color covers every candidate.
            at_a, at_b = color_map(S[0]), color_map(S[1])
            a0 = b0 = None
            two_a = two_b = False
            for w in sorted(common):
                ca, cb = at_a[w], at_b[w]
                if ca != cb:
                    candidates.append(w)
                    if a0 is None:
                        a0, b0 = ca, cb
                    else:
                        if ca != a0:
                            two_a = True
                        if cb != b0:
                            two_b = True
            if len(candidates) < t:
                continue
            clock.tick(len(candidates))
            if not (two_a and two_b):
                continue
            star = [(at_a[w], at_b[w]) for w in candidates]
            if t == 2:
                pair = _least_pair(candidates, star, rainbow, clock)
                if pair is not None:
                    return S, pair
                continue
            if not _color_matching(star, t, clock):
                continue
        else:
            at = [color_map(u) for u in S]
            star = []
            for w in sorted(common):
                cols = tuple(m[w] for m in at)
                if len(set(cols)) == s:
                    candidates.append(w)
                    star.append(cols)
            if len(candidates) < t:
                continue

        chosen: list[int] = []
        # One set per S-vertex, or in rainbow mode one set standing for all.
        used_at = [set()] * s if rainbow else [set() for _ in S]
        if _extend(0, chosen, t, candidates, star, used_at, clock):
            return S, tuple(chosen)
    return None


def _least_pair(candidates, star, rainbow: bool, clock: _Clock):
    """The lexicographically least pair (w1, w2) of candidates whose color
    pairs star[i] = (c(a,w), c(b,w)), none with two equal colors, span a
    properly colored (or, with rainbow, rainbow) C4 a w1 b w2; or None. For
    _kst_impl at s = t = 2, in time linear in the candidates.

    A, B and P count the a-colors, b-colors and color pairs of the
    candidates after w1 = (x, y). In properly colored mode a later candidate
    clashes with w1 when it repeats x on a or y on b, so size - (A[x] + B[y]
    - P[x, y]) of the size later candidates fit it; in rainbow mode when
    either of its colors is x or y, so size - (A[x] + A[y] + B[x] + B[y]
    - P[x, y] - P[y, x]) fit. Both counts are exact, since no candidate has
    two equal colors. w1 is the first candidate with a fit and w2 the first
    that fits after it. Most pairs take their first candidate as w1, so its
    partner is sought directly first, and the counts are built in one pass
    only when it has none. One tick per candidate stepped past up to w1 and
    one per candidate tried as w2: never more than backtracking tries.
    """
    last = len(star) - 1
    i, j = 0, _partner(star, 0, rainbow)
    if j is None:
        rest = star[1:]
        xs, ys = zip(*rest)
        A, B, P = Counter(xs), Counter(ys), Counter(rest)
        for i in range(1, last):
            x, y = star[i]
            A[x] -= 1
            B[y] -= 1
            P[x, y] -= 1
            if rainbow:
                clash = (A[x] + A.get(y, 0) + B.get(x, 0) + B[y]
                         - P[x, y] - P.get((y, x), 0))
            else:
                clash = A[x] + B[y] - P[x, y]
            if last - i > clash:
                j = _partner(star, i, rainbow)
                break
        else:
            clock.tick(last)
            return None
    clock.tick(j + 1)
    return candidates[i], candidates[j]


def _partner(star, i: int, rainbow: bool) -> Optional[int]:
    """The index of the first color pair after star[i] that fits it, for
    _least_pair, or None."""
    x, y = star[i]
    for j in range(i + 1, len(star)):
        u, v = star[j]
        if (u != x and u != y and v != x and v != y) if rainbow else (u != x and v != y):
            return j
    return None


def _extend(start: int, chosen: list[int], t: int, candidates, star, used_at, clock) -> bool:
    """Grow chosen to t candidates from candidates[start:], ascending, whose
    colors star[idx] avoid the used sets used_at, for _kst_impl; one tick per
    candidate tried. A module-level function, so no call leaves a reference
    cycle behind."""
    if len(chosen) == t:
        return True
    for idx in range(start, len(candidates)):
        if len(candidates) - idx < t - len(chosen):
            return False
        clock.tick()
        cols = star[idx]
        if any(c in used for c, used in zip(cols, used_at)):
            continue
        chosen.append(candidates[idx])
        for c, used in zip(cols, used_at):
            used.add(c)
        if _extend(idx + 1, chosen, t, candidates, star, used_at, clock):
            return True
        chosen.pop()
        for c, used in zip(cols, used_at):
            used.discard(c)
    return False


def _run_kst(G, s, t, budget, kind: str) -> SearchOutcome:
    _check_st(s, t)
    details: dict = {}

    def body(clock):
        sides = _kst_impl(s, t, kind != "pc-kst", _WalkClasses(G, clock, details))
        return _c4(sides) if kind == "rainbow-cycle" else sides

    return _search(budget, body, details, G, kind)


def _c4(sides):
    """The groups of the C4 (a, u, b, v) on the K_{2,2} sides (a, b), (u, v), or None."""
    if sides is not None:
        (a, b), (u, v) = sides
        return ((a, u, b, v),)


def find_pc_kst(
    G: EdgeColoredGraph, s: int, t: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Search for a properly colored K_{s,t}: disjoint vertex sets S (size s)
    and T (size t), complete bipartite in G, where every S-vertex sees t
    distinct colors and every T-vertex sees s distinct colors, for
    t >= s >= 2 (see _check_st).

    found carries the first S in ascending order that has such a T, with
    the lexicographically least T; exhausted-none means G has none. The
    scan (_kst_impl) runs on a search view of G (see _WalkClasses), so it
    costs at most the one-color peel, the scan of the core and one hub
    pass; for s = 2 each pair costs one node and at most two per candidate
    when t = 2, and an acyclic signature peels to nothing, one node per
    edge. details["walk_periods"] lists the walk periods once the hub pass
    has run, and is [] when the peel left nothing.
    """
    return _run_kst(G, s, t, budget, "pc-kst")


def find_rainbow_kst(
    G: EdgeColoredGraph, s: int, t: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Like find_pc_kst but all s*t edge colors must be pairwise distinct,
    with the same statuses, order of witnesses, view and details. For
    s = 2 each pair first passes find_pc_kst's matching test, since a
    rainbow K_{2,t} is properly colored; for t = 2 a pair that passes is
    decided in linear time and may hold no rainbow pair, and for t >= 3 it
    backtracks.
    """
    return _run_kst(G, s, t, budget, "rainbow-kst")


# ---------------------------------------------------------------------------
# Cycle detectors
# ---------------------------------------------------------------------------

def _one_color_core(G: EdgeColoredGraph, clock: _Clock, live: bytearray) -> list[int]:
    """The vertices, ascending, that are left after a queue has peeled off
    every vertex that sees fewer than two colors on its edges to the
    vertices not yet peeled, until none is left, in the subgraph of G that
    the vertices v with live[v] set induce: the others are neither queued
    nor returned, and their edges are never read or ticked for.

    A vertex on a closed properly colored walk arrives by one color and
    leaves by another, both on edges to vertices of that walk, so no vertex
    of a closed walk, and so none of a properly colored cycle or K_{s,t},
    is ever peeled. Every acyclic signature peels to nothing, since its
    sink sees one color at each step.

    The queue starts with the live vertices that have at most one color on
    their live edges, found by reading those edges up to a second color. A
    vertex gets its per-color live edge counts when a neighbor is first
    peeled. The clock ticks once per edge the peel removes, as it goes.
    """
    n = G.n
    adj = G.adj
    peel = []
    # A plain loop: a generator per vertex costs more than the few edges
    # that most vertices read before a second color.
    for v, nbrs in enumerate(adj):
        if live[v]:
            first = None
            for u, c in nbrs:
                if live[u]:
                    if first is None:
                        first = c
                    elif c != first:
                        break
            else:
                peel.append(v)
    kept = bytearray(live)
    left: list[Optional[dict[int, int]]] = [None] * n  # live edges per color
    for v in peel:  # grows as it goes; a vertex joins once, on its way to one color
        kept[v] = 0
        removed = 0
        for w, c in adj[v]:
            if kept[w]:
                removed += 1
                counts = left[w]
                if counts is None:
                    # w's other live neighbors are all still kept: a peeled
                    # one would have set left[w]
                    counts = left[w] = {}
                    for u, d in adj[w]:
                        if live[u]:
                            counts[d] = counts.get(d, 0) + 1
                if counts[c] > 1:
                    counts[c] -= 1
                else:
                    del counts[c]
                    if len(counts) == 1:
                        peel.append(w)
        clock.tick(removed)
    return [v for v in range(n) if kept[v]]


def _hub_layout(G: EdgeColoredGraph, core: list[int]) -> tuple:
    """(first, owner, exits, others), the layout of the hub pass
    (_walk_classes) on core, an ascending vertex list: the states (v, c),
    one per core vertex v and color c of its edges within core, numbered
    from first[v] in G.adj order; the vertex of each; per v and c, the
    state (w, c) of v's one c-neighbor w, or the tuple of those of its
    c-neighbors; and the number of exit and hub nodes, were every vertex's
    hubs built. Tuples only, so no search writes to it; it ticks no clock.
    """
    n = G.n
    adj = G.adj
    live = bytearray(n)
    for v in core:
        live[v] = 1
    by_color: list[dict[int, list[int]]] = [{} for _ in range(n)]
    state: list[dict[int, int]] = [{} for _ in range(n)]  # color -> state id
    first = [0] * n
    owner: list[int] = []
    others = 0
    for v in core:
        groups = by_color[v]
        for w, c in adj[v]:
            if live[w]:
                groups.setdefault(c, []).append(w)
        k = len(groups)
        x = first[v] = len(owner)
        state[v] = dict(zip(groups, range(x, x + k)))
        owner += [v] * k
        # an exit per group of two or more neighbors, 2(k - 2) hubs
        others += 3 * k - 4 - list(map(len, groups.values())).count(1)
    exits: list[tuple] = [()] * n
    for v in core:
        exits[v] = tuple([
            state[ws[0]][c] if len(ws) == 1 else tuple([state[w][c] for w in ws])
            for c, ws in by_color[v].items()
        ])
    return tuple(first), tuple(owner), tuple(exits), others


def _walk_classes(
    G: EdgeColoredGraph, clock: _Clock, layout: tuple
) -> list[tuple[int, list[int]]]:
    """(period, vertices) of each strongly connected component with a cycle
    in the color-transition graph of G, found on the one-color core of G
    (see _one_color_core), which holds every such component, from layout,
    _hub_layout on that core (see _WalkClasses for when G keeps it).

    The states are pairs (v, c), "at v, arrived by an edge of color c", with
    an arc (v, c) -> (w, c') for each edge {v, w} of color c' != c. A
    properly colored cycle of length L is a closed walk of length L through
    these states, so it lies in one component, its vertices are among that
    component's vertices, and L is a multiple of the component's period
    (the gcd of its closed-walk lengths). Every component with a cycle is
    made of states on closed walks, whose vertices the peel keeps, so on
    the core it keeps its states, its arcs and its period.

    Instead of the arcs themselves, each core vertex v gets one exit node
    per color of its edges within the core, with arcs to the states it
    reaches. A color whose edges within the core lead to a single neighbor
    w gets no exit: what would point at it points at w's state instead.
    The graph is built as an iterative Tarjan search reaches it, started
    from the states only (every cycle of the graph passes through one).
    The first state (v, c_i) that it reaches gets v's exits and an arc to
    each of them but c_i's. Only when it reaches a second state of v does v
    get prefix and suffix hubs over its exits (see _hub_chains), through
    which each of v's other states reaches every exit but its own color's
    by two hub arcs; a vertex of two colors needs none, so its first state
    reached gives the other its one arc too. Arcs out of states have weight
    1 and all others weight 0; every step of a properly colored walk leaves
    exactly one state, so the graph's closed walks have exactly the state
    graph's lengths, whichever of v's states got the direct arcs. It has
    O(n + m + sum of color degrees) nodes and arcs, at most one fan-out
    more per vertex than with hubs alone; on a signature, where the search
    reaches about one state per vertex, it has hubs at few vertices or
    none. Tarjan labels the components; a DFS-tree depth is a potential on
    each of them, so the period is the gcd of depth(u) + weight - depth(w)
    over the arcs u -> w that it finds inside a component, and its
    vertices are those of its states.

    Reversed, a closed properly colored walk is one too, on the same
    vertices and of the same length. So each component K has a mirror
    component (see _mirror): the states (v, c') for which some arc
    (v, c) -> (w, c') has both ends in K, with K's vertices and period.
    Most components are their own mirror; a signature's forward and
    backward walks are two. When Tarjan completes a component whose mirror
    is another, it lists the mirror at once and marks the mirror's states
    it has not reached yet as done, so it never explores them; a component
    it completes later out of mirror states, a part of the mirror that was
    already on its stack, is not listed again. Every other component avoids
    the mirror's states, so it is found as before: the list is the full
    pass's, up to order.

    The clock ticks once per arc out of each node the search reaches, k - 1
    for the first state reached at a vertex of k colors, and for each
    component it lists, once per group neighbor that the component's mirror
    step reads, in one tick call.
    """
    first, owner, exits_of, others = layout
    states = len(owner)  # node ids below states are states
    size = states + others
    succ: list = [None] * states  # out-lists, built on reach
    exits_at: list[Optional[list[int]]] = [None] * G.n

    def reach(x: int) -> list[int]:
        """Build the out-list of state x as the search reaches it: direct
        arcs to the exits if it is the first of its vertex's, else the
        vertex's hubs and the arcs to them of all its states left."""
        v = owner[x]
        exits = exits_at[v]
        if exits is None:
            exits = exits_at[v] = [t if type(t) is int else node(t) for t in exits_of[v]]
            i = x - first[v]
            succ[x] = exits[:i] + exits[i + 1:]
        else:
            _hub_chains(exits, first[v], succ)
        return succ[x]

    def node(targets) -> int:
        succ.append(targets)
        return len(succ) - 1

    index = [0] * size  # discovery order from 1; 0 = not yet seen, -1 = skipped
    low = [0] * size
    depth = [0] * size  # weighted depth in the DFS forest
    slack = [0] * size  # gcd of the arc slacks found at each node
    on_stack = bytearray(size)
    mirrored = bytearray(states)  # states of a mirror already listed
    stack: list[int] = []
    classes = []
    seen = 0
    for root in range(states):
        if index[root]:
            continue
        seen += 1
        index[root] = low[root] = seen
        stack.append(root)
        on_stack[root] = 1
        out = succ[root]
        if out is None:
            out = reach(root)
        clock.tick(len(out))
        frames = [(root, iter(out))]
        while frames:
            u, todo = frames[-1]
            for w in todo:
                if not index[w]:
                    seen += 1
                    index[w] = low[w] = seen
                    depth[w] = depth[u] + (u < states)
                    stack.append(w)
                    on_stack[w] = 1
                    out = succ[w]
                    if out is None:
                        out = reach(w)
                    clock.tick(len(out))
                    frames.append((w, iter(out)))
                    break
                # w is on the stack exactly when it lies in u's component
                if on_stack[w]:
                    slack[u] = math.gcd(slack[u], depth[u] + (u < states) - depth[w])
                    if index[w] < low[u]:
                        low[u] = index[w]
            else:
                frames.pop()
                if frames and low[u] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[u]
                if low[u] == index[u]:
                    members = []
                    while True:
                        x = stack.pop()
                        on_stack[x] = 0
                        members.append(x)
                        if x == u:
                            break
                    # No node has an arc to itself, so only a component of
                    # two or more nodes holds a cycle, and every cycle
                    # passes through a state.
                    if len(members) > 1:
                        own = [x for x in members if x < states]
                        if mirrored[own[0]]:
                            continue  # a part of a mirror already listed
                        period = 0
                        for x in members:
                            period = math.gcd(period, slack[x])
                        reads, twin = _mirror(own, layout, index, mirrored)
                        clock.tick(reads)
                        verts = sorted({owner[x] for x in own})
                        classes.append((period, verts))
                        if twin:
                            classes.append((period, verts))
    return classes


def _hub_chains(exits: list[int], first: int, succ: list) -> None:
    """Build the prefix and suffix hubs of a vertex of _walk_classes over its
    exits, appended to succ, and give each of its states first,
    first + 1, ... that has no out-list yet its arcs to them: state i of k
    reaches exits 0..i-1 through prefix[i - 1] and exits i+1..k-1 through
    suffix[k - 2 - i], where prefix[0] and suffix[0] are the end exits
    themselves. Only the vertex's first state reached keeps its own list,
    the direct arcs.
    """
    k = len(exits)
    prefix = exits[:1]  # prefix[i] reaches exits 0..i
    for e in exits[1:k - 1]:
        succ.append([prefix[-1], e])
        prefix.append(len(succ) - 1)
    suffix = exits[-1:]  # suffix[j] reaches exits k-1-j..k-1
    for e in exits[k - 2:0:-1]:
        succ.append([suffix[-1], e])
        suffix.append(len(succ) - 1)
    outs = [[suffix[-1]], *map(list, zip(prefix, suffix[-2::-1])), [prefix[-1]]]
    for x, out in enumerate(outs, first):
        if succ[x] is None:
            succ[x] = out


def _mirror(own: list[int], layout: tuple, index, mirrored) -> tuple[int, bool]:
    """(reads, twin) for the component of _walk_classes whose states are
    own: the number of group neighbors read, and whether its mirror is
    another component. When it is, each of the mirror's states y gets
    mirrored[y] set, and index[y] = -1, done, if the search has not reached
    it yet, so it never does.

    A mirror state (v, c') sits at a neighbor v of a state (w, c') of own,
    in w's group of color c', from which v has a state of own of another
    color. The mirror is a component, so the reads stop at the first
    mirror state inside own, which makes own its own mirror: about one
    read. Only the layout's exit targets are read, never G.adj, so a
    search view with dropped vertices reads what a rebuilt graph would.
    """
    first, owner, exits, _ = layout
    count: dict[int, int] = {}  # states of own at each vertex
    for x in own:
        v = owner[x]
        count[v] = count.get(v, 0) + 1
    inside = set(own)
    mirror = set()
    reads = 0
    for x in own:
        w = owner[x]
        t = exits[w][x - first[w]]
        for y in (t,) if type(t) is int else t:
            reads += 1
            k = count.get(owner[y])
            if k:
                if y not in inside:
                    mirror.add(y)
                elif k > 1:
                    return reads, False
    for y in mirror:
        mirrored[y] = 1
        if not index[y]:
            index[y] = -1
    return reads, True


class _WalkClasses:
    """The search view of one graph within one search: the live part of G,
    its one-color core and walk classes, and the switch point of its scans.

    The view starts as G, every vertex set in the live mask live.
    drop(vertices) clears those vertices in it and takes their edges to
    live vertices off the live edge count m, in O(degree). The K_{s,t}
    scans and the cycle DFS take G and the clock from here, draw their
    vertices through _subsets, read only the edges among those, take the
    edge count from m and, for the DFS's return table, the live edges from
    live. So they run on the subgraph that the live vertices induce as on
    G with the dropped vertices' edges deleted, with the same witnesses and
    node counts, and no such graph is built. A new search on the view must
    keep to this, or its node counts drift from those of a rebuilt graph.

    core() runs _one_color_core and admitted() runs _walk_classes on the
    core, each on its first call and on the search's clock; every later
    call, from a K_{2,2} scan or any DFS length, reuses the result until a
    drop forgets it. The classes list a class and its mirror, when that is
    another class, as two equal entries (see _walk_classes); admitted()
    reads their union, so no answer depends on which of the two the pass
    explored. details["walk_periods"] gets the sorted distinct periods when
    the hub pass runs, and [] as soon as the peel leaves an empty core,
    which holds no walk class, so the hub pass never runs then.

    Rent then buy: the searches on the view, each K_{s,t} scan and each DFS
    length, pay for the hub pass only once they have spent m nodes past the
    peel, one per live edge, together. On a signature the pass ticks about
    2m, so a search that the pass decides costs about 3m in all, and one
    that finds a short cycle early pays no pass. On sparse random graphs it
    ticks 2-6 times the core's edges and mostly admits every core vertex,
    so a search there that outlives its rent mostly pays for the pass in
    vain. core() sets switch to the clock after the peel plus m, and
    admitted() sets it to 0, so a search after the hub pass draws from the
    admitted vertices from its first subset on (see _subsets).

    The kept layout: while the view has dropped no edge (m == G.m), its
    peel is a function of G alone, so the hub pass's layout on it
    (_hub_layout) is built once per graph and kept with G, peeled or not,
    and every later search of G reuses it; a view that has dropped an edge
    builds one per search. The layout holds O(n + m + sum of color degrees)
    memory while G lives and ticks no clock, so no answer or node count
    depends on it: a repeated search skips the set-up, and a one-shot one
    costs what it did.
    """

    __slots__ = ("G", "clock", "details", "live", "m", "switch", "_core", "classes")

    def __init__(self, G: EdgeColoredGraph, clock: _Clock, details: dict):
        self.G = G
        self.clock = clock
        self.details = details
        self.live = bytearray(b"\x01") * G.n
        self.m = G.m
        self.switch = 0
        self._core = None
        self.classes = None

    def drop(self, vertices) -> None:
        """Remove vertices from the view, skipping those already dropped;
        the next core() or admitted() peels and runs the hub pass again."""
        live, adj, m = self.live, self.G.adj, self.m
        for v in vertices:
            if live[v]:
                live[v] = 0
                for u, _ in adj[v]:
                    m -= live[u]
        self.m = m
        self._core = self.classes = None

    def core(self) -> list[int]:
        """The vertices, ascending, of the one-color core of the view. Every
        vertex of a closed properly colored walk is among them."""
        if self._core is None:
            self._core = _one_color_core(self.G, self.clock, self.live)
            self.switch = self.clock.nodes + self.m
            if not self._core:
                self.classes = []
                self.details["walk_periods"] = []
        return self._core

    def admitted(self, L: int) -> list[int]:
        """The vertices, ascending, of the components whose period divides
        L and which have at least L vertices. Every vertex of a properly
        colored cycle of length L is among them."""
        core = self.core()
        if self.classes is None:
            self.classes = _walk_classes(self.G, self.clock, self._layout(core))
            self.details["walk_periods"] = sorted({p for p, _ in self.classes})
            self.switch = 0
        return sorted(
            {v for p, verts in self.classes if L % p == 0 and len(verts) >= L for v in verts}
        )

    def _layout(self, core: list[int]) -> tuple:
        """_hub_layout on core, kept with G while the view has dropped no edge."""
        G = self.G
        if self.m < G.m:
            return _hub_layout(G, core)
        kept = vars(G)
        if "_hub_layout" not in kept:
            kept["_hub_layout"] = _hub_layout(G, core)
        return kept["_hub_layout"]


def _return_table(adj, start: int, allowed, limit: int, clock: _Clock, live: bytearray):
    """(first, near, via): the fewest edges, up to limit, of a properly
    colored walk from each vertex w back to start through the vertices of
    allowed above start.

    Entered by an edge of color c, w needs near[w] edges when c differs
    from first[w] and via[w] when it equals it; limit + 1 stands for more
    than limit, and first[w] is -1 when w cannot get back at all. That is
    all there is to know, since w may leave by every color but the one it
    came by: first[w] is the color of w's first edge on a shortest way
    back, and via[w] the length of the shortest way back whose first edge
    has another color. A backward breadth-first search from start finds
    both, handing each vertex on at most twice; the clock ticks once per
    edge at each vertex handed on, counting only the edges to vertices v
    with live[v] set.
    """
    n = len(adj)
    ok = bytearray(n)
    for v in allowed:
        ok[v] = v > start
    far = limit + 1
    first = [-1] * n
    near = [far] * n
    via = [far] * n
    # (v, e, True): v's states entered by any color but e got their length
    # in the last round; (v, e, False): v's state entered by e did.
    level = [(start, -1, True)]
    for d in range(1, limit + 1):
        nxt = []
        for v, e, others in level:
            clock.tick(sum(live[w] for w, _ in adj[v]))
            for w, c in adj[v]:
                if not ok[w] or (c != e) != others:
                    continue
                if first[w] < 0:
                    first[w], near[w] = c, d
                    nxt.append((w, c, True))
                elif via[w] == far and c != first[w]:
                    via[w] = d
                    nxt.append((w, first[w], False))
        level = nxt
    return first, near, via


def _pc_cycle_impl(lengths, walks: _WalkClasses):
    """The groups (cycle,) of the first properly colored cycle found in the
    view walks, on its clock, trying the cycle lengths in the order given;
    or None. The entry points bound their lengths by n; a length above n,
    which only an unbounded list such as a test oracle's holds, is skipped.

    Length 4 is the properly colored K_{2,2} scan of _kst_impl, whose sides
    are read as a C4 (see _c4). Every other length L is a DFS from the
    starts that _subsets(1, walks, L) hands over, ascending, each on the
    pool handed over with it, so once the hub pass has run a length that
    no walk period admits has no start left. The start is the cycle
    minimum and paths extend through larger-id vertices with
    color-changing edges only; the closing edge must differ in color from
    both its cycle neighbors. So each length's witness is its
    lexicographically least cycle, on the core as on the admitted
    vertices. The DFS keeps its path on an explicit stack, so the cycle
    length is not bounded by Python's recursion limit; it ticks once per
    step, and once more per closing edge it tests.

    Once the DFS from one start has spent _WALK_SWITCH x m nodes, it builds
    that start's _return_table and from then on skips every step after
    which no properly colored walk gets back to start within the edges
    left. Such a step leads to no cycle of length L, so the witness is the
    same. The table costs at most two ticks per edge end, so a start pays
    for it only after its DFS has spent a comparable number of nodes.
    """
    G, clock = walks.G, walks.clock
    n = G.n
    adj = G.adj
    tick = clock.tick
    switch = _WALK_SWITCH * walks.m

    for L in lengths:
        if L > n:
            continue
        if L == 4:
            found = _c4(_kst_impl(2, 2, False, walks))
            if found is not None:
                return found
            continue
        colors = G.pair_colors  # built on the first DFS length, if any
        last = free = None
        for (start,), pool in _subsets(1, walks, L):
            if free is None or pool is not last:  # free[w]: w in the pool, off the path
                last, ok = pool, range(n) if pool is None else pool
                free = bytearray(n)
                for v in ok:
                    free[v] = 1
            path = [start]
            cols = [-1]  # colors of the path's edges after a sentinel
            frames = [iter(adj[start])]
            first = None  # the start's _return_table, once built
            mark = clock.nodes + switch
            while frames:
                if first is None and clock.nodes >= mark:
                    first, near, via = _return_table(adj, start, ok, L - 1, clock, walks.live)
                for w, c in frames[-1]:
                    if w <= start or not free[w] or c == cols[-1]:
                        continue
                    if first is not None and (near[w] if c != first[w] else via[w]) > L - len(path):
                        continue
                    tick()
                    if len(path) < L - 1:
                        path.append(w)
                        cols.append(c)
                        free[w] = 0
                        frames.append(iter(adj[w]))
                        break
                    tick()
                    closing = colors.get((start, w))
                    if closing is not None and closing != c and closing != cols[1]:
                        return ((*path, w),)
                else:
                    frames.pop()
                    if len(path) > 1:
                        free[path.pop()] = 1
                        cols.pop()
    return None


def _run_cycles(G, lengths, budget, details: dict) -> SearchOutcome:
    return _search(
        budget,
        lambda clock: _pc_cycle_impl(lengths, _WalkClasses(G, clock, details)),
        details, G, "pc-cycle",
    )


def _c4_first(m: int) -> tuple:
    """The cycle lengths 4, 3, 5, ..., m: a C4 first, then ascending, and
    none above m, so (3,) for m = 3 and () for m < 3."""
    return (*(L for L in (4, 3) if L <= m), *range(5, m + 1))


def find_pc_cycle_upto(
    G: EdgeColoredGraph, r: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Find a shortest properly colored cycle of length at most r.

    Tries the lengths 3..min(r, n), since no cycle is longer than n, in
    ascending order (see _pc_cycle_impl) on a search view of G (see
    _WalkClasses). found carries the first length's witness: at length 4
    the C4 (a, u, b, v) on the sides (a, b), (u, v) of find_pc_kst's
    witness, at any other the lexicographically least cycle;
    exhausted-none means G has no properly colored cycle of length <= r.
    An acyclic signature peels to nothing, one node per edge; a cycle found
    within the rent costs no hub pass (circulant signature on 201
    vertices, r = 4: 201 nodes); a blow-up of a directed C_r is decided by
    the rent, the hub pass and little DFS. details["walk_periods"] as in
    find_pc_kst.
    """
    _require_int("r", r, 3)
    return _run_cycles(G, range(3, min(r, G.n) + 1), budget, {})


def find_rainbow_c4(
    G: EdgeColoredGraph, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Search for a 4-cycle whose four edges have pairwise distinct colors.

    A rainbow C4 is a rainbow K_{2,2}, so this is find_rainbow_kst(G, 2, 2)
    with its sides (a, b), (u, w) read as the cycle (a, u, b, w), the one
    witness checked, and that search's statuses, node counts and details.
    """
    return _run_kst(G, 2, 2, budget, "rainbow-cycle")


def _shortest_directed_cycle_impl(D, clock: _Clock) -> Optional[tuple]:
    """BFS from every vertex for a shortest directed cycle of D.

    Each source's BFS stops at its first level that holds an in-neighbour
    of the source, which closes a cycle at the least of them, or at the
    level that could close no cycle shorter than the best so far. Each
    level ticks the clock once per frontier vertex, so a budget stops the
    search at most n nodes past its limit.
    """
    n = D.n
    out: list[list[int]] = [[] for _ in range(n)]
    ins: list[set[int]] = [set() for _ in range(n)]
    for arc in D.arcs:  # sorted, so each out-list is ascending
        out[arc[0]].append(arc[1])
        ins[arc[1]].add(arc[0])

    best_cycle: Optional[list[int]] = None
    for s in range(n):
        if best_cycle is not None and len(best_cycle) == 3:
            break
        parent = {s: None}
        frontier = [s]
        # levels 0 .. len(best_cycle) - 2 can close a shorter cycle
        levels = n if best_cycle is None else len(best_cycle) - 1
        while frontier and levels:
            clock.tick(len(frontier))
            closing = min((v for v in frontier if v in ins[s]), default=None)
            if closing is not None:
                best_cycle = []
                while closing is not None:
                    best_cycle.append(closing)
                    closing = parent[closing]
                best_cycle.reverse()
                break
            nxt = []
            for v in frontier:
                for w in out[v]:
                    if w not in parent:
                        parent[w] = v
                        nxt.append(w)
            frontier = nxt
            levels -= 1

    return None if best_cycle is None else (best_cycle,)


def shortest_directed_cycle(
    D: Union[OrientedGraph, ColoredOrientation], budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Exact shortest directed cycle by BFS from every vertex, O(n(n+m)).

    Returns found with a shortest cycle, checked on D after the search,
    exhausted-none for acyclic inputs, or budget-exceeded when budget runs
    out first; each BFS level ticks the clock once per frontier vertex.
    """
    out = _search(
        budget, lambda clock: _shortest_directed_cycle_impl(D, clock), {}, D, "directed-cycle"
    )
    if out.witness is not None:
        out.details["length"] = len(out.witness.vertices[0])
    return out


# ---------------------------------------------------------------------------
# Derived pipelines
# ---------------------------------------------------------------------------

def pc_short_cycle_pipeline(
    G: EdgeColoredGraph, r: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Search for a properly colored cycle of length at most r, a C4 first.

    Tries length 4, then 3 and 5..r, none above n (_c4_first(min(r, n))),
    on one search view and one clock, as find_pc_cycle_upto tries its
    lengths. So found carries a properly colored C4 whenever G has one,
    and else find_pc_cycle_upto's witness at r; exhausted-none means G has
    no properly colored cycle of length <= r. details holds r, and
    walk_periods as in find_pc_kst.
    """
    _require_int("r", r, 4)
    return _run_cycles(G, _c4_first(min(r, G.n)), budget, {"r": r})


def _packing_bound(left: int, walks: _WalkClasses, classes, dropped) -> Optional[dict]:
    """{"left", "least", "room"} when left vertex-disjoint properly colored
    cycles cannot fit in the view walks, else None.

    Every properly colored cycle lies in one walk class (see
    _walk_classes), and a class of period p holds none shorter than
    p * ceil(3 / p). classes, when given, are those of the view before the
    vertices dropped left it. Each cycle left is a cycle of that view, so
    room counts the vertices outside dropped of the classes that keep
    p * ceil(3 / p) of them, and least is the least such length, 3 when no
    class keeps enough. With no classes, room is the core of walks, which
    the next search would peel first, and least is 3. A graph on fewer
    than three vertices is not peeled: its core is empty, since each core
    vertex sees two others in it, and no search would peel it. left cycles
    need left * least vertices of room.
    """
    if classes is None:
        least, room = 3, len(walks.core()) if walks.G.n > 2 else 0
    else:
        kept, union = [], set()
        for p, verts in classes:
            need = p * math.ceil(3 / p)
            rest = set(verts).difference(dropped)
            if len(rest) >= need:
                kept.append(need)
                union |= rest
        least, room = min(kept, default=3), len(union)
    return {"left": left, "least": least, "room": room} if left * least > room else None


def disjoint_pc_cycles(
    G: EdgeColoredGraph, k: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Greedily collect up to k vertex-disjoint properly colored cycles.

    Each round runs the search of pc_short_cycle_pipeline with no length
    bound, so it takes a properly colored C4 if there is one and else a
    shortest properly colored cycle, and drops the cycle's vertices from
    one search view of G (see _WalkClasses): every round has the witness
    and node count it would have on the residual built as a graph of its
    own, and all rounds tick one clock. A later round tries the lengths
    from the last cycle's on, since those before it held no cycle and
    dropping vertices makes none. found carries the k cycles as one
    witness, checked once. With fewer than k cycles the outcome is
    exhausted-none and the partial family rides in the details.

    Before each round, _packing_bound tests whether the cycles still needed
    can fit: on the core before the first round, and after a drop on the
    classes of the round's hub pass less the dropped cycle, or on the
    residual's core when the round ran no hub pass. When they cannot, the
    search stops with exhausted-none and details["bound"] holds the test's
    figures. Only that stop with no cycle found proves that G has no k
    disjoint properly colored cycles. Any other exhausted-none, a bound stop
    after a cycle or a round that finds none, says only that the greedy's
    family cannot be extended: it is a heuristic, not a packing decision.
    """
    _require_int("k", k, 1)
    cycles: list[list[int]] = []
    details = {"requested": k, "cycles": cycles}

    def body(clock):
        walks = _WalkClasses(G, clock, {})
        lengths = _c4_first(G.n)
        classes, last = None, ()
        while len(cycles) < k:
            bound = _packing_bound(k - len(cycles), walks, classes, last)
            if bound:
                details["bound"] = bound
                return None
            found = _pc_cycle_impl(lengths, walks)
            if found is None:
                return None
            last = found[0]
            cycles.append(list(last))
            classes = walks.classes
            walks.drop(last)
            # the lengths tried before hold no cycle, and dropping makes none
            lengths = lengths[lengths.index(len(last)):]
        return cycles

    return _search(budget, body, details, G, "disjoint-cycles")


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
    _require_int("t", t, 1)
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

    # used only grows, so one ascending pass takes what the greedy takes
    chosen: list[int] = []
    used: set[int] = set()
    for v in B:
        cols = {G.color_of(u, v) for u in S}
        if not cols & used:
            chosen.append(v)
            used |= cols
            if len(chosen) == t:
                return _witness(G, "rainbow-kst", S, tuple(chosen))
    raise RuntimeError("internal error: rainbow growth ran out of candidates")


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
    _check_st(s, t)
    parts = None if G.bipartition is None else tuple(len(side) for side in G.bipartition)
    margin = total_color_degree(G) - _total_degree_requirement(s, t, G.n, parts)
    return margin > 0, margin


# ---------------------------------------------------------------------------
# Exhaustive cycle enumeration (small-graph oracle support)
# ---------------------------------------------------------------------------

def all_simple_cycles(G: EdgeColoredGraph) -> list[tuple[int, ...]]:
    """All simple cycles of G's underlying graph, one canonical tuple each.

    Canonical form: the sequence starts at the cycle's smallest vertex and
    runs toward the smaller of its two neighbors on the cycle. The walk
    reads the neighbors of G.adj, which are ascending. Intended for small
    n; the count grows exponentially.
    """
    adj = [[v for v, _ in nbrs] for nbrs in G.adj]

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

    for start in range(G.n):
        path = [start]
        on_path = {start}
        dfs(start, start)
    return cycles
