"""Bounded-exhaustive search oracles for colored and directed structures.

These searches define ground truth at desk scale. "Not found" and "budget
exceeded" are distinct outcomes: exhausted-none asserts the whole search
space was covered, while budget-exceeded makes no claim. _search builds
each witness and checks it against the host once, after its search.
"""
from __future__ import annotations

import math
import time
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
    pair {a, b} hold t pairs with distinct first and distinct second colors.

    This is a matching of size t in the bipartite graph joining a-colors to
    b-colors, one edge per candidate, so it decides whether a properly
    colored K_{2,t} sits on {a, b}. Reading the candidates costs one tick
    each. For t = 2 that is all; for larger t Kuhn's augmenting paths cost
    one tick per edge they look at, and stop as soon as the matching
    reaches size t.
    """
    clock.tick(len(pairs))
    options: dict[int, list[int]] = {}
    for ca, cb in pairs:
        options.setdefault(ca, []).append(cb)
    # t colors on each side are needed. For t = 2 they also suffice (Koenig):
    # a size-2 matching is missing only when one color covers every edge.
    if len(options) < t or len({cb for _, cb in pairs}) < t:
        return False
    if t == 2:
        return True
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
# end. (A K_{s,t} scan pays for the hub pass after one node per live edge;
# see _WalkClasses.)
_WALK_SWITCH = 3


def _subsets(s: int, walks: _WalkClasses, L: int):
    """(S, pool) for the s-subsets S of the core of walks in ascending
    order, pool being the set the search may draw its other vertices from
    (None: every vertex, when the core is all of the graph's vertices).
    From the subset at which the clock reaches walks.switch on, one node
    per live edge past the peel, they are the subsets of the vertices
    admitted for length L, with those as the pool (see _WalkClasses). Every
    search on the view draws its vertices here, so this and the view alone
    decide when the hub pass runs.
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
    """K_{s,t} search in the graph of walks, on its clock: s-subsets S
    ascending, T grown by backtracking.

    T is grown from the common neighbors whose star to S is rainbow, in
    ascending order, keeping a used-color set per S-vertex (properly colored
    mode) or one set shared by all of S (rainbow mode). It returns (S, T)
    for the first S that has any T, with the lexicographically least T.

    For s = 2 the backtracking runs only on the pairs that _color_matching
    accepts: a rainbow K_{2,t} is also a properly colored one, so a rejected
    pair holds neither, and the witness is the same. Properly colored
    K_{2,t} backtracks on the first accepted pair alone, so it costs
    O(pairs x candidates) for t = 2 and O(pairs x t x candidates) for
    larger t; rainbow K_{2,t} may backtrack on every accepted pair.

    S and T are drawn as _subsets hands them over: from the one-color core
    of walks, and past its switch point, one node per live edge after the
    peel, from the vertices admitted for length 4 (see _WalkClasses). Any
    two S-vertices and two T-vertices of a properly colored (or rainbow)
    K_{s,t} span a properly colored C4, so every vertex of it lies in the
    core and is admitted, and the witness is the same. So the search costs
    at most the peel plus the scan of the core plus one hub pass, and an
    acyclic signature costs the peel alone: one tick per edge.

    Each subset costs one tick, the matching one tick per candidate it reads
    and, for t >= 3, per edge its augmenting paths look at, the backtracking
    one tick per candidate it tries, the peel one per edge it removes, and
    the hub pass one per arc out of each node it reaches (k - 1 for the
    first state it reaches at a vertex of k colors) and one per group
    neighbor it reads to list a class's mirror (see _walk_classes): on a
    C_r blow-up about two per edge. A candidate's colors are read from
    neighbor -> color maps of the S-vertices, each built from G.adj the
    first time one of its subsets gets that far, once per search.
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
        star = {}
        if by_matching:
            at_a, at_b = color_map(S[0]), color_map(S[1])
            for w in sorted(common):
                ca, cb = at_a[w], at_b[w]
                if ca != cb:
                    candidates.append(w)
                    star[w] = (ca, cb)
        else:
            at = [color_map(u) for u in S]
            for w in sorted(common):
                cols = tuple(m[w] for m in at)
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
        if _extend(0, chosen, t, candidates, star, used_at, clock):
            return S, tuple(chosen)
    return None


def _extend(start: int, chosen: list[int], t: int, candidates, star, used_at, clock) -> bool:
    """Grow chosen to t candidates from candidates[start:], ascending, whose
    colors star[w] avoid the used sets used_at, for _kst_impl; one tick per
    candidate tried. A module-level function, so no call leaves a reference
    cycle behind."""
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

    For s = 2 each vertex pair is decided by a color-pair matching (see
    _color_matching), which for t = 2 is one scan of the candidates, in
    O(pairs x candidates) time; s >= 3 backtracks. The scan runs behind the
    walk-period filter of find_pc_cycle_upto: on the core of its one-color
    peel, and past the filter's switch point, one node per live edge after
    the peel, on the vertices that lie on closed properly colored walks of
    length 4 (see _WalkClasses). Every vertex of a properly colored K_{s,t}
    is among both, so the witness is the same either way, and an acyclic
    signature peels to nothing: one tick per edge. On a signature the hub
    pass explores one of each pair of mirror classes, the forward and the
    backward walks, and lists the other from it; it reaches about one state
    per vertex and fans it out directly, so it ticks about twice per edge,
    and an exhaustive query on a blow-up costs about three nodes per edge.
    details["walk_periods"] shows the periods when the hub pass ran, and []
    when the peel left nothing; the node counts include the filter's ticks.
    """
    return _run_kst(G, s, t, budget, "pc-kst")


def find_rainbow_kst(
    G: EdgeColoredGraph, s: int, t: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Like find_pc_kst but all s*t edge colors must be pairwise distinct.

    For s = 2 the same color-pair matching gates each vertex pair, since a
    rainbow K_{2,t} is properly colored; the pairs it accepts backtrack.
    The walk-period filter gates the scan as in find_pc_kst, for the same
    reason, and its ticks count in the nodes.
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


def _walk_classes(
    G: EdgeColoredGraph, clock: _Clock, core: list[int]
) -> list[tuple[int, list[int]]]:
    """(period, vertices) of each strongly connected component with a cycle
    in the color-transition graph of G, found on the one-color core of G
    (see _one_color_core), which holds every such component.

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
    reached gives the other its one arc too. Arcs out of states have weight 1 and all others weight
    0; every step of a properly colored walk leaves exactly one state, so
    the graph's closed walks have exactly the state graph's lengths,
    whichever of v's states got the direct arcs. It has
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
    n = G.n
    adj = G.adj
    live = bytearray(n)
    for v in core:
        live[v] = 1
    by_color: list[dict[int, list[int]]] = [{} for _ in range(n)]
    state: list[dict[int, int]] = [{} for _ in range(n)]  # color -> state id
    first = [0] * n  # the state id of each core vertex's first color
    owner: list[int] = []  # the vertex of each state node
    hue: list[int] = []  # the color of each state node
    others = 0  # exit and hub nodes, were every vertex's hubs built
    for v in core:
        groups = by_color[v]
        for w, c in adj[v]:
            if live[w]:
                groups.setdefault(c, []).append(w)
        k = len(groups)
        x = first[v] = len(owner)
        state[v] = dict(zip(groups, range(x, x + k)))
        owner += [v] * k
        hue += groups
        # an exit per group of two or more neighbors, 2(k - 2) hubs
        others += 3 * k - 4 - list(map(len, groups.values())).count(1)
    states = len(owner)  # node ids below states are states
    size = states + others
    succ: list[Optional[list[int]]] = [None] * states  # built on reach
    exits_at: list[Optional[list[int]]] = [None] * n

    def reach(x: int) -> list[int]:
        """Build the out-list of state x as the search reaches it: direct
        arcs to the exits if it is the first of its vertex's, else the
        vertex's hubs and the arcs to them of all its states left."""
        v = owner[x]
        exits = exits_at[v]
        if exits is None:
            exits = exits_at[v] = [
                state[ws[0]][c] if len(ws) == 1 else node([state[w][c] for w in ws])
                for c, ws in by_color[v].items()
            ]
            i = x - first[v]
            succ[x] = exits[:i] + exits[i + 1:]
        else:
            _hub_chains(exits, first[v], succ)
        return succ[x]

    def node(targets: list[int]) -> int:
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
                        reads, twin = _mirror(own, owner, hue, state, by_color, index, mirrored)
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


def _mirror(own: list[int], owner, hue, state, by_color, index, mirrored) -> tuple[int, bool]:
    """(reads, twin) for the component of _walk_classes whose states are
    own: the number of group neighbors read, and whether its mirror is
    another component. When it is, each of the mirror's states y
    gets mirrored[y] set, and index[y] = -1, done, if the search has not
    reached it yet, so it never does.

    The mirror's states are the states (v, c') with an arc (v, c) -> (w, c')
    from a state of own to one. Each sits at a neighbor v of a state
    (w, c') of own, in w's group of color c', from which v has a state of
    own of another color. The mirror is itself a component, the one whose
    closed walks are own's reversed, so once it meets own it is own, and
    the reads stop there: a component that is its own mirror costs about
    one read. Only the core's color groups are read, never G.adj, so a
    search view with dropped vertices reads what a rebuilt graph would.
    """
    count: dict[int, int] = {}  # states of own at each vertex
    for x in own:
        v = owner[x]
        count[v] = count.get(v, 0) + 1
    inside = set(own)
    mirror = set()
    reads = 0
    for x in own:
        c = hue[x]
        for v in by_color[owner[x]][c]:
            reads += 1
            k = count.get(v)
            if k:
                y = state[v][c]
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
    scans and the cycle DFS take G and the clock from here, and draw their
    vertices from core() and admitted(L), the first ones through _subsets,
    which with the view alone decides when the hub pass runs. They read only the edges among
    those, take the edge count from m and, for the DFS's return table, the
    live edges from live. So they run on the subgraph that the live
    vertices induce as on G with the dropped vertices' edges deleted, with
    the same witnesses and node counts, and no such graph is built. A new
    search on the view must keep to this, or its node counts drift from
    those of a rebuilt graph.

    _one_color_core runs on the first call of core or admitted, and
    _walk_classes on the core on the first call of admitted, both on the
    search's clock; every later call, from a K_{2,2} scan or any DFS
    length, reuses their results until a drop forgets them.
    The hub pass builds its graph as its search reaches it, so the hubs
    of a vertex whose one state reached fans out directly are never built.
    The classes list a class and its mirror, when that is another class,
    as two equal (period, vertices) entries, as the full pass would (see
    _walk_classes); admitted() and the periods read their union, so no
    answer depends on which of the two the pass explored.
    details["walk_periods"] gets the sorted distinct periods when the hub
    pass runs, and [] as soon as the peel leaves an empty core, which holds
    no walk class, so the hub pass never runs then.

    The switch rule, rent then buy: the searches on the view, each K_{s,t}
    scan and each DFS length, pay for the hub pass only once they have
    spent m nodes past the peel, one per live edge, together. On a
    signature the pass ticks about 2m, so a search that the pass decides
    costs about 3m in all, and one that finds a short cycle early pays no
    pass. On sparse random graphs it ticks 2-6 times the core's edges and
    mostly admits every core vertex, so a search there that outlives its
    rent mostly pays for the pass in vain. core() sets switch to the clock
    after the peel plus m, and admitted() sets it to 0, so a search after
    the hub pass draws from the admitted vertices from its first subset on
    (see _subsets).
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
            self.classes = _walk_classes(self.G, self.clock, core)
            self.details["walk_periods"] = sorted({p for p, _ in self.classes})
            self.switch = 0
        return sorted(
            {v for p, verts in self.classes if L % p == 0 and len(verts) >= L for v in verts}
        )


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
    view walks (see _WalkClasses), trying the cycle lengths in the order
    given and skipping those above n, or None; all on the clock of walks.

    Length 4 is decided by the properly colored K_{2,2} scan of _kst_impl,
    whose sides are read as a C4 (see _c4): a properly colored C4 is a
    properly colored K_{2,2}. Every other length L is searched by a DFS
    from the starts that _subsets(1, walks, L) hands over, ascending, each
    on the pool handed over with it: the core, until the view's searches
    have spent their rent of one node per live edge past the peel, then,
    from the same start on, the vertices admitted for L (see _WalkClasses).
    Every properly colored cycle of length L lies inside both, so no
    witness changes. The one-color peel runs on the first length tried and
    the hub pass at most once, in whichever length reaches the switch; a
    length that no period divides then has no start left. When the peel
    leaves an empty core, every length is skipped at once.

    For each DFS length the start vertex is the cycle minimum and paths
    extend through larger-id vertices with color-changing edges only; the
    closing edge must differ in color from both its cycle neighbors. So the
    DFS returns the lexicographically least cycle of that length, on the
    core as on the admitted vertices. The DFS keeps its path on an explicit
    stack, so the cycle length is not bounded by Python's recursion limit. A
    cycle of the subgraph is one of G, so the caller checks the witness on
    G.

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


def find_pc_cycle_upto(
    G: EdgeColoredGraph, r: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Find a shortest properly colored cycle of length at most r.

    Tries the lengths 3..r in ascending order (see _pc_cycle_impl): length 4
    by the properly colored K_{2,2} scan, whose witness is the C4
    (a, u, b, v) on the sides (a, b), (u, v) of find_pc_kst's witness, and
    every other length by the DFS, whose witness is the lexicographically
    least cycle of that length. The search first peels off the vertices that
    see fewer than two colors, which lie on no closed walk, and searches the
    rest, the core; an acyclic signature peels to nothing. Once it has spent
    one node per edge past the peel (see _WalkClasses), a linear-time pass
    over the color-transition graph of the core finds the periods of closed
    properly colored walks (details["walk_periods"], present only when it
    ran, and [] when the peel left nothing), and from then on the DFS and
    the K_{2,2} scan read only the vertices admitted for their length, so
    every length that no period divides is skipped. A short cycle found
    within that rent costs no pass (circulant signature on 201 vertices,
    r = 4: 201 nodes), and a blow-up of a directed C_r is decided with about
    the rent and the pass. The hub pass builds the graph on the core as it
    explores it, and lists the mirror of each class it completes, the class
    of its walks reversed, from the class itself, so on a signature it
    explores only one of the forward and the backward walks, about one state
    per vertex, each fanned out directly to its exits with no hubs between:
    about two ticks per edge. Node counts include one tick per edge the peel
    removes, one per arc out of each node of the graph left that the hub
    pass reaches, and one per group neighbor it reads to list a mirror (see
    _walk_classes).
    """
    _require_int("r", r, 3)
    details: dict = {}
    return _search(
        budget,
        lambda clock: _pc_cycle_impl(range(3, r + 1), _WalkClasses(G, clock, details)),
        details, G, "pc-cycle",
    )


def find_rainbow_c4(
    G: EdgeColoredGraph, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Search for a 4-cycle whose four edges have pairwise distinct colors.

    A rainbow C4 is a rainbow K_{2,2}, so this is the rainbow K_{2,2} search
    of find_rainbow_kst, with the sides (a, b), (u, w) it finds read as the
    cycle (a, u, b, w), the one witness checked; the node counts and details
    are that search's, so it starts with the one-color peel and costs one
    tick per edge on an acyclic signature.
    """
    return _run_kst(G, 2, 2, budget, "rainbow-cycle")


def _shortest_directed_cycle_impl(D, clock: _Clock) -> Optional[tuple]:
    """BFS from every vertex for a shortest directed cycle of D.

    Each BFS level ticks the clock once per frontier vertex, so a budget
    stops the search at most n nodes past its limit.
    """
    n = D.n
    out: list[list[int]] = [[] for _ in range(n)]
    ins: list[list[int]] = [[] for _ in range(n)]
    for arc in D.arcs:  # sorted, so each list is ascending
        out[arc[0]].append(arc[1])
        ins[arc[1]].append(arc[0])

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

    Tries length 4, then 3 and 5..r (see _pc_cycle_impl): the properly
    colored K_{2,2} scan first, whose sides are a properly colored C4, then
    the cycle DFS behind the walk-period filter of find_pc_cycle_upto, which
    skips every length that no closed properly colored walk has. So its
    witness is find_pc_cycle_upto's whenever G has no properly colored C4.
    The filter's peel runs once per call, at the start of the scan, and its
    hub pass at most once: in the scan or the DFS, whichever runs when the
    call has spent one node per live edge past the peel (see _WalkClasses),
    and never when the peel left nothing. A peel that leaves nothing proves
    that G has no properly colored cycle, so the search ends exhausted-none
    after the scan's peel. details["walk_periods"] shows the periods
    whenever the hub pass ran, and [] when the peel left nothing; the node
    counts include the ticks of both. The scan and the DFS tick one clock,
    so a node or time budget stops whichever of them is running.
    """
    _require_int("r", r, 4)
    details: dict = {"r": r}
    return _search(
        budget,
        lambda clock: _pc_cycle_impl((4, 3, *range(5, r + 1)), _WalkClasses(G, clock, details)),
        details, G, "pc-cycle",
    )


def disjoint_pc_cycles(
    G: EdgeColoredGraph, k: int, budget: Optional[SearchBudget] = None
) -> SearchOutcome:
    """Greedily collect up to k vertex-disjoint properly colored cycles.

    The first round runs the search of pc_short_cycle_pipeline with no
    length bound (lengths 4, 3, 5..n), so it takes a properly colored C4 if
    there is one and else a shortest properly colored cycle; each round
    removes the vertices of its cycle, and the next tries the lengths from
    that cycle's on, since those before it held no cycle and removing
    vertices makes none. A round whose residual peels to nothing ends after
    the peel. All rounds run on one search view of G, which drops each
    cycle's vertices (see _WalkClasses), so no graph is built: every round
    has the witness and node count it would have on the residual built as a
    graph of its own. All rounds tick one clock. The one check of a found
    outcome, on its disjoint-cycles witness, covers every round's cycle.
    With fewer than k cycles the outcome is exhausted-none and the partial
    family rides in the details; this is a greedy heuristic, not an exact
    packing decision.
    """
    _require_int("k", k, 1)
    cycles: list[list[int]] = []

    def body(clock):
        walks = _WalkClasses(G, clock, {})
        lengths = (4, 3, *range(5, G.n + 1))
        while len(cycles) < k:
            found = _pc_cycle_impl(lengths, walks)
            if found is None:
                return None
            cycles.append(list(found[0]))
            walks.drop(cycles[-1])
            # the lengths tried before hold no cycle, and dropping makes none
            lengths = lengths[lengths.index(len(cycles[-1])):]
        return cycles

    return _search(budget, body, {"requested": k, "cycles": cycles}, G, "disjoint-cycles")


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
