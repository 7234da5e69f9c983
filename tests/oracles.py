"""Independent brute-force oracles for cross-checking the search code.

Everything here enumerates by raw itertools subsets/permutations and checks
properties directly from edge lists, sharing no traversal logic with the
package's backtracking detectors. Intended for tiny instances only. The
exceptions are references that run the package's own code:
rebuilt_disjoint_pc_cycles, on graphs rebuilt from G's edge list;
greedy_disjoint_pc_cycles, the disjoint rounds as they ran before they
tested whether the cycles still needed can fit; staged_pc_cycle, the
two-stage cycle search that the pipeline and each disjoint round ran
before they went through the one length-order driver;
up_front_pc_cycle, the length-order driver as it ran when it bought the
hub pass before its first DFS length;
adjacency_greedy and adjacency_orient, the orientation construction
as it ran on G.adj before it read the one-edge-per-color maps off G.edges;
reference_rows, the body tokenizer of chroma.formats as it ran when it
split each body line on its own to count its fields; set_based_edges,
the EdgeColoredGraph constructor's loop as it ran when it hashed every
edge into a duplicate set and sorted every edge list; per_arc_oriented_graph,
the OrientedGraph constructor's per-arc loop written out on its own, the
reference for its stored arcs and error texts; the generators as they
built their graphs before every row was formed canonical:
min_max_signature, looped_circulant_tournament,
two_build_blowup_cycle_signature and edge_order_dual_graph;
full_hub_walk_classes, the hub pass as it ran when it built every
vertex's hubs up front and explored both halves of every mirror pair of
walk classes; backtracked_pair, the K_{2,2} pair search of the K_{s,t}
scan as it ran when it backtracked; depth_limited_shortest_directed_cycle,
the directed-cycle BFS as it ran when it read each source's closing vertex
off its in-list; and claimed_edges, which lists the host edges a witness
needs.
"""
from __future__ import annotations

from itertools import combinations, permutations
from math import ceil, gcd

from chroma.core import (
    ColoredOrientation,
    EdgeColoredGraph,
    OrientedGraph,
    _check_arc,
    _normalize_bipartition,
    _require_color,
    _require_int,
    _require_vertex,
)
from chroma.detectors import (
    _WALK_SWITCH,
    _WalkClasses,
    _c4,
    _c4_first,
    _kst_impl,
    _packing_bound,
    _pc_cycle_impl,
    _return_table,
    _search,
)
from chroma.extraction import SaturationState, default_x, sigma
from chroma.formats import _Ints
from chroma.transforms import blow_up


def _color_map(G):
    return {(u, v): c for u, v, c in G.edges}


def _col(cmap, a, b):
    return cmap.get((a, b) if a < b else (b, a))


def _complete_bipartite(cmap, S, T):
    return all(_col(cmap, u, w) is not None for u in S for w in T)


def _pc_kst_ok(cmap, S, T):
    for u in S:
        cols = [_col(cmap, u, w) for w in T]
        if len(set(cols)) != len(T):
            return False
    for w in T:
        cols = [_col(cmap, u, w) for u in S]
        if len(set(cols)) != len(S):
            return False
    return True


def _rainbow_kst_ok(cmap, S, T):
    cols = [_col(cmap, u, w) for u in S for w in T]
    return len(set(cols)) == len(cols)


def all_pc_kst_witnesses(G, s, t, rainbow=False):
    """Every (S, T) of a properly colored (or, with rainbow, rainbow)
    K_{s,t}: S an s-subset and T a t-subset of the vertices outside S, both
    in lexicographic order, S first."""
    cmap = _color_map(G)
    ok = _rainbow_kst_ok if rainbow else _pc_kst_ok
    verts = range(G.n)
    for S in combinations(verts, s):
        rest = [v for v in verts if v not in S]
        for T in combinations(rest, t):
            if _complete_bipartite(cmap, S, T) and ok(cmap, S, T):
                yield S, T


def first_pc_kst_witness(G, s, t, rainbow=False):
    """(S, T) of the first properly colored (or, with rainbow, rainbow)
    K_{s,t}, or None.

    S is the lexicographically first s-subset that carries one, and T the
    lexicographically first t-subset of the vertices outside S that completes
    it."""
    return next(all_pc_kst_witnesses(G, s, t, rainbow), None)


def backtracked_pair(candidates, star, rainbow, clock):
    """The K_{2,2} pair search of _kst_impl as it ran when it backtracked,
    before _least_pair: the lexicographically least (w1, w2) of candidates
    whose color pairs star[i] = (c(a,w), c(b,w)) share no a-color and no
    b-color (with rainbow, no color at all), or None. One tick per
    candidate tried as w1, every one but the last, and one per later
    candidate tried as w2 with it."""
    for i in range(len(candidates) - 1):
        clock.tick()
        x, y = star[i]
        for j in range(i + 1, len(candidates)):
            clock.tick()
            u, v = star[j]
            if not ({u, v} & {x, y} if rainbow else u == x or v == y):
                return candidates[i], candidates[j]
    return None


def brute_pc_kst_exists(G, s, t) -> bool:
    return first_pc_kst_witness(G, s, t) is not None


def brute_rainbow_kst_exists(G, s, t) -> bool:
    return first_pc_kst_witness(G, s, t, rainbow=True) is not None


def all_cycles_by_permutation(n, pairs) -> set[tuple[int, ...]]:
    """Every simple cycle, canonical: starts at its minimum vertex and runs
    toward the smaller of the two neighbors. Enumerated by trying all vertex
    subsets and all cyclic orders."""
    edge_set = {(min(u, v), max(u, v)) for u, v in pairs}
    found = set()
    for size in range(3, n + 1):
        for subset in combinations(range(n), size):
            first = subset[0]
            for rest in permutations(subset[1:]):
                if rest[0] > rest[-1]:
                    continue
                cyc = (first,) + rest
                if all(
                    (min(cyc[i], cyc[(i + 1) % size]), max(cyc[i], cyc[(i + 1) % size]))
                    in edge_set
                    for i in range(size)
                ):
                    found.add(cyc)
    return found


def is_directed_cycle(arcs, cyc) -> bool:
    arcset = set(arcs)
    k = len(cyc)
    fwd = all((cyc[i], cyc[(i + 1) % k]) in arcset for i in range(k))
    bwd = all((cyc[(i + 1) % k], cyc[i]) in arcset for i in range(k))
    return fwd or bwd


def brute_directed_girth(D):
    """Exact directed girth via permutation enumeration, None when acyclic."""
    pairs = [(t, h) for t, h in D.arcs]
    best = None
    for cyc in all_cycles_by_permutation(D.n, pairs):
        if is_directed_cycle(D.arcs, cyc):
            if best is None or len(cyc) < best:
                best = len(cyc)
    return best


def depth_limited_shortest_directed_cycle(D, budget=None):
    """shortest_directed_cycle as it ran when each source's BFS went down to
    one level short of the best cycle so far, or to its end, and then read
    the closing vertex, the least in-neighbour of the source at the least
    depth, off a scan of the source's in-list: the reference whose status
    and witness the search must keep, in no more nodes. details stay empty.
    """

    def body(clock):
        n = D.n
        out = [[] for _ in range(n)]
        ins = [[] for _ in range(n)]
        for arc in D.arcs:
            out[arc[0]].append(arc[1])
            ins[arc[1]].append(arc[0])
        best_cycle = None
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
            if best_cycle is None or dist[closing] + 1 < len(best_cycle):
                path = []
                v = closing
                while v is not None:
                    path.append(v)
                    v = parent[v]
                best_cycle = list(reversed(path))
        return None if best_cycle is None else (best_cycle,)

    return _search(budget, body, {}, D, "directed-cycle")


def is_pc_cycle(G, cyc) -> bool:
    cmap = _color_map(G)
    k = len(cyc)
    cols = []
    for i in range(k):
        c = _col(cmap, cyc[i], cyc[(i + 1) % k])
        if c is None:
            return False
        cols.append(c)
    return all(cols[i] != cols[(i + 1) % k] for i in range(k))


def max_pc_cycle_packing(G) -> tuple[tuple[int, ...], ...]:
    """A largest family of vertex-disjoint properly colored cycles of G
    (n <= 9), each canonical as all_cycles_by_permutation writes it, by an
    exact search over every pc cycle: each vertex in turn is either the
    least vertex of a chosen cycle or of none."""
    assert G.n <= 9, "an oracle for tiny graphs"
    cycles = sorted(
        c for c in all_cycles_by_permutation(G.n, [e[:2] for e in G.edges]) if is_pc_cycle(G, c)
    )
    starting_at = [[c for c in cycles if c[0] == v] for v in range(G.n)]
    best: tuple = ()

    def extend(v, used, chosen):
        nonlocal best
        if len(chosen) > len(best):
            best = tuple(chosen)
        free = sum(1 for u in range(v, G.n) if u not in used)
        if v == G.n or len(chosen) + free // 3 <= len(best):
            return
        for c in starting_at[v]:
            if used.isdisjoint(c):
                extend(v + 1, used | set(c), chosen + [c])
        extend(v + 1, used, chosen)

    extend(0, set(), [])
    return best


def brute_shortest_pc_cycle(G, r):
    """The length of a shortest properly colored cycle of G of length at
    most r, or None. Every simple path that starts at its least vertex is
    grown edge by edge, with no color test on the way, and each one that
    closes is checked with is_pc_cycle; faster than the permutations of
    brute_pc_cycle_lengths on sparse graphs."""
    nbrs = {v: set() for v in range(G.n)}
    for u, v, _ in G.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    best = None

    def grow(path):
        nonlocal best
        if len(path) >= 3 and path[0] in nbrs[path[-1]] and is_pc_cycle(G, path):
            best = len(path) if best is None else min(best, len(path))
        if len(path) < r:
            for w in nbrs[path[-1]]:
                if w > path[0] and w not in path:
                    grow(path + [w])

    for v in range(G.n):
        grow([v])
    return best


def brute_pc_cycle_lengths(G) -> set[int]:
    """Lengths for which at least one properly colored cycle exists."""
    pairs = [(u, v) for u, v, _ in G.edges]
    return {
        len(cyc)
        for cyc in all_cycles_by_permutation(G.n, pairs)
        if is_pc_cycle(G, cyc)
    }


def first_pc_cycle_witness(G, lengths):
    """The first properly colored cycle of the first length of `lengths`
    that has one, trying them in the order given and skipping those above
    n, or None.

    A length-4 answer is the first properly colored K_{2,2} of
    first_pc_kst_witness, with sides (a, b) and (u, v), read as the cycle
    (a, u, b, v). Any other length's is the lexicographically least cycle,
    as a vertex sequence from its minimum vertex: for each start vertex in
    ascending order, all orders of larger vertices in lexicographic order
    (permutations of a sorted pool come out that way).
    """
    cmap = _color_map(G)
    for L in lengths:
        if L > G.n:
            continue
        if L == 4:
            first = first_pc_kst_witness(G, 2, 2)
            if first is not None:
                (a, b), (u, v) = first
                return (a, u, b, v)
            continue
        for first in range(G.n):
            for rest in permutations(range(first + 1, G.n), L - 1):
                cyc = (first,) + rest
                cols = [_col(cmap, cyc[i], cyc[(i + 1) % L]) for i in range(L)]
                if None in cols:
                    continue
                if all(cols[i] != cols[(i + 1) % L] for i in range(L)):
                    return cyc
    return None


def brute_one_color_core(G) -> list[int]:
    """The vertices left, ascending, after deleting one at a time any
    vertex that sees fewer than two colors on its edges to the vertices
    still there, until none is left; the colors are read from G.edges anew
    after every deletion."""
    alive = set(range(G.n))
    while True:
        for v in sorted(alive):
            seen = {c for a, b, c in G.edges if v in (a, b) and a in alive and b in alive}
            if len(seen) < 2:
                alive.discard(v)
                break
        else:
            return sorted(alive)


def brute_walk_classes(G) -> list[tuple[int, list[int]]]:
    """Sorted (period, vertices) of each strongly connected component with
    a cycle in the explicit color-transition graph of G.

    States are (v, c) for each color c at v; (v, c) -> (w, c') for each
    edge {v, w} of color c' != c. Components are read off mutual
    reachability. A component's period is the gcd of the lengths of the
    closed walks through one of its states x, up to 3N for a component of N
    states: for each simple cycle C in it, x -> C -> x by shortest paths
    (at most 2N - 2 arcs) is such a walk with and without one turn round C,
    so the gcd divides |C|.
    """
    succ = {}
    for u, v, c in G.edges:
        succ.setdefault((u, c), [])
        succ.setdefault((v, c), [])
    for (v, c) in succ:
        for a, b, d in G.edges:
            if d != c and v in (a, b):
                succ[(v, c)].append((b if v == a else a, d))

    def reach(x):  # states reachable from x by one or more arcs
        seen, todo = set(), list(succ[x])
        while todo:
            y = todo.pop()
            if y not in seen:
                seen.add(y)
                todo.extend(succ[y])
        return seen

    after = {x: reach(x) for x in succ}
    classes, done = [], set()
    for x in succ:
        if x in done or x not in after[x]:
            continue
        comp = {y for y in after[x] if x in after[y]}
        done |= comp
        period, layer = 0, {x}
        for length in range(1, 3 * len(comp) + 1):
            layer = {z for y in layer for z in succ[y] if z in comp}
            if x in layer:
                period = gcd(period, length)
        classes.append((period, sorted({v for v, _ in comp})))
    return sorted(classes)


def full_hub_walk_classes(G, core) -> list[tuple[int, list[int]]]:
    """(period, vertices) of each walk class of G, as the hub pass found
    them on the one-color core before it listed each class's mirror from
    the class itself and built its graph as it reached it: Tarjan over the
    whole hub graph, built up front with every vertex's hubs, every node a
    root, so it explores both halves of a mirror pair. The reference for the
    classes of _walk_classes, up to order; it keeps no clock.
    """
    n = G.n
    live = bytearray(n)
    for v in core:
        live[v] = 1
    by_color = [{} for _ in range(n)]
    state = [{} for _ in range(n)]
    owner = []
    for v in core:
        for w, c in G.adj[v]:
            if live[w]:
                by_color[v].setdefault(c, []).append(w)
        for c in by_color[v]:
            state[v][c] = len(owner)
            owner.append(v)
    states = len(owner)
    succ = [[] for _ in owner]

    def node(targets):
        succ.append(targets)
        return len(succ) - 1

    for v in core:
        exits = [
            state[ws[0]][c] if len(ws) == 1 else node([state[w][c] for w in ws])
            for c, ws in by_color[v].items()
        ]
        k = len(exits)
        prefix = exits[:1]
        for i in range(1, k - 1):
            prefix.append(node([prefix[-1], exits[i]]))
        suffix = exits[-1:]
        for i in range(k - 2, 0, -1):
            suffix.append(node([suffix[-1], exits[i]]))
        for i, own in enumerate(state[v].values()):
            if i > 0:
                succ[own].append(prefix[i - 1])
            if i < k - 1:
                succ[own].append(suffix[k - 2 - i])

    size = len(succ)
    index, low, depth, slack = [0] * size, [0] * size, [0] * size, [0] * size
    on_stack = bytearray(size)
    stack, classes, seen = [], [], 0
    for root in range(size):
        if index[root]:
            continue
        seen += 1
        index[root] = low[root] = seen
        stack.append(root)
        on_stack[root] = 1
        frames = [(root, iter(succ[root]))]
        while frames:
            u, todo = frames[-1]
            for w in todo:
                if not index[w]:
                    seen += 1
                    index[w] = low[w] = seen
                    depth[w] = depth[u] + (u < states)
                    stack.append(w)
                    on_stack[w] = 1
                    frames.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    slack[u] = gcd(slack[u], depth[u] + (u < states) - depth[w])
                    low[u] = min(low[u], index[w])
            else:
                frames.pop()
                if frames:
                    low[frames[-1][0]] = min(low[frames[-1][0]], low[u])
                if low[u] == index[u]:
                    members = []
                    while True:
                        x = stack.pop()
                        on_stack[x] = 0
                        members.append(x)
                        if x == u:
                            break
                    if len(members) > 1:
                        period = 0
                        for x in members:
                            period = gcd(period, slack[x])
                        classes.append((period, sorted({owner[x] for x in members if x < states})))
    return classes


def brute_subset_density_ok(pairs, n, size, cap) -> bool:
    """True when every size-subset of range(n) spans fewer than cap of the
    given pairs, read off each subset in turn."""
    return all(
        sum(1 for u, v in pairs if u in S and v in S) < cap
        for S in map(set, combinations(range(n), size))
    )


def restart_scan_greedy(G, side1, side2, s, x):
    """The saturation greedy as specified, recomputed from G.edges.

    Each side-1 vertex keeps its edge to the smallest neighbor of each
    color. Then, until no vertex qualifies, the scan restarts at the
    smallest side-1 id and picks the first unselected vertex with at least
    max(1, ceil(x)) fresh neighbors: unsaturated side-2 vertices joined by
    a color they have not seen from the picked set, a side-2 vertex being
    saturated once it has seen s-1 colors. Returns (selected, kept_colors)
    as SaturationState lays them out.
    """
    need = max(1, ceil(x - 1e-9))
    side2 = sorted(side2)
    g0 = {}
    for u in sorted(side1):
        first = {}
        for a, b, c in sorted(G.edges):
            if u in (a, b):
                v = b if a == u else a
                if c not in first or v < first[c]:
                    first[c] = v
        g0[u] = [(v, c) for c, v in first.items()]

    def seen(picked):
        out = {v: set() for v in side2}
        for u in picked:
            for v, c in g0[u]:
                out[v].add(c)
        return out

    selected = []
    kept_colors = {}
    while True:
        cols = seen(selected)
        pick = next(
            (u for u in sorted(side1) if u not in selected
             and sum(len(cols[v]) < s - 1 and c not in cols[v] for v, c in g0[u]) >= need),
            None,
        )
        if pick is None:
            break
        selected.append(pick)
        after = seen(selected)
        for v in side2:
            if v not in kept_colors and len(after[v]) >= s - 1:
                kept_colors[v] = frozenset(after[v])
    for v in side2:
        if v not in kept_colors:
            kept_colors[v] = frozenset(cols[v])
    return selected, kept_colors


def first_refused_row(build, rows):
    """(index, message) of the first row that build refuses, replaying build
    over the prefixes rows[:1], rows[:2], ... in turn; None when build
    accepts every prefix."""
    for k in range(1, len(rows) + 1):
        try:
            build(rows[:k])
        except ValueError as e:
            return k - 1, str(e)
    return None


def reference_rows(lines, line_no, m, width):
    """The body lines[line_no:] as m rows of `width` integers, or ValueError.

    Counts each body line's fields by splitting that line alone: exactly m
    lines must have `width` fields and every other one none. Then every
    body token goes through one int map.
    """
    body = lines[line_no:]
    widths = list(map(len, map(str.split, body)))
    if widths.count(width) != m or widths.count(0) != len(body) - m:
        raise ValueError(f"expected {m} body lines of {width} fields")
    fields = map(_Ints().__getitem__, " ".join(body).split())
    return list(zip(*[fields] * width))


def set_based_edges(n, edges, bipartition=None):
    """The edges EdgeColoredGraph(n, edges, bipartition) stores, or the
    ValueError it raises, by one loop that hashes every edge's key into a
    duplicate set and sorts the edges at the end, whatever their order."""
    _require_int("vertex count", n, 0)
    seen = set()
    norm = []
    for e in edges:
        u, v, c = e
        if not (type(u) is int and 0 <= u < n):
            _require_vertex(n, u)
        if not (type(v) is int and 0 <= v < n):
            _require_vertex(n, v)
        if u == v:
            raise ValueError(f"loop at vertex {u} is not allowed")
        if not (type(c) is int and c >= 0):
            _require_color(c)
        if u > v:
            u, v = v, u
            e = (u, v, c)
        elif type(e) is not tuple:
            e = (u, v, c)
        key = u * n + v
        if key in seen:
            raise ValueError(f"duplicate edge {{{u},{v}}}")
        seen.add(key)
        norm.append(e)
    bip = _normalize_bipartition(n, bipartition)
    if bip is not None:
        for a, b, _c in norm:
            if (a in bip[0]) == (b in bip[0]):
                raise ValueError(f"edge {{{a},{b}}} does not cross the bipartition")
    norm.sort()
    return tuple(norm)


def per_arc_oriented_graph(n, arcs):
    """The arcs OrientedGraph(n, arcs) stores, or the ValueError it raises,
    by one loop that checks each arc on its own, in input order."""
    _require_int("vertex count", n, 0)
    tails = {}
    norm = []
    for a in arcs:
        t, h = a
        _check_arc(n, tails, t, h)
        norm.append(a if type(a) is tuple else (t, h))
    norm.sort()
    return tuple(norm)


def min_max_signature(D):
    """signature(D), built from rows (min, max, head) in D's arc order."""
    return EdgeColoredGraph(D.n, [(min(t, h), max(t, h), h) for t, h in D.arcs])


def looped_circulant_tournament(n):
    """circulant_tournament(n), its arcs appended by two nested loops."""
    _require_int("n", n, 3)
    arcs = []
    half = (n - 1) // 2 if n % 2 else n // 2 - 1
    for i in range(n):
        for j in range(1, half + 1):
            arcs.append((i, (i + j) % n))
    if n % 2 == 0:
        for i in range(n // 2):
            arcs.append((i, i + n // 2))
    return OrientedGraph(n, arcs)


def two_build_blowup_cycle_signature(r, k):
    """blowup_cycle_signature(r, k), with even r built twice: the signature
    first, then the same edges again with the bipartition."""
    _require_int("r", r, 3)
    if r % 2:
        cycle = OrientedGraph(r, [(i, (i + 1) % r) for i in range(r)])
        return min_max_signature(blow_up(cycle, k))
    h = r // 2
    at = [p // 2 + (p % 2) * h for p in range(r)]
    G = min_max_signature(blow_up(OrientedGraph(r, [(at[p - 1], at[p]) for p in range(r)]), k))
    return EdgeColoredGraph(G.n, G.edges, bipartition=(range(h * k), range(h * k, r * k)))


def edge_order_dual_graph(G):
    """dual_graph(G), its rows (u, n+v, c), (v, n+u, c) appended in G's
    edge order."""
    n = G.n
    edges = []
    for u, v, c in G.edges:
        edges.append((u, n + v, c))
        edges.append((v, n + u, c))
    return EdgeColoredGraph(2 * n, edges, bipartition=(range(n), range(n, 2 * n)))


def brute_return_lengths(G, start, allowed, limit) -> dict:
    """{(w, c): the fewest edges of a properly colored walk from w, entered
    by an edge of color c, to start, with every vertex but start in allowed}
    for each w in allowed and color c at w, where that is at most limit.

    Walks through the explicit (vertex, entry color) states one edge at a
    time, for each state on its own.
    """
    colors_at: dict[int, set] = {}
    for u, v, c in G.edges:
        colors_at.setdefault(u, set()).add(c)
        colors_at.setdefault(v, set()).add(c)
    lengths = {}
    for w in allowed:
        for c in colors_at.get(w, ()):
            layer = {(w, c)}
            for length in range(1, limit + 1):
                steps = {
                    (b if v == a else a, d)
                    for v, e in layer
                    for a, b, d in G.edges
                    if d != e and v in (a, b)
                }
                if any(x == start for x, _ in steps):
                    lengths[(w, c)] = length
                    break
                layer = {(x, d) for x, d in steps if x in allowed}
    return lengths


def claimed_edges(host, kind, groups):
    """The host edges (arcs for a directed cycle) on the pairs that the
    vertex groups of a kind-witness need, repeats kept."""
    if kind.endswith("kst"):
        pairs = [(u, v) for u in groups[0] for v in groups[1]]
    else:
        pairs = [(c[i], c[(i + 1) % len(c)]) for c in groups for i in range(len(c))]
    if kind == "directed-cycle":
        arcs = {a[:2]: a for a in host.arcs}
        return [arcs[p] for p in pairs]
    return sorted((min(p), max(p), host.color_of(*p)) for p in pairs)


def without_vertices(G, dead) -> EdgeColoredGraph:
    """G rebuilt from its edge list without the edges at the vertices of
    dead, which stay behind as isolated vertices."""
    return EdgeColoredGraph(
        G.n, [(u, v, c) for u, v, c in G.edges if u not in dead and v not in dead]
    )


def staged_pc_cycle(walks, lengths):
    """The groups (cycle,) of the properly colored cycle that the two stages
    of the pipeline found in the graph of walks over the lengths, or None:
    first the K_{2,2} scan, read as a C4, when the lengths start with 4 and
    G has four vertices, then, unless the peel left nothing, the cycle DFS
    over the lengths left. walks.details gets the stage that found the
    cycle: 1 for the scan, 3 for the DFS. The reference that the one driver
    over the same lengths must match.
    """
    found = None
    if lengths[0] == 4:
        lengths = lengths[1:]
        if walks.G.n >= 4:
            found = _c4(_kst_impl(2, 2, False, walks))
            if found is not None:
                walks.details["stage"] = 1
    if found is None and walks.core():
        found = _pc_cycle_impl(lengths, walks)
        if found is not None:
            walks.details["stage"] = 3
    return found


def staged_pipeline(G, r, budget=None):
    """pc_short_cycle_pipeline run through staged_pc_cycle."""
    details = {"r": r}
    return _search(
        budget,
        lambda clock: staged_pc_cycle(_WalkClasses(G, clock, details), (4, 3, *range(5, r + 1))),
        details, G, "pc-cycle",
    )


def one_driver_round(walks, lengths):
    """A round of disjoint_pc_cycles: the one driver over the lengths."""
    return _pc_cycle_impl(lengths, walks)


def rebuilt_disjoint_pc_cycles(G, k, budget=None, search=one_driver_round):
    """disjoint_pc_cycles with every round after the first run on a residual
    graph rebuilt by without_vertices, which drops the vertices of the
    cycles found so far: the reference that the package's rounds on a live
    mask of G must match in status, witness, nodes and details. As there,
    _packing_bound runs before each round, on the view of the residual and
    the last round's walk classes, the first round's search(walks, lengths)
    tries the lengths 4, 3, 5..max(n, 4), each later round those from the
    length of the last cycle found on, and returns the groups of one cycle;
    _search builds and checks the cycles once, as the disjoint-cycles
    witness on G. With search=staged_pc_cycle, the rounds are those of the
    two-stage search."""
    cycles: list[list[int]] = []
    details = {"requested": k, "cycles": cycles}

    def body(clock):
        walks = _WalkClasses(G, clock, {})
        lengths = (4, 3, *range(5, max(G.n, 4) + 1))
        classes, last = None, ()
        while len(cycles) < k:
            bound = _packing_bound(k - len(cycles), walks, classes, last)
            if bound:
                details["bound"] = bound
                return None
            found = search(walks, lengths)
            if found is None:
                return None
            last = found[0]
            cycles.append(list(last))
            classes = walks.classes
            residual = without_vertices(G, {v for cyc in cycles for v in cyc})
            walks = _WalkClasses(residual, clock, {})
            lengths = lengths[lengths.index(len(last)):]
        return cycles

    return _search(budget, body, details, G, "disjoint-cycles")


def greedy_disjoint_pc_cycles(G, k, budget=None):
    """disjoint_pc_cycles as it ran before it tested whether the cycles
    still needed can fit (_packing_bound): its rounds run to the first that
    finds no cycle. The reference that the bounded rounds must match in
    status and witness, whose partial family must extend theirs, and whose
    node count must be at least theirs."""
    cycles: list[list[int]] = []

    def body(clock):
        walks = _WalkClasses(G, clock, {})
        lengths = _c4_first(G.n)
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


def up_front_pc_cycle(lengths, walks):
    """The groups (cycle,) of the first properly colored cycle found in the
    view walks over the lengths, as _pc_cycle_impl found it when each DFS
    length bought the hub pass before its first start and searched from
    every vertex admitted for it, or None: the reference whose status and
    witness _pc_cycle_impl must keep, whenever its rent runs out."""
    G, clock = walks.G, walks.clock
    n = G.n
    adj = G.adj
    switch = _WALK_SWITCH * walks.m
    for L in lengths:
        if L > n:
            continue
        if L == 4:
            found = _c4(_kst_impl(2, 2, False, walks))
            if found is not None:
                return found
            continue
        colors = G.pair_colors
        admitted = walks.admitted(L)
        free = bytearray(n)
        for v in admitted:
            free[v] = 1
        for start in admitted:
            path = [start]
            cols = [-1]
            frames = [iter(adj[start])]
            first = None
            mark = clock.nodes + switch
            while frames:
                if first is None and clock.nodes >= mark:
                    first, near, via = _return_table(
                        adj, start, admitted, L - 1, clock, walks.live
                    )
                for w, c in frames[-1]:
                    if w <= start or not free[w] or c == cols[-1]:
                        continue
                    if first is not None and (near[w] if c != first[w] else via[w]) > L - len(path):
                        continue
                    clock.tick()
                    if len(path) < L - 1:
                        path.append(w)
                        cols.append(c)
                        free[w] = 0
                        frames.append(iter(adj[w]))
                        break
                    clock.tick()
                    closing = colors.get((start, w))
                    if closing is not None and closing != c and closing != cols[1]:
                        return ((*path, w),)
                else:
                    frames.pop()
                    if len(path) > 1:
                        free[path.pop()] = 1
                        cols.pop()
    return None


def up_front_find_pc_cycle_upto(G, r, budget=None):
    """find_pc_cycle_upto run through up_front_pc_cycle."""
    details = {}
    return _search(
        budget,
        lambda clock: up_front_pc_cycle(range(3, r + 1), _WalkClasses(G, clock, details)),
        details, G, "pc-cycle",
    )


def adjacency_firsts(G, side1):
    """{u: one edge per color at u, as (v, c)} for u in side1, read off
    G.adj: the first (v, c) of each color, so the edge to the smallest
    neighbor, and the list stays ascending."""
    g0 = {}
    for u in side1:
        first = {}
        for vc in G.adj[u]:
            first.setdefault(vc[1], vc)
        g0[u] = list(first.values())
    return g0


def adjacency_greedy(G, side1, side2, s, x):
    """The saturation greedy as it ran on G.adj: (kept, state, dc), with
    kept the surviving edges (u, v, c), u in side 1, and dc each side-1
    vertex's color degree."""
    side1 = sorted(side1)
    side2 = sorted(side2)
    need = max(1, ceil(x - 1e-9))
    g0 = adjacency_firsts(G, side1)
    colors_seen = {v: set() for v in side2}
    kept_colors = {}
    selected = []
    for u in side1:
        cnt = 0
        for v, c in g0[u]:
            if v not in kept_colors and c not in colors_seen[v]:
                cnt += 1
                if cnt >= need:
                    break
        if cnt < need:
            continue
        selected.append(u)
        for v, c in g0[u]:
            if c not in colors_seen[v]:
                colors_seen[v].add(c)
                if v not in kept_colors and len(colors_seen[v]) >= s - 1:
                    kept_colors[v] = frozenset(colors_seen[v])
    for v in side2:
        if v not in kept_colors:
            kept_colors[v] = frozenset(colors_seen[v])
    kept = [(u, v, c) for u in side1 for v, c in g0[u] if c in kept_colors[v]]
    dc = {u: len(g0[u]) for u in side1}
    return kept, SaturationState(tuple(selected), kept_colors, x), dc


def adjacency_orient(G, s, t, parts):
    """(arcs, states, report) of the orientation construction over parts as
    it ran on adjacency_greedy: the kept edges of each part in turn, less
    those whose color is kept at the tail as a side-2 vertex."""
    kept = []
    side2_colors = {}
    dc = {}
    states = []
    for side1, side2 in parts:
        part_kept, state, part_dc = adjacency_greedy(G, side1, side2, s, default_x(s, t, len(side2)))
        kept += part_kept
        side2_colors.update(state.kept_colors)
        dc.update(part_dc)
        states.append(state)
    arcs = [e for e in kept if e[2] not in side2_colors[e[0]]]
    D = ColoredOrientation(G, arcs)
    sig = sigma(s, t)
    loss = [0.0] * G.n
    for side1, side2 in parts:
        for v in side1:
            loss[v] = sig * len(side2) ** (1.0 - 1.0 / s) + s
    dplus = [0] * G.n
    for e in arcs:
        dplus[e[0]] += 1
    per_vertex = {}
    for v in range(G.n):
        bound = dc[v] - loss[v]
        per_vertex[v] = {"dplus": dplus[v], "dc": dc[v], "bound": bound,
                         "margin": dplus[v] - bound}
    ls = [state.l for state in states]
    xs = [state.x for state in states]
    if len(states) == 1:
        ls, xs = ls[0], xs[0]
    report = {
        "n": G.n, "per_vertex": per_vertex, "s": s, "t": t, "l": ls, "x": xs, "sigma": sig,
    }
    return D.arcs, states, report
