"""Edge-colored graphs, oriented graphs, and color-degree machinery.

Vertex ids are 0-indexed. Colors are opaque nonnegative integers; there is
no global color registry, so fresh colors can always be allocated above the
current maximum. All values are immutable once constructed and safe to share
across threads; every operation in this module is a pure function.

The constructors of the three graph classes are the one place where
structure is checked (vertex range, loops, colors, duplicate edges or arcs,
anti-parallel pairs, bipartition crossing, host colors); every graph is
checked in full where it is built, whoever builds it. EdgeColoredGraph
checks each edge once; while the rows come in ascending order, as
`chroma.formats` writes them and `chroma.transforms` builds them, no
duplicate set is kept and no sort runs. OrientedGraph checks each arc once,
in input order, with _check_arc.
A ColoredOrientation is checked through its support, the graph of its
arcs' edges: sorted, they must be a strictly increasing subsequence of the
host's sorted edges, which one merge pass decides, and every value must be
an int. That proves every rule of the support from the checked host, so
the support needs no second per-edge loop; it is the host itself when the
arcs cover every host edge. The parsers in `chroma.formats` check only
syntax and map a constructor's rejection back to a line number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import contains, itemgetter
from typing import Optional


def _require_int(name: str, value: object, lo: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")


def _require_real(name: str, value: object, lo: float, hi: float, lo_open: bool = False) -> float:
    """Return value as a float if it is a finite int or float (not a bool)
    in [lo, hi], or in (lo, hi] when lo_open; raise ValueError otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            x = math.inf
        if math.isfinite(x) and (lo < x if lo_open else lo <= x) and x <= hi:
            return x
    interval = f"{'(' if lo_open else '['}{lo}, {hi}{']' if hi < math.inf else ')'}"
    raise ValueError(f"{name} must be a finite real in {interval}, got {value!r}")


def _require_vertex(n: int, v: object) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
        raise ValueError(f"invalid vertex id {v!r} for a graph on {n} vertices")
    return v


def _require_color(c: object) -> None:
    if not isinstance(c, int) or isinstance(c, bool) or c < 0:
        raise ValueError(f"color must be a nonnegative integer, got {c!r}")


def _check_arc(n: int, tails: dict, t, h) -> None:
    """Check t -> h as the next arc of an oriented graph on n vertices.

    tails maps the unordered pair of each earlier arc, keyed as the int
    min * n + max, to its tail; the arc is recorded there.
    """
    # The fast guard accepts plain ints in range; _require_vertex decides
    # everything else (bool is rejected, int subclasses are accepted).
    if not (type(t) is int and 0 <= t < n):
        _require_vertex(n, t)
    if not (type(h) is int and 0 <= h < n):
        _require_vertex(n, h)
    if t == h:
        raise ValueError(f"loop at vertex {t} is not allowed")
    key = t * n + h if t < h else h * n + t
    first = tails.get(key)
    if first is not None:
        if first == t:
            raise ValueError(f"duplicate arc ({t},{h})")
        raise ValueError(f"anti-parallel arc pair between {t} and {h}")
    tails[key] = t


def _normalize_bipartition(n, bipartition):
    if bipartition is None:
        return None
    side1, side2 = bipartition
    s1 = frozenset(_require_vertex(n, v) for v in side1)
    s2 = frozenset(_require_vertex(n, v) for v in side2)
    if s1 & s2:
        raise ValueError("bipartition sides overlap")
    if len(s1) + len(s2) != n:
        raise ValueError("bipartition does not cover the vertex set")
    return (s1, s2)


@dataclass(frozen=True)
class EdgeColoredGraph:
    """Simple undirected graph with one integer color per edge.

    Edges are stored canonically as (u, v, c) with u < v, sorted ascending;
    a row that is already a plain tuple with u < v is stored as given. The
    optional bipartition is a pair of disjoint vertex sets covering all
    vertices; when present, every edge must cross it.

    Each row's vertices, loop and color are checked in input order, and so
    is its pair against the earlier ones: while the keys u * n + v strictly
    ascend, each is only compared with the last, since ascending rows are
    distinct and already sorted; from the first key that does not ascend
    on, every key goes into a duplicate set and the rows are sorted.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...] = ()
    bipartition: Optional[tuple[frozenset[int], frozenset[int]]] = None

    def __post_init__(self):
        n = self.n
        _require_int("vertex count", n, 0)
        # At the first key that does not ascend, seen takes every key so far
        # and last jumps past every key, so each later one goes through seen.
        seen: Optional[set[int]] = None
        last = -1
        norm = []
        for e in self.edges:
            u, v, c = e
            # Fast guards for plain ints; the helpers decide everything else.
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
            if key > last:
                last = key
            else:
                if seen is None:
                    seen = {a * n + b for a, b, _c in norm}
                    last = n * n
                if key in seen:
                    raise ValueError(f"duplicate edge {{{u},{v}}}")
                seen.add(key)
            norm.append(e)  # the caller's tuple when it is already canonical
        bip = _normalize_bipartition(n, self.bipartition)
        if bip is not None:
            s1 = bip[0]
            for a, b, _c in norm:  # input order: the first bad edge is named
                if (a in s1) == (b in s1):
                    raise ValueError(f"edge {{{a},{b}}} does not cross the bipartition")
        if seen is not None:
            norm.sort()
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "bipartition", bip)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-vertex tuple of (neighbor, color) pairs, neighbors ascending."""
        lists: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for u, v, c in self.edges:
            lists[u].append((v, c))
            lists[v].append((u, c))
        # Edges are sorted with u < v, so each list is built in ascending order.
        return tuple(map(tuple, lists))

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(map(itemgetter(0), nbrs)) for nbrs in self.adj)

    @cached_property
    def pair_colors(self) -> dict[tuple[int, int], int]:
        return {(u, v): c for u, v, c in self.edges}

    def has_edge(self, u: int, v: int) -> bool:
        a, b = (u, v) if u < v else (v, u)
        return (a, b) in self.pair_colors

    def color_of(self, u: int, v: int) -> int:
        a, b = (u, v) if u < v else (v, u)
        try:
            return self.pair_colors[(a, b)]
        except KeyError:
            raise ValueError(f"edge {{{u},{v}}} not in graph") from None


@dataclass(frozen=True)
class OrientedGraph:
    """Loop-free digraph with no anti-parallel arc pairs.

    Arcs are stored as (tail, head) tuples, sorted ascending; an arc that is
    already a plain tuple is stored as given. One pass of _check_arc checks
    each arc in input order, so the first bad arc is the one named.
    """

    n: int
    arcs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        n = self.n
        _require_int("vertex count", n, 0)
        tails: dict[int, int] = {}
        norm = []
        for a in self.arcs:
            t, h = a
            _check_arc(n, tails, t, h)
            norm.append(a if type(a) is tuple else (t, h))
        norm.sort()
        object.__setattr__(self, "arcs", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.arcs)

    @cached_property
    def out_adj(self) -> tuple[tuple[int, ...], ...]:
        lists: list[list[int]] = [[] for _ in range(self.n)]
        for t, h in self.arcs:
            lists[t].append(h)
        # Arcs are sorted, so each list is built in ascending order.
        return tuple(map(tuple, lists))

    @cached_property
    def in_adj(self) -> tuple[tuple[int, ...], ...]:
        lists: list[list[int]] = [[] for _ in range(self.n)]
        for t, h in self.arcs:
            lists[h].append(t)
        return tuple(map(tuple, lists))

    def out_degree(self, v: int) -> int:
        _require_vertex(self.n, v)
        return len(self.out_adj[v])

    def in_degree(self, v: int) -> int:
        _require_vertex(self.n, v)
        return len(self.in_adj[v])


# Stands in for a missing host edge; unlike None, it equals no arc's color.
_NO_EDGE = object()


def _reject_arcs(host: EdgeColoredGraph, arcs) -> None:
    """Raise the error for the first arc, in input order, that cannot be an
    arc of a ColoredOrientation of host; run only on arcs already known to
    be refused, so its per-arc checks name the first offending arc."""
    n = host.n
    host_colors = host.pair_colors
    tails: dict[int, int] = {}
    for t, h, c in arcs:
        _check_arc(n, tails, t, h)
        if host_colors.get((t, h) if t < h else (h, t), _NO_EDGE) != c:
            raise ValueError(f"arc ({t},{h},{c}) does not match a host edge")
        if type(c) is not int:  # True and 1.0 equal a host color 1
            _require_color(c)


def _host_subgraph(host: EdgeColoredGraph, edges: list) -> EdgeColoredGraph:
    """The EdgeColoredGraph of edges, with host's vertex count and
    bipartition, built without the constructor's per-edge loop.

    Precondition: edges is a strictly increasing subsequence of host.edges,
    so it is sorted and distinct, and every rule the constructor checks
    holds for it because it holds for the checked host. Only
    ColoredOrientation's constructor, which proves that, calls this. When
    edges covers every host edge, the subgraph is host itself.
    """
    if len(edges) == len(host.edges):
        return host
    sub = object.__new__(EdgeColoredGraph)
    object.__setattr__(sub, "n", host.n)
    object.__setattr__(sub, "edges", tuple(edges))
    object.__setattr__(sub, "bipartition", host.bipartition)
    return sub


@dataclass(frozen=True)
class ColoredOrientation:
    """Arcs paired with colors inherited from a host edge-colored graph.

    Every arc's underlying pair must be a host edge carrying the same color,
    and the arc set must satisfy the OrientedGraph invariants. support is
    the arcs' underlying EdgeColoredGraph, with the host's bipartition. It
    is made once, from the checked arcs, and the orientation constructions
    return it as H (H is D.support). Its edges are proved a strictly
    increasing subsequence of the host's, so every rule of its constructor
    holds already and no per-edge loop runs again; when the arcs cover
    every host edge, the support is the host itself.
    """

    host: EdgeColoredGraph
    arcs: tuple[tuple[int, int, int], ...] = ()
    support: EdgeColoredGraph = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check the arcs by proving their support a part of the host.

        Each arc becomes its edge (min, max, c), and the edges are sorted.
        They are accepted when every value's type is int or an int subclass
        other than bool, and every edge is a host edge: both edge lists are
        sorted, so each `in` resumes one iterator over the host's edges
        where the last one stopped, and no host edge is hashed. The edges
        then form a strictly increasing subsequence of the checked host's,
        so they hold no duplicate or anti-parallel pair, and vertex range,
        loops, colors and bipartition crossing hold as they hold for the
        host: no check of the support's constructor is left to run.
        Refused arcs go to _reject_arcs, whose per-arc checks name the
        first bad one.
        """
        host = self.host
        arcs = self.arcs
        if not isinstance(arcs, (list, tuple)):  # read twice below
            arcs = list(arcs)
        try:
            edges = [(t, h, c) if t < h else (h, t, c) for t, h, c in arcs]
            edges.sort()
        except (TypeError, ValueError):  # a row that cannot be unpacked or ordered
            edges = None
        if (edges is None
                or not all(issubclass(tp, int) and tp is not bool
                           for tp in set(map(type, chain.from_iterable(edges))))
                or not all(map(contains, repeat(iter(host.edges)), edges))):
            _reject_arcs(host, arcs)
            raise RuntimeError("internal error: refused arcs passed every per-arc check")
        object.__setattr__(self, "arcs", tuple(sorted(map(tuple, arcs))))
        object.__setattr__(self, "support", _host_subgraph(host, edges))

    @property
    def n(self) -> int:
        return self.host.n

    @property
    def m(self) -> int:
        return len(self.arcs)

    @cached_property
    def out_adj(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        lists: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for t, h, c in self.arcs:
            lists[t].append((h, c))
        # Arcs are sorted, so each list is built in ascending order.
        return tuple(map(tuple, lists))

    def out_degree(self, v: int) -> int:
        _require_vertex(self.n, v)
        return len(self.out_adj[v])


@dataclass(frozen=True)
class Witness:
    """A found structure together with the data needed to re-verify it.

    kind is one of: pc-kst, rainbow-kst, pc-cycle, rainbow-cycle,
    directed-cycle, disjoint-cycles. vertices holds one or more ordered
    vertex groups (the two sides of a K_{s,t}, a cycle in traversal order,
    or several disjoint cycles). edges are (u, v, c) triples for colored
    hosts and (tail, head) pairs for plain digraphs.
    """

    kind: str
    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, ...], ...]

    WITNESS_KINDS = (
        "pc-kst",
        "rainbow-kst",
        "pc-cycle",
        "rainbow-cycle",
        "directed-cycle",
        "disjoint-cycles",
    )

    def __post_init__(self):
        if self.kind not in self.WITNESS_KINDS:
            raise ValueError(f"unknown witness kind {self.kind!r}")
        object.__setattr__(self, "vertices", tuple(tuple(g) for g in self.vertices))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": [list(g) for g in self.vertices],
            "edges": [list(e) for e in self.edges],
        }


# ---------------------------------------------------------------------------
# Color-degree metrics
# ---------------------------------------------------------------------------

def color_degree(G: EdgeColoredGraph, v: int) -> int:
    """Number of distinct colors on the edges at v (0 for isolated vertices)."""
    _require_vertex(G.n, v)
    return len({c for _, c in G.adj[v]})


def min_color_degree(G: EdgeColoredGraph) -> int:
    if G.n == 0:
        raise ValueError("minimum color degree of the empty graph is undefined")
    return min(color_degree(G, v) for v in range(G.n))


def total_color_degree(G: EdgeColoredGraph) -> int:
    return sum(color_degree(G, v) for v in range(G.n))


def mono_degree(G: EdgeColoredGraph, v: int) -> int:
    """Largest number of edges at v sharing one color (0 for isolated vertices)."""
    _require_vertex(G.n, v)
    counts: dict[int, int] = {}
    for _, c in G.adj[v]:
        counts[c] = counts.get(c, 0) + 1
    return max(counts.values(), default=0)


def mono_degree_max(G: EdgeColoredGraph) -> int:
    return max((mono_degree(G, v) for v in range(G.n)), default=0)


def color_set(G: EdgeColoredGraph, v: int) -> frozenset[int]:
    """Set of colors appearing on the edges at v."""
    _require_vertex(G.n, v)
    return frozenset(c for _, c in G.adj[v])


# ---------------------------------------------------------------------------
# Subgraph predicates
# ---------------------------------------------------------------------------

def _resolve_edges(G: EdgeColoredGraph, edge_subset) -> list[tuple[int, int, int]]:
    """Normalize an edge collection to unique (u, v, c) triples of G.

    Entries may be (u, v) pairs or (u, v, c) triples; a pair not present in
    G, or a triple whose color disagrees with G, is rejected.
    """
    out: dict[tuple[int, int], int] = {}
    for e in edge_subset:
        e = tuple(e)
        if len(e) == 2:
            u, v = e
            c = None
        elif len(e) == 3:
            u, v, c = e
        else:
            raise ValueError(f"edge entry {e!r} is neither a pair nor a triple")
        a, b = (u, v) if u < v else (v, u)
        actual = G.pair_colors.get((a, b))
        if actual is None:
            raise ValueError(f"edge {{{u},{v}}} not in graph")
        if c is not None and c != actual:
            raise ValueError(f"edge {{{u},{v}}} has color {actual}, not {c}")
        out[(a, b)] = actual
    return [(a, b, c) for (a, b), c in out.items()]


def is_properly_colored(G: EdgeColoredGraph, edge_subset) -> bool:
    """True when no two edges of the subset share both a vertex and a color."""
    at_vertex: dict[int, set[int]] = {}
    for u, v, c in _resolve_edges(G, edge_subset):
        for x in (u, v):
            colors = at_vertex.setdefault(x, set())
            if c in colors:
                return False
            colors.add(c)
    return True


def is_rainbow(G: EdgeColoredGraph, edge_subset) -> bool:
    """True when all edges of the subset carry pairwise distinct colors."""
    resolved = _resolve_edges(G, edge_subset)
    return len({c for _, _, c in resolved}) == len(resolved)

