import enum
import random
import re
from collections import namedtuple
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chroma.core import (
    ColoredOrientation,
    EdgeColoredGraph,
    OrientedGraph,
    color_degree,
    color_set,
    is_properly_colored,
    is_rainbow,
    min_color_degree,
    mono_degree,
    mono_degree_max,
    total_color_degree,
)
from chroma.constructions import (
    RecolorParams,
    blowup_cycle_signature,
    circulant_tournament,
    directed_cycle,
    extremal_no_pc_c4,
    extremal_no_rainbow_c4_trianglefree,
    random_bipartite_edge_colored,
    random_edge_colored_graph,
    random_oriented_graph,
    random_proper_complete_bipartite,
    transitive_tournament,
)
from chroma.detectors import (
    SearchBudget,
    check_total_degree_threshold,
    disjoint_pc_cycles,
    extract_rainbow_kst,
    find_pc_cycle_upto,
    find_pc_kst,
    find_rainbow_kst,
    pc_short_cycle_pipeline,
)
from chroma.extraction import (
    construct_orientation,
    construct_orientation_bipartite,
    default_x,
    saturation_extract,
    sigma,
)
from chroma.formats import parse_corg, render_corg
from chroma.suites import analyze, run_suite
from chroma.transforms import blow_up, signature
from oracles import per_arc_oriented_graph, set_based_edges


def mono_triangle():
    return EdgeColoredGraph(3, [(0, 1, 5), (1, 2, 5), (0, 2, 5)])


def rainbow_k(n):
    edges = []
    c = 0
    for u in range(n):
        for v in range(u + 1, n):
            edges.append((u, v, c))
            c += 1
    return EdgeColoredGraph(n, edges)


def seeded_graph(seed, max_n=12, max_colors=6):
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    return random_edge_colored_graph(
        n, rng.choice([0.2, 0.5, 0.8]), rng.randint(1, max_colors), rng.getrandbits(32)
    )


class TestInvariants:
    def test_rejects_loop(self):
        with pytest.raises(ValueError, match="loop"):
            EdgeColoredGraph(3, [(1, 1, 0)])

    def test_rejects_duplicate_pair_any_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            EdgeColoredGraph(3, [(0, 1, 0), (1, 0, 2)])

    def test_rejects_negative_color(self):
        with pytest.raises(ValueError, match="color"):
            EdgeColoredGraph(3, [(0, 1, -1)])

    def test_rejects_bad_vertex(self):
        with pytest.raises(ValueError, match="vertex"):
            EdgeColoredGraph(2, [(0, 2, 0)])

    def test_color_of_a_non_edge(self):
        G = EdgeColoredGraph(3, [(0, 1, 4)])
        assert G.color_of(1, 0) == 4
        with pytest.raises(ValueError, match=re.escape("edge {2,0} not in graph")):
            G.color_of(2, 0)

    def test_canonical_storage(self):
        G = EdgeColoredGraph(4, [(3, 1, 7), (2, 0, 1)])
        assert G.edges == ((0, 2, 1), (1, 3, 7))

    def test_bipartition_must_cover_and_cross(self):
        with pytest.raises(ValueError, match="cover"):
            EdgeColoredGraph(3, [], bipartition=([0], [1]))
        with pytest.raises(ValueError, match="overlap"):
            EdgeColoredGraph(2, [], bipartition=([0, 1], [1]))
        with pytest.raises(ValueError, match="cross"):
            EdgeColoredGraph(3, [(1, 2, 0)], bipartition=([0], [1, 2]))

    def test_oriented_graph_rejects_antiparallel(self):
        with pytest.raises(ValueError, match="anti-parallel"):
            OrientedGraph(2, [(0, 1), (1, 0)])

    def test_colored_orientation_must_match_host(self):
        host = EdgeColoredGraph(3, [(0, 1, 4)])
        assert ColoredOrientation(host, [(1, 0, 4)]).arcs == ((1, 0, 4),)
        with pytest.raises(ValueError, match="host"):
            ColoredOrientation(host, [(0, 1, 5)])
        with pytest.raises(ValueError, match="host"):
            ColoredOrientation(host, [(0, 2, 4)])
        # A bool or a float that equals the host's color is still no color.
        host = EdgeColoredGraph(3, [(0, 1, 1), (1, 2, 0)])
        for arc in [(0, 1, True), (0, 1, 1.0), (2, 1, False), (2, 1, 0.0)]:
            with pytest.raises(ValueError) as exc:
                ColoredOrientation(host, [arc])
            assert str(exc.value) == f"color must be a nonnegative integer, got {arc[2]!r}"


class Vertex(enum.IntEnum):
    A = 0
    B = 1
    C = 2


class TestRejectionText:
    """The exact accepted set and error text of the constructors."""

    @pytest.mark.parametrize(
        "edge,message",
        [
            ((True, 1, 0), "invalid vertex id True for a graph on 2 vertices"),
            ((0, 1, True), "color must be a nonnegative integer, got True"),
            ((0.0, 1, 0), "invalid vertex id 0.0 for a graph on 2 vertices"),
            ((0, 1, 0.0), "color must be a nonnegative integer, got 0.0"),
            ((0, 2, 0), "invalid vertex id 2 for a graph on 2 vertices"),
            ((-1, 1, 0), "invalid vertex id -1 for a graph on 2 vertices"),
            ((0, 1, -1), "color must be a nonnegative integer, got -1"),
        ],
    )
    def test_edge_rejection_text(self, edge, message):
        with pytest.raises(ValueError) as exc:
            EdgeColoredGraph(2, [edge])
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "arcs,message",
        [
            ([(True, 1)], "invalid vertex id True for a graph on 2 vertices"),
            ([(0, 1.0)], "invalid vertex id 1.0 for a graph on 2 vertices"),
            ([(1, 1)], "loop at vertex 1 is not allowed"),
            ([(0, 1), (0, 1)], "duplicate arc (0,1)"),
            ([(0, 1), (1, 0)], "anti-parallel arc pair between 1 and 0"),
        ],
    )
    def test_arc_rejection_text(self, arcs, message):
        with pytest.raises(ValueError) as exc:
            OrientedGraph(2, arcs)
        assert str(exc.value) == message
        host = EdgeColoredGraph(2, [(0, 1, 3)])
        with pytest.raises(ValueError) as exc:
            ColoredOrientation(host, [(t, h, 3) for t, h in arcs])
        assert str(exc.value) == message

    def test_int_subclass_vertices_accepted(self):
        G = EdgeColoredGraph(3, [(Vertex.B, Vertex.A, 4), (Vertex.C, 1, 5)])
        assert G.edges == ((0, 1, 4), (1, 2, 5))
        D = OrientedGraph(3, [(Vertex.C, Vertex.A)])
        assert D.arcs == ((2, 0),)
        co = ColoredOrientation(G, [(Vertex.A, Vertex.B, 4)])
        assert co.arcs == ((0, 1, 4),)

    @pytest.mark.parametrize(
        "edges,message",
        [
            ([(0, 5, 0), (1, 1, 0)], "invalid vertex id 5"),
            ([(1, 1, 0), (0, 5, 0)], "loop at vertex 1"),
            ([(0, 1, -1), (2, 1, 0), (1, 2, 0)], "got -1"),
            ([(2, 1, 0), (1, 2, 0), (0, 1, -1)], "duplicate edge {1,2}"),
        ],
    )
    def test_first_bad_edge_in_input_order_is_named(self, edges, message):
        with pytest.raises(ValueError, match=message):
            EdgeColoredGraph(3, edges)

    def test_missing_host_edge_with_none_color_rejected(self):
        host = EdgeColoredGraph(3, [(0, 1, 4)])
        with pytest.raises(ValueError, match="host"):
            ColoredOrientation(host, [(0, 2, None)])


Edge = namedtuple("Edge", "u v c")
Arc = namedtuple("Arc", "t h")


class TestStoredRows:
    """Rows are stored as plain tuples whatever sequence type they came in;
    a row that is already a plain canonical tuple is stored as given."""

    EDGES = [(0, 1, 4), (2, 1, 0), (0, 3, 2)]

    @pytest.mark.parametrize("row_type", [list, Edge._make])
    def test_edge_rows(self, row_type):
        G = EdgeColoredGraph(4, [row_type(e) for e in self.EDGES])
        assert G == EdgeColoredGraph(4, self.EDGES)
        assert all(type(e) is tuple for e in G.edges)

    @pytest.mark.parametrize("row_type", [list, Arc._make])
    def test_arc_rows(self, row_type):
        arcs = [(t, h) for t, h, _ in self.EDGES]
        D = OrientedGraph(4, [row_type(a) for a in arcs])
        assert D == OrientedGraph(4, arcs)
        assert all(type(a) is tuple for a in D.arcs)

    @pytest.mark.parametrize("row_type", [list, Edge._make])
    def test_colored_arc_rows(self, row_type):
        host = EdgeColoredGraph(4, self.EDGES)
        co = ColoredOrientation(host, [row_type(a) for a in self.EDGES])
        assert co == ColoredOrientation(host, self.EDGES)
        assert all(type(a) is tuple for a in co.arcs)

    def test_canonical_tuples_kept(self):
        rows = [(0, 1, 4), (2, 1, 0)]
        G = EdgeColoredGraph(3, rows)
        assert G.edges[0] is rows[0]
        assert G.edges[1] == (1, 2, 0)
        for order in (rows[:1] + [(1, 2, 0)], [(1, 2, 0)] + rows[:1]):  # ascending, then not
            stored = EdgeColoredGraph(3, order).edges
            assert sorted(map(id, stored)) == sorted(map(id, order))
        arcs = [(2, 1)]
        assert OrientedGraph(3, arcs).arcs[0] is arcs[0]
        assert ColoredOrientation(G, rows).arcs[1] is rows[1]


class IntId(int):
    """An int subclass, as a vertex id or a color."""


Row = namedtuple("Row", "t h c")


def per_arc_reference(host, arcs):
    """ColoredOrientation's rules as one loop over the arcs in input order:
    the stored arcs, or the error of the first arc that breaks a rule."""
    n = host.n
    colors = {(u, v): c for u, v, c in host.edges}
    tails = {}
    norm = []
    for a in arcs:
        t, h, c = a
        for v in (t, h):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise ValueError(f"invalid vertex id {v!r} for a graph on {n} vertices")
        if t == h:
            raise ValueError(f"loop at vertex {t} is not allowed")
        pair = (min(t, h), max(t, h))
        if pair in tails:
            if tails[pair] == t:
                raise ValueError(f"duplicate arc ({t},{h})")
            raise ValueError(f"anti-parallel arc pair between {t} and {h}")
        tails[pair] = t
        if pair not in colors or colors[pair] != c:
            raise ValueError(f"arc ({t},{h},{c}) does not match a host edge")
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise ValueError(f"color must be a nonnegative integer, got {c!r}")
        norm.append(a if type(a) is tuple else (t, h, c))
    return tuple(sorted(norm))


@st.composite
def hosts_and_arcs(draw):
    """A small host, plain or bipartite, and arcs that are mostly its edges,
    with duplicate, anti-parallel, missing and wrong-colored arcs, odd ids
    and colors (bool, float, None, int subclasses) and any row type."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, n)) if draw(st.booleans()) else None
    bip = None if k is None else (range(k), range(k, n))
    edges = [
        (u, v, draw(st.integers(0, 3)))
        for u in range(n) for v in range(u + 1, n)
        if (k is None or (u < k) != (v < k)) and draw(st.booleans())
    ]
    host = EdgeColoredGraph(n, edges, bip)
    vertex = st.one_of(
        st.integers(-1, n), st.integers(0, n - 1).map(IntId), st.booleans(), st.just(1.0)
    )
    color = st.one_of(
        st.integers(-1, 4), st.integers(0, 3).map(IntId), st.booleans(),
        st.sampled_from([0.0, 1.0, 2.5]), st.none(),
    )
    arcs = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "repeat", "recolor", "any"]))
        if kind in ("edge", "recolor") and edges:
            u, v, c = draw(st.sampled_from(edges))
            t, h = (u, v) if draw(st.booleans()) else (v, u)
            if draw(st.booleans()):
                t, h = IntId(t), IntId(h)
            arc = (t, h, draw(color) if kind == "recolor" else c)
        elif kind == "repeat" and arcs:
            t, h, c = draw(st.sampled_from(arcs))
            arc = (h, t, c) if draw(st.booleans()) else (t, h, c)
        else:
            arc = (draw(vertex), draw(vertex), draw(color))
        arcs.append(draw(st.sampled_from([tuple, list, Row._make]))(arc))
    return host, arcs


@settings(max_examples=400, deadline=None)
@given(hosts_and_arcs(), st.booleans())
def test_colored_orientation_matches_per_arc_checks(case, from_iterator):
    """The constructor checks the arcs through their support graph; it
    accepts exactly the arc lists that per-arc checks accept, stores the
    same tuples, and refuses the rest with the first bad arc's error."""
    host, arcs = case
    try:
        want = per_arc_reference(host, arcs)
    except ValueError as exc:
        want = exc
    try:
        D = ColoredOrientation(host, iter(arcs) if from_iterator else arcs)
    except ValueError as exc:
        assert isinstance(want, ValueError) and str(exc) == str(want)
        return
    assert not isinstance(want, ValueError), want
    assert D.arcs == want and all(type(a) is tuple for a in D.arcs)
    plain = [a for a in arcs if type(a) is tuple]  # stored as given
    assert sum(any(a is b for b in plain) for a in D.arcs) == len(plain)
    assert D.support == EdgeColoredGraph(host.n, arcs, host.bipartition)


@st.composite
def oriented_arcs(draw):
    """A vertex count (0 to 5) and arcs that are mostly pairs of distinct
    vertices, with repeated and reversed arcs, loops, one-value rows, ids
    out of range, bool, float and IntId values, and any row type."""
    n = draw(st.integers(0, 5))
    vertex = st.one_of(
        st.integers(-1, n), st.integers(0, 5).map(IntId), st.booleans(), st.just(1.0)
    )
    pairs = []
    arcs = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["arc", "arc", "arc", "repeat", "loop", "short", "any"]))
        if kind == "arc" and n >= 2:
            arc = tuple(draw(st.permutations(range(n)))[:2])
            if draw(st.sampled_from([False, False, False, True])):
                arc = tuple(map(IntId, arc))
        elif kind == "repeat" and pairs:
            t, h = draw(st.sampled_from(pairs))
            arc = (h, t) if draw(st.booleans()) else (t, h)
        elif kind == "loop" and n:
            v = draw(st.integers(0, n - 1))
            arc = (v, v)
        elif kind == "short":
            arcs.append((draw(vertex),))
            continue
        else:
            arc = (draw(vertex), draw(vertex))
        pairs.append(arc)
        arcs.append(draw(st.sampled_from([tuple, tuple, list, Arc._make]))(arc))
    return n, arcs


@settings(max_examples=500, deadline=None)
@given(oriented_arcs(), st.booleans())
@example((0, []), False)
@example((0, [(0, 1)]), True)
# The first bad arc in input order is named, whatever the later ones break.
@example((3, [(0, 1), (0, 1), (2, 2)]), False)
@example((3, [(0, 1), [1, 0], (0, 3)]), True)
@example((3, [(2, 2), (0, 1), (0, 1)]), False)
@example((3, [(0, 1), (1, 0), (5,)]), False)
# An int subclass sends accepted arcs through the per-arc loop.
@example((3, [(2, 1), (IntId(0), 2), Arc(1, 0)]), True)
def test_oriented_graph_matches_per_arc_loop(case, from_iterator):
    """The constructor checks plain int arcs in one pass and one set of
    pair keys; it accepts exactly the arc lists that the per-arc loop
    accepts, stores the same tuples (the caller's where that loop keeps
    them), and refuses the rest with the first bad arc's error."""
    n, arcs = case
    try:
        want = per_arc_oriented_graph(n, arcs)
    except (TypeError, ValueError) as exc:
        want = exc
    try:
        D = OrientedGraph(n, (a for a in arcs) if from_iterator else arcs)
    except (TypeError, ValueError) as exc:
        assert type(exc) is type(want) and str(exc) == str(want)
        return
    assert not isinstance(want, Exception), want
    assert D.arcs == want and all(type(a) is tuple for a in D.arcs)
    given_ids = set(map(id, arcs))
    assert [id(a) for a in D.arcs if id(a) in given_ids] == [id(a) for a in want if id(a) in given_ids]


# The host's edges in order: (0,1,3) first, (3,4,1) last; vertex 5 is isolated.
MERGE_HOST = EdgeColoredGraph(6, [(3, 4, 1), (0, 2, 1), (1, 3, 2), (0, 1, 3), (2, 4, 0)])
MERGE_BIPARTITE = EdgeColoredGraph(5, [(0, 3, 1), (1, 3, 0), (2, 4, 1), (0, 4, 2)], (range(3), range(3, 5)))


@pytest.mark.parametrize("host, arcs", [
    (MERGE_HOST, [(1, 0, 2), (2, 4, 0)]),  # first edge, a smaller color
    (MERGE_HOST, [(0, 1, 4), (2, 4, 0)]),  # first edge, a larger color
    (MERGE_HOST, [(0, 2, 1), (4, 3, 0)]),  # last edge, a smaller color
    (MERGE_HOST, [(0, 2, 1), (3, 4, 2)]),  # last edge, a larger color
    (MERGE_HOST, [(0, 1, 3), (5, 4, 0)]),  # past the last edge, at the isolated vertex
    (MERGE_HOST, [(0, 1, 3), (4, 5, 1)]),
    (EdgeColoredGraph(4), []),  # a host with no edges
    (EdgeColoredGraph(4), [(2, 1, 0)]),
    (EdgeColoredGraph(0), []),
    (MERGE_HOST, [(4, 3, 1), (0, 2, 1), (3, 1, 2), (1, 0, 3), (2, 4, 0)]),  # the whole host
    (MERGE_BIPARTITE, [(3, 0, 1), (1, 3, 0), (4, 2, 1), (0, 4, 2)]),
    (MERGE_BIPARTITE, [(3, 0, 1), (1, 3, 0), (4, 2, 1), (0, 4, 3)]),
])
def test_support_merge_check(host, arcs):
    """The support's edges are matched against the host's in one merge
    pass; a mismatch at either end of the host's edges, an arc beyond them
    and an empty host are decided as the per-arc checks decide them."""
    try:
        want = per_arc_reference(host, arcs)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ColoredOrientation(host, arcs)
        assert str(got.value) == str(exc)
        return
    D = ColoredOrientation(host, arcs)
    assert D.arcs == want
    assert D.support == EdgeColoredGraph(host.n, arcs, host.bipartition)


@st.composite
def edge_rows(draw):
    """Rows for a small host, plain or bipartite, in ascending order, with
    two neighbours swapped, or in descending or shuffled order; maybe with
    repeated pairs (as given or reversed, any color) at the first, a middle
    or the last position. Each row may be reversed, carry IntId, bool or
    float values, and be a tuple, a list or a namedtuple."""
    n = draw(st.integers(0, 6))
    k = draw(st.integers(0, n)) if draw(st.booleans()) else None
    bip = None if k is None else (range(k), range(k, n))
    rows = [
        (u, v, draw(st.integers(0, 3)))
        for u in range(n) for v in range(u + 1, n) if draw(st.booleans())
    ]
    order = draw(st.sampled_from(["ascending", "swapped", "descending", "shuffled"]))
    if order == "swapped" and len(rows) > 1:  # ascending again after one descent
        i = draw(st.integers(0, len(rows) - 2))
        rows[i:i + 2] = rows[i + 1], rows[i]
    elif order == "descending":
        rows.reverse()
    elif order == "shuffled":
        rows = list(draw(st.permutations(rows)))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        u, v, _c = draw(st.sampled_from(rows))
        repeat = (v, u) if draw(st.booleans()) else (u, v)
        at = draw(st.sampled_from([0, len(rows) // 2, len(rows)]))
        rows.insert(at, (*repeat, draw(st.integers(0, 3))))
    odd = {
        "IntId": IntId,
        "bool": lambda x: bool(x) if x in (0, 1) else True,
        "float": float,
    }
    changes = ["none", "none", "none", "reverse", "IntId"]
    if draw(st.booleans()):
        changes += ["bool", "float"]
    out = []
    for row in rows:
        change = draw(st.sampled_from(changes))
        if change == "reverse":
            row = (row[1], row[0], row[2])
        elif change in odd:
            i = draw(st.integers(0, 2))
            row = row[:i] + (odd[change](row[i]),) + row[i + 1:]
        out.append(draw(st.sampled_from([tuple, tuple, list, Edge._make]))(row))
    return n, out, bip


@settings(max_examples=500, deadline=None)
@given(edge_rows())
# Keys ascend again after the first descent, then repeat a later pair.
@example((4, [(0, 1, 0), (0, 3, 0), (0, 2, 0), (1, 2, 0), (2, 1, 1)], None))
@example((4, [(0, 1, 0), (0, 3, 0), (0, 2, 0), (1, 3, 0), (1, 3, 2)], None))
# A repeated pair at the first and at the last position.
@example((3, [(1, 0, 2), (0, 1, 0), (1, 2, 0)], None))
@example((3, [(0, 1, 0), (0, 2, 0), (1, 2, 0), (0, 2, 1)], (range(1), range(1, 3))))
def test_edge_rows_match_set_based_reference(case):
    """The constructor keeps no duplicate set and runs no sort while the
    rows' keys ascend; it stores exactly what the set-based loop stores,
    the caller's tuple where that loop keeps it, or raises its error."""
    n, rows, bip = case
    try:
        want = set_based_edges(n, rows, bip)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            EdgeColoredGraph(n, rows, bip)
        assert str(got.value) == str(exc)
        return
    G = EdgeColoredGraph(n, rows, bip)
    assert G.edges == want and all(type(e) is tuple for e in G.edges)
    given_ids = set(map(id, rows))
    assert [id(e) in given_ids for e in G.edges] == [id(e) in given_ids for e in want]


def test_orientation_builds_no_graph(request):
    """D's support is proved a part of the host, not rebuilt: building D
    runs no EdgeColoredGraph constructor."""
    G = signature(circulant_tournament(15))
    _H, D, _report = construct_orientation(G, 2, 2)
    calls = request.getfixturevalue("edge_graph_builds")
    again = ColoredOrientation(G, list(D.arcs))
    assert calls == [] and again.support == D.support


def test_parse_corg_builds_one_graph(request):
    _H, D, _report = construct_orientation(signature(circulant_tournament(15)), 2, 2)
    text = render_corg(D)
    calls = request.getfixturevalue("edge_graph_builds")
    parsed = parse_corg(text)
    assert len(calls) == 1 and parsed.support is parsed.host
    assert parsed.arcs == D.arcs


def test_support_is_host_when_arcs_cover_it():
    host = MERGE_HOST
    D = ColoredOrientation(host, [(4, 3, 1), (0, 2, 1), (3, 1, 2), (1, 0, 3), (2, 4, 0)])
    assert D.support is host
    assert ColoredOrientation(host, [(4, 3, 1)]).support is not host


@pytest.mark.parametrize("seed", range(4))
def test_support_equals_built_graph_of_arcs(seed):
    """On seeded orientations the support is the graph the constructor
    builds from the arcs, with the host's bipartition."""
    rng = random.Random(seed)
    hosts = [
        signature(circulant_tournament(rng.randrange(5, 40))),
        random_edge_colored_graph(rng.randrange(4, 30), 0.6, rng.randint(2, 8), rng.getrandbits(32)),
    ]
    bipartite = random_bipartite_edge_colored(
        rng.randrange(2, 15), rng.randrange(2, 15), 0.7, rng.randint(2, 8), rng.getrandbits(32)
    )
    cases = [construct_orientation(G, 2, 2) for G in hosts]
    cases.append(construct_orientation_bipartite(bipartite, 2, 2))
    for _H, D, _report in cases:
        arcs = list(D.arcs)
        assert D.support == EdgeColoredGraph(D.host.n, arcs, D.host.bipartition)


def _ascending(adjacency, key):
    return all(key(a) < key(b) for row in adjacency for a, b in zip(row, row[1:]))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_adjacency_strictly_ascending(data):
    """Edges and arcs are stored sorted, so every adjacency tuple is built in
    strictly ascending neighbour order, whatever order the input came in."""
    n = data.draw(st.integers(1, 12))
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)
    )
    seen, arcs = set(), []
    for t, h in pairs:
        if t != h and (min(t, h), max(t, h)) not in seen:
            seen.add((min(t, h), max(t, h)))
            arcs.append((t, h, data.draw(st.integers(0, 4))))
    G = EdgeColoredGraph(n, arcs)
    D = OrientedGraph(n, [(t, h) for t, h, _ in arcs])
    co = ColoredOrientation(G, arcs)
    neighbour = itemgetter(0)
    assert _ascending(G.adj, neighbour)
    assert _ascending(D.out_adj, int) and _ascending(D.in_adj, int)
    assert _ascending(co.out_adj, neighbour)
    assert sum(map(len, G.adj)) == 2 * len(arcs)
    assert sum(map(len, D.out_adj)) == sum(map(len, co.out_adj)) == len(arcs)


class TestColorDegree:
    def test_monochromatic_triangle(self):
        G = mono_triangle()
        assert all(color_degree(G, v) == 1 for v in range(3))

    def test_star_with_repeated_color(self):
        G = EdgeColoredGraph(4, [(0, 1, 1), (0, 2, 2), (0, 3, 2)])
        assert color_degree(G, 0) == 2

    def test_transitive_signature_total(self):
        # total color degree of the order-n transitive tournament signature
        # is n(n+1)/2 - 1
        for n in (2, 4, 5, 9):
            G = signature(transitive_tournament(n))
            assert total_color_degree(G) == n * (n + 1) // 2 - 1

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            color_degree(mono_triangle(), 3)

    def test_edgeless(self):
        G = EdgeColoredGraph(3)
        assert min_color_degree(G) == 0
        assert total_color_degree(G) == 0

    def test_rainbow_triangle(self):
        G = rainbow_k(3)
        assert min_color_degree(G) == 2
        assert total_color_degree(G) == 6

    def test_min_color_degree_empty_graph(self):
        with pytest.raises(ValueError):
            min_color_degree(EdgeColoredGraph(0))

    def test_circulant_signature_min_degree(self):
        from chroma.constructions import circulant_tournament

        D = circulant_tournament(7)
        G = signature(D)
        # independent recount straight from the arc list
        by_vertex = {v: set() for v in range(7)}
        for t, h in D.arcs:
            by_vertex[t].add(h)
            by_vertex[h].add(h)
        assert min(len(s) for s in by_vertex.values()) == 4
        assert min_color_degree(G) == 4


class TestMonoDegree:
    def test_rainbow_k4(self):
        G = rainbow_k(4)
        assert all(mono_degree(G, v) == 1 for v in range(4))
        assert mono_degree_max(G) == 1

    def test_monochromatic_star(self):
        G = EdgeColoredGraph(6, [(0, v, 3) for v in range(1, 6)])
        assert mono_degree(G, 0) == 5
        assert mono_degree(G, 1) == 1

    def test_transitive_signature_sink(self):
        G = signature(transitive_tournament(4))
        # all in-arcs of the last vertex carry its own id as color
        assert mono_degree(G, 3) == 3

    def test_isolated(self):
        assert mono_degree(EdgeColoredGraph(2), 0) == 0


class TestColorSets:
    def test_isolated_vertex(self):
        assert color_set(EdgeColoredGraph(2), 0) == frozenset()


class TestPredicates:
    def c4(self, c1, c2, c3, c4):
        return EdgeColoredGraph(4, [(0, 1, c1), (1, 2, c2), (2, 3, c3), (0, 3, c4)])

    def test_alternating_c4(self):
        G = self.c4(1, 2, 1, 2)
        cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
        assert is_properly_colored(G, cycle)
        assert not is_rainbow(G, cycle)

    def test_signature_of_directed_triangle(self):
        G = signature(OrientedGraph(3, [(0, 1), (1, 2), (2, 0)]))
        edges = [(u, v) for u, v, _ in G.edges]
        assert is_properly_colored(G, edges)
        assert is_rainbow(G, edges)

    def test_foreign_edge(self):
        with pytest.raises(ValueError, match="not in graph"):
            is_properly_colored(mono_triangle(), [(0, 1), (1, 3)])
        with pytest.raises(ValueError, match="color"):
            is_rainbow(mono_triangle(), [(0, 1, 9)])
        with pytest.raises(ValueError, match="neither a pair nor a triple"):
            is_properly_colored(mono_triangle(), [(0, 1), (0, 1, 2, 0)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_rainbow_implies_properly_colored(self, seed):
        rng = random.Random(seed)
        G = seeded_graph(seed)
        if G.m == 0:
            return
        k = rng.randint(1, G.m)
        subset = rng.sample(list(G.edges), k)
        if is_rainbow(G, subset):
            assert is_properly_colored(G, subset)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_degree_inequalities(self, seed):
        G = seeded_graph(seed)
        for v in range(G.n):
            d = len(G.adj[v])
            dc = color_degree(G, v)
            mono = mono_degree(G, v)
            if d >= 1:
                assert 1 <= dc <= d
            assert mono <= d
            assert dc * mono >= d


_T4 = signature(transitive_tournament(4))
_K23 = random_proper_complete_bipartite(2, 3, 0)

# (id, argument name, call with the argument under test, least value the
# integer check accepts); every other argument is valid, so only the one
# under test can be rejected.
INT_PARAMETERS = [
    ("EdgeColoredGraph", "vertex count", EdgeColoredGraph, 0),
    ("OrientedGraph", "vertex count", OrientedGraph, 0),
    ("transitive_tournament", "n", transitive_tournament, 1),
    ("circulant_tournament", "n", circulant_tournament, 3),
    ("directed_cycle", "r", directed_cycle, 3),
    ("blowup_cycle_signature", "r", lambda v: blowup_cycle_signature(v, 1), 3),
    ("extremal_no_pc_c4", "k", extremal_no_pc_c4, 1),
    ("extremal_no_rainbow_c4_trianglefree", "k", extremal_no_rainbow_c4_trianglefree, 1),
    ("random_oriented_graph", "n", lambda v: random_oriented_graph(v, 0.5, 0), 0),
    ("random_edge_colored_graph-n", "n", lambda v: random_edge_colored_graph(v, 0.5, 2, 0), 0),
    ("random_edge_colored_graph-colors", "colors",
     lambda v: random_edge_colored_graph(3, 0.5, v, 0), 1),
    ("random_bipartite_edge_colored-n1", "n1",
     lambda v: random_bipartite_edge_colored(v, 2, 0.5, 2, 0), 0),
    ("random_bipartite_edge_colored-n2", "n2",
     lambda v: random_bipartite_edge_colored(2, v, 0.5, 2, 0), 0),
    ("random_bipartite_edge_colored-colors", "colors",
     lambda v: random_bipartite_edge_colored(2, 2, 0.5, v, 0), 1),
    ("random_proper_complete_bipartite-s", "s", lambda v: random_proper_complete_bipartite(v, 2, 0), 1),
    ("random_proper_complete_bipartite-t", "t", lambda v: random_proper_complete_bipartite(2, v, 0), 1),
    ("RecolorParams-n", "n", lambda v: RecolorParams(n=v, s=3, t=7, gamma=0.1, seed=0), 3),
    ("RecolorParams-s", "s", lambda v: RecolorParams(n=20, s=v, t=7, gamma=0.1, seed=0), 2),
    ("RecolorParams-t", "t", lambda v: RecolorParams(n=20, s=3, t=v, gamma=0.1, seed=0), 2),
    ("RecolorParams-max_tries", "max_tries",
     lambda v: RecolorParams(n=20, s=3, t=7, gamma=0.1, seed=0, max_tries=v), 1),
    ("blow_up", "blow-up factor", lambda v: blow_up(directed_cycle(3), v), 1),
    ("find_pc_kst-s", "s", lambda v: find_pc_kst(_T4, v, 2), 2),
    ("find_pc_kst-t", "t", lambda v: find_pc_kst(_T4, 2, v), 2),
    ("find_pc_kst-t-ge-s", "t", lambda v: find_pc_kst(_T4, 3, v), 3),
    ("find_rainbow_kst-s", "s", lambda v: find_rainbow_kst(_T4, v, 2), 2),
    ("find_rainbow_kst-t-ge-s", "t", lambda v: find_rainbow_kst(_T4, 3, v), 3),
    ("find_pc_cycle_upto", "r", lambda v: find_pc_cycle_upto(_T4, v), 3),
    ("pc_short_cycle_pipeline", "r", lambda v: pc_short_cycle_pipeline(_T4, v), 4),
    ("disjoint_pc_cycles", "k", lambda v: disjoint_pc_cycles(_T4, v), 1),
    ("extract_rainbow_kst", "t", lambda v: extract_rainbow_kst(_K23, (0, 1), (2, 3, 4), v), 1),
    ("SearchBudget", "max_nodes", lambda v: SearchBudget(max_nodes=v), 1),
    ("sigma-s", "s", lambda v: sigma(v, 5), 2),
    ("sigma-t", "t", lambda v: sigma(2, v), 2),
    ("default_x", "n2", lambda v: default_x(2, 2, v), 0),
    ("check_total_degree_threshold-s", "s", lambda v: check_total_degree_threshold(_T4, v, 5), 2),
    ("check_total_degree_threshold-t", "t", lambda v: check_total_degree_threshold(_T4, 3, v), 3),
    ("run_suite", "trials", lambda v: run_suite("duality", v, 0), 0),
    ("analyze", "r", lambda v: analyze(_T4, v), 4),
]


@pytest.mark.parametrize(
    "name,call,lo", [row[1:] for row in INT_PARAMETERS], ids=[row[0] for row in INT_PARAMETERS]
)
def test_integer_parameters_share_one_check(name, call, lo):
    # A bool is not a count: EdgeColoredGraph(True) would render as
    # `ecg True 0`, which no parser reads back.
    for bad in (True, 2.0, lo - 1):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= {lo}, got {bad!r}")):
            call(bad)
    call(lo)


@pytest.mark.parametrize("s,t,message", [
    (1, 2, "s must be an integer >= 2, got 1"),
    (2, 1, "t must be an integer >= 2, got 1"),
    (3, 2, "t must be an integer >= 3, got 2"),
])
@pytest.mark.parametrize("fn", [
    find_pc_kst, find_rainbow_kst, check_total_degree_threshold,
    construct_orientation, construct_orientation_bipartite, saturation_extract,
], ids=lambda fn: fn.__name__)
def test_st_pairs_share_one_range(fn, s, t, message):
    # The paper's range t >= s >= 2, checked by _check_st for every
    # function that takes (s, t).
    assert _K23.bipartition is not None
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(_K23, s, t)
    fn(_K23, 2, 3)


# (id, argument name, call with the argument under test, interval text, good
# values, bad values); as above, only the argument under test can be
# rejected. Bools, strings and non-finite values are refused everywhere; None
# is refused where it does not mean a default.
REAL_PARAMETERS = [
    ("RecolorParams", "gamma", lambda v: RecolorParams(n=20, s=3, t=7, gamma=v, seed=0), "[0, inf)",
     (0, 0.1), (-0.5, None)),
    ("random_oriented_graph", "p", lambda v: random_oriented_graph(4, v, 0), "[0, 1]",
     (0, 1, 0.5), (-0.1, 1.5, 2, None)),
    ("random_edge_colored_graph", "p", lambda v: random_edge_colored_graph(4, v, 2, 0), "[0, 1]",
     (0, 1, 0.5), (-0.1, 1.5)),
    ("random_bipartite_edge_colored", "p",
     lambda v: random_bipartite_edge_colored(2, 2, v, 2, 0), "[0, 1]", (0, 1, 0.5), (-0.1, 1.5)),
    ("SearchBudget", "time_limit_s", lambda v: SearchBudget(time_limit_s=v), "(0, inf)",
     (1, 0.25), (0, -5)),
]


@pytest.mark.parametrize(
    "name,call,interval,good,bad",
    [row[1:] for row in REAL_PARAMETERS],
    ids=[row[0] for row in REAL_PARAMETERS],
)
def test_real_parameters_share_one_check(name, call, interval, good, bad):
    for value in (*bad, True, False, "0.5", "3", float("nan"), float("inf"),
                  -float("inf"), 10**400):
        message = f"{name} must be a finite real in {interval}, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(value)
    for value in good:
        call(value)
