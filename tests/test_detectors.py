import gc
import math
import random
from collections import Counter, namedtuple
from contextlib import contextmanager
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chroma.detectors as detectors
from chroma.core import (
    EdgeColoredGraph,
    OrientedGraph,
    Witness,
    min_color_degree,
    total_color_degree,
)
from chroma.constructions import (
    blowup_cycle_signature,
    circulant_tournament,
    directed_cycle,
    extremal_no_pc_c4,
    random_edge_colored_graph,
    random_oriented_graph,
    random_proper_complete_bipartite,
    transitive_tournament,
)
from chroma.detectors import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    SearchBudget,
    _Clock,
    _WalkClasses,
    _extend,
    _hub_layout,
    _kst_impl,
    _least_pair,
    _one_color_core,
    _return_table,
    _walk_classes,
    all_simple_cycles,
    check_total_degree_threshold,
    disjoint_pc_cycles,
    extract_rainbow_kst,
    find_pc_cycle_upto,
    find_pc_kst,
    find_rainbow_c4,
    find_rainbow_kst,
    pc_short_cycle_pipeline,
    shortest_directed_cycle,
    verify_witness,
)
from chroma.extraction import construct_orientation
from chroma.transforms import blow_up, relabel, signature

from oracles import (
    all_cycles_by_permutation,
    all_pc_kst_witnesses,
    backtracked_pair,
    brute_directed_girth,
    brute_one_color_core,
    brute_pc_cycle_lengths,
    brute_pc_kst_exists,
    brute_rainbow_kst_exists,
    brute_return_lengths,
    brute_shortest_pc_cycle,
    brute_walk_classes,
    claimed_edges,
    depth_limited_shortest_directed_cycle,
    first_pc_cycle_witness,
    first_pc_kst_witness,
    full_hub_walk_classes,
    is_pc_cycle,
    max_pc_cycle_packing,
    rebuilt_disjoint_pc_cycles,
    staged_pc_cycle,
    staged_pipeline,
    up_front_find_pc_cycle_upto,
    without_vertices,
)


def c4(c1, c2, c3, c4_):
    return EdgeColoredGraph(4, [(0, 1, c1), (1, 2, c2), (2, 3, c3), (0, 3, c4_)])


def mono_k(n, color=0):
    return EdgeColoredGraph(n, [(u, v, color) for u in range(n) for v in range(u + 1, n)])


def flower_edges(z):
    """Edges of three loops of lengths 3, 4 and 5 through vertex z, on the
    vertices z, z+1, ...; returns (edges, one past the last vertex).

    Each loop is properly colored except at z, where both its edges have the
    loop's own color. So the flower has no pc cycle, but going round two
    different loops is a closed pc walk, of length 7, 8 or 9: the walks'
    period is 1.
    """
    edges, nxt = [], z + 1
    for loop, length in enumerate((3, 4, 5)):
        path = [z, *range(nxt, nxt + length - 1), z]
        nxt += length - 1
        cols = [loop] + [10 + 2 * loop + i % 2 for i in range(length - 2)] + [loop]
        for a, b, c in zip(path, path[1:], cols):
            edges.append((min(a, b), max(a, b), c))
    return edges, nxt


def walk_classes(G, clock=None):
    """The walk classes of G as a search finds them: the hub pass on the
    one-color core, both on clock."""
    clock = clock or _Clock(None)
    core = _one_color_core(G, clock, bytearray(b"\x01") * G.n)
    return _walk_classes(G, clock, _hub_layout(G, core))


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)
        with pytest.raises(ValueError):
            SearchBudget(time_limit_s=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"time_limit_s": float("nan")},
            {"time_limit_s": float("inf")},
            {"time_limit_s": 0.0},
            {"time_limit_s": "soon"},
            {"time_limit_s": True},
            {"max_nodes": 2.5},
            {"max_nodes": 3.0},
            {"max_nodes": True},
            {"max_nodes": False},
            {"max_nodes": "10"},
            {"max_nodes": -1},
        ],
    )
    def test_rejects_limits_that_are_no_limit(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SearchBudget(**kwargs)

    def test_accepts_finite_limits(self):
        b = SearchBudget(max_nodes=7, time_limit_s=2)
        assert b.max_nodes == 7 and b.time_limit_s == 2.0
        assert isinstance(b.time_limit_s, float)

    def test_budget_exceeded_is_distinct(self):
        G = random_edge_colored_graph(30, 0.8, 2, 0)
        for max_nodes in (1, 3):
            tiny = SearchBudget(max_nodes=max_nodes)
            for out in (
                find_pc_kst(G, 2, 3, tiny),
                find_rainbow_kst(G, 3, 3, tiny),
                find_pc_cycle_upto(G, 6, tiny),
                find_rainbow_c4(mono_k(12), tiny),
                pc_short_cycle_pipeline(G, 6, tiny),
                disjoint_pc_cycles(G, 2, tiny),
            ):
                assert out.status == BUDGET_EXCEEDED
                assert out.witness is None
                assert out.nodes >= max_nodes
                assert out.details["stopped_by"] == "nodes"

    def test_time_budget_trips_immediately(self):
        G = random_edge_colored_graph(20, 0.8, 2, 1)
        out = find_pc_kst(G, 2, 3, SearchBudget(time_limit_s=1e-9))
        assert out.status == BUDGET_EXCEEDED and out.details["stopped_by"] == "time"

    def test_only_a_limit_that_fired_is_named(self):
        G = random_edge_colored_graph(20, 0.8, 2, 1)
        assert "stopped_by" not in find_pc_kst(G, 2, 3).details
        out = find_pc_kst(G, 2, 3, SearchBudget(max_nodes=5, time_limit_s=3600))
        assert out.status == BUDGET_EXCEEDED and out.details["stopped_by"] == "nodes"

    def test_disjoint_budget_out_after_its_first_round(self):
        # The budget runs out in round 2: the outcome keeps round 1's cycle
        # and says the node limit fired.
        G = blowup_cycle_signature(5, 8)
        first = disjoint_pc_cycles(G, 1)
        assert first.status == FOUND
        out = disjoint_pc_cycles(G, 3, SearchBudget(max_nodes=first.nodes + 1))
        assert out.status == BUDGET_EXCEEDED and out.witness is None
        assert out.nodes > first.nodes + 1
        assert out.details == {
            "requested": 3, "cycles": first.details["cycles"], "stopped_by": "nodes",
        }


# K_{s,t} searches on a circulant signature that between them run the
# backtracking (every found answer, and (3, 3), which exhausts the core) and
# the augmenting paths of the color-pair matching (t = 3).
CYCLE_FREE_CASES = [
    ("pc-k22", lambda G: find_pc_kst(G, 2, 2), FOUND),
    ("pc-k23", lambda G: find_pc_kst(G, 2, 3), EXHAUSTED),
    ("pc-k33", lambda G: find_pc_kst(G, 3, 3), EXHAUSTED),
    ("rainbow-k22", lambda G: find_rainbow_kst(G, 2, 2), FOUND),
    ("rainbow-c4", find_rainbow_c4, FOUND),
]


class TestNoReferenceCycles:
    """A search frees what it builds by reference counting alone, so with
    the cyclic collector off there is nothing left for it to collect."""

    @pytest.mark.parametrize(
        "call,status", [c[1:] for c in CYCLE_FREE_CASES], ids=[c[0] for c in CYCLE_FREE_CASES]
    )
    def test_kst_searches(self, call, status):
        G = signature(circulant_tournament(13))
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            assert call(G).status == status
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestFindPcKst:
    def test_alternating_c4_is_pc_k22(self):
        out = find_pc_kst(c4(1, 2, 1, 2), 2, 2, None)
        assert out.status == FOUND
        assert verify_witness(c4(1, 2, 1, 2), out.witness)

    def test_monochromatic_k22(self):
        G = EdgeColoredGraph(4, [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)])
        assert find_pc_kst(G, 2, 2, None).status == EXHAUSTED

    def test_signatures_have_no_pc_k23(self):
        for seed in range(15):
            rng = random.Random(seed)
            D = random_oriented_graph(rng.randint(2, 12), 0.5, seed)
            assert find_pc_kst(signature(D), 2, 3, None).status == EXHAUSTED

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            find_pc_kst(mono_k(3), 0, 2, None)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        G = random_edge_colored_graph(n, rng.choice([0.4, 0.8]), rng.randint(1, 4), seed)
        for s, t in ((2, 2), (2, 3)):
            got = find_pc_kst(G, s, t, None).status == FOUND
            assert got == brute_pc_kst_exists(G, s, t)


@st.composite
def dense_colored_graphs(draw):
    """Graphs drawn pair by pair: a color, or -1 for no edge. With up to 2n
    colors most pairs are edges and common neighborhoods are dense."""
    n = draw(st.integers(4, 9))
    k = draw(st.integers(2, 2 * n))
    pairs = list(combinations(range(n), 2))
    codes = draw(st.lists(st.integers(-1, k - 1), min_size=len(pairs), max_size=len(pairs)))
    return EdgeColoredGraph(n, [(u, v, c) for (u, v), c in zip(pairs, codes) if c >= 0])


def pair_with_color_pairs(color_pairs):
    """Vertices 0 and 1 joined to 2, 3, ... by edges colored (a, b) in turn."""
    edges = []
    for w, (a, b) in enumerate(color_pairs, start=2):
        edges += [(0, w, a), (1, w, b)]
    return EdgeColoredGraph(len(color_pairs) + 2, edges)


class TestPcK2tMatching:
    """find_pc_kst and find_rainbow_kst with s = 2, both gated by the
    color-pair matching, against the brute-force first witness."""

    @staticmethod
    def assert_matches_oracle(G, t):
        for find, rainbow in ((find_pc_kst, False), (find_rainbow_kst, True)):
            out = find(G, 2, t)
            expected = first_pc_kst_witness(G, 2, t, rainbow=rainbow)
            if expected is None:
                assert out.status == EXHAUSTED and out.witness is None
            else:
                assert out.status == FOUND
                assert out.witness.vertices == expected

    @pytest.mark.parametrize("seed", range(60))
    def test_seeded_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(5, 10)
        G = random_edge_colored_graph(n, rng.choice([0.6, 0.9, 1.0]), rng.choice([3, 8, 30]), seed)
        for t in range(2, 6):
            self.assert_matches_oracle(G, t)

    @settings(max_examples=60, deadline=None)
    @given(dense_colored_graphs())
    def test_dense_many_colors(self, G):
        for t in range(2, 6):
            self.assert_matches_oracle(G, t)

    def test_augmenting_path_reroutes(self):
        # a-color 10 first takes b-color 20 and must give it up to a-color 11.
        G = pair_with_color_pairs([(10, 20), (10, 21), (11, 20), (12, 22)])
        out = find_pc_kst(G, 2, 3)
        assert out.status == FOUND
        assert out.witness.vertices == ((0, 1), (3, 4, 5))
        # Without b-color 21 the color pairs hold only a matching of size 2.
        G = pair_with_color_pairs([(10, 20), (10, 20), (11, 20), (12, 22)])
        assert find_pc_kst(G, 2, 3).status == EXHAUSTED
        assert find_pc_kst(G, 2, 2).status == FOUND

    def test_t2_single_covering_color(self):
        # Every candidate shares its a-color: no PC C4 on {0, 1}.
        assert find_pc_kst(pair_with_color_pairs([(5, 1), (5, 2), (5, 3)]), 2, 2).status == EXHAUSTED
        out = find_pc_kst(pair_with_color_pairs([(5, 1), (5, 2), (6, 1)]), 2, 2)
        assert out.witness.vertices == ((0, 1), (3, 4))

    def test_nodes_repeat_exactly(self):
        for seed in range(10):
            G = random_edge_colored_graph(25, 0.7, 6, seed)
            copy = EdgeColoredGraph(G.n, G.edges)
            for t in (2, 3, 4):
                runs = [find_pc_kst(H, 2, t) for H in (G, G, copy)]
                assert len({(o.status, o.nodes, o.witness) for o in runs}) == 1

    def test_node_budget_stops_exhaustive_search(self):
        G = signature(transitive_tournament(20))
        searches = [
            lambda b, find=find, t=t: find(G, 2, t, b)
            for find in (find_pc_kst, find_rainbow_kst)
            for t in (2, 3)
        ] + [lambda b: find_rainbow_c4(G, b)]
        for search in searches:
            full = search(None)
            assert full.status == EXHAUSTED
            assert search(SearchBudget(max_nodes=full.nodes)).status == EXHAUSTED
            short = search(SearchBudget(max_nodes=full.nodes - 1))
            assert short.status == BUDGET_EXCEEDED and short.witness is None


def gate_passing_pairs(G, limit):
    """(candidates, star) for the first limit vertex pairs {a, b}, a < b in
    order, that pass the K_{2,2} scan's gate: the common neighbors w with
    c(a,w) != c(b,w), ascending, with star their color pairs, at least two
    of them and two colors on each side."""
    col = {(u, v): c for u, v, c in G.edges}
    found = []
    for a, b in combinations(range(G.n), 2):
        candidates, star = [], []
        for w in sorted(G.neighbor_sets[a] & G.neighbor_sets[b]):
            ca, cb = col[min(a, w), max(a, w)], col[min(b, w), max(b, w)]
            if ca != cb:
                candidates.append(w)
                star.append((ca, cb))
        if len({x for x, _ in star}) >= 2 and len({y for _, y in star}) >= 2:
            found.append((candidates, star))
            if len(found) == limit:
                break
    return found


class TestLeastPair:
    """_least_pair, the K_{2,2} pair pass of the K_{s,t} scan, against the
    backtracking it replaced (backtracked_pair): the same pair or None, in
    both modes, and never more ticks."""

    @staticmethod
    def assert_same(candidates, star):
        """Check both modes; return the rainbow answer."""
        for rainbow in (False, True):
            mine, ref = _Clock(None), _Clock(None)
            got = _least_pair(candidates, star, rainbow, mine)
            assert got == backtracked_pair(candidates, star, rainbow, ref)
            assert mine.nodes <= ref.nodes
            # One tick per candidate up to the second of the pair, or per
            # candidate but the last when there is none.
            assert mine.nodes == (len(star) - 1 if got is None else candidates.index(got[1]) + 1)
        return got

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 8).flatmap(
            lambda k: st.lists(
                st.tuples(st.integers(0, k), st.integers(0, k)).filter(lambda p: p[0] != p[1]),
                min_size=2,
                max_size=25,
            )
        )
    )
    def test_color_lists(self, star):
        candidates = list(range(10, 10 + 3 * len(star), 3))
        self.assert_same(candidates, star)
        # The reference is the backtracking _kst_impl ran at t = 2: same
        # pair, same ticks.
        for rainbow in (False, True):
            ref, old = _Clock(None), _Clock(None)
            chosen: list[int] = []
            used_at = [set()] * 2 if rainbow else [set(), set()]
            hit = _extend(0, chosen, 2, candidates, star, used_at, old)
            want = tuple(chosen) if hit else None
            assert backtracked_pair(candidates, star, rainbow, ref) == want
            assert ref.nodes == old.nodes

    @pytest.mark.parametrize("relabel", [False, True], ids=["natural", "relabelled"])
    @pytest.mark.parametrize("n", [9, 21, 45, 101, 201])
    def test_circulant_signatures(self, n, relabel):
        G = signature(circulant_tournament(n))
        if relabel:
            G = relabelled(G, random.Random(n))
        pairs = gate_passing_pairs(G, 300 if n < 100 else 40)
        assert pairs
        for candidates, star in pairs:
            self.assert_same(candidates, star)

    @pytest.mark.parametrize("seed", range(3))
    def test_bench_random_graphs(self, seed):
        G = random_edge_colored_graph(100, 0.85, 5000, seed)
        for candidates, star in gate_passing_pairs(G, 200):
            self.assert_same(candidates, star)

    def test_few_color_graphs(self):
        # With few colors most pairs pass the gate, and many of them hold
        # no rainbow pair, so the pass runs to the end.
        no_rainbow = 0
        for seed in range(30):
            rng = random.Random(seed)
            G = random_edge_colored_graph(
                rng.randint(8, 40), rng.choice((0.5, 0.8, 1.0)), rng.choice((3, 4, 5)), seed
            )
            for candidates, star in gate_passing_pairs(G, 100):
                no_rainbow += self.assert_same(candidates, star) is None
        assert no_rainbow > 100

    @pytest.mark.parametrize("seed", range(40))
    def test_few_color_searches_match_brute_force(self, seed):
        rng = random.Random(seed)
        G = random_edge_colored_graph(
            rng.randint(6, 12), rng.choice((0.5, 0.8, 1.0)), rng.choice((2, 3, 4)), seed
        )
        for find, rainbow in ((find_pc_kst, False), (find_rainbow_kst, True)):
            expected = first_pc_kst_witness(G, 2, 2, rainbow=rainbow)
            out = find(G, 2, 2)
            assert out.status == (FOUND if expected else EXHAUSTED)
            assert (out.witness.vertices if out.witness else None) == expected
        # expected is now the first rainbow K_{2,2} ((a, b), (u, w)), the
        # rainbow C4 (a, u, b, w).
        out = find_rainbow_c4(G)
        if expected is None:
            assert out.status == EXHAUSTED and out.witness is None
        else:
            (a, b), (u, w) = expected
            assert out.witness.vertices == ((a, u, b, w),)

    @pytest.mark.parametrize("name", ["circulant-45", "relabelled-circulant-45", "few-colors"])
    def test_node_budget_sweep(self, name):
        # Every node budget below the unbudgeted count, across the gate reads
        # and the pair pass of each pair, ends budget-exceeded; at the count
        # it gives the unbudgeted answer.
        if name == "few-colors":
            G = random_edge_colored_graph(12, 0.8, 4, 5)
        else:
            G = signature(circulant_tournament(45))
            if name.startswith("relabelled"):
                G = relabelled(G, random.Random(0))
        searches = [lambda b: find_pc_kst(G, 2, 2, b), lambda b: find_rainbow_kst(G, 2, 2, b)]
        for search in searches:
            full = search(None)
            for b in range(1, full.nodes):
                out = search(SearchBudget(max_nodes=b))
                assert out.status == BUDGET_EXCEEDED and out.witness is None
            out = search(SearchBudget(max_nodes=full.nodes))
            assert (out.status, out.witness, out.nodes) == (full.status, full.witness, full.nodes)

    @pytest.mark.parametrize("k", [1, 5, 40])
    def test_pair_pass_is_linear(self, k):
        # k candidates colored (5, 1) each clash with every later one, and
        # (5, 2), (6, 1) close the list: the least pair, properly colored and
        # rainbow. The backtracking tried each (5, 1) against every later
        # candidate, about c^2 / 2 ticks; the pair pass ticks once per
        # candidate. So the search costs one node for the pair {0, 1}, c
        # for reading the c = k + 2 candidates and c for the pass.
        G = pair_with_color_pairs([(5, 1)] * k + [(5, 2), (6, 1)])
        c = k + 2
        for find in (find_pc_kst, find_rainbow_kst):
            out = find(G, 2, 2)
            assert out.witness.vertices == ((0, 1), (k + 2, k + 3))
            assert out.nodes == 1 + 2 * c

    def test_circulant_45_node_counts(self):
        # In its natural labelling, 49 nodes: 2 pairs, 45 gate reads (22 on
        # {0, 1}, whose candidates all have a-color 0, and 23 on {0, 2}) and
        # 2 in the pair pass, since the least pair (1, 23) holds {0, 2}'s
        # first two candidates; the backtracking ticked the same. Relabelled
        # by random.Random(0), 33: {0, 1} passes the gate with 24 candidates
        # and its least pair (12, 17) is their 5th and 8th, so 1 + 24 + 8,
        # where the backtracking took 119.
        G = signature(circulant_tournament(45))
        out = find_pc_kst(G, 2, 2)
        assert (out.nodes, out.witness.vertices) == (49, ((0, 2), (1, 23)))
        out = find_pc_kst(relabelled(G, random.Random(0)), 2, 2)
        assert (out.nodes, out.witness.vertices) == (33, ((0, 1), (12, 17)))


class TestFindRainbowKst:
    def test_rainbow_k22(self):
        G = EdgeColoredGraph(4, [(0, 2, 1), (0, 3, 2), (1, 2, 3), (1, 3, 4)])
        out = find_rainbow_kst(G, 2, 2, None)
        assert out.status == FOUND and verify_witness(G, out.witness)

    def test_proper_k24_contains_rainbow_k22(self):
        for seed in range(25):
            G = random_proper_complete_bipartite(2, 4, seed)
            assert find_rainbow_kst(G, 2, 2, None).status == FOUND

    def test_blowup_c5_signature_has_none(self):
        G = blowup_cycle_signature(5, 2)
        assert find_rainbow_kst(G, 2, 2, None).status == EXHAUSTED

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        G = random_edge_colored_graph(n, rng.choice([0.4, 0.8]), rng.randint(1, 6), seed)
        for s, t in ((2, 2), (2, 3)):
            got = find_rainbow_kst(G, s, t, None).status == FOUND
            assert got == brute_rainbow_kst_exists(G, s, t)


class TestFindPcCycle:
    def test_r_validation(self):
        with pytest.raises(ValueError):
            find_pc_cycle_upto(mono_k(4), 2, None)

    def test_signature_triangle(self):
        out = find_pc_cycle_upto(signature(directed_cycle(3)), 3, None)
        assert out.status == FOUND
        assert len(out.witness.vertices[0]) == 3

    def test_blowup_c6_girth(self):
        G = blowup_cycle_signature(6, 2)
        assert find_pc_cycle_upto(G, 5, None).status == EXHAUSTED
        out = find_pc_cycle_upto(G, 6, None)
        assert out.status == FOUND and len(out.witness.vertices[0]) == 6

    def test_monochromatic_k5(self):
        assert find_pc_cycle_upto(mono_k(5), 5, None).status == EXHAUSTED

    def test_lexicographic_tie_break(self):
        # two disjoint pc triangles: the one through the smallest start
        # vertex in its smallest traversal is returned
        sig = signature(directed_cycle(3))
        shifted = [(u + 3, v + 3, c) for u, v, c in sig.edges]
        G = EdgeColoredGraph(6, shifted + [(0, 1, 7), (1, 2, 8), (0, 2, 9)])
        out = find_pc_cycle_upto(G, 6, None)
        assert out.witness.vertices[0] == (0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_shortest_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        G = random_edge_colored_graph(n, rng.choice([0.5, 0.9]), rng.randint(1, 4), seed)
        lengths = brute_pc_cycle_lengths(G)
        r = rng.randint(3, n)
        out = find_pc_cycle_upto(G, r, None)
        expect = {L for L in lengths if L <= r}
        if expect:
            assert out.status == FOUND
            assert len(out.witness.vertices[0]) == min(expect)
        else:
            assert out.status == EXHAUSTED


def relabelled(G, rng):
    """G under a seeded vertex permutation."""
    perm = list(range(G.n))
    rng.shuffle(perm)
    return relabel(G, perm)


def cycle_search_instance(seed):
    """A small graph for the exact-witness checks: a random graph, the
    signature of a random oriented graph, or a relabelled blow-up of a
    directed cycle, whose closed pc walks have period r."""
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        n = rng.randint(3, 8)
        return random_edge_colored_graph(n, rng.choice([0.4, 0.7, 0.9]), rng.randint(1, 4), seed)
    if kind == 1:
        return signature(random_oriented_graph(rng.randint(3, 8), rng.choice([0.3, 0.5, 0.8]), seed))
    r = rng.randint(3, 8)
    return relabelled(blowup_cycle_signature(r, rng.randint(1, 2) if r <= 4 else 1), rng)


def first_witness_upto(G, r):
    """first_pc_cycle_witness over the lengths 3..r, ascending."""
    return first_pc_cycle_witness(G, range(3, r + 1))


class TestWalkPeriods:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_find_returns_least_witness(self, seed):
        G = cycle_search_instance(seed)
        r = random.Random(seed).randint(3, max(3, G.n))
        out = find_pc_cycle_upto(G, r)
        expect = first_witness_upto(G, r)
        assert out.status == (FOUND if expect else EXHAUSTED)
        assert (out.witness.vertices[0] if out.witness else None) == expect

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_pipeline_stage3_returns_least_witness(self, seed):
        # The pipeline tries length 4 first: with no pc C4 its answer is
        # the least cycle of the shortest other length.
        G = cycle_search_instance(seed)
        r = random.Random(seed).randint(4, max(4, G.n))
        out = pc_short_cycle_pipeline(G, r)
        expect = first_pc_cycle_witness(G, (4, 3, *range(5, r + 1)))
        assert out.status == (FOUND if expect else EXHAUSTED)
        assert (out.witness.vertices[0] if out.witness else None) == expect

    def test_seeded_witnesses_and_sound_periods(self):
        periods_seen, past_4 = set(), 0
        for seed in range(120):
            G = cycle_search_instance(seed)
            least = {L: first_pc_cycle_witness(G, [L]) for L in range(3, G.n + 1)}
            for r in range(3, G.n + 1):
                expect = next((least[L] for L in range(3, r + 1) if least[L]), None)
                out = find_pc_cycle_upto(G, r)
                assert (out.witness.vertices[0] if out.witness else None) == expect
                if r < 4:
                    continue
                # The pipeline tries length 4 first, then 3 and 5..r.
                out = pc_short_cycle_pipeline(G, r)
                expect = least[4] or next(
                    (least[L] for L in (3, *range(5, r + 1)) if least[L]), None
                )
                assert (out.witness.vertices[0] if out.witness else None) == expect
                past_4 += expect is not None and len(expect) != 4
            # Soundness: every pc cycle lies inside a component whose period
            # divides its length, so its length is a multiple of a period.
            # With no rent the search runs the hub pass before its first
            # start, whatever it finds.
            with scan_rent(0):
                periods = find_pc_cycle_upto(G, G.n).details["walk_periods"]
            periods_seen.update(periods)
            assert all(any(L % p == 0 for p in periods) for L in brute_pc_cycle_lengths(G))
            classes = walk_classes(G)
            for cyc in all_cycles_by_permutation(G.n, [(u, v) for u, v, _ in G.edges]):
                if is_pc_cycle(G, cyc):
                    assert any(
                        len(cyc) % p == 0 and set(cyc) <= set(verts) for p, verts in classes
                    )
        assert past_4 > 0 and max(periods_seen) > 1

    def test_blowups_and_acyclic_signatures_skip_the_dfs(self):
        # No length below r is admitted, so those searches cost the filter's
        # ticks alone, as does length 3 by itself.
        for r in range(4, 8):
            for k in (1, 2, 3):
                G = blowup_cycle_signature(r, k)
                out = find_pc_cycle_upto(G, r - 1)
                assert out.status == EXHAUSTED and out.details["walk_periods"] == [r]
                assert out.nodes == find_pc_cycle_upto(G, 3).nodes
                found = find_pc_cycle_upto(G, r)
                assert found.status == FOUND and len(found.witness.vertices[0]) == r
        G = signature(transitive_tournament(14))
        out = find_pc_cycle_upto(G, G.n)
        assert out.status == EXHAUSTED and out.details["walk_periods"] == []
        assert out.nodes == find_pc_cycle_upto(G, 3).nodes

    def test_long_cycle_needs_no_recursion(self):
        # A pc C_1200: the filter admits only length 1200, so the DFS goes
        # straight to a path 1200 vertices deep.
        n = 1200
        G = EdgeColoredGraph(n, [(i, (i + 1) % n, i % 2) for i in range(n)])
        out = find_pc_cycle_upto(G, n)
        assert out.status == FOUND and out.details["walk_periods"] == [n]
        assert out.witness.vertices[0] == tuple(range(n))
        assert verify_witness(G, out.witness)

    def test_filter_ticks_are_linear(self):
        # One tick per arc of the hub graph: at most 2m exit arcs plus six
        # per (vertex, color) state for the state and hub arcs; one per
        # edge the peel removes, which saves the edge's two exit arcs.
        G = signature(circulant_tournament(201))
        clock = _Clock(None)
        classes = walk_classes(G, clock)
        assert [p for p, _ in classes] == [1, 1]
        assert 0 < clock.nodes <= 2 * G.m + 6 * total_color_degree(G)
        # The same signature with a fringe of 40 pendant trees and paths,
        # which the peel removes down to the circulant core.
        F = fringed(G, random.Random(7), extra=40)
        clock = _Clock(None)
        classes = walk_classes(F, clock)
        assert [(p, len(verts)) for p, verts in classes] == [(1, 201), (1, 201)]
        assert 0 < clock.nodes <= 2 * F.m + 6 * total_color_degree(F)


@contextmanager
def dfs_switch(nodes_per_edge):
    """Run with the DFS building each start's return table once it has
    spent nodes_per_edge x m nodes (0: before its first step; math.inf:
    never); yields the list of the starts it builds one for."""
    builds = []

    def spy(adj, start, *rest, real=_return_table):
        builds.append(start)
        return real(adj, start, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detectors, "_WALK_SWITCH", nodes_per_edge)
        mp.setattr(detectors, "_return_table", spy)
        yield builds


class TestReturnTable:
    """The DFS's return table against walks through the explicit states,
    and the DFS with the table built from its first step on."""

    def test_matches_brute_force(self):
        checked = 0
        for seed in range(60):
            G = cycle_search_instance(seed)
            rng = random.Random(seed)
            for start in range(G.n):
                admitted = sorted(rng.sample(range(G.n), rng.randint(1, G.n)))
                limit = rng.randint(1, G.n)
                clock = _Clock(None)
                first, near, via = _return_table(
                    G.adj, start, admitted, limit, clock, bytearray(b"\x01") * G.n
                )
                allowed = {v for v in admitted if v > start}
                expect = brute_return_lengths(G, start, allowed, limit)
                for w in allowed:
                    for c in {c for _, c in G.adj[w]}:
                        got = near[w] if c != first[w] else via[w]
                        assert got == expect.get((w, c), limit + 1)
                        checked += got <= limit
                # Each vertex is handed on at most twice, start once.
                assert clock.nodes <= 4 * G.m + len(G.adj[start])
        assert checked > 100

    def test_seeded_witnesses_with_the_table_first(self):
        with dfs_switch(0) as builds:
            for seed in range(120):
                G = cycle_search_instance(seed)
                for r in range(3, G.n + 1):
                    out = find_pc_cycle_upto(G, r)
                    assert (out.witness.vertices[0] if out.witness else None) == (
                        first_witness_upto(G, r)
                    )
        assert len(builds) > 100

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_larger_graphs_keep_their_witnesses(self, seed):
        # The same witness whether every start builds its table at once or
        # none ever does, on graphs too large for the oracle.
        G = pc_c4_free_instance(seed) if seed % 2 else gate_instance(seed)
        r = random.Random(seed).randint(3, G.n)
        with dfs_switch(0):
            out = find_pc_cycle_upto(G, r)
        with dfs_switch(math.inf) as builds:
            plain = find_pc_cycle_upto(G, r)
        assert not builds
        assert (out.status, out.witness) == (plain.status, plain.witness)

    def test_node_budget_sweep_with_the_table(self):
        # A relabelled blow-up with the flower on one vertex; every start
        # builds its table before its first step. Every node budget, inside
        # a table build or not, ends budget-exceeded or with the unbudgeted
        # answer.
        G = pc_c4_free_instance(1)
        with dfs_switch(0) as builds:
            full = find_pc_cycle_upto(G, G.n)
            assert full.status == FOUND and len(builds) > 1
            for b in range(1, full.nodes + 2):
                out = find_pc_cycle_upto(G, G.n, SearchBudget(max_nodes=b))
                if out.status == BUDGET_EXCEEDED:
                    assert out.witness is None and b < full.nodes
                else:
                    assert (out.status, out.witness, out.nodes) == (
                        full.status, full.witness, full.nodes
                    )

    def test_cuts_the_dfs_on_a_relabelled_blowup(self):
        # A pc path of a C7 blow-up that turns from going against the arcs
        # to going with them never gets back to its start within 7 edges.
        # With these labels the DFS from the first start tries many such
        # paths until its table cuts them off. The walk-period filter costs
        # the same either way: find_pc_cycle_upto(G, 6) is the filter alone.
        G = relabelled(blowup_cycle_signature(7, 12), random.Random(6))
        base = find_pc_cycle_upto(G, 6).nodes
        out = find_pc_cycle_upto(G, 7)
        with dfs_switch(math.inf):
            plain = find_pc_cycle_upto(G, 7)
        assert out.status == FOUND and out.witness == plain.witness
        assert (out.nodes - base) * 10 < plain.nodes - base


def fringed(G, rng, extra=None):
    """G with pendant trees and paths hung on random vertices: each tree in
    one color, each path with a color per edge. The walk-class pass peels
    them all off and keeps what G's own closed pc walks hold."""
    n, edges = G.n, list(G.edges)
    for _ in range(rng.randint(1, 3) if extra is None else extra):
        root, color = rng.randrange(G.n), rng.randint(0, 3)
        size = rng.randint(1, 4)
        tree = rng.random() < 0.5
        for i in range(size):
            parent = rng.choice([root, *range(n, n + i)]) if tree else (n + i - 1 if i else root)
            edges.append((parent, n + i, color if tree else rng.randint(0, 3)))
        n += size
    return EdgeColoredGraph(n, edges)


def acyclic_signature(n, p, seed):
    """The signature of a random acyclic digraph: each arc of a random
    oriented graph points to its larger end."""
    D = random_oriented_graph(n, p, seed)
    return signature(OrientedGraph(n, sorted({(min(a), max(a)) for a in D.arcs})))


def walk_class_instance(seed):
    """A small graph for the walk-class oracle: an acyclic or a random
    signature, a C_r blow-up, a random graph, or a pc cycle, a blow-up or a
    random graph with a fringe of pendant trees and paths (see fringed),
    relabelled."""
    rng = random.Random(seed)
    kind = seed % 6
    if kind == 0:
        G = acyclic_signature(rng.randint(3, 10), rng.choice((0.3, 0.6, 1.0)), seed)
    elif kind == 1:
        G = signature(random_oriented_graph(rng.randint(3, 9), rng.choice((0.3, 0.6)), seed))
    elif kind == 2:
        G = blowup_cycle_signature(rng.randint(3, 6), rng.randint(1, 2))
    elif kind == 3:
        G = random_edge_colored_graph(
            rng.randint(2, 10), rng.choice((0.2, 0.4, 0.8)), rng.randint(1, 4), seed
        )
    elif kind == 4:
        r = rng.randint(3, 7)
        cyc = EdgeColoredGraph(r, [(i, (i + 1) % r, i % 2 + 2 * (i == r - 1)) for i in range(r)])
        G = fringed(cyc, rng)
    else:
        core = (
            blowup_cycle_signature(rng.choice((3, 4, 5)), 1)
            if rng.random() < 0.5
            else random_edge_colored_graph(rng.randint(3, 7), 0.6, rng.randint(2, 3), seed)
        )
        G = fringed(core, rng)
    return relabelled(G, rng)


class TestWalkClassesOracle:
    """The hub pass on the one-color core against the explicit state graph
    of brute_walk_classes, on graphs the peel empties, leaves whole, or cuts
    down to a core."""

    @staticmethod
    def classes(G):
        return sorted(walk_classes(G))

    def test_seeded_instances(self):
        peeled_to_core = 0
        for seed in range(180):
            G = walk_class_instance(seed)
            got = self.classes(G)
            assert got == brute_walk_classes(G), seed
            kept = {v for _, verts in got for v in verts}
            touched = {v for u, w, _ in G.edges for v in (u, w)}
            peeled_to_core += bool(kept) and kept < touched
        assert peeled_to_core > 20

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hypothesis_instances(self, seed):
        G = walk_class_instance(seed)
        assert self.classes(G) == brute_walk_classes(G)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 3)),
                max_size=18,
            ).map(lambda es: (n, es))
        )
    )
    def test_arbitrary_graphs(self, spec):
        n, raw = spec
        pairs = {}
        for u, v, c in raw:
            if u != v:
                pairs.setdefault((min(u, v), max(u, v)), c)
        G = EdgeColoredGraph(n, [(u, v, c) for (u, v), c in pairs.items()])
        assert self.classes(G) == brute_walk_classes(G)

    @staticmethod
    def assert_hub_ticks(G) -> Counter:
        """Check the hub pass's ticks against the arcs out of the nodes it
        reaches and the reads of its mirror steps, the vertices whose chains
        it builds, and its classes against the oracle; return the number
        of groups with a single neighbor, which get no exit node
        ("singles"), of core vertices with one state reached ("fan-outs")
        and of those with chains ("chained").

        The states are laid out from the core's color groups, vertex by
        vertex. The pass builds a vertex's exits, one per group of two or
        more neighbors, when it reaches a first state of it, and its k - 2
        prefix and k - 2 suffix hubs (_hub_chains) only when it reaches a
        second, so it sizes its arrays for all of them; at a vertex of two
        colors the chains are its two exits, with no hub between. The first
        state reached at a vertex with k colors has an arc to each exit but
        its own color's, k - 1; any other, at the i-th color, an arc to
        prefix[i - 1] when i > 0 and to suffix[k - 2 - i] when i < k - 1;
        an exit one arc per neighbor in its group, and a hub two. So
        prefix[j] is reached from another state at a color above j, and
        suffix[j] from one below k - 1 - j; with one state reached, every
        exit but that state's own is. The pass ticks once per arc out of
        each node it reaches and once per group neighbor a mirror step
        reads. It reaches every state when every class is its own mirror; a
        class whose mirror is another reads every group of its states in
        full, and the mirror states it had not reached are never reached."""
        clock = _Clock(None)
        core = _one_color_core(G, clock, bytearray(b"\x01") * G.n)
        peel = clock.nodes
        with mirror_steps(G) as steps, hub_chains() as chained:
            classes = _walk_classes(G, clock, _hub_layout(G, core))
        live = set(core)
        groups_at = []
        for v in core:
            groups: dict[int, list[int]] = {}
            for w, c in G.adj[v]:
                if w in live:
                    groups.setdefault(c, []).append(w)
            assert len(groups) >= 2  # the peel keeps no vertex with fewer colors
            groups_at.append((v, list(groups.items())))
        states = sum(len(groups) for _, groups in groups_at)
        nodes = states + sum(
            3 * len(groups) - 4 - sum(len(ws) == 1 for _, ws in groups) for _, groups in groups_at
        )
        index = steps[0].index if steps else []  # a core holds a class
        assert len(index) == nodes
        counts = Counter()
        keys, reached, first, hubs = [], 0, 0, set()
        for v, groups in groups_at:
            k = len(groups)
            keys += [(v, c) for c, _ in groups]
            at = [i for i in range(k) if index[first + i] > 0]
            counts["singles"] += sum(len(ws) == 1 for _, ws in groups)
            if at:
                fan = min(at, key=lambda i: index[first + i])  # reached first
                rest = [i for i in at if i != fan]
                reached += k - 1 + sum((i > 0) + (i < k - 1) for i in rest)
                reached += sum(
                    len(ws) for i, (_, ws) in enumerate(groups)
                    if len(ws) > 1 and (rest or i != fan)
                )
                if rest:
                    reached += 2 * max(0, max(rest) - 1) + 2 * max(0, k - 2 - min(rest))
                    hubs.add(first)
                counts["chained" if rest else "fan-outs"] += 1
            first += k
        assert clock.nodes - peel == reached + sum(step.reads for step in steps)
        assert sorted(chained) == sorted(hubs)
        unreached = {key for key, i in zip(keys, index) if i < 0}
        assert unreached == set().union(*(step.skipped for step in steps))
        if not any(step.twin for step in steps):
            assert all(i > 0 for i in index[:states])
        for step in steps:
            assert step.reads == step.full if step.twin else 1 <= step.reads <= step.full
        assert sorted(classes) == brute_walk_classes(G)
        return counts

    def test_hub_pass_ticks_once_per_arc(self):
        counts = Counter()
        for seed in range(60):
            rng = random.Random(seed)
            G = random_edge_colored_graph(
                rng.randint(4, 12), rng.choice((0.3, 0.6, 1.0)), rng.randint(2, 5), seed
            )
            counts += self.assert_hub_ticks(G)
            counts += self.assert_hub_ticks(walk_class_instance(seed))
            counts += self.assert_hub_ticks(mirror_instance(seed))
        assert counts["singles"] > 0 and counts["fan-outs"] > 100 and counts["chained"] > 100
        # Every out-arc of a circulant signature is a color (its head) with
        # a single neighbor; every in-arc at v has color v.
        n = 15
        circulant = signature(circulant_tournament(n))
        assert self.assert_hub_ticks(circulant)["singles"] == n * (n - 1) // 2
        # Colors by parity on K_12: at every vertex each color leads to at
        # least five neighbors, so every exit is built.
        dense = EdgeColoredGraph(12, [(u, v, (u + v) % 2) for u, v in combinations(range(12), 2)])
        assert self.assert_hub_ticks(dense)["singles"] == 0

    @pytest.mark.parametrize("r", [5, 6])
    @pytest.mark.parametrize("k", [4, 8])
    def test_a_blow_up_fans_out_from_one_state_per_vertex(self, r, k):
        # Numbered backwards, the C_r blow-up's vertex 0 lists first the
        # color it is entered by forward, so the pass starts on the forward
        # class, whose states, one per vertex, fan out only to forward
        # states: m arcs, one per edge. It lists the backward class, the
        # mirror, with one read per edge, and never reaches an exit or
        # builds a hub: 2m ticks. Numbered as built, vertex 0's first state
        # is a backward one, which also fans out to vertex 0's in-neighbors'
        # exit (k arcs); the forward state the pass reaches there later
        # builds vertex 0's hubs and walks its prefix chain (1 + 2(k - 1)
        # arcs): 3k - 1 ticks more.
        built = blowup_cycle_signature(r, k)
        n = built.n
        backwards = EdgeColoredGraph(n, [(n - 1 - u, n - 1 - v, c) for u, v, c in built.edges])
        for G, extra, hubs in ((backwards, 0, []), (built, 3 * k - 1, [0])):
            clock = _Clock(None)
            with hub_chains() as chained:
                assert walk_classes(G, clock) == [(r, list(range(n)))] * 2
            assert clock.nodes == 2 * G.m + extra and chained == hubs

    def test_acyclic_signatures_peel_to_nothing(self):
        # The sink sees one color at every step; the pass ticks once per edge.
        for n in (1, 2, 5, 14, 30):
            G = signature(transitive_tournament(n))
            clock = _Clock(None)
            assert _one_color_core(G, clock, bytearray(b"\x01") * G.n) == [] and clock.nodes == G.m


def mirror_instance(seed):
    """A graph whose walk classes come in mirror pairs: the signature of a
    random oriented graph, for every other seed beside a random graph with a
    few edges between the two, so that classes which are their own mirror
    meet split pairs in one pass; relabelled."""
    rng = random.Random(seed)
    G = signature(random_oriented_graph(rng.randint(3, 12), rng.choice((0.3, 0.5, 0.8)), seed))
    if seed % 2:
        n = G.n
        R = random_edge_colored_graph(rng.randint(3, 8), 0.6, rng.randint(2, 4), seed)
        edges = {(u, v): c for u, v, c in G.edges}
        edges.update({(u + n, v + n): c + n for u, v, c in R.edges})
        for _ in range(rng.randint(1, 3)):
            edges.setdefault((rng.randrange(n), n + rng.randrange(R.n)), rng.randrange(n + 4))
        G = EdgeColoredGraph(n + R.n, [(u, v, c) for (u, v), c in edges.items()])
    return relabelled(G, rng)


MirrorStep = namedtuple("MirrorStep", "twin reads full skipped held index")


@contextmanager
def mirror_steps(G):
    """Run with a spy on the hub pass's mirror step on G; yields the list
    of MirrorSteps, one for each class the pass lists: whether its mirror
    is another class (twin), the group neighbors the step read (reads) and
    those in the groups of all the class's states (full), the mirror's
    states that the pass had not reached then, which it skips (skipped),
    and those on its stack (held), as (vertex, color) pairs, and the
    pass's discovery list (index), in which a node it reached is above 0
    once it has ended."""
    steps = []

    def spy(own, layout, index, mirrored, real=detectors._mirror):
        first, owner, exits, _ = layout

        def group(y):  # the targets of the exit of y's color at its vertex
            t = exits[owner[y]][y - first[owner[y]]]
            return (t,) if type(t) is int else t

        def key(y):  # (v, c): y's color is that of its edge to a target
            return owner[y], G.color_of(owner[y], owner[group(y)[0]])

        before = bytes(mirrored)
        reads, twin = real(own, layout, index, mirrored)
        new = [y for y, m in enumerate(mirrored) if m and not before[y]]
        steps.append(MirrorStep(
            twin,
            reads,
            sum(len(group(x)) for x in own),
            {key(y) for y in new if index[y] < 0},
            {key(y) for y in new if index[y] > 0},
            index,
        ))
        return reads, twin

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detectors, "_mirror", spy)
        yield steps


@contextmanager
def hub_chains():
    """Run with a spy on the hub pass's chain builder (_hub_chains); yields
    the list of the first state ids of the vertices whose prefix and suffix
    chains it built, in the order it built them (a vertex of two colors
    gets chains with no hub)."""
    built = []

    def spy(exits, first, succ, real=detectors._hub_chains):
        built.append(first)
        real(exits, first, succ)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(detectors, "_hub_chains", spy)
        yield built


def holds_a_closed_walk(G, states) -> bool:
    """Whether the (vertex, color) states hold a closed walk of the explicit
    color-transition graph of G among themselves."""
    left = {
        (v, c): [(w, d) for w, d in G.adj[v] if d != c and (w, d) in states]
        for v, c in states
    }
    # Peel off states with no successor left; what stays holds a cycle.
    while True:
        ends = [x for x, succ in left.items() if not any(y in left for y in succ)]
        if not ends:
            return bool(left)
        for x in ends:
            del left[x]


class TestMirrorClasses:
    """The hub pass lists each walk class's mirror, the class of its
    reversed closed walks, from the class itself, and never explores the
    mirror's states it has not reached yet; a part of the mirror already on
    its stack, completed later, is not listed again. Its classes must be
    those of the full pass (full_hub_walk_classes), up to order."""

    @staticmethod
    def assert_classes(G, dropped=()):
        view = _WalkClasses(G, _Clock(None), {})
        view.drop(dropped)
        core = view.core()
        got = sorted(_walk_classes(G, _Clock(None), _hub_layout(G, core)))
        assert got == sorted(full_hub_walk_classes(G, core))
        if G.n <= 14:
            assert got == brute_walk_classes(without_vertices(G, set(dropped)))
        return got

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.0, 0.15, 0.3)))
    def test_matches_the_full_pass(self, seed, drop):
        G = mirror_instance(seed)
        rng = random.Random(seed)
        self.assert_classes(G, [v for v in range(G.n) if rng.random() < drop])

    def test_seeded_instances_meet_both_skips(self):
        twins = skips = parts = 0
        for seed in range(150):
            G = mirror_instance(seed)
            with mirror_steps(G) as steps:
                self.assert_classes(G)
            twins += sum(step.twin for step in steps)
            skips += sum(bool(step.skipped) for step in steps)
            parts += sum(holds_a_closed_walk(G, step.held) for step in steps)
        assert twins > 50 and skips > 50 and parts >= 3

    def test_a_relabelled_blow_up_skips_its_whole_mirror(self):
        # The C5 blow-up's forward and backward walks are mirror classes,
        # with all 20 vertices and period 5. In this labelling the pass
        # completes the forward class, one state per vertex, before it
        # reaches a backward state, one per arc, each entered by the one
        # edge of its color at its vertex; it never reaches them.
        G = relabelled(blowup_cycle_signature(5, 4), random.Random(1))
        with mirror_steps(G) as steps:
            assert self.assert_classes(G) == [(5, list(range(20)))] * 2
        (step,) = steps
        assert step.twin and step.held == set() and len(step.skipped) == G.m
        assert all(sum(d == c for _, d in G.adj[v]) == 1 for v, c in step.skipped)

    # Graphs on which the pass completes a class while a part of its
    # mirror that holds a closed walk is on its stack: that part is
    # completed later as a component and not listed again. Numbered as
    # built, no C_r blow-up with r = 3..7 and k = 2..4 does this: its first
    # state, a backward one, fans out to forward states first, and is the
    # only backward state on the stack when the forward class completes.
    # The C6 blow-up with k = 3 in the seed-1 labelling of relabelled
    # ("blow-up") does it. Among the relabelled signatures of
    # mirror_instance, seeds 0..149, nine do this; three are kept. The
    # budget sweep also runs on seed 12 and on a random graph.
    HELD = ("blow-up", 1, 14, 67)

    @staticmethod
    def held_instance(name):
        if name == "blow-up":
            return relabelled(blowup_cycle_signature(6, 3), random.Random(1))
        if name == "random":
            return random_edge_colored_graph(10, 0.6, 4, 0)
        return mirror_instance(name)

    @pytest.mark.parametrize("name", HELD)
    def test_a_mirror_part_on_the_stack_is_not_listed_again(self, name):
        G = self.held_instance(name)
        with mirror_steps(G) as steps:
            self.assert_classes(G)
        assert any(step.twin and holds_a_closed_walk(G, step.held) for step in steps)

    @pytest.mark.parametrize("name", HELD + (12, "random"))
    def test_node_budget_sweep_across_the_pass(self, name, walk_passes):
        # Every node budget up to the unbudgeted count ends budget-exceeded
        # or with the unbudgeted answer, through the mirror steps' reads
        # and, on the random graph, between the hub builds of its vertices:
        # some budgets stop the pass after it has built some vertices' hubs
        # but not all. Each of these graphs holds a cycle that the DFS finds
        # within its rent, before it would buy the pass, so the sweep runs
        # with no rent: the pass comes first, as when the DFS bought it up
        # front.
        G = self.held_instance(name)
        with scan_rent(0), hub_chains() as chained:
            full = find_pc_cycle_upto(G, G.n)
        ((start, end, _),) = walk_passes["hub"]
        assert start < end
        stopped_with = set()
        for b in range(1, full.nodes + 2):
            with scan_rent(0), hub_chains() as built:
                out = find_pc_cycle_upto(G, G.n, SearchBudget(max_nodes=b))
            if out.status == BUDGET_EXCEEDED:
                assert out.witness is None and b < full.nodes
                stopped_with.add(len(built))
            else:
                assert (out.status, out.witness, out.nodes, out.details) == (
                    full.status, full.witness, full.nodes, full.details
                )
        if name == "random":
            assert any(0 < built < len(chained) for built in stopped_with)


def core_instance(seed):
    """A walk-class instance (see walk_class_instance), or for every third
    seed what is left of one after without_vertices removes a random third
    of its vertices, which stay behind as isolated vertices."""
    G = walk_class_instance(seed)
    if seed % 3:
        return G
    rng = random.Random(seed)
    return without_vertices(G, {v for v in range(G.n) if rng.random() < 1 / 3})


class TestOneColorCore:
    """The queue peel against brute_one_color_core, which deletes one
    vertex at a time and recounts colors from the edge list."""

    @staticmethod
    def core(G):
        clock = _Clock(None)
        core = _one_color_core(G, clock, bytearray(b"\x01") * G.n)
        # One tick per edge removed: the edges with a peeled end.
        kept = set(core)
        assert clock.nodes == sum(not (u in kept and v in kept) for u, v, _ in G.edges)
        return core

    def test_seeded_instances(self):
        peeled_to_core = isolated = 0
        for seed in range(240):
            G = core_instance(seed)
            core = self.core(G)
            assert core == brute_one_color_core(G), seed
            peeled_to_core += 0 < len(core) < G.n
            isolated += seed % 3 == 0 and any(not nbrs for nbrs in G.adj)
        assert peeled_to_core > 40 and isolated > 40

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hypothesis_instances(self, seed):
        G = core_instance(seed)
        assert self.core(G) == brute_one_color_core(G)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 2)),
                max_size=24,
            ).map(lambda es: (n, es))
        )
    )
    def test_arbitrary_graphs(self, spec):
        # Three colors, so that many vertices see a single color and the
        # peel has work to do.
        n, raw = spec
        pairs = {}
        for u, v, c in raw:
            if u != v:
                pairs.setdefault((min(u, v), max(u, v)), c)
        G = EdgeColoredGraph(n, [(u, v, c) for (u, v), c in pairs.items()])
        assert self.core(G) == brute_one_color_core(G)

    def test_larger_graphs(self):
        # Fringed blow-ups and circulant signatures peel back to the
        # original graph; transitive signatures and their residuals to
        # nothing; a random graph with its oracle core.
        for seed in range(4):
            rng = random.Random(seed)
            B = blowup_cycle_signature(rng.choice((3, 5, 6)), 2)
            assert self.core(fringed(B, rng, extra=8)) == list(range(B.n))
            C = signature(circulant_tournament(11))
            assert self.core(fringed(C, rng, extra=8)) == list(range(C.n))
            T = signature(transitive_tournament(12 + seed))
            assert self.core(T) == []
            assert self.core(without_vertices(T, {0, 5})) == []
            R = random_edge_colored_graph(14, 0.25, 3, seed)
            assert self.core(R) == brute_one_color_core(R)

    @staticmethod
    def assert_masked_peel(G, rng) -> bool:
        """The peel on a live mask of G against the peel of G rebuilt
        without the vertices the mask clears: the same core and the same
        ticks, and the mask left as it was. Returns whether the masked peel
        removed a live vertex."""
        p = rng.choice((0.1, 0.3, 0.6))
        dead = {v for v in range(G.n) if rng.random() < p}
        live = bytearray(v not in dead for v in range(G.n))
        mask = bytes(live)
        clock, rebuilt = _Clock(None), _Clock(None)
        core = _one_color_core(G, clock, live)
        R = without_vertices(G, dead)
        assert core == _one_color_core(R, rebuilt, bytearray(b"\x01") * R.n)
        assert clock.nodes == rebuilt.nodes and live == mask
        return len(core) < G.n - len(dead)

    def test_masked_peel_is_the_peel_of_the_rebuilt_residual(self):
        peeled = 0
        for seed in range(240):
            rng = random.Random(seed)
            for G in (core_instance(seed), cycle_search_instance(seed), gate_instance(seed)):
                peeled += self.assert_masked_peel(G, rng)
        assert peeled > 100

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_masked_peel_hypothesis(self, seed):
        rng = random.Random(seed)
        self.assert_masked_peel(walk_class_instance(seed), rng)
        self.assert_masked_peel(
            random_edge_colored_graph(rng.randint(1, 14), rng.random(), rng.randint(1, 4), seed),
            rng,
        )

    def test_every_pc_c4_and_k23_vertex_is_in_the_core(self):
        # On core instances, and on proper K_{2,3}s and K_{2,4}s with a
        # fringe, relabelled.
        c4s = k23s = dropped = 0
        for seed in range(190):
            if seed < 150:
                G = core_instance(seed)
            else:
                rng = random.Random(seed)
                K = random_proper_complete_bipartite(2, 3 + seed % 2, seed)
                G = relabelled(fringed(K, rng), rng)
            core = set(self.core(G))
            dropped += G.n - len(core)
            for a, b, c, d in combinations(range(G.n), 4):
                for cyc in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
                    if is_pc_cycle(G, cyc):
                        c4s += 1
                        assert set(cyc) <= core
            for S, T in all_pc_kst_witnesses(G, 2, 3):
                k23s += 1
                assert set(S) | set(T) <= core
        assert c4s > 20 and k23s > 20 and dropped > 0


def gate_instance(seed):
    """A graph on which K_{s,t} scans mostly run past their switch point to
    the walk-class pass: a relabelled C3, C5 or C6 blow-up, an acyclic or a
    random signature, a sparse random graph, or a proper K_{3,3} (rainbow
    for half the seeds) on the last six ids after a relabelled C3 or C5
    blow-up padded with isolated vertices, whose witnesses the scans find
    past the switch."""
    rng = random.Random(seed)
    kind = seed % 5
    if kind == 0:
        G = blowup_cycle_signature(rng.choice((3, 5, 6)), rng.randint(2, 3))
    elif kind == 1:
        G = signature(transitive_tournament(rng.randint(8, 12)))
    elif kind == 2:
        G = signature(random_oriented_graph(rng.randint(9, 13), rng.choice((0.3, 0.6)), seed))
    elif kind == 3:
        G = random_edge_colored_graph(
            rng.randint(10, 15), rng.choice((0.15, 0.3, 0.5)), rng.choice((6, 40)), seed
        )
    else:
        B = blowup_cycle_signature(rng.choice((3, 5)), 2)
        B = relabelled(EdgeColoredGraph(B.n + 4, B.edges), rng)
        K = random_proper_complete_bipartite(3, 3, seed)
        rainbow = rng.random() < 0.5
        planted = [
            (u + B.n, v + B.n, 100 + (i if rainbow else c))
            for i, (u, v, c) in enumerate(K.edges)
        ]
        return EdgeColoredGraph(B.n + K.n, list(B.edges) + planted)
    return relabelled(G, rng)


@contextmanager
def logged_passes():
    """Run with spies on the walk-period filter; yields {"peel": [...],
    "hub": [...]}, the (nodes before, nodes after, result) of each call
    that runs to its end: of the one-color peel, whose result is the core,
    and of the hub pass, whose result is the walk classes."""
    calls = {"peel": [], "hub": []}
    with pytest.MonkeyPatch.context() as mp:
        for key, name in (("peel", "_one_color_core"), ("hub", "_walk_classes")):

            def spy(G, clock, *rest, real=getattr(detectors, name), log=calls[key]):
                before = clock.nodes
                result = real(G, clock, *rest)  # the core, or the peel's live mask
                log.append((before, clock.nodes, result))
                return result

            mp.setattr(detectors, name, spy)
        yield calls


@pytest.fixture
def walk_passes():
    """The calls of logged_passes over the whole test."""
    with logged_passes() as calls:
        yield calls


def clear(walk_passes):
    for calls in walk_passes.values():
        calls.clear()


@contextmanager
def scan_rent(nodes_per_edge):
    """Run with each peel setting the view's switch nodes_per_edge x m past
    itself (0: the hub pass before the first subset; math.inf: never, so
    no search on the view runs the hub pass)."""
    real = _WalkClasses.core

    def core(self):
        peeled = self._core is None
        out = real(self)
        if peeled and self.classes is None:
            rent = nodes_per_edge * self.m if nodes_per_edge != math.inf else math.inf
            self.switch = self.clock.nodes + rent
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_WalkClasses, "core", core)
        yield


def rent_instance(seed):
    """A relabelled C3-C7 blow-up, a relabelled circulant or transitive
    signature, or a sparse random graph (n 15-60, p <= 0.15, 2-1000
    colors)."""
    rng = random.Random(seed)
    kind = seed % 4
    if kind == 0:
        G = blowup_cycle_signature(rng.randint(3, 7), rng.randint(2, 4))
    elif kind == 1:
        G = signature(circulant_tournament(rng.randrange(5, 22, 2)))
    elif kind == 2:
        G = signature(transitive_tournament(rng.randint(8, 30)))
    else:
        return random_edge_colored_graph(
            rng.randint(15, 60), rng.choice((0.05, 0.1, 0.15)), rng.choice((2, 3, 6, 40, 1000)), seed
        )
    return relabelled(G, rng)


class TestWalkGate:
    """K_{s,t} scans start on the one-color core, run the hub pass once
    they have spent their switch point of nodes, and go on over the
    vertices it admits for length 4; the first witness stays the
    brute-force one."""

    @staticmethod
    def assert_first_witnesses(G):
        """Check every K_{s,t}-based search of G against the oracle; return
        how many of them ran the pass, and how many of those found."""
        ran = found = 0
        for s, t in ((2, 2), (2, 3), (3, 3)):
            if s == 3 and G.n > 16:
                continue  # the oracle would take seconds
            for find, rainbow in ((find_pc_kst, False), (find_rainbow_kst, True)):
                out = find(G, s, t)
                expect = first_pc_kst_witness(G, s, t, rainbow=rainbow)
                assert out.status == (FOUND if expect else EXHAUSTED)
                assert (out.witness.vertices if out.witness else None) == expect
                if "walk_periods" in out.details:
                    ran += 1
                    found += out.witness is not None
        for rainbow in (True, False):
            first = first_pc_kst_witness(G, 2, 2, rainbow=rainbow)
            cycle = None if first is None else (first[0][0], first[1][0], first[0][1], first[1][1])
            if rainbow:
                out = find_rainbow_c4(G)
                assert (out.witness.vertices if out.witness else None) == (
                    None if cycle is None else (cycle,)
                )
            else:
                # Both cycle searches decide length 4 by the K_{2,2} scan:
                # the pipeline tries it before length 3, find_pc_cycle_upto
                # after it.
                out = pc_short_cycle_pipeline(G, 4)
                triangle = first_pc_cycle_witness(G, [3])
                expect = cycle or triangle
                assert (out.witness.vertices[0] if out.witness else None) == expect
                out = find_pc_cycle_upto(G, 4)
                expect = triangle or cycle
                assert (out.witness.vertices[0] if out.witness else None) == expect
        return ran, found

    def test_seeded_first_witnesses(self):
        ran = found = 0
        for seed in range(25):
            r, f = self.assert_first_witnesses(gate_instance(seed))
            ran, found = ran + r, found + f
        assert ran > 50 and found > 5

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_first_witnesses(self, seed):
        self.assert_first_witnesses(gate_instance(seed))

    def test_every_pc_c4_vertex_is_admitted(self):
        c4s = dropped = 0
        for seed in range(150):
            G = cycle_search_instance(seed)
            admitted = _WalkClasses(G, _Clock(None), {}).admitted(4)
            dropped += G.n - len(admitted)
            for cyc in all_cycles_by_permutation(G.n, [(u, v) for u, v, _ in G.edges]):
                if len(cyc) == 4 and is_pc_cycle(G, cyc):
                    c4s += 1
                    assert set(cyc) <= set(admitted)
        assert c4s > 0 and dropped > 0

    def test_details_report_the_pass(self):
        # Transitive signatures have no closed pc walk: the peel empties
        # them before the scan starts. A circulant signature's first pair
        # holds a pc C4, found long before the switch.
        out = find_pc_kst(signature(transitive_tournament(30)), 2, 2)
        assert out.status == EXHAUSTED and out.details == {"walk_periods": []}
        out = find_pc_kst(signature(circulant_tournament(201)), 2, 2)
        assert out.status == FOUND and out.details == {}

    def test_gate_decides_acyclic_signatures_with_fewer_nodes(self):
        # The peel empties every acyclic signature, one tick per edge, and
        # the scan has no subset left: no K_{s,t} search costs more.
        searches = [
            *(lambda G, s=s, t=t: find_pc_kst(G, s, t) for s, t in ((2, 2), (2, 3), (3, 3))),
            *(lambda G, s=s, t=t: find_rainbow_kst(G, s, t) for s, t in ((2, 2), (2, 3), (3, 3))),
            find_rainbow_c4,
        ]
        for n in range(10, 61):
            G = signature(transitive_tournament(n))
            for search in searches:
                out = search(G)
                assert out.status == EXHAUSTED and out.nodes == G.m
                assert out.details == {"walk_periods": []}

    # (find_pc_kst at (2,2), (2,3), (3,3), find_rainbow_kst at the same,
    # find_rainbow_c4, pc_short_cycle_pipeline and find_pc_cycle_upto at
    # r = 6): the node counts from before the peel ran up front, but for the
    # pipeline's on the C6 blow-ups, which go straight from the K_{2,2} scan
    # to the DFS, and less, per entry, the exits the hub pass no longer
    # builds for colors with a single neighbor (36 on circulant-9, 24 on
    # c6-blowup-2, 54 on c6-blowup-3, wherever it runs) and the 2 ticks of
    # augmenting paths that the t = 2 matching no longer runs on
    # circulant-9's first pair:
    #   circulant-9  [-2, -36, -36, -2, -36, -36, -2, -2, -36]
    #   c6-blowup-2  [-24, 0, -24, -24, 0, -24, -24, -24, -24]
    #   c6-blowup-3  [-54] * 9
    # and less again, wherever the hub pass runs, what listing each class's
    # mirror saves it. Each graph is a signature with two classes, the
    # forward and the backward walks, mirrors of each other. The pass
    # completes one of them, reads one group neighbor per arc (m) to list
    # the other, and no longer reaches the other's states and the hubs
    # behind them: arcs 138, 51 and 170 fewer, reads 36, 24 and 54, so
    # 102, 27 and 116 nodes fewer:
    #   circulant-9  [0, -102, -102, 0, -102, -102, 0, 0, -102]
    #   c6-blowup-2  [-27, 0, -27, -27, 0, -27, -27, -27, -27]
    #   c6-blowup-3  [-116] * 9
    # and less again, wherever the hub pass runs, what the direct fan-out
    # of each vertex's first state reached saves it. The pass now reaches
    # one state per vertex, but two at vertex 0, and builds hubs there
    # alone: m fan-out arcs plus 3d - 1 at vertex 0, of in-degree d (see
    # TestWalkClassesOracle), so its arcs went 78 -> 47, 69 -> 29 and
    # 136 -> 62, with the same reads, 31, 40 and 74 nodes fewer:
    #   circulant-9  [0, -31, -31, 0, -31, -31, 0, 0, -31]
    #   c6-blowup-2  [-40, 0, -40, -40, 0, -40, -40, -40, -40]
    #   c6-blowup-3  [-74] * 9
    # A scan now runs the hub pass once it has spent m nodes past the peel,
    # not 3m. Nothing is peeled here, so a scan that reaches its switch
    # costs rent + hub pass, and the pipeline 6 DFS nodes more. (The cycle
    # DFS then ran the hub pass at its first length, before any scan, and
    # paid no rent: hub + 6.) circulant-9's pass admits every vertex, so its
    # scans resume over the same vertices and keep their counts. Split,
    # rent + hub:
    #   c6-blowup-2 (m = 24): 24 + 53 for every scan, where it was 72 + 53.
    #     The pc and rainbow K_{2,3} scans run out of pairs after 66 nodes,
    #     within the old rent but past the new one, so they now pay the
    #     pass: 11 more. Pipeline 24 + 53 + 6.
    #   c6-blowup-3 (m = 54): 57 + 116 at s = 2 (the subset that reaches the
    #     switch ends 3 past it) and 54 + 116 at s = 3, where each was
    #     162 + 116. Pipeline 57 + 116 + 6.
    # The cycle DFS now pays the same rent before it buys the pass: it draws
    # its starts from the scan's generator, on the core until m nodes past
    # the peel. find_pc_cycle_upto at r = 6, rent + hub + DFS, where it was
    # hub + DFS:
    #   circulant-9: 0 + 0 + 9, where it was 83 + 9: the first start's DFS
    #     finds a triangle within the rent.
    #   c6-blowup-2: 24 + 53 + 6, where it was 53 + 6: length 3 spends the
    #     rent on the core, and after the pass no vertex is admitted for 3,
    #     4 or 5.
    #   c6-blowup-3: 54 + 116 + 6, where it was 116 + 6, in the same way.
    TWO_COLOR_NODES = {
        "circulant-9": [13, 425, 335, 13, 425, 335, 13, 13, 9],
        "c6-blowup-2": [77, 77, 77, 77, 77, 77, 77, 83, 83],
        "c6-blowup-3": [173, 173, 170, 173, 173, 170, 173, 179, 176],
    }

    @pytest.mark.parametrize("name", sorted(TWO_COLOR_NODES))
    def test_graphs_without_one_color_vertices_keep_their_node_counts(self, name):
        # Every vertex sees two colors, so the peel queues no vertex and
        # returns the whole vertex set with no tick, and every search runs
        # as before.
        G = signature(circulant_tournament(9)) if name == "circulant-9" else (
            extremal_no_pc_c4(int(name[-1]))
        )
        clock = _Clock(None)
        assert _one_color_core(G, clock, bytearray(b"\x01") * G.n) == list(range(G.n))
        assert clock.nodes == 0
        pairs = ((2, 2), (2, 3), (3, 3))
        nodes = [find_pc_kst(G, s, t).nodes for s, t in pairs]
        nodes += [find_rainbow_kst(G, s, t).nodes for s, t in pairs]
        nodes += [
            find_rainbow_c4(G).nodes,
            pc_short_cycle_pipeline(G, 6).nodes,
            find_pc_cycle_upto(G, 6).nodes,
        ]
        assert nodes == self.TWO_COLOR_NODES[name]

    @pytest.mark.parametrize("name", ["pc-k22", "pc-k23", "pipeline", "disjoint"])
    @pytest.mark.parametrize("seed", [0, 1, 4, "fringe"])
    def test_node_budget_sweep(self, name, seed, walk_passes):
        # Every node budget up to the unbudgeted count, so across the switch
        # point, the peel's ticks and the pass's, ends budget-exceeded or
        # with the unbudgeted answer. Seed 1 is a transitive signature, which
        # the peel empties; "fringe" a C5 blow-up that it cuts back to.
        if seed == "fringe":
            G = fringed(blowup_cycle_signature(5, 2), random.Random(5), extra=4)
        else:
            G = extremal_no_pc_c4(3) if seed == 0 else gate_instance(seed)
        search = {
            "pc-k22": lambda b: find_pc_kst(G, 2, 2, b),
            "pc-k23": lambda b: find_pc_kst(G, 2, 3, b),
            "pipeline": lambda b: pc_short_cycle_pipeline(G, 6, b),
            "disjoint": lambda b: disjoint_pc_cycles(G, 3, b),
        }[name]
        full = search(None)
        # The gate ran: the hub pass, or a peel that cut the graph down (to
        # nothing, on the transitive signature).
        assert walk_passes["peel"]
        assert walk_passes["hub"] or any(len(core) < G.n for *_, core in walk_passes["peel"])
        for b in range(1, full.nodes + 2):
            out = search(SearchBudget(max_nodes=b))
            if out.status == BUDGET_EXCEEDED:
                assert out.witness is None and b < full.nodes
            else:
                assert (out.status, out.witness, out.nodes) == (full.status, full.witness, full.nodes)

    def test_one_pass_per_pipeline_call_and_disjoint_round(self, walk_passes):
        # One peel per pipeline call and per disjoint round, and at most one
        # hub pass, which never runs on an empty core.
        for seed in range(30):
            for G in (gate_instance(seed), cycle_search_instance(seed)):
                for r in (4, 6):
                    clear(walk_passes)
                    out = pc_short_cycle_pipeline(G, r)
                    ((_, _, core),) = walk_passes["peel"]
                    hubs = len(walk_passes["hub"])
                    assert hubs + (core == []) == ("walk_periods" in out.details)
                for k in (1, 3):
                    clear(walk_passes)
                    out = disjoint_pc_cycles(G, k)
                    rounds = len(out.details["cycles"]) + (out.status == EXHAUSTED)
                    assert len(walk_passes["peel"]) == rounds
                    empty = sum(core == [] for _, _, core in walk_passes["peel"])
                    assert len(walk_passes["hub"]) <= rounds - empty

    def test_stage3_reuses_the_pass_of_stage1(self, walk_passes):
        G = extremal_no_pc_c4(3)
        scan = find_pc_kst(G, 2, 2).nodes
        clear(walk_passes)
        out = pc_short_cycle_pipeline(G, 6)
        assert out.status == FOUND and len(out.witness.vertices[0]) == 6
        ((_, _, core),) = walk_passes["peel"]
        ((_, end, _),) = walk_passes["hub"]
        assert core == list(range(G.n)) and end <= scan

    @pytest.mark.parametrize("name", ["pc-k22", "rainbow-k33", "pipeline", "pc-cycle", "disjoint"])
    @pytest.mark.parametrize("core", ["fringe", "empty"])
    def test_node_budget_sweep_across_the_peel(self, name, core, walk_passes):
        # The peel runs first and ticks once per edge it removes; every
        # budget that runs out inside it ends budget-exceeded with no walk
        # periods, and the others with the unbudgeted answer.
        if core == "fringe":
            G = fringed(blowup_cycle_signature(3, 2), random.Random(3), extra=6)
        else:
            G = signature(transitive_tournament(9))
        search = {
            "pc-k22": lambda b: find_pc_kst(G, 2, 2, b),
            "rainbow-k33": lambda b: find_rainbow_kst(G, 3, 3, b),
            "pipeline": lambda b: pc_short_cycle_pipeline(G, 6, b),
            "pc-cycle": lambda b: find_pc_cycle_upto(G, 6, b),
            "disjoint": lambda b: disjoint_pc_cycles(G, 2, b),
        }[name]
        full = search(None)
        ((start, end, kept), *_) = walk_passes["peel"]
        assert start == 0 and end > 0 and (kept == []) == (core == "empty")
        for b in range(1, full.nodes + 2):
            out = search(SearchBudget(max_nodes=b))
            if b < end:
                assert out.status == BUDGET_EXCEEDED and out.witness is None
                assert "walk_periods" not in out.details
            elif out.status == BUDGET_EXCEEDED:
                assert out.witness is None and b < full.nodes
            else:
                assert (out.status, out.witness, out.nodes) == (full.status, full.witness, full.nodes)

    RENT_SEARCHES = (
        lambda G: find_pc_kst(G, 2, 2),
        lambda G: find_pc_kst(G, 2, 3),
        lambda G: find_pc_kst(G, 3, 3),
        lambda G: find_rainbow_kst(G, 2, 2),
        find_rainbow_c4,
        lambda G: pc_short_cycle_pipeline(G, 6),
        lambda G: disjoint_pc_cycles(G, 3),
        lambda G: find_pc_cycle_upto(G, 6),
        lambda G: find_pc_cycle_upto(G, G.n),
    )

    def assert_rent_independent(self, G):
        """Every scan-based search of G has the same status and witness
        whatever the switch point; return how many of them moved their
        node count with it."""
        moved = 0
        for search in self.RENT_SEARCHES:
            outs = []
            for rent in (0, 1, 3, math.inf):
                with scan_rent(rent):
                    outs.append(search(G))
            assert len({(out.status, out.witness) for out in outs}) == 1
            moved += len({out.nodes for out in outs}) > 1
        return moved

    def test_seeded_answers_do_not_depend_on_the_rent(self):
        # The scan and the DFS resume at the same subset or start over the
        # admitted vertices, and no vertex outside them lies on a pc K_{s,t}
        # or a pc cycle of the length searched, so the switch point moves
        # only node counts.
        moved = sum(self.assert_rent_independent(rent_instance(seed)) for seed in range(24))
        assert moved > 20

    def test_a_rent_that_never_ends_runs_no_hub_pass(self, walk_passes):
        # The view and its generator alone run the hub pass: with a rent
        # that never ends, no search on the view runs it.
        for seed in range(12):
            G = rent_instance(seed)
            with scan_rent(math.inf):
                for search in self.RENT_SEARCHES:
                    out = search(G)
                    assert walk_passes["hub"] == []
                    assert out.details.get("walk_periods", []) == []

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_answers_do_not_depend_on_the_rent(self, seed):
        self.assert_rent_independent(rent_instance(seed))


class TestRentedCycleDfs:
    """find_pc_cycle_upto draws its DFS starts from the scans' generator:
    on the one-color core until the view has spent m nodes past the peel,
    then, from the same start on, on the vertices admitted for the length.
    Its status and witness must be those of the driver that bought the hub
    pass before its first start (up_front_find_pc_cycle_upto), and the pass
    never runs before the rent is spent."""

    @staticmethod
    def assert_same(G, r, budget=None):
        with logged_passes() as calls:
            out = find_pc_cycle_upto(G, r, budget)
        ref = up_front_find_pc_cycle_upto(G, r)
        if out.status == BUDGET_EXCEEDED:
            assert out.witness is None
        else:
            assert (out.status, out.witness) == (ref.status, ref.witness)
        # The periods are reported once the pass has run or the peel has
        # left nothing, and the pass starts only once the rent is spent.
        peels, hubs = calls["peel"], calls["hub"]
        assert ("walk_periods" in out.details) == (bool(hubs) or [] in (c for *_, c in peels))
        for (_, peeled, _), (start, _, _) in zip(peels, hubs):
            assert start >= peeled + G.m
        return out, ref, bool(hubs)

    def test_seeded_instances(self):
        bought = cheaper = dearer = 0
        for seed in range(60):
            for G in (cycle_search_instance(seed), rent_instance(seed)):
                for r in sorted({3, 6, max(3, G.n)}):
                    out, ref, hub = self.assert_same(G, r)
                    bought += hub
                    cheaper += out.nodes < ref.nodes
                    dearer += out.nodes > ref.nodes
        assert bought > 80 and cheaper > 80 and dearer > 50

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hypothesis_instances(self, seed):
        for G in (cycle_search_instance(seed), rent_instance(seed)):
            self.assert_same(G, random.Random(seed).randint(3, max(3, G.n)))

    @pytest.mark.parametrize(
        "name, r",
        [("c5-blowup-2", 6), ("circulant-21", 4), ("fringe", 5), ("random", 8), ("transitive", 9)],
    )
    def test_node_budget_sweep(self, name, r):
        # Every node budget up to the unbudgeted count ends budget-exceeded
        # or with the unbudgeted answer, the reference's: across the peel,
        # the rent on the core, the hub pass and the DFS on the admitted
        # vertices of the C5 blow-up and of the fringed one, within the rent
        # on the circulant signature and the random graph, and inside the
        # peel that empties the transitive signature.
        G = {
            "c5-blowup-2": lambda: blowup_cycle_signature(5, 2),
            "circulant-21": lambda: signature(circulant_tournament(21)),
            "fringe": lambda: fringed(blowup_cycle_signature(5, 2), random.Random(5), extra=4),
            "random": lambda: random_edge_colored_graph(30, 0.15, 3, 2),
            "transitive": lambda: signature(transitive_tournament(9)),
        }[name]()
        full, _, hub = self.assert_same(G, r)
        assert hub == (name in ("c5-blowup-2", "fringe"))
        for b in range(1, full.nodes + 2):
            out, _, _ = self.assert_same(G, r, SearchBudget(max_nodes=b))
            assert (out.status == BUDGET_EXCEEDED) == (b < full.nodes)
            if b >= full.nodes:
                assert (out.nodes, out.details) == (full.nodes, full.details)


class TestFindRainbowC4:
    def test_rainbow_k22(self):
        G = EdgeColoredGraph(4, [(0, 2, 1), (0, 3, 2), (1, 2, 3), (1, 3, 4)])
        out = find_rainbow_c4(G, None)
        assert out.status == FOUND and verify_witness(G, out.witness)

    def test_alternating_c4(self):
        assert find_rainbow_c4(c4(1, 2, 1, 2), None).status == EXHAUSTED

    def test_blowup_c5_signature(self):
        assert find_rainbow_c4(blowup_cycle_signature(5, 3), None).status == EXHAUSTED

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_rainbow_kst(self, seed):
        # The witness is the oracle's first rainbow K_{2,2} ((a, b), (u, w)),
        # read as the cycle (a, u, b, w).
        rng = random.Random(seed)
        G = random_edge_colored_graph(rng.randint(2, 8), 0.6, rng.randint(1, 6), seed)
        out = find_rainbow_c4(G, None)
        expected = first_pc_kst_witness(G, 2, 2, rainbow=True)
        if expected is None:
            assert out.status == EXHAUSTED and out.witness is None
        else:
            (a, b), (u, w) = expected
            assert out.status == FOUND and out.witness.kind == "rainbow-cycle"
            assert out.witness.vertices == ((a, u, b, w),)


class TestShortestDirectedCycle:
    def test_acyclic(self):
        assert shortest_directed_cycle(transitive_tournament(6)).status == EXHAUSTED

    def test_directed_cycle(self):
        out = shortest_directed_cycle(directed_cycle(5))
        assert out.status == FOUND and len(out.witness.vertices[0]) == 5

    def test_blowup_triangle(self):
        out = shortest_directed_cycle(blow_up(directed_cycle(3), 4))
        assert out.status == FOUND and len(out.witness.vertices[0]) == 3

    def test_budget(self):
        # Every node budget ends budget-exceeded or with the unbudgeted
        # answer; so does a time budget that has run out at the first tick.
        for D in (circulant_tournament(101), transitive_tournament(12)):
            full = shortest_directed_cycle(D)
            for b in range(1, full.nodes + 2):
                out = shortest_directed_cycle(D, SearchBudget(max_nodes=b))
                if out.status == BUDGET_EXCEEDED:
                    assert out.witness is None and b < full.nodes
                    assert out.details == {"stopped_by": "nodes"}
                else:
                    assert (out.status, out.witness, out.nodes) == (full.status, full.witness, full.nodes)
            out = shortest_directed_cycle(D, SearchBudget(time_limit_s=1e-9))
            assert out.status == BUDGET_EXCEEDED and out.witness is None

    @staticmethod
    def assert_matches_depth_limited_bfs(D):
        ref, out = depth_limited_shortest_directed_cycle(D), shortest_directed_cycle(D)
        assert (out.status, out.witness) == (ref.status, ref.witness)
        assert out.nodes <= ref.nodes
        return ref.nodes, out.nodes

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30), st.sampled_from([0.1, 0.2, 0.3, 0.6]), st.integers(0, 2**32 - 1))
    def test_matches_depth_limited_bfs(self, n, p, seed):
        # Each source stops at its first closing level: the same status and
        # witness as the BFS that ran to the best cycle's depth, never more nodes.
        self.assert_matches_depth_limited_bfs(random_oriented_graph(n, p, seed))

    def test_matches_depth_limited_bfs_on_families(self):
        nodes = [self.assert_matches_depth_limited_bfs(D) for D in (
            circulant_tournament(101), transitive_tournament(12),
            blow_up(directed_cycle(7), 4),
            construct_orientation(blowup_cycle_signature(5, 8), 2, 2)[1],
            construct_orientation(extremal_no_pc_c4(2), 2, 2)[1],
        )]
        assert nodes[:4] == [(101, 101), (78, 78), (703, 592), (1270, 974)]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_exact_vs_enumeration(self, seed):
        rng = random.Random(seed)
        D = random_oriented_graph(rng.randint(1, 8), rng.choice([0.3, 0.6]), seed)
        out = shortest_directed_cycle(D)
        brute = brute_directed_girth(D)
        if brute is None:
            assert out.status == EXHAUSTED
        else:
            assert out.status == FOUND
            assert len(out.witness.vertices[0]) == brute


class TestPipeline:
    def test_r_validation(self):
        with pytest.raises(ValueError):
            pc_short_cycle_pipeline(mono_k(4), 3, None)

    def test_circulant_signatures(self):
        for n in (9, 20, 31):
            G = signature(circulant_tournament(n))
            out = pc_short_cycle_pipeline(G, 4, None)
            assert out.status == FOUND
            assert len(out.witness.vertices[0]) == 4
            assert verify_witness(G, out.witness)

    def test_edgeless(self):
        assert pc_short_cycle_pipeline(EdgeColoredGraph(6), 4, None).status == EXHAUSTED

    def test_extremal_family(self):
        for k in (1, 2):
            G = blowup_cycle_signature(6, k)
            assert pc_short_cycle_pipeline(G, 4, None).status == EXHAUSTED
            out = pc_short_cycle_pipeline(G, 6, None)
            assert out.status == FOUND and len(out.witness.vertices[0]) == 6

    def test_budget_flows_through(self):
        G = random_edge_colored_graph(30, 0.7, 3, 5)
        out = pc_short_cycle_pipeline(G, 4, SearchBudget(max_nodes=2))
        assert out.status in (FOUND, BUDGET_EXCEEDED)  # the scan may find instantly
        out2 = pc_short_cycle_pipeline(mono_k(20), 4, SearchBudget(max_nodes=2))
        assert out2.status == BUDGET_EXCEEDED

    def test_budget_running_out_in_stage2(self):
        # After the K_{2,2} scan of length 4, the DFS runs. Budgets just
        # short of the end of the scan run out in it; from there up to
        # completion they run out in the DFS, after the scan has filled in
        # the walk periods and before either found a cycle.
        G = extremal_no_pc_c4(3)
        scan = find_pc_kst(G, 2, 2).nodes
        full = pc_short_cycle_pipeline(G, 6)
        assert full.status == FOUND and len(full.witness.vertices[0]) == 6
        for b in range(scan - 2, full.nodes):
            out = pc_short_cycle_pipeline(G, 6, SearchBudget(max_nodes=b))
            assert out.status == BUDGET_EXCEEDED and out.witness is None
            if b >= scan:
                assert out.details["walk_periods"] == [6]

    def test_node_budget_stops_inside_stage2(self):
        # The DFS ticks the pipeline's clock one node at a time, so it stops
        # at most one node past the budget. G has no pc C4 and a non-empty
        # core, so the DFS runs, and it costs more than 5 nodes.
        G = extremal_no_pc_c4(3)
        scan = find_pc_kst(G, 2, 2).nodes
        budget = scan + 5
        assert find_pc_cycle_upto(G, 6).nodes > 5
        out = pc_short_cycle_pipeline(G, 6, SearchBudget(max_nodes=budget))
        assert out.status == BUDGET_EXCEEDED
        assert budget <= out.nodes <= budget + 1
        assert out.details == {"r": 6, "walk_periods": [6], "stopped_by": "nodes"}

    @pytest.mark.parametrize("name", ["pipeline", "disjoint"])
    def test_node_budget_sweep_across_the_dfs(self, name):
        # The K_{2,2} scan of G ends past its switch point, so the hub pass
        # has run and what is left is the DFS, which ticks one node at a
        # time. Every budget from the end of the scan to completion ends
        # budget-exceeded or found, with no private exception escaping, and
        # spends at most one node past the budget.
        G = extremal_no_pc_c4(3)
        k22 = find_pc_kst(G, 2, 2)
        assert k22.status == EXHAUSTED and k22.details["walk_periods"] == [6]
        search = {
            "pipeline": lambda b: pc_short_cycle_pipeline(G, 6, b),
            "disjoint": lambda b: disjoint_pc_cycles(G, 1, b),
        }[name]
        full = search(None)
        assert full.status == FOUND and full.nodes > k22.nodes
        for b in range(k22.nodes, full.nodes + 1):
            out = search(SearchBudget(max_nodes=b))
            assert out.status in (BUDGET_EXCEEDED, FOUND)
            assert out.nodes <= b + 1
            assert (out.status == FOUND) == (b >= full.nodes)

    def test_stage3_skips_length_4(self):
        # The scan decided length 4 (a pc C4 is a pc K_{2,2}), so the DFS
        # that follows it costs less than all of find_pc_cycle_upto, and
        # finds the same cycle. The flower's closed pc walks have period 1,
        # so the walk-period filter admits length 4 for both searches.
        B = extremal_no_pc_c4(3)
        flower, n = flower_edges(B.n)
        G = EdgeColoredGraph(n, list(B.edges) + flower)
        out = pc_short_cycle_pipeline(G, 6)
        assert out.status == FOUND and len(out.witness.vertices[0]) == 6
        assert out.details["walk_periods"] == [1, 6]
        scan = find_pc_kst(G, 2, 2).nodes
        dfs = find_pc_cycle_upto(G, 6)
        assert out.witness == dfs.witness
        assert out.nodes - scan < dfs.nodes

    def test_budget_running_out_in_walk_filter(self, walk_passes):
        # Budgets across the walk-period filter, which the K_{2,2} scan runs
        # here once it passes the switch point, end budget-exceeded (inside
        # the filter) or found.
        G = extremal_no_pc_c4(3)
        full = pc_short_cycle_pipeline(G, 6)
        assert full.status == FOUND and full.details["walk_periods"] == [6]
        ((start, end, _),) = walk_passes["hub"]
        for b in range(start - 2, end + 2):
            out = pc_short_cycle_pipeline(G, 6, SearchBudget(max_nodes=b))
            assert out.status in (BUDGET_EXCEEDED, FOUND)
            if start <= b < end:
                assert out.status == BUDGET_EXCEEDED
                assert "walk_periods" not in out.details

    def test_acyclic_signatures_stop_after_stage1(self):
        # The peel empties an acyclic signature, which proves that it has no
        # pc cycle: the DFS never runs, and the search costs one tick
        # per edge, as find_pc_kst does.
        for n in range(10, 61):
            G = signature(transitive_tournament(n))
            for r in (4, 6, n):
                out = pc_short_cycle_pipeline(G, r)
                assert out.status == EXHAUSTED and out.nodes == G.m
                assert out.details == {"r": r, "walk_periods": []}
            out = disjoint_pc_cycles(G, 2)
            assert out.status == EXHAUSTED and out.nodes == G.m
            assert out.details == {"requested": 2, "cycles": []}


def pc_c4_free_instance(seed):
    """A graph for the pipeline-against-DFS checks, most often with no pc
    C4: a relabelled blow-up of a directed C3 or C5..C8, the same with the
    flower of flower_edges on its last vertex, the signature of a random
    oriented graph, or a sparse random graph with two or three colors."""
    rng = random.Random(seed)
    kind = seed % 4
    if kind <= 1:
        r = rng.choice((3, 5, 6, 7, 8))
        G = blowup_cycle_signature(r, rng.randint(1, 3 if r <= 5 else 2))
        if kind == 1:
            flower, n = flower_edges(G.n - 1)
            G = EdgeColoredGraph(n, list(G.edges) + flower)
    elif kind == 2:
        G = signature(random_oriented_graph(rng.randint(4, 10), rng.choice((0.3, 0.5)), seed))
    else:
        G = random_edge_colored_graph(
            rng.randint(4, 10), rng.choice((0.25, 0.4)), rng.randint(2, 3), seed
        )
    return relabelled(G, rng)


def assert_pipeline_is_the_dfs(G, r) -> bool:
    """Whether G has no pc C4; if so, check that the pipeline returns the
    DFS's answer, for at most the K_{2,2} scan's nodes more when both buy
    the hub pass before their first subset, and for n <= 10 a cycle of the
    length brute_shortest_pc_cycle gives.

    With the default rent the node bound does not hold: the pipeline's
    scan spends rent that find_pc_cycle_upto's DFS has to itself, so the
    pipeline may buy the pass where find_pc_cycle_upto finds its cycle
    first."""
    k22 = find_pc_kst(G, 2, 2)
    if k22.status != EXHAUSTED:
        return False
    out = pc_short_cycle_pipeline(G, r)
    dfs = find_pc_cycle_upto(G, r)
    assert (out.status, out.witness) == (dfs.status, dfs.witness)
    with scan_rent(0):
        k22 = find_pc_kst(G, 2, 2)
        out, dfs = pc_short_cycle_pipeline(G, r), find_pc_cycle_upto(G, r)
    assert (out.status, out.witness) == (dfs.status, dfs.witness)
    assert out.nodes <= k22.nodes + dfs.nodes
    if G.n <= 10:
        shortest = brute_shortest_pc_cycle(G, r)
        assert (len(out.witness.vertices[0]) if out.witness else None) == shortest
    return True


class TestPipelineIsTheDfs:
    """With no pc C4, the pipeline's K_{2,2} scan finds nothing and its DFS
    answers as find_pc_cycle_upto does."""

    def test_seeded(self):
        checked = small = found = 0
        for seed in range(160):
            G = pc_c4_free_instance(seed)
            r = random.Random(seed).randint(4, max(4, G.n))
            if assert_pipeline_is_the_dfs(G, r):
                checked += 1
                small += G.n <= 10
                found += pc_short_cycle_pipeline(G, r).status == FOUND
        assert checked > 80 and small > 30 and 20 < found < checked

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hypothesis(self, seed):
        G = pc_c4_free_instance(seed)
        assert_pipeline_is_the_dfs(G, random.Random(seed).randint(4, max(4, G.n)))


class TestNoPcC4Family:
    """Blow-ups of a directed C5 and a directed C7, with their own ids and
    relabelled: the paper's own regime. They have no pc C4 and no pc cycle
    shorter than r, and their minimum color degree is n/r + 1, below
    the n/r + 2 sqrt(n) + 1 from which the paper's orientation argument
    (given the Caccetta-Haggkvist conjecture) yields a pc cycle of length
    at most r. Every pipeline query on them goes past the K_{2,2} scan to
    the DFS."""

    @pytest.mark.parametrize("labels", [None, 0, 2])
    @pytest.mark.parametrize("r, k", [(5, 8), (5, 24), (7, 8), (7, 12)])
    def test_pipeline_answers_with_the_dfs(self, r, k, labels):
        G = blowup_cycle_signature(r, k)
        if labels is not None:
            G = relabelled(G, random.Random(labels))
        n = G.n
        assert min_color_degree(G) == n // r + 1 < n / r + 2 * math.sqrt(n) + 1
        k22 = find_pc_kst(G, 2, 2)
        assert k22.status == EXHAUSTED and k22.details["walk_periods"] == [r]
        for L in (r - 1, r):
            out = pc_short_cycle_pipeline(G, L)
            dfs = find_pc_cycle_upto(G, L)
            assert (out.status, out.witness) == (dfs.status, dfs.witness)
            assert out.status == (FOUND if L == r else EXHAUSTED)
            # The scan ran the hub pass. A start whose DFS runs long spends
            # 3m nodes, then at most about 4m on its return table, after
            # which these graphs leave it little to search.
            assert out.nodes - k22.nodes <= 7 * G.m


class TestDisjointPcCycles:
    def test_round_on_an_acyclic_residual_stops_after_stage1(self):
        # A pc triangle beside an acyclic signature: the second round's
        # residual peels to nothing, one tick per edge, and ends there.
        T = signature(transitive_tournament(12))
        tri = [(12, 13, 0), (13, 14, 1), (12, 14, 2)]
        G = EdgeColoredGraph(15, list(T.edges) + tri)
        first = pc_short_cycle_pipeline(G, G.n)
        assert first.status == FOUND and sorted(first.witness.vertices[0]) == [12, 13, 14]
        out = disjoint_pc_cycles(G, 2)
        assert out.status == EXHAUSTED and out.details["cycles"] == [[12, 13, 14]]
        assert out.nodes == first.nodes + T.m

    def test_two_disjoint_triangles(self):
        sig = signature(directed_cycle(3))
        edges = list(sig.edges) + [(u + 3, v + 3, c + 3) for u, v, c in sig.edges]
        G = EdgeColoredGraph(6, edges)
        out = disjoint_pc_cycles(G, 2, None)
        assert out.status == FOUND
        assert len(out.witness.vertices) == 2
        assert verify_witness(G, out.witness)

    def test_acyclic_signature(self):
        G = signature(transitive_tournament(8))
        out = disjoint_pc_cycles(G, 1, None)
        assert out.status == EXHAUSTED
        assert out.details["cycles"] == []

    def test_blowup_triangles(self):
        G = signature(blow_up(directed_cycle(3), 4))
        out = disjoint_pc_cycles(G, 4, None)
        assert out.status == FOUND
        assert len(out.witness.vertices) == 4
        seen = set()
        for cyc in out.witness.vertices:
            assert not seen & set(cyc)
            seen |= set(cyc)

    def test_partial_family_reported(self):
        sig = signature(directed_cycle(3))
        out = disjoint_pc_cycles(sig, 2, None)
        assert out.status == EXHAUSTED
        assert len(out.details["cycles"]) == 1

    def test_k_validation(self):
        with pytest.raises(ValueError):
            disjoint_pc_cycles(mono_k(3), 0, None)

    def test_first_round_is_the_unbounded_pipeline(self):
        # Each round runs the pipeline's search with r = max(n, 4), so the
        # first cycle is the pipeline's witness.
        found = 0
        for seed in range(80):
            G = cycle_search_instance(seed)
            out = disjoint_pc_cycles(G, 1)
            pipe = pc_short_cycle_pipeline(G, max(G.n, 4))
            assert out.status == pipe.status
            if pipe.witness is not None:
                found += 1
                assert out.witness.vertices == pipe.witness.vertices
        assert found > 0

    # ROADMAP item 1: the greedy takes two pc C4s, which leave no room for a
    # third cycle, though three disjoint triangles exist.
    CIRCULANT_9_TRIANGLES = ((0, 3, 6), (1, 4, 7), (2, 5, 8))

    def test_circulant_9_holds_three_disjoint_triangles(self):
        G = signature(circulant_tournament(9))
        groups = self.CIRCULANT_9_TRIANGLES
        w = Witness("disjoint-cycles", groups, claimed_edges(G, "disjoint-cycles", groups))
        assert verify_witness(G, w)

    def test_packing_oracle_packs_three_on_circulant_9(self):
        G = signature(circulant_tournament(9))
        groups = max_pc_cycle_packing(G)
        assert len(groups) == 3
        w = Witness("disjoint-cycles", groups, claimed_edges(G, "disjoint-cycles", groups))
        assert verify_witness(G, w)

    def test_greedy_never_packs_more_than_the_oracle(self):
        packed = []
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(6, 9)
            G = random_edge_colored_graph(n, rng.choice((0.5, 0.8)), rng.randint(2, 4), seed)
            most = len(max_pc_cycle_packing(G))
            greedy = disjoint_pc_cycles(G, n // 3)
            assert len(greedy.details["cycles"]) <= most, seed
            packed.append(most)
        assert min(packed) == 0 and max(packed) >= 2

    @pytest.mark.xfail(strict=True, reason="the greedy is no exact packing (ROADMAP item 1)")
    def test_circulant_9_packs_three_cycles(self):
        out = disjoint_pc_cycles(signature(circulant_tournament(9)), 3)
        assert out.status == FOUND

    @staticmethod
    def two_c6_and_a_triangle():
        """PC C6s on 0..5 and 6..11, colors 1 and 2 alternating, and a
        triangle 0-6-12 colored 3, 4, 5, which meets both."""
        six = [(i, (i + 1) % 6, 1 + i % 2) for i in range(6)]
        edges = [*six, *((u + 6, v + 6, c) for u, v, c in six), (0, 6, 3), (6, 12, 4), (0, 12, 5)]
        return EdgeColoredGraph(13, edges)

    # ROADMAP item 1: on c21 the greedy takes four pc C4s (73 nodes), though
    # the seven triangles {i, i+7, i+14} fit; on two_c6_and_a_triangle it
    # takes the triangle (149 nodes), which leaves no cycle.
    @pytest.mark.parametrize("name", ["circulant-21-k7", "two-c6-and-a-triangle-k2"])
    @pytest.mark.xfail(strict=True, reason="the greedy is no exact packing (ROADMAP item 1)")
    def test_packs_what_verify_witness_accepts(self, name):
        if name == "circulant-21-k7":
            G = signature(circulant_tournament(21))
            groups = tuple((i, i + 7, i + 14) for i in range(7))
        else:
            G = self.two_c6_and_a_triangle()
            groups = (tuple(range(6)), tuple(range(6, 12)))
        w = Witness("disjoint-cycles", groups, claimed_edges(G, "disjoint-cycles", groups))
        assert verify_witness(G, w)
        assert disjoint_pc_cycles(G, len(groups)).status == FOUND


def disjoint_instance(seed):
    """A graph for comparing disjoint rounds: a cycle-search, gate or
    walk-class instance, or a random graph on 8 to 18 vertices, dense
    enough for several disjoint pc cycles."""
    kind = seed % 4
    if kind == 0:
        return cycle_search_instance(seed)
    if kind == 1:
        return gate_instance(seed)
    if kind == 2:
        return walk_class_instance(seed)
    rng = random.Random(seed)
    return random_edge_colored_graph(
        rng.randint(8, 18), rng.choice((0.3, 0.5, 0.8)), rng.randint(2, 5), seed
    )


def masked_table_instance():
    """A relabelled C9 blow-up (k = 2) beside a pc triangle on 18..20 whose
    vertex 18 is joined to every blow-up vertex in one color: the triangle
    is the first round's cycle, and the second round's DFS builds a
    _return_table on the mask, where every blow-up vertex has lost its edge
    to 18."""
    B = relabelled(blowup_cycle_signature(9, 2), random.Random(7))
    n = B.n
    triangle = [(n, n + 1, 100), (n + 1, n + 2, 101), (n, n + 2, 102)]
    return EdgeColoredGraph(n + 3, [*B.edges, *triangle, *((v, n, 200) for v in range(n))])


class TestDisjointRoundsOnTheMask:
    """disjoint_pc_cycles runs its rounds after the first on a live mask of
    G; the reference, rebuilt_disjoint_pc_cycles, runs them on residual
    graphs rebuilt from G's edges. Both must end alike at every budget."""

    @staticmethod
    def assert_same(G, k, budget=None):
        out = disjoint_pc_cycles(G, k, budget)
        ref = rebuilt_disjoint_pc_cycles(G, k, budget)
        assert (out.status, out.witness, out.nodes, out.details) == (
            ref.status, ref.witness, ref.nodes, ref.details
        )
        return out

    def test_seeded_instances(self):
        multi = 0
        for seed in range(120):
            G = disjoint_instance(seed)
            for k in (1, 3, G.n):
                out = self.assert_same(G, k)
                multi += len(out.details["cycles"]) >= 2
        assert multi > 40

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((1, 3, None)))
    def test_hypothesis_instances(self, seed, k):
        G = disjoint_instance(seed)
        self.assert_same(G, k or G.n)

    def test_every_budget_across_rounds(self, walk_passes):
        # Every node budget up to the unbudgeted count, on instances whose
        # search runs two rounds or more, so across every round boundary.
        swept = 0
        for seed in range(60):
            G = disjoint_instance(seed)
            clear(walk_passes)
            full = self.assert_same(G, G.n)
            if len(full.details["cycles"]) < 2 or full.nodes > 600:
                continue
            swept += 1
            assert len(walk_passes["peel"]) > 2  # one per round, in both runs
            for b in range(1, full.nodes + 2):
                out = self.assert_same(G, G.n, SearchBudget(max_nodes=b))
                assert (out.status == BUDGET_EXCEEDED) == (b < full.nodes)
        assert swept > 10

    def test_return_table_on_the_mask(self, monkeypatch, walk_passes):
        # The second round's _return_table ticks only the live edges; every
        # budget from the start of that round on ends as on the residual.
        # The spy keeps the tables whose admitted vertices lost a neighbor.
        tables = []
        real = detectors._return_table

        def spy(adj, start, admitted, limit, clock, live):
            lost = [len(adj[v]) - sum(live[w] for w, _ in adj[v]) for v in admitted]
            if any(lost):
                tables.append((clock.nodes, lost))
            return real(adj, start, admitted, limit, clock, live)

        monkeypatch.setattr(detectors, "_return_table", spy)
        G = masked_table_instance()
        full = self.assert_same(G, 2)
        assert full.status == FOUND and full.details["cycles"][0] == [18, 19, 20]
        ((at, lost),) = tables
        assert min(lost) == 1
        second = walk_passes["peel"][1][0]  # the masked run's second round
        assert second < at
        for b in range(second - 5, full.nodes + 2):
            self.assert_same(G, 2, SearchBudget(max_nodes=b))


class TestSearchViewDrop:
    """_WalkClasses.drop against a fresh view of G rebuilt without the
    vertices dropped so far: after every step, the same K_{2,2} scan
    (sides and ticks), core, admitted vertices for L = 3..6 and edge
    count."""

    @staticmethod
    def run(walks):
        before = walks.clock.nodes
        sides = _kst_impl(2, 2, False, walks)
        scan = walks.clock.nodes - before
        admitted = [walks.admitted(L) for L in range(3, 7)]
        return sides, scan, walks.core(), admitted, walks.m, walks.clock.nodes - before

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_drop_matches_a_rebuilt_view(self, seed):
        G = disjoint_instance(seed)
        rng = random.Random(seed)
        view = _WalkClasses(G, _Clock(None), {})
        dropped: set[int] = set()
        for _ in range(4):
            step = {v for v in range(G.n) if rng.random() < 0.2}  # may repeat earlier ones
            view.drop(step)
            dropped |= step
            fresh = _WalkClasses(without_vertices(G, dropped), _Clock(None), {})
            assert self.run(view) == self.run(fresh)


def layouts(G):
    """The hub-pass layout that G holds, as a list of none or one."""
    return [vars(G)["_hub_layout"]] if "_hub_layout" in vars(G) else []


def only_tuples_and_ints(x) -> bool:
    return type(x) is int or (isinstance(x, tuple) and all(map(only_tuples_and_ints, x)))


class TestHubLayoutKeptWithTheGraph:
    """A search view that has dropped no edge keeps the hub pass's layout of
    its core with the graph, peeled or not, and every later search of that
    graph reuses it; a view that has dropped an edge builds one per search
    and keeps none. The layout ticks no clock, so no answer and no node
    count depends on it being kept."""

    @staticmethod
    def answer(out):
        return out.status, out.nodes, out.witness, out.details

    @pytest.mark.parametrize("search", [
        lambda G, budget=None: find_pc_kst(G, 2, 2, budget),
        lambda G, budget=None: pc_short_cycle_pipeline(G, 6, budget),
        lambda G, budget=None: disjoint_pc_cycles(G, 3, budget),
    ], ids=["pc-kst", "pipeline", "disjoint"])
    def test_node_budget_sweep_on_one_graph(self, search):
        # Every budget up to the unbudgeted count, on one graph object: the
        # budgets below the switch point stop before the pass, and those
        # after it stop inside the pass or after it. Each leaves the layout
        # absent or complete, and ends as on a fresh graph.
        def fresh():
            return relabelled(blowup_cycle_signature(5, 4), random.Random(3))

        G = fresh()
        full = search(fresh())
        assert full.status != BUDGET_EXCEEDED
        complete = detectors._hub_layout(G, list(range(G.n)))
        held = set()
        for b in range(1, full.nodes + 1):
            budget = SearchBudget(max_nodes=b)
            assert self.answer(search(G, budget)) == self.answer(search(fresh(), budget))
            kept = layouts(G)
            assert kept in ([], [complete])
            held.add(bool(kept))
        assert held == {False, True}
        assert self.answer(search(G)) == self.answer(full)
        assert layouts(G) == [complete]

    def test_a_graph_holds_one_layout_of_its_whole_core(self):
        # The first round's pass runs on every vertex (period 1), the
        # residual round's on the 18 left (period 9), which keeps none.
        G = masked_table_instance()
        with logged_passes() as passes:
            out = disjoint_pc_cycles(G, 2)
        assert out.status == FOUND
        assert [sorted({p for p, _ in classes}) for _, _, classes in passes["hub"]] == [[1], [9]]
        (layout,) = layouts(G)
        assert layout == detectors._hub_layout(G, list(range(G.n)))
        assert only_tuples_and_ints(layout)

    def test_a_peeled_graph_keeps_the_layout_of_its_core(self):
        # A pendant vertex beside a C5 blow-up is peeled, but no edge is
        # dropped: the first search keeps the layout of the core left, and
        # a second one reuses it with the same answer.
        B = blowup_cycle_signature(5, 16)
        G = EdgeColoredGraph(B.n + 1, [*B.edges, (0, B.n, 99)])
        built = []

        def spy(G, core, real=detectors._hub_layout):
            built.append(core)
            return real(G, core)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(detectors, "_hub_layout", spy)
            first = find_pc_kst(G, 2, 2)
            second = find_pc_kst(G, 2, 2)
        assert first.status == EXHAUSTED and first.details["walk_periods"] == [5]
        assert first.nodes == 3897
        assert self.answer(second) == self.answer(first)
        assert built == [list(range(B.n))]
        assert layouts(G) == [_hub_layout(G, list(range(B.n)))]

class TestOneDriverMatchesTheStages:
    """pc_short_cycle_pipeline and disjoint_pc_cycles go through the one
    cycle driver over the lengths 4, 3, 5..r. They must end as the
    two-stage search they replace (staged_pc_cycle) ends, in status,
    witness, nodes and details, but for the stage it reported."""

    @staticmethod
    def assert_same(G, r, k, budget=None):
        pairs = (
            (pc_short_cycle_pipeline(G, r, budget), staged_pipeline(G, r, budget)),
            (
                disjoint_pc_cycles(G, k, budget),
                rebuilt_disjoint_pc_cycles(G, k, budget, search=staged_pc_cycle),
            ),
        )
        for out, ref in pairs:
            ref.details.pop("stage", None)
            assert (out.status, out.witness, out.nodes, out.details) == (
                ref.status, ref.witness, ref.nodes, ref.details
            )
        return pairs[0][0]

    def test_seeded_instances(self):
        lengths = set()
        for seed in range(120):
            G = disjoint_instance(seed) if seed % 2 else pc_c4_free_instance(seed)
            for r in {4, 6, max(4, G.n)}:
                for k in (1, 3):
                    out = self.assert_same(G, r, k)
                    lengths.add(len(out.witness.vertices[0]) if out.witness else None)
        assert {None, 3, 4} < lengths

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hypothesis_instances(self, seed):
        G = disjoint_instance(seed) if seed % 2 else pc_c4_free_instance(seed)
        rng = random.Random(seed)
        self.assert_same(G, rng.randint(4, max(4, G.n)), rng.choice((1, 3, G.n)))

    @pytest.mark.parametrize("name", ["c6-blowup-3", "circulant-201"])
    def test_every_budget(self, name):
        if name == "c6-blowup-3":
            G, r, k = extremal_no_pc_c4(3), 6, 3
        else:
            G, r, k = signature(circulant_tournament(201)), 4, 1
        full = self.assert_same(G, r, k)
        assert full.status == FOUND
        most = max(full.nodes, disjoint_pc_cycles(G, k).nodes)
        for b in range(1, most + 2):
            self.assert_same(G, r, k, SearchBudget(max_nodes=b))

    def test_pc_triangle_on_three_vertices(self):
        # Length 4 is skipped above n, and length 3 still runs after it.
        G = EdgeColoredGraph(3, [(0, 1, 0), (1, 2, 1), (0, 2, 2)])
        for out in (pc_short_cycle_pipeline(G, 4), disjoint_pc_cycles(G, 1)):
            assert out.status == FOUND and out.witness.vertices == ((0, 1, 2),)

    def test_find_scans_length_4_over_the_admitted_vertices(self):
        # Length 3 runs the hub pass, so the K_{2,2} scan for length 4 starts
        # on the vertices admitted for 4, of which a C5 blow-up has none:
        # it ticks nothing. Length 3 first spends its rent on the core, 384
        # nodes: the start at which the clock reaches m = 320 ends 64 past
        # it. The hub pass then takes 663 nodes: 343 arcs out of the nodes
        # it reaches, m + 3k - 1 (see TestWalkClassesOracle), and 320
        # mirror reads, one per arc of the blow-up. No vertex is admitted
        # for 3 or 4, and length 5 takes 5: 1052 in all, where buying the
        # pass up front took 663 + 5 = 668.
        G = blowup_cycle_signature(5, 8)
        out = find_pc_cycle_upto(G, 6)
        assert out.status == FOUND and out.nodes == 1052
        assert find_pc_cycle_upto(G, 4).nodes == find_pc_cycle_upto(G, 3).nodes


class TestExtractRainbowKst:
    def test_single_column(self):
        G = random_proper_complete_bipartite(3, 5, 0)
        w = extract_rainbow_kst(G, range(3), range(3, 8), 1)
        assert w.kind == "rainbow-kst" and len(w.vertices[1]) == 1
        assert w.vertices[1][0] == 3  # smallest id

    def test_proper_k24_gives_rainbow_k22(self):
        for seed in range(25):
            G = random_proper_complete_bipartite(2, 4, seed)
            w = extract_rainbow_kst(G, (0, 1), range(2, 6), 2)
            assert verify_witness(G, w)

    def test_proper_k3_15_gives_rainbow_k33(self):
        for seed in range(25):
            G = random_proper_complete_bipartite(3, 15, seed)
            w = extract_rainbow_kst(G, (0, 1, 2), range(3, 18), 3)
            assert verify_witness(G, w)
            assert len(w.vertices[1]) == 3

    def test_precondition_errors(self):
        G = random_proper_complete_bipartite(2, 4, 0)
        with pytest.raises(ValueError, match="below the required"):
            extract_rainbow_kst(G, (0, 1), (2, 3, 4), 2)
        incomplete = EdgeColoredGraph(4, [(0, 2, 1), (0, 3, 2), (1, 2, 3)])
        with pytest.raises(ValueError, match="not complete"):
            extract_rainbow_kst(incomplete, (0, 1), (2, 3), 1)
        mono = EdgeColoredGraph(4, [(0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1)])
        with pytest.raises(ValueError, match="not properly colored"):
            extract_rainbow_kst(mono, (0, 1), (2, 3), 1)
        with pytest.raises(ValueError, match="disjoint"):
            extract_rainbow_kst(G, (0, 1), (1, 2, 3, 4, 5), 1)


class TestTotalDegreeThreshold:
    def test_rainbow_k100(self):
        edges = []
        c = 0
        for u in range(100):
            for v in range(u + 1, 100):
                edges.append((u, v, c))
                c += 1
        G = EdgeColoredGraph(100, edges)
        ok, margin = check_total_degree_threshold(G, 2, 2)
        assert ok and margin == pytest.approx(9900 - 7200)

    def test_transitive_signatures_below(self):
        for n in (4, 10, 25):
            G = signature(transitive_tournament(n))
            ok, margin = check_total_degree_threshold(G, 2, 2)
            assert not ok and margin < 0

    def test_edgeless(self):
        ok, _ = check_total_degree_threshold(EdgeColoredGraph(5), 2, 2)
        assert not ok

    def test_bipartite_form(self):
        G = random_proper_complete_bipartite(4, 4, 1)
        ok, margin = check_total_degree_threshold(G, 2, 2)
        n1 = n2 = 4
        rhs = n1 * n2 + 2 * (n1 * n2**0.5 + n2 * n1**0.5) + 2 * (n1 + n2)
        assert margin == pytest.approx(total_color_degree(G) - rhs)
        assert ok == (margin > 0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            check_total_degree_threshold(mono_k(3), 1, 1)

    def test_bipartite_threshold_soundness(self):
        # instances over the bipartite requirement must contain a pc K_{2,2}
        from chroma.constructions import random_bipartite_edge_colored

        hits = 0
        for seed in range(12):
            G = random_bipartite_edge_colored(40, 40, 0.9, 4000, seed)
            ok, _ = check_total_degree_threshold(G, 2, 2)
            if ok:
                hits += 1
                assert find_pc_kst(G, 2, 2, None).status == FOUND
        assert hits > 0


def witness_host():
    """A properly colored C4 that is not rainbow on 0..3, a rainbow C4 on
    4..7, a rainbow triangle on 8..10, the bridge {3, 4}, a monochromatic
    C4 on 11..14 and an isolated vertex 15."""
    return EdgeColoredGraph(16, [
        (0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2),
        (4, 5, 1), (5, 6, 2), (6, 7, 3), (4, 7, 4),
        (8, 9, 1), (9, 10, 2), (8, 10, 3), (3, 4, 3),
        (11, 12, 0), (12, 13, 0), (13, 14, 0), (11, 14, 0),
    ])


def valid_witness(case):
    """(host, the detector's witness on it) for one witness kind; the
    directed-cycle cases are a tournament and a colored orientation."""
    if case == "directed-cycle":
        D = circulant_tournament(7)
    elif case == "colored-directed-cycle":
        D = construct_orientation(signature(circulant_tournament(7)), 2, 2)[1]
    if case.endswith("directed-cycle"):
        return D, shortest_directed_cycle(D).witness
    G = witness_host()
    out = {
        "pc-kst": lambda: find_pc_kst(G, 2, 2),
        "rainbow-kst": lambda: find_rainbow_kst(G, 2, 2),
        "pc-cycle": lambda: find_pc_cycle_upto(G, 4),
        "rainbow-cycle": lambda: find_rainbow_c4(G),
        "disjoint-cycles": lambda: disjoint_pc_cycles(G, 3),
    }[case]()
    return G, out.witness


def on_groups(host, w, groups):
    """w moved to the given vertex groups, listing the host's edges there."""
    return Witness(w.kind, groups, claimed_edges(host, w.kind, groups))


def to_non_edge(host, w):
    """w with its first vertex moved to the isolated vertex, or a directed
    cycle reversed, so that its edges are non-edges or non-arcs."""
    if w.kind == "directed-cycle":
        return Witness(w.kind, (w.vertices[0][::-1],), [(h, t, *c) for t, h, *c in w.edges])
    rename = {w.vertices[0][0]: host.n - 1}
    groups = [[rename.get(v, v) for v in g] for g in w.vertices]
    edges = [(*sorted((rename.get(u, u), rename.get(v, v))), c) for u, v, c in w.edges]
    return Witness(w.kind, groups, edges)


def repeated_vertex(host, w):
    """The first vertex group listed twice over, as one group."""
    first, *rest = w.vertices
    return on_groups(host, w, (first + first, *rest))


def extra_edge(host, w):
    listed = set(w.edges)
    pool = host.arcs if w.kind == "directed-cycle" else host.edges
    return Witness(w.kind, w.vertices, [*w.edges, next(e for e in pool if e not in listed)])


def wrong_color(host, w):
    (u, v, c), *rest = w.edges
    return Witness(w.kind, w.vertices, [(u, v, c + 100), *rest])


def improper(host, w):
    """The last cycle, or the K_{2,2}, moved to the monochromatic C4."""
    if w.kind == "pc-kst":
        return on_groups(host, w, ((11, 13), (12, 14)))
    return on_groups(host, w, (*w.vertices[:-1], (11, 12, 13, 14)))


def repeated_color(host, w):
    """The rainbow kind on the properly colored C4 0..3, whose colors repeat."""
    groups = ((0, 2), (1, 3)) if w.kind == "rainbow-kst" else ((0, 1, 2, 3),)
    return on_groups(host, w, groups)


TAMPERS = {
    "wrong-color": wrong_color,
    "non-edge": to_non_edge,
    "repeated-vertex": repeated_vertex,
    "missing-edge": lambda host, w: Witness(w.kind, w.vertices, w.edges[1:]),
    "extra-edge": extra_edge,
    "overlapping-sides": lambda host, w: Witness(
        w.kind, (w.vertices[0], w.vertices[1] + w.vertices[0][:1]), w.edges
    ),
    "shared-vertex": lambda host, w: on_groups(host, w, w.vertices[:1] * 2),
    "two-vertex-cycle": lambda host, w: on_groups(
        host, w, (w.vertices[0][:2], *w.vertices[1:])
    ),
    "improper": improper,
    "repeated-color": repeated_color,
}
WITNESS_CASES = [
    "pc-kst", "rainbow-kst", "pc-cycle", "rainbow-cycle", "disjoint-cycles",
    "directed-cycle", "colored-directed-cycle",
]


class IntId(int):
    """An int subclass, which verify_witness accepts as an id."""


def tamper_applies(case, tamper):
    return {
        "wrong-color": case != "directed-cycle",
        "overlapping-sides": case.endswith("kst"),
        "shared-vertex": case == "disjoint-cycles",
        "two-vertex-cycle": case in ("pc-cycle", "rainbow-cycle", "disjoint-cycles"),
        "improper": case in ("pc-kst", "pc-cycle", "disjoint-cycles"),
        "repeated-color": case.startswith("rainbow"),
    }.get(tamper, True)


class TestWitnessVerification:
    @pytest.mark.parametrize("case", WITNESS_CASES)
    def test_detector_witness_passes(self, case):
        host, w = valid_witness(case)
        assert verify_witness(host, w)
        # the tampers rebuild the listed edges as the verifier must expect them
        assert sorted(on_groups(host, w, w.vertices).edges) == sorted(w.edges)

    @pytest.mark.parametrize(
        "case,tamper",
        [(c, t) for c in WITNESS_CASES for t in TAMPERS if tamper_applies(c, t)],
    )
    def test_tampered_witness_fails(self, case, tamper):
        host, w = valid_witness(case)
        assert not verify_witness(host, TAMPERS[tamper](host, w))

    @pytest.mark.parametrize("case", WITNESS_CASES)
    @pytest.mark.parametrize("lookalike,accepted", [(float, False), (bool, False), (IntId, True)])
    def test_ids_must_be_ints(self, case, lookalike, accepted):
        # 1.0 and True equal the id 1, and would pass as it. Every case
        # holds a vertex 1 or a color 1; a float copy of its first vertex
        # or a bool copy of that 1 is refused, an int subclass accepted.
        host, w = valid_witness(case)
        old = w.vertices[0][0] if lookalike is float else 1

        def swap(x):
            return lookalike(x) if x == old else x

        mutated = Witness(
            w.kind,
            [[swap(v) for v in g] for g in w.vertices],
            [[swap(x) for x in e] for e in w.edges],
        )
        assert any(type(x) is lookalike for e in mutated.edges for x in e)
        assert verify_witness(host, mutated) == accepted

    @pytest.mark.parametrize("case", ["directed-cycle", "colored-directed-cycle"])
    def test_directed_cycle_edges_must_be_its_arcs(self, case):
        D, w = valid_witness(case)
        others = [a for a in D.arcs if a not in w.edges][: len(w.edges)]
        assert not verify_witness(D, Witness(w.kind, w.vertices, others))

    @pytest.mark.parametrize("case", WITNESS_CASES)
    def test_host_of_the_wrong_class_fails(self, case):
        # A colored witness against a digraph, or a directed cycle against
        # an edge-colored graph, is rejected rather than raising.
        host, w = valid_witness(case)
        if isinstance(host, EdgeColoredGraph):
            others = [circulant_tournament(7), construct_orientation(host, 2, 2)[1]]
        else:
            others = [witness_host(), signature(circulant_tournament(7))]
        for other in others:
            assert not verify_witness(other, w)

    def test_disjoint_cycles_need_a_cycle(self):
        G = witness_host()
        assert not verify_witness(G, Witness("disjoint-cycles", (), ()))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Witness("mystery", ((0,),), ())

    def test_simple_cycle_enumerator_matches_oracle(self):
        for seed in range(20):
            rng = random.Random(seed)
            n = rng.randint(3, 7)
            G = random_edge_colored_graph(n, 0.6, 2, seed)
            pairs = [(u, v) for u, v, _ in G.edges]
            assert set(all_simple_cycles(n, pairs)) == all_cycles_by_permutation(n, pairs)
            # The path-growing oracle agrees with the permutation one.
            lengths = brute_pc_cycle_lengths(G)
            for r in range(3, n + 1):
                assert brute_shortest_pc_cycle(G, r) == min(
                    (L for L in lengths if L <= r), default=None
                )

    def test_oracle_consistency_kst_vs_cycle(self):
        # pc K_{2,2} exists iff a pc 4-cycle exists
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(4, 7)
            G = random_edge_colored_graph(n, 0.7, rng.randint(1, 4), seed)
            kst = find_pc_kst(G, 2, 2, None).status == FOUND
            assert kst == (4 in brute_pc_cycle_lengths(G))


def one_check_cases():
    """(id, call, status) for each public detector: a found, an
    exhausted-none and a budget-exceeded answer, plus the found answers
    whose searches built intermediate witnesses before they had one check:
    the pipeline past length 4, and disjoint rounds ending in the K_{2,2}
    scan or the DFS."""
    pc, rainbow = c4(1, 2, 1, 2), c4(1, 2, 3, 4)
    acyclic = signature(transitive_tournament(8))
    circ21 = signature(circulant_tournament(21))
    b58 = blowup_cycle_signature(5, 8)
    tight = SearchBudget(max_nodes=1)
    colored = construct_orientation(signature(circulant_tournament(7)), 2, 2)[1]
    return [
        ("pc-kst-found", lambda: find_pc_kst(pc, 2, 2), FOUND),
        ("pc-kst-none", lambda: find_pc_kst(acyclic, 2, 2), EXHAUSTED),
        ("pc-kst-budget", lambda: find_pc_kst(circ21, 2, 3, tight), BUDGET_EXCEEDED),
        ("rainbow-kst-found", lambda: find_rainbow_kst(rainbow, 2, 2), FOUND),
        ("rainbow-kst-none", lambda: find_rainbow_kst(pc, 2, 2), EXHAUSTED),
        ("rainbow-kst-budget", lambda: find_rainbow_kst(circ21, 2, 2, tight), BUDGET_EXCEEDED),
        ("rainbow-c4-found", lambda: find_rainbow_c4(rainbow), FOUND),
        ("rainbow-c4-none", lambda: find_rainbow_c4(pc), EXHAUSTED),
        ("rainbow-c4-budget", lambda: find_rainbow_c4(circ21, tight), BUDGET_EXCEEDED),
        ("pc-cycle-found", lambda: find_pc_cycle_upto(b58, 5), FOUND),
        ("pc-cycle-none", lambda: find_pc_cycle_upto(acyclic, 8), EXHAUSTED),
        ("pc-cycle-budget", lambda: find_pc_cycle_upto(b58, 5, tight), BUDGET_EXCEEDED),
        ("pipeline-stage1", lambda: pc_short_cycle_pipeline(pc, 4), FOUND),
        ("pipeline-stage3", lambda: pc_short_cycle_pipeline(b58, 6), FOUND),
        ("pipeline-none", lambda: pc_short_cycle_pipeline(acyclic, 8), EXHAUSTED),
        ("pipeline-budget", lambda: pc_short_cycle_pipeline(b58, 6, tight), BUDGET_EXCEEDED),
        ("disjoint-circulant-21-k3", lambda: disjoint_pc_cycles(circ21, 3), FOUND),
        ("disjoint-b58-k3", lambda: disjoint_pc_cycles(b58, 3), FOUND),
        ("disjoint-partial", lambda: disjoint_pc_cycles(b58, 9), EXHAUSTED),
        ("disjoint-budget", lambda: disjoint_pc_cycles(circ21, 3, SearchBudget(max_nodes=50)),
         BUDGET_EXCEEDED),
        ("sdc-found", lambda: shortest_directed_cycle(circulant_tournament(7)), FOUND),
        ("sdc-colored-found", lambda: shortest_directed_cycle(colored), FOUND),
        ("sdc-none", lambda: shortest_directed_cycle(transitive_tournament(8)), EXHAUSTED),
        ("sdc-budget", lambda: shortest_directed_cycle(circulant_tournament(21), tight),
         BUDGET_EXCEEDED),
    ]


ONE_CHECK_CASES = one_check_cases()


class TestOneCheckPerAnswer:
    """_search builds and checks the one witness of an answer; no search
    checks a witness of its own on the way."""

    @pytest.mark.parametrize(
        "call,status", [c[1:] for c in ONE_CHECK_CASES], ids=[c[0] for c in ONE_CHECK_CASES]
    )
    def test_verify_witness_calls(self, monkeypatch, call, status):
        calls = []

        def spy(host, w):
            calls.append(w.kind)
            return verify_witness(host, w)

        monkeypatch.setattr(detectors, "verify_witness", spy)
        out = call()
        assert out.status == status
        assert calls == ([out.witness.kind] if status == FOUND else [])

    @pytest.mark.parametrize(
        "host,kind,groups",
        [
            # the triangle 0, 1, 2 misses the edge {0, 2}
            (EdgeColoredGraph(3, [(0, 1, 0), (1, 2, 1)]), "pc-cycle", ((0, 1, 2),)),
            # every edge is there, but in one color
            (mono_k(4), "pc-kst", ((0, 1), (2, 3))),
            # 2 -> 0 is not an arc
            (transitive_tournament(3), "directed-cycle", ((0, 1, 2),)),
        ],
        ids=["missing-edge", "improper", "missing-arc"],
    )
    def test_groups_that_are_no_witness_are_an_internal_error(self, host, kind, groups):
        with pytest.raises(RuntimeError, match="^internal error: "):
            detectors._search(None, lambda clock: groups, {}, host, kind)
