import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.core import EdgeColoredGraph, OrientedGraph, color_degree
from chroma.constructions import (
    directed_cycle,
    random_edge_colored_graph,
    random_oriented_graph,
    transitive_tournament,
)
from chroma.detectors import (
    EXHAUSTED,
    FOUND,
    find_pc_kst,
    find_rainbow_kst,
    shortest_directed_cycle,
)
from chroma.transforms import blow_up, dual_graph, signature

from oracles import (
    all_cycles_by_permutation,
    brute_pc_kst_exists,
    brute_rainbow_kst_exists,
    is_directed_cycle,
    is_pc_cycle,
)


class TestSignature:
    def test_directed_triangle(self):
        sig = signature(directed_cycle(3))
        assert sig.edges == ((0, 1, 1), (0, 2, 0), (1, 2, 2))
        assert all(color_degree(sig, v) == 2 for v in range(3))

    def test_single_arc(self):
        sig = signature(OrientedGraph(2, [(0, 1)]))
        assert sig.edges == ((0, 1, 1),)
        assert color_degree(sig, 0) == color_degree(sig, 1) == 1

    def test_transitive_source(self):
        for n in (3, 5, 8):
            sig = signature(transitive_tournament(n))
            assert color_degree(sig, 0) == n - 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_color_degree_law(self, seed):
        rng = random.Random(seed)
        D = random_oriented_graph(rng.randint(1, 12), 0.5, seed)
        sig = signature(D)
        for v in range(D.n):
            expected = D.out_degree(v) + (1 if D.in_degree(v) > 0 else 0)
            assert color_degree(sig, v) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_directed_cycles_equal_pc_cycles(self, seed):
        rng = random.Random(seed)
        D = random_oriented_graph(rng.randint(3, 7), 0.5, seed)
        sig = signature(D)
        pairs = [(u, v) for u, v, _ in sig.edges]
        for cyc in all_cycles_by_permutation(D.n, pairs):
            assert is_directed_cycle(D.arcs, cyc) == is_pc_cycle(sig, cyc)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_no_pc_kst_with_t_at_least_3(self, seed):
        rng = random.Random(seed)
        D = random_oriented_graph(rng.randint(2, 10), 0.5, seed)
        sig = signature(D)
        assert find_pc_kst(sig, 2, 3, None).status == EXHAUSTED
        if D.n <= 7:
            assert not brute_pc_kst_exists(sig, 2, 3)


class TestDualGraph:
    def test_single_edge(self):
        G = EdgeColoredGraph(2, [(0, 1, 9)])
        d = dual_graph(G)
        assert d.n == 4
        assert d.edges == ((0, 3, 9), (1, 2, 9))
        assert d.bipartition == (frozenset({0, 1}), frozenset({2, 3}))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_color_degree_preserved(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        G = random_edge_colored_graph(n, 0.5, rng.randint(1, 5), seed)
        d = dual_graph(G)
        assert d.m == 2 * G.m
        for v in range(n):
            assert color_degree(G, v) == color_degree(d, v) == color_degree(d, n + v)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_kst_existence_agrees(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        G = random_edge_colored_graph(n, rng.choice([0.3, 0.6]), rng.randint(1, 5), seed)
        d = dual_graph(G)
        for s, t in ((2, 2), (2, 3)):
            pc_g = find_pc_kst(G, s, t, None).status == FOUND
            pc_d = find_pc_kst(d, s, t, None).status == FOUND
            assert pc_g == pc_d == brute_pc_kst_exists(G, s, t)
            rb_g = find_rainbow_kst(G, s, t, None).status == FOUND
            rb_d = find_rainbow_kst(d, s, t, None).status == FOUND
            assert rb_g == rb_d == brute_rainbow_kst_exists(G, s, t)


class TestBlowUp:
    def test_identity(self):
        D = random_oriented_graph(6, 0.5, 3)
        assert blow_up(D, 1) == D

    def test_c6_by_3(self):
        B = blow_up(directed_cycle(6), 3)
        assert B.n == 18
        assert B.m == 54
        assert all(B.out_degree(v) == 3 for v in range(18))

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            blow_up(directed_cycle(3), 0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_girth_preserved_for_c6(self, k):
        out = shortest_directed_cycle(blow_up(directed_cycle(6), k))
        assert out.status == FOUND
        assert len(out.witness.vertices[0]) == 6

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_girth_never_shrinks(self, seed):
        rng = random.Random(seed)
        D = random_oriented_graph(rng.randint(2, 7), 0.5, seed)
        k = rng.randint(1, 3)
        base = shortest_directed_cycle(D)
        blown = shortest_directed_cycle(blow_up(D, k))
        if base.status == EXHAUSTED:
            assert blown.status == EXHAUSTED
        else:
            assert blown.status == FOUND
            assert len(blown.witness.vertices[0]) == len(base.witness.vertices[0])
