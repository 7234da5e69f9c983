import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.core import (
    EdgeColoredGraph,
    color_degree,
    is_properly_colored,
    min_color_degree,
    total_color_degree,
)
from chroma.constructions import (
    RecolorError,
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
    recolored_tournament,
    transitive_tournament,
    verify_recolored,
)
from chroma.detectors import (
    EXHAUSTED,
    FOUND,
    extract_rainbow_kst,
    find_pc_kst,
    find_rainbow_c4,
    shortest_directed_cycle,
)
from chroma.formats import render_ecg, render_org
from chroma.transforms import signature


class TestTournaments:
    def test_transitive_small(self):
        assert transitive_tournament(1).m == 0
        D = transitive_tournament(3)
        assert D.m == 3
        assert shortest_directed_cycle(D).status == EXHAUSTED

    def test_transitive_signature_total(self):
        G = signature(transitive_tournament(5))
        assert total_color_degree(G) == 14

    def test_circulant_triangle(self):
        assert circulant_tournament(3).arcs == ((0, 1), (1, 2), (2, 0))

    def test_circulant_n7_regular(self):
        D = circulant_tournament(7)
        assert all(D.out_degree(v) == 3 and D.in_degree(v) == 3 for v in range(7))

    def test_circulant_n8(self):
        D = circulant_tournament(8)
        assert min(min(D.out_degree(v), D.in_degree(v)) for v in range(8)) == 3

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 9, 10, 13])
    def test_circulant_is_tournament_with_min_degree(self, n):
        D = circulant_tournament(n)
        arcset = set(D.arcs)
        for u in range(n):
            for v in range(u + 1, n):
                assert ((u, v) in arcset) != ((v, u) in arcset)
        assert (
            min(min(D.out_degree(v), D.in_degree(v)) for v in range(n)) == (n - 1) // 2
        )

    def test_range_errors(self):
        with pytest.raises(ValueError):
            transitive_tournament(0)
        with pytest.raises(ValueError):
            circulant_tournament(2)


class TestDirectedCycle:
    def test_girth(self):
        out = shortest_directed_cycle(directed_cycle(3))
        assert out.status == FOUND and len(out.witness.vertices[0]) == 3

    def test_c6_underlying_bipartite(self):
        G = signature(directed_cycle(6))
        side = [v % 2 for v in range(6)]
        assert all(side[u] != side[v] for u, v, _ in G.edges)

    def test_c5_signature_min_color_degree(self):
        assert min_color_degree(signature(directed_cycle(5))) == 2

    def test_r_below_2_rejected(self):
        with pytest.raises(ValueError):
            directed_cycle(1)

    def test_r2_fails_integer_check(self):
        # arcs 0->1 and 1->0 would form an anti-parallel pair
        with pytest.raises(ValueError, match=r"r must be an integer >= 3, got 2"):
            directed_cycle(2)


class TestExtremalFamilies:
    def test_k1_are_plain_cycle_signatures(self):
        assert extremal_no_pc_c4(1).edges == signature(directed_cycle(6)).edges
        assert (
            extremal_no_rainbow_c4_trianglefree(1).edges
            == signature(directed_cycle(5)).edges
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_min_color_degree(self, k):
        assert min_color_degree(extremal_no_pc_c4(k)) == k + 1
        assert min_color_degree(extremal_no_rainbow_c4_trianglefree(k)) == k + 1

    def test_k3_detectors_exhaust(self):
        assert find_pc_kst(extremal_no_pc_c4(3), 2, 2, None).status == EXHAUSTED
        assert (
            find_rainbow_c4(extremal_no_rainbow_c4_trianglefree(3), None).status
            == EXHAUSTED
        )

    def test_bipartition_blocks(self):
        G = extremal_no_pc_c4(2)
        assert G.bipartition is not None
        side1 = G.bipartition[0]
        assert side1 == frozenset({0, 1, 4, 5, 8, 9})

    def test_blowup_signature_odd_has_no_bipartition(self):
        assert blowup_cycle_signature(5, 2).bipartition is None


class TestRandomEnsembles:
    def test_p_zero_edgeless(self):
        assert random_edge_colored_graph(8, 0.0, 3, 1).m == 0
        assert random_oriented_graph(8, 0.0, 1).m == 0
        assert random_bipartite_edge_colored(4, 4, 0.0, 2, 1).m == 0

    def test_p_one_single_color(self):
        G = random_edge_colored_graph(6, 1.0, 1, 3)
        assert G.m == 15 and {c for _, _, c in G.edges} == {0}

    def test_determinism(self):
        a = random_edge_colored_graph(10, 0.5, 4, 99)
        b = random_edge_colored_graph(10, 0.5, 4, 99)
        assert render_ecg(a) == render_ecg(b)
        assert render_org(random_oriented_graph(9, 0.5, 7)) == render_org(
            random_oriented_graph(9, 0.5, 7)
        )
        assert random_edge_colored_graph(10, 0.5, 4, 100) != a

    def test_param_validation(self):
        with pytest.raises(ValueError):
            random_edge_colored_graph(5, 1.5, 2, 0)
        with pytest.raises(ValueError):
            random_edge_colored_graph(5, 0.5, 0, 0)

    def test_bipartite_structure(self):
        G = random_bipartite_edge_colored(3, 5, 1.0, 2, 0)
        assert G.m == 15
        assert G.bipartition == (frozenset(range(3)), frozenset(range(3, 8)))


class TestProperCompleteBipartite:
    def test_star_is_rainbow(self):
        G = random_proper_complete_bipartite(1, 5, 0)
        cols = [c for _, _, c in G.edges]
        assert len(set(cols)) == 5

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_properly_colored(self, seed):
        rng = random.Random(seed)
        s, t = rng.randint(1, 5), rng.randint(1, 8)
        G = random_proper_complete_bipartite(s, t, seed)
        assert G.m == s * t
        assert is_properly_colored(G, [(u, v) for u, v, _ in G.edges])

    def test_extraction_yields_rainbow(self):
        G = random_proper_complete_bipartite(2, 4, 11)
        w = extract_rainbow_kst(G, (0, 1), range(2, 6), 2)
        assert w.kind == "rainbow-kst"


class TestRecoloredTournament:
    def test_gamma_zero_plain_signature(self):
        params = RecolorParams(n=20, s=3, t=7, gamma=0.0, seed=4)
        G, attempts = recolored_tournament(params)
        assert attempts == 1
        assert G == signature(circulant_tournament(20))
        assert verify_recolored(params, G)

    def test_small_gamma_runs(self):
        for seed in (0, 1, 2):
            params = RecolorParams(n=20, s=3, t=7, gamma=0.1, seed=seed)
            G, attempts = recolored_tournament(params)
            assert verify_recolored(params, G)
            assert find_pc_kst(G, 3, 7, None).status == EXHAUSTED
            assert min_color_degree(G) >= 10

    def test_fresh_colors_unique(self):
        params = RecolorParams(n=20, s=3, t=7, gamma=0.15, seed=8)
        G, _ = recolored_tournament(params)
        base = signature(circulant_tournament(20))
        base_colors = {(u, v): c for u, v, c in base.edges}
        fresh = [c for u, v, c in G.edges if c != base_colors[(u, v)]]
        assert len(set(fresh)) == len(fresh)
        assert all(c > max(base_colors.values()) for c in fresh)
        # recoloring never lowers a color degree
        assert all(
            color_degree(G, v) >= color_degree(base, v) for v in range(20)
        )

    def test_determinism(self):
        p = RecolorParams(n=20, s=3, t=7, gamma=0.1, seed=42)
        a, na = recolored_tournament(p)
        b, nb = recolored_tournament(p)
        assert a == b and na == nb

    def test_p_above_one_rejected(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            RecolorParams(n=20, s=3, t=7, gamma=5.0, seed=0)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            RecolorParams(n=10, s=2, t=2, gamma=0.1, seed=0)  # st - s - t = 0

    def test_max_tries_exhaustion_carries_stats(self):
        # gamma large enough that the density cap always rejects
        params = RecolorParams(n=20, s=3, t=7, gamma=1.5, seed=0, max_tries=5)
        with pytest.raises(RecolorError) as exc:
            recolored_tournament(params)
        stats = exc.value.stats
        assert stats["attempts"] == 5
        assert stats["rejected_coverage"] + stats["rejected_density"] == 5

    def test_verify_rejects_predicate_violations(self):
        params = RecolorParams(n=20, s=3, t=7, gamma=0.1, seed=3)
        base = signature(circulant_tournament(20))
        base_colors = {(u, v): c for u, v, c in base.edges}
        top = max(base_colors.values())

        # duplicated fresh color breaks uniqueness
        edges = {pair: c for pair, c in base_colors.items()}
        edges[(0, 1)] = top + 1
        edges[(2, 3)] = top + 1
        dup = EdgeColoredGraph(20, [(u, v, c) for (u, v), c in edges.items()])
        assert not verify_recolored(params, dup)

        # a dense recolored pocket on s+t vertices breaks the density cap
        edges = {pair: c for pair, c in base_colors.items()}
        rank = 1
        for u in range(10):
            for v in range(u + 1, 10):
                if rank > params.density_cap:
                    break
                edges[(u, v)] = top + rank
                rank += 1
        dense = EdgeColoredGraph(20, [(u, v, c) for (u, v), c in edges.items()])
        assert not verify_recolored(params, dense)

        # missing edge breaks the pair-set equality with the base signature
        missing = EdgeColoredGraph(20, list(base.edges)[1:])
        assert not verify_recolored(params, missing)
