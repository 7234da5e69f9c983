import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.core import (
    EdgeColoredGraph,
    OrientedGraph,
    color_degree,
    is_properly_colored,
    min_color_degree,
    total_color_degree,
)
import chroma.constructions as constructions
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
from chroma.transforms import blow_up, signature

from oracles import (
    brute_subset_density_ok,
    looped_circulant_tournament,
    min_max_signature,
    two_build_blowup_cycle_signature,
)


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
        # Even r: the cycle visits 0, h, 1, h+1, ..., h-1, r-1 (h = r/2).
        assert extremal_no_pc_c4(1).edges == signature(
            OrientedGraph(6, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
        ).edges
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
        assert G.bipartition == (frozenset(range(6)), frozenset(range(6, 12)))

    @pytest.mark.parametrize("r, k", [(4, 2), (6, 3), (8, 1)])
    def test_even_r_relabels_the_plain_blow_up(self, r, k):
        # Block b of blow_up(directed_cycle(r), k) becomes block
        # b // 2 + (b % 2) * r/2; a vertex keeps its place in its block.
        def new(v):
            b = v // k
            return (b // 2 + b % 2 * (r // 2)) * k + v % k

        plain = signature(blow_up(directed_cycle(r), k))
        relabelled = [(new(u), new(v), new(c)) for u, v, c in plain.edges]
        assert blowup_cycle_signature(r, k) == EdgeColoredGraph(
            r * k, relabelled, bipartition=(range(r // 2 * k), range(r // 2 * k, r * k))
        )

    def test_blowup_signature_odd_has_no_bipartition(self):
        assert blowup_cycle_signature(5, 2).bipartition is None


class TestOneBuildPerGraph:
    """Each generator builds its graph from canonical rows in one constructor
    pass, and builds the same graph, row for row, as before."""

    @pytest.mark.parametrize("n", range(3, 41))
    def test_tournaments_and_signatures(self, n):
        T = circulant_tournament(n)
        assert T == looped_circulant_tournament(n)
        assert signature(T) == min_max_signature(T)
        T = transitive_tournament(n)
        assert signature(T) == min_max_signature(T)

    @pytest.mark.parametrize("r", range(3, 9))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_blowup_cycle_signature(self, r, k):
        assert blowup_cycle_signature(r, k) == two_build_blowup_cycle_signature(r, k)

    @pytest.mark.parametrize("seed", range(20))
    def test_signature_of_random_orientation(self, seed):
        rng = random.Random(seed)
        D = random_oriented_graph(rng.randint(0, 30), rng.choice([0.2, 0.5, 0.9]), seed)
        assert signature(D) == min_max_signature(D)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_even_r_builds_once(self, k, edge_graph_builds):
        G = blowup_cycle_signature(6, k)
        assert len(edge_graph_builds) == 1 and G.bipartition is not None

    @pytest.mark.parametrize(
        "D", [circulant_tournament(12), transitive_tournament(9), random_oriented_graph(15, 0.5, 3)]
    )
    def test_signature_rows_ascend(self, D, edge_graph_builds):
        G = signature(D)
        (rows,) = edge_graph_builds
        assert rows == sorted(rows) and all(type(e) is tuple and e[0] < e[1] for e in rows)
        assert len(set(e[:2] for e in rows)) == len(rows) == G.m


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

    # (gamma, seed) -> (attempts, the recolored pairs), pinned so that the
    # subset-density check keeps every decision and the rng stream. (0.1, 0)
    # and (0.15, 8) reach its exhaustive count; the others accept on the
    # degree prefilter.
    PINNED = {
        (0.0, 4): (1, []),
        (0.1, 0): (2, [(0, 11), (1, 10), (2, 16), (3, 5), (3, 6), (7, 8), (7, 10), (8, 10),
                       (8, 15), (8, 19), (13, 15), (13, 16), (13, 18)]),
        (0.1, 1): (1, [(1, 12), (3, 5), (3, 13), (5, 15), (6, 8), (7, 10), (7, 17), (8, 13),
                       (9, 16), (11, 12), (12, 16), (15, 17)]),
        (0.1, 2): (1, [(0, 10), (0, 11), (0, 12), (2, 15), (6, 17), (7, 8), (7, 19), (8, 12),
                       (8, 19), (11, 12), (11, 13)]),
        (0.1, 3): (1, [(1, 4), (2, 10), (3, 9), (3, 13), (5, 14), (6, 16), (6, 18), (7, 9),
                       (8, 9), (9, 13), (10, 16), (11, 17), (15, 19)]),
        (0.1, 42): (1, [(0, 11), (1, 14), (3, 19), (7, 15), (9, 11), (10, 19), (11, 16)]),
        (0.15, 8): (3, [(0, 8), (4, 10), (4, 17), (8, 12), (14, 18)]),
    }

    @pytest.mark.parametrize("gamma,seed", sorted(PINNED))
    def test_pinned_samples(self, gamma, seed):
        params = RecolorParams(n=20, s=3, t=7, gamma=gamma, seed=seed)
        G, attempts = recolored_tournament(params)
        base = signature(circulant_tournament(20))
        top = max(c for _, _, c in base.edges)
        base_colors = {(u, v): c for u, v, c in base.edges}
        recolored = sorted((u, v) for u, v, c in G.edges if c != base_colors[(u, v)])
        want_attempts, want = self.PINNED[(gamma, seed)]
        assert (attempts, recolored) == (want_attempts, want)
        assert {(u, v): c for u, v, c in G.edges} == {
            **base_colors, **{pair: top + rank for rank, pair in enumerate(want, start=1)}
        }

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
        assert exc.value.stats == {
            "attempts": 5, "rejected_coverage": 0, "rejected_density": 5,
            "p": params.p, "degree_floor": params.degree_floor, "density_cap": 11,
        }

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


def density_case(rng, n):
    """Random pairs on n vertices, a dense pocket on a random vertex set
    added to about half of them."""
    p = rng.choice((0.1, 0.3, 0.6))
    pairs = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    if rng.random() < 0.5:
        pocket = sorted(rng.sample(range(n), rng.randint(2, n)))
        pairs |= {pair for pair in combinations(pocket, 2) if rng.random() < 0.9}
    return sorted(pairs)


class TestSubsetDensity:
    def test_members_follow_combinations_order(self):
        for n in range(1, 11):
            for size in range(n + 1):
                want = [0] * n
                for i, subset in enumerate(combinations(range(n), size)):
                    for v in subset:
                        want[v] |= 1 << i
                assert list(constructions._subset_members(n, size)) == want

    def test_matches_brute_force(self, monkeypatch):
        # Every size from 2 to n-1 and every cap from 1 to C(size, 2) + 1;
        # the pockets make many cases pass the degree prefilter and reach
        # the exhaustive count.
        exhaustive = []
        members = constructions._subset_members
        monkeypatch.setattr(
            constructions, "_subset_members",
            lambda n, size: exhaustive.append((n, size)) or members(n, size),
        )
        rng = random.Random(2024)
        rejected = 0
        for n in range(3, 13):
            for _ in range(3):
                pairs = density_case(rng, n)
                for size in range(2, n):
                    for cap in range(1, math.comb(size, 2) + 2):
                        want = brute_subset_density_ok(pairs, n, size, cap)
                        got = constructions._subset_density_ok(pairs, n, size, cap, random.Random(0))
                        assert got == want, (n, size, cap, pairs)
                        rejected += not want
        assert len(exhaustive) > 1000 and rejected > 1000

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force_hypothesis(self, data):
        n = data.draw(st.integers(3, 12))
        size = data.draw(st.integers(2, n - 1))
        cap = data.draw(st.integers(1, math.comb(size, 2) + 1))
        every = list(combinations(range(n), 2))
        pairs = sorted(data.draw(st.sets(st.sampled_from(every))))
        want = brute_subset_density_ok(pairs, n, size, cap)
        assert constructions._subset_density_ok(pairs, n, size, cap, random.Random(0)) == want

    def test_dense_pocket_at_the_cap(self, monkeypatch):
        # cap pairs, all inside one size-vertex pocket, pass the degree
        # prefilter, and the exhaustive count rejects them, up to n =
        # EXHAUSTIVE_SUBSET_MAX_N. Fewer pairs than the cap accept at once.
        exhaustive = []
        members = constructions._subset_members
        monkeypatch.setattr(
            constructions, "_subset_members",
            lambda n, size: exhaustive.append((n, size)) or members(n, size),
        )
        rng = random.Random(7)
        for n, size in ((12, 5), (20, 10), (constructions.EXHAUSTIVE_SUBSET_MAX_N, 6)):
            pocket = sorted(rng.sample(range(n), size))
            for cap in (1, size, math.comb(size, 2) - 1, math.comb(size, 2)):
                pairs = sorted(rng.sample(list(combinations(pocket, 2)), cap))
                assert not constructions._subset_density_ok(pairs, n, size, cap, random.Random(0))
                assert constructions._subset_density_ok(pairs, n, size, cap + 1, random.Random(0))
        assert len(exhaustive) == 3 * 4
