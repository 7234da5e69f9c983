import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.core import EdgeColoredGraph, Witness, total_color_degree
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
from chroma.transforms import blow_up, signature

from oracles import (
    all_cycles_by_permutation,
    brute_directed_girth,
    brute_pc_cycle_lengths,
    brute_pc_kst_exists,
    brute_rainbow_kst_exists,
    first_pc_kst_witness,
)


def c4(c1, c2, c3, c4_):
    return EdgeColoredGraph(4, [(0, 1, c1), (1, 2, c2), (2, 3, c3), (0, 3, c4_)])


def mono_k(n, color=0):
    return EdgeColoredGraph(n, [(u, v, color) for u in range(n) for v in range(u + 1, n)])


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_nodes=0)
        with pytest.raises(ValueError):
            SearchBudget(time_limit_s=-1)

    def test_budget_exceeded_is_distinct(self):
        G = random_edge_colored_graph(30, 0.8, 2, 0)
        tiny = SearchBudget(max_nodes=3)
        for out in (
            find_pc_kst(G, 2, 3, tiny),
            find_rainbow_kst(G, 3, 3, tiny),
            find_pc_cycle_upto(G, 6, tiny),
            find_rainbow_c4(mono_k(12), tiny),
        ):
            assert out.status == BUDGET_EXCEEDED
            assert out.witness is None
            assert out.nodes >= 3

    def test_time_budget_trips_immediately(self):
        G = random_edge_colored_graph(20, 0.8, 2, 1)
        out = find_pc_kst(G, 2, 3, SearchBudget(time_limit_s=1e-9))
        assert out.status == BUDGET_EXCEEDED


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
        for s, t in ((1, 2), (2, 2), (2, 3)):
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
    """find_pc_kst with s = 2 against the brute-force first witness."""

    @staticmethod
    def assert_matches_oracle(G, t):
        out = find_pc_kst(G, 2, t)
        expected = first_pc_kst_witness(G, 2, t)
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
        for t in (2, 3):
            full = find_pc_kst(G, 2, t)
            assert full.status == EXHAUSTED
            assert find_pc_kst(G, 2, t, SearchBudget(max_nodes=full.nodes)).status == EXHAUSTED
            short = find_pc_kst(G, 2, t, SearchBudget(max_nodes=full.nodes - 1))
            assert short.status == BUDGET_EXCEEDED and short.witness is None


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
        rng = random.Random(seed)
        G = random_edge_colored_graph(rng.randint(2, 8), 0.6, rng.randint(1, 6), seed)
        assert (
            find_rainbow_c4(G, None).status == find_rainbow_kst(G, 2, 2, None).status
        )


class TestShortestDirectedCycle:
    def test_acyclic(self):
        assert shortest_directed_cycle(transitive_tournament(6)).status == EXHAUSTED

    def test_directed_cycle(self):
        out = shortest_directed_cycle(directed_cycle(5))
        assert out.status == FOUND and len(out.witness.vertices[0]) == 5

    def test_blowup_triangle(self):
        out = shortest_directed_cycle(blow_up(directed_cycle(3), 4))
        assert out.status == FOUND and len(out.witness.vertices[0]) == 3

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
            assert len(out.witness.vertices[0]) <= 4
            assert verify_witness(G, out.witness)
            assert "min_outdegree" in out.details or out.details.get("stage") == 1

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
        assert out.status in (FOUND, BUDGET_EXCEEDED)  # stage 1 may find instantly
        out2 = pc_short_cycle_pipeline(mono_k(20), 4, SearchBudget(max_nodes=2))
        assert out2.status == BUDGET_EXCEEDED

    def test_budget_running_out_in_stage2(self):
        # Budgets from the end of stage 1 up to the end of stage 2 run out on
        # the shortest-directed-cycle tick; they must end budget-exceeded.
        G = extremal_no_pc_c4(3)
        stage1 = find_pc_kst(G, 2, 2).nodes
        sdc = shortest_directed_cycle(construct_orientation(G, 2, 2)[1]).nodes
        for b in range(stage1 - 2, stage1 + sdc + 2):
            out = pc_short_cycle_pipeline(G, 6, SearchBudget(max_nodes=b))
            assert out.status in (BUDGET_EXCEEDED, FOUND)
            if stage1 <= b < stage1 + sdc:
                assert out.status == BUDGET_EXCEEDED


    def test_stage3_skips_length_4(self):
        # Stage 1 decided length 4 (a pc C4 is a pc K_{2,2}), so stage 3
        # costs less than the DFS over every length up to r, and finds the
        # same cycle.
        G = extremal_no_pc_c4(3)
        out = pc_short_cycle_pipeline(G, 6)
        assert out.status == FOUND and out.details["stage"] == 3
        stage1 = find_pc_kst(G, 2, 2).nodes
        stage2 = shortest_directed_cycle(construct_orientation(G, 2, 2)[1]).nodes
        dfs = find_pc_cycle_upto(G, 6)
        assert out.witness == dfs.witness
        assert out.nodes - stage1 - stage2 < dfs.nodes

    def test_node_budget_stops_inside_stage2(self):
        # The BFS ticks the pipeline's clock level by level, so it stops at
        # most n nodes past the budget.
        G = signature(transitive_tournament(40))
        budget = find_pc_kst(G, 2, 2).nodes + 5
        out = pc_short_cycle_pipeline(G, 6, SearchBudget(max_nodes=budget))
        assert out.status == BUDGET_EXCEEDED
        assert out.nodes <= budget + G.n


class TestDisjointPcCycles:
    def test_node_budget_stops_inside_stage2(self):
        G = signature(transitive_tournament(40))
        budget = find_pc_kst(G, 2, 2).nodes + 5
        out = disjoint_pc_cycles(G, 1, SearchBudget(max_nodes=budget))
        assert out.status == BUDGET_EXCEEDED
        assert out.nodes <= budget + G.n

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


class TestWitnessVerification:
    def test_tampered_witness_fails(self):
        G = c4(1, 2, 3, 4)
        out = find_rainbow_c4(G, None)
        w = out.witness
        bad = Witness(w.kind, w.vertices, tuple(list(w.edges[:-1]) + [(0, 1, 99)]))
        assert not verify_witness(G, bad)

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

    def test_oracle_consistency_kst_vs_cycle(self):
        # pc K_{2,2} exists iff a pc 4-cycle exists
        for seed in range(30):
            rng = random.Random(seed)
            n = rng.randint(4, 7)
            G = random_edge_colored_graph(n, 0.7, rng.randint(1, 4), seed)
            kst = find_pc_kst(G, 2, 2, None).status == FOUND
            assert kst == (4 in brute_pc_cycle_lengths(G))
