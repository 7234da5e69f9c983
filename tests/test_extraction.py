import hashlib
import json
import math
import random

import pytest

from chroma.core import EdgeColoredGraph, color_degree, color_set
from chroma.constructions import (
    circulant_tournament,
    extremal_no_pc_c4,
    random_bipartite_edge_colored,
    random_edge_colored_graph,
    transitive_tournament,
)
from chroma.detectors import EXHAUSTED, FOUND, find_pc_kst, shortest_directed_cycle
from chroma.extraction import (
    ExtractionParams,
    construct_orientation,
    construct_orientation_bipartite,
    default_x,
    saturation_extract,
    sigma,
)
from chroma.formats import render_corg
from chroma.transforms import dual_graph, signature
from chroma.constructions import directed_cycle

from oracles import all_cycles_by_permutation, is_directed_cycle, is_pc_cycle


class TestSigma:
    def test_values(self):
        assert sigma(2, 2) == pytest.approx(2.0)
        assert sigma(2, 4) == pytest.approx(2 * math.sqrt(3))
        assert sigma(3, 3) == pytest.approx(3.0)

    def test_range_errors(self):
        for s, t in ((1, 2), (3, 2), (0, 0), (2, 1)):
            with pytest.raises(ValueError):
                sigma(s, t)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ExtractionParams(1, 2)
        with pytest.raises(ValueError):
            ExtractionParams(2, 2, x=0.0)
        with pytest.raises(ValueError):
            ExtractionParams(2, 2, x=float("nan"))
        assert ExtractionParams(2, 3).sigma == pytest.approx(2 * math.sqrt(2))

    def test_default_x(self):
        # (s-1) * ((t-1)/(s-1)!)^(1/s) * n2^(1-1/s)
        assert default_x(2, 2, 4) == pytest.approx(2.0)
        assert default_x(3, 3, 8) == pytest.approx(2 * 4.0)


def bipartite_instance(seed, n_max=20):
    rng = random.Random(seed)
    return random_bipartite_edge_colored(
        rng.randint(1, n_max),
        rng.randint(1, n_max),
        rng.choice([0.2, 0.5, 0.8]),
        rng.randint(1, 6),
        rng.getrandbits(32),
    )


class TestSaturationExtract:
    def test_requires_bipartition(self):
        with pytest.raises(ValueError, match="bipartition"):
            saturation_extract(EdgeColoredGraph(3, [(0, 1, 0)]), ExtractionParams(2, 2))

    def test_single_edge_below_threshold(self):
        # sides of size 2 so x = sqrt(2) > 1: the lone side-1 vertex cannot
        # qualify, the growth set stays empty, H keeps nothing
        G = EdgeColoredGraph(4, [(0, 2, 5)], bipartition=([0, 1], [2, 3]))
        res = saturation_extract(G, ExtractionParams(2, 2))
        assert res.state.x == pytest.approx(math.sqrt(2))
        assert res.state.selected == ()
        assert res.H.m == 0
        assert res.deltas[0] == 1  # vacuous: below 2*sqrt(2)

    def test_saturated_vertices_keep_exactly_s_minus_1(self):
        for seed in range(30):
            G = bipartite_instance(seed)
            for s in (2, 3):
                res = saturation_extract(G, ExtractionParams(s, s))
                for v in sorted(G.bipartition[1]):
                    kept = res.state.kept_colors[v]
                    assert color_degree(res.H, v) == len(kept) <= s - 1
                    assert res.state.sat_index[v] <= res.state.l
                    if res.state.sat_index[v] == res.state.l and len(kept) < s - 1:
                        # never saturated: strictly below the cap
                        assert len(kept) <= s - 2

    def test_pseudo_canonical_for_s2(self):
        for seed in range(30):
            G = bipartite_instance(seed)
            H = saturation_extract(G, ExtractionParams(2, 2)).H
            assert all(len(color_set(H, v)) <= 1 for v in G.bipartition[1])

    def test_growth_length_diagnostic(self):
        for seed in range(30):
            G = bipartite_instance(seed)
            n2 = len(G.bipartition[1])
            for s in (2, 3):
                state = saturation_extract(G, ExtractionParams(s, s)).state
                assert state.l <= (s - 1) * n2 / state.x + 1e-9

    def test_subgraph_relationship(self):
        for seed in range(20):
            G = bipartite_instance(seed)
            res = saturation_extract(G, ExtractionParams(2, 3))
            assert set(res.H.edges) <= set(G.edges)
            assert res.H.n == G.n and res.H.bipartition == G.bipartition

    def test_conditional_bound_on_certified_instances(self):
        checked = 0
        for seed in range(80):
            G = bipartite_instance(seed, n_max=12)
            n2 = len(G.bipartition[1])
            for s in (2, 3):
                if find_pc_kst(G, s, s, None).status != EXHAUSTED:
                    continue
                checked += 1
                res = saturation_extract(G, ExtractionParams(s, s))
                bound = sigma(s, s) * n2 ** (1.0 - 1.0 / s)
                assert all(d <= bound + 1e-9 for d in res.deltas.values())
        assert checked > 20

    def test_x_override(self):
        G = bipartite_instance(3)
        res = saturation_extract(G, ExtractionParams(2, 2, x=1.0))
        assert res.state.x == 1.0


def directed_cycles_of(D):
    pairs = [(t, h) for t, h in D.arcs]
    return [c for c in all_cycles_by_permutation(D.n, pairs) if is_directed_cycle(D.arcs, c)]


class TestConstructOrientation:
    def test_parameter_range(self):
        G = random_edge_colored_graph(4, 0.5, 3, 0)
        with pytest.raises(ValueError):
            construct_orientation(G, 1, 2)
        with pytest.raises(ValueError):
            construct_orientation(G, 3, 2)

    def test_edgeless(self):
        G = EdgeColoredGraph(5)
        H, D, report = construct_orientation(G, 2, 2)
        assert D.m == 0 and H.m == 0
        assert all(pv["dplus"] == 0 for pv in report["per_vertex"].values())

    def test_directed_triangle_cycles_stay_pc(self):
        G = signature(directed_cycle(3))
        H, D, _ = construct_orientation(G, 2, 3)
        for cyc in directed_cycles_of(D.as_oriented()):
            assert is_pc_cycle(G, cyc)
            assert is_pc_cycle(H, cyc)

    def test_unconditional_invariants(self):
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(3, 25)
            G = random_edge_colored_graph(n, rng.choice([0.2, 0.5]), rng.randint(1, 6), seed)
            s, t = rng.choice([(2, 2), (2, 3)] if n == 3 else [(2, 2), (2, 3), (3, 3)])
            H, D, _ = construct_orientation(G, s, t)
            pairs = {(a, b) for a, b, _ in D.arcs}
            assert not any((b, a) in pairs for a, b in pairs)
            for v in range(n):
                inc = {c for _, c in D.in_adj[v]}
                outc = {c for _, c in D.out_adj[v]}
                assert not inc & outc
                assert len(inc) <= s - 1
            assert {(a, b) for a, b, _ in H.edges} == {
                (min(a, b), max(a, b)) for a, b, _ in D.arcs
            }

    def test_deletion_step_is_order_independent(self):
        # run saturation_extract on the explicit dual graph, redo the
        # deletion step scanning vertices in descending order, and compare
        # arc sets and diagnostics
        for seed in range(10):
            G = random_edge_colored_graph(10, 0.6, 4, seed)
            dual = dual_graph(G)
            for s, t in ((2, 2), (2, 3), (3, 3)):
                for x in (None, 1.0, 1.5):
                    res = saturation_extract(dual, ExtractionParams(s, t, x))
                    right_colors = {v: color_set(res.H, G.n + v) for v in range(G.n)}
                    descending = []
                    for u in reversed(range(G.n)):
                        descending.extend(
                            (u, b - G.n, c)
                            for a, b, c in res.H.edges
                            if a == u and c not in right_colors[u]
                        )
                    H, D, report = construct_orientation(G, s, t, x)
                    assert sorted(descending) == list(D.arcs)
                    assert H.edges == tuple(sorted((min(a, b), max(a, b), c) for a, b, c in D.arcs))
                    assert (report["l"], report["x"]) == (res.state.l, res.state.x)

    def test_degree_bound_on_certified_instances(self):
        n = 20
        G = signature(transitive_tournament(n))
        assert find_pc_kst(G, 2, 2, None).status == EXHAUSTED
        _, D, report = construct_orientation(G, 2, 2)
        loss = 2 * math.sqrt(n) + 2
        for v in range(n):
            assert D.out_degree(v) > color_degree(G, v) - loss - 1e-9
        assert report["per_vertex"][0]["margin"] > 0

    def test_degree_bound_s3_certified(self):
        # the s=3 bound is non-vacuous at the source of a transitive
        # signature on 40 vertices: 39 - 3*40^(2/3) - 3 is just below 1
        n = 40
        G = signature(transitive_tournament(n))
        assert find_pc_kst(G, 3, 3, None).status == EXHAUSTED
        _, D, _ = construct_orientation(G, 3, 3)
        loss = 3 * n ** (2.0 / 3.0) + 3
        for v in range(n):
            assert D.out_degree(v) > color_degree(G, v) - loss - 1e-9
        assert color_degree(G, 0) - loss > 0  # the check has teeth at the source

    def test_deletion_step_loses_at_most_s_minus_1_colors(self):
        # out-degree at v equals the left-copy color degree after the
        # deletion step, which drops at most s-1 below the extraction's
        for seed in range(15):
            rng = random.Random(seed)
            n = rng.randint(2, 20)
            s, t = rng.choice([(2, 2), (2, 3), (3, 3)])
            G = random_edge_colored_graph(n, 0.6, rng.randint(1, 5), seed)
            res = saturation_extract(dual_graph(G), ExtractionParams(s, t))
            _, D, _ = construct_orientation(G, s, t)
            for v in range(n):
                assert D.out_degree(v) >= color_degree(res.H, v) - (s - 1)

    def test_report_shape(self):
        G = random_edge_colored_graph(6, 0.5, 3, 1)
        _, _, report = construct_orientation(G, 2, 2)
        assert {"s", "t", "n", "l", "x", "sigma", "per_vertex"} <= set(report)
        assert set(report["per_vertex"]) == set(range(6))
        assert {"dplus", "dc", "bound", "margin"} == set(report["per_vertex"][0])


class TestConstructOrientationBipartite:
    def test_requires_bipartition(self):
        with pytest.raises(ValueError, match="bipartition"):
            construct_orientation_bipartite(EdgeColoredGraph(5), 2, 2)

    def test_edgeless(self):
        G = EdgeColoredGraph(6, [], bipartition=(range(3), range(3, 6)))
        _, D, _ = construct_orientation_bipartite(G, 2, 2)
        assert D.m == 0

    def test_blowup_signature_invariant(self):
        # directed cycles of D, when any exist, are properly colored in G,
        # hence never shorter than 6 on this instance
        for k in (1, 2):
            G = extremal_no_pc_c4(k)
            H, D, _ = construct_orientation_bipartite(G, 2, 2)
            for v in range(G.n):
                inc = {c for _, c in D.in_adj[v]}
                outc = {c for _, c in D.out_adj[v]}
                assert not inc & outc
                assert len(inc) <= 1
            out = shortest_directed_cycle(D)
            if out.status == FOUND:
                cyc = out.witness.vertices[0]
                assert len(cyc) >= 6
                assert is_pc_cycle(G, cyc)

    def test_per_side_bound_on_certified_instances(self):
        checked = 0
        for seed in range(60):
            rng = random.Random(seed)
            n1, n2 = rng.randint(2, 12), rng.randint(2, 12)
            G = random_bipartite_edge_colored(
                n1, n2, rng.choice([0.3, 0.6]), rng.randint(1, 4), seed
            )
            if G.n <= 2 or find_pc_kst(G, 2, 2, None).status != EXHAUSTED:
                continue
            checked += 1
            side1 = G.bipartition[0]
            _, D, _ = construct_orientation_bipartite(G, 2, 2)
            for v in range(G.n):
                opposite = n2 if v in side1 else n1
                bound = color_degree(G, v) - 2 * math.sqrt(opposite) - 2
                assert D.out_degree(v) > bound - 1e-9
        assert checked > 10

    def test_matches_extraction_on_each_side(self):
        # each side's arcs come from saturation_extract on G with that side
        # as side 1, minus the arcs whose color the other run keeps at the tail
        for seed in range(15):
            G = bipartite_instance(seed, n_max=12)
            side1, side2 = G.bipartition
            swapped = EdgeColoredGraph(G.n, G.edges, (side2, side1))
            for s, t in ((2, 2), (2, 3), (3, 3)):
                for x in (None, 1.5):
                    a = saturation_extract(G, ExtractionParams(s, t, x))
                    b = saturation_extract(swapped, ExtractionParams(s, t, x))
                    arcs = []
                    for res, other, tails in ((a, b, side1), (b, a, side2)):
                        for u, v, c in res.H.edges:
                            tail, head = (u, v) if u in tails else (v, u)
                            if c not in color_set(other.H, tail):
                                arcs.append((tail, head, c))
                    _, D, report = construct_orientation_bipartite(G, s, t, x)
                    assert sorted(arcs) == list(D.arcs)
                    assert report["l"] == [a.state.l, b.state.l]
                    assert report["x"] == [a.state.x, b.state.x]

    def test_report_per_side_diagnostics(self):
        G = random_bipartite_edge_colored(5, 7, 0.5, 3, 2)
        _, _, report = construct_orientation_bipartite(G, 2, 2)
        assert len(report["l"]) == 2 and len(report["x"]) == 2


# sha256 of render_corg(D) plus the report as sorted JSON, recorded before the
# orientation stopped building the dual graph.
GOLDEN = {
    "circulant-60-s2": "7b759c690cce070bdf89f6243da37713cd3267a90f556574a3f96526a688e91f",
    "random-s2": "d1f5eccc56ee55c1440ac5a8213d0692349038c4f6801b04df0a9742199da5b9",
    "random-s3": "1aa8c5c9bffd6a80abec989cb2c17bf1c21fc9ab39b8ef19b813c54b5377c348",
    "bipartite": "e685f853d831ce111d70a9cd58b7df0692f1d5a44a8e6b63e18342bf7a010819",
    "bipartite-general": "65d82c9a015ba4bdf462d257dcf1d8586252798bc8db8a63a99cb69f514073d2",
    "random-x1.5": "5df42a4a0be35c21948800fdeb01f34d432a2327671ff18411a0dd1a46924240",
    "bipartite-x1.5": "3d40df6d9f36e7d876517a52aa35eed88a3e76e4242d17d93055026061f54009",
}


def golden_case(name):
    G = random_edge_colored_graph(30, 0.8, 30, 11)
    B = random_bipartite_edge_colored(16, 18, 0.9, 40, 5)
    return {
        "circulant-60-s2": lambda: construct_orientation(signature(circulant_tournament(60)), 2, 2),
        "random-s2": lambda: construct_orientation(G, 2, 2),
        "random-s3": lambda: construct_orientation(G, 3, 3),
        "bipartite": lambda: construct_orientation_bipartite(B, 2, 2),
        "bipartite-general": lambda: construct_orientation(B, 2, 2),
        "random-x1.5": lambda: construct_orientation(G, 2, 3, 1.5),
        "bipartite-x1.5": lambda: construct_orientation_bipartite(B, 2, 3, 1.5),
    }[name]()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_orientation_golden_digest(name):
    _, D, report = golden_case(name)
    assert D.m > 0
    text = render_corg(D) + json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]
