import hashlib
import json
import math
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma import cli
from chroma.core import EdgeColoredGraph, OrientedGraph, color_degree, color_set
from chroma.constructions import (
    circulant_tournament,
    extremal_no_pc_c4,
    random_bipartite_edge_colored,
    random_edge_colored_graph,
    transitive_tournament,
)
from chroma.detectors import EXHAUSTED, FOUND, find_pc_kst, shortest_directed_cycle
from chroma.extraction import (
    _color_firsts,
    _saturation_extract_on_parts,
    construct_orientation,
    construct_orientation_bipartite,
    default_x,
    saturation_extract,
    sigma,
)
from chroma.formats import render_corg, save
from chroma.suites import SCHEMA_VERSION
from chroma.transforms import dual_graph, signature
from chroma.constructions import directed_cycle

from oracles import (
    adjacency_firsts,
    adjacency_greedy,
    adjacency_orient,
    all_cycles_by_permutation,
    is_directed_cycle,
    is_pc_cycle,
    restart_scan_greedy,
)


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
        with pytest.raises(ValueError, match="s must be an integer >= 2"):
            saturation_extract(bipartite_instance(0), 1, 2)
        assert sigma(2, 3) == pytest.approx(2 * math.sqrt(2))

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


def assert_matches_restart_scan(G, s, x):
    """The greedy's state at threshold x (None: default_x(s, s + 1, n2))
    equals the restart-scan reference's; returns l."""
    side1, side2 = G.bipartition
    if x is None:
        x = default_x(s, s + 1, len(side2))
    state = _saturation_extract_on_parts(_color_firsts(G), side1, side2, s, x)
    selected, kept_colors = restart_scan_greedy(G, side1, side2, s, x)
    assert state.selected == tuple(selected)
    assert state.kept_colors == kept_colors
    return state.l


class TestSaturationExtract:
    def test_requires_bipartition(self):
        with pytest.raises(ValueError, match="bipartition"):
            saturation_extract(EdgeColoredGraph(3, [(0, 1, 0)]), 2, 2)

    def test_single_edge_below_threshold(self):
        # sides of size 2 so x = sqrt(2) > 1: the lone side-1 vertex cannot
        # qualify, the growth set stays empty, H keeps nothing
        G = EdgeColoredGraph(4, [(0, 2, 5)], bipartition=([0, 1], [2, 3]))
        res = saturation_extract(G, 2, 2)
        assert res.state.x == pytest.approx(math.sqrt(2))
        assert res.state.selected == ()
        assert res.H.m == 0
        assert res.deltas[0] == 1  # vacuous: below 2*sqrt(2)

    def test_saturated_vertices_keep_exactly_s_minus_1(self):
        for seed in range(30):
            G = bipartite_instance(seed)
            for s in (2, 3):
                res = saturation_extract(G, s, s)
                for v in sorted(G.bipartition[1]):
                    kept = res.state.kept_colors[v]
                    assert color_degree(res.H, v) == len(kept) <= s - 1

    def test_pseudo_canonical_for_s2(self):
        for seed in range(30):
            G = bipartite_instance(seed)
            H = saturation_extract(G, 2, 2).H
            assert all(len(color_set(H, v)) <= 1 for v in G.bipartition[1])

    def test_growth_length_diagnostic(self):
        for seed in range(30):
            G = bipartite_instance(seed)
            n2 = len(G.bipartition[1])
            for s in (2, 3):
                state = saturation_extract(G, s, s).state
                assert state.l <= (s - 1) * n2 / state.x + 1e-9

    def test_subgraph_relationship(self):
        for seed in range(20):
            G = bipartite_instance(seed)
            res = saturation_extract(G, 2, 3)
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
                res = saturation_extract(G, s, s)
                bound = sigma(s, s) * n2 ** (1.0 - 1.0 / s)
                assert all(d <= bound + 1e-9 for d in res.deltas.values())
        assert checked > 20

    def test_one_pass_matches_restart_scan(self):
        # Seeded bipartite graphs, and the dual graphs that the orientation
        # runs the greedy on; small x makes runs of many picks.
        longest = 0
        for seed in range(40):
            rng = random.Random(seed)
            general = random_edge_colored_graph(rng.randint(1, 10), 0.6, rng.randint(1, 5), seed)
            for G in (bipartite_instance(seed, n_max=12), dual_graph(general)):
                for s in (2, 3):
                    for x in (None, 0.5, 1.5):
                        longest = max(longest, assert_matches_restart_scan(G, s, x))
        assert longest >= 5

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        s=st.sampled_from((2, 3, 4)),
        x=st.sampled_from((None, 0.5, 1.0, 2.0, 3.0)),
        dual=st.booleans(),
    )
    def test_one_pass_matches_restart_scan_hypothesis(self, seed, s, x, dual):
        rng = random.Random(seed)
        if dual:
            G = dual_graph(random_edge_colored_graph(
                rng.randint(0, 9), rng.choice([0.3, 0.6, 0.9]), rng.randint(1, 6), seed
            ))
        else:
            G = bipartite_instance(seed, n_max=10)
        assert_matches_restart_scan(G, s, x)


def directed_cycles_of(D):
    pairs = [(t, h) for t, h in D.arcs]
    return [c for c in all_cycles_by_permutation(D.n, pairs) if is_directed_cycle(D.arcs, c)]


class TestConstructOrientation:
    def test_parameter_range(self):
        G = random_edge_colored_graph(4, 0.5, 3, 0)
        B = random_bipartite_edge_colored(3, 3, 1.0, 2, 0)
        for build, host in ((construct_orientation, G), (construct_orientation_bipartite, B)):
            with pytest.raises(ValueError, match="s must be an integer >= 2, got 1"):
                build(host, 1, 2)
            with pytest.raises(ValueError, match="t must be an integer >= 3, got 2"):
                build(host, 3, 2)

    def test_edgeless(self):
        G = EdgeColoredGraph(5)
        H, D, report = construct_orientation(G, 2, 2)
        assert D.m == 0 and H.m == 0
        assert all(pv["dplus"] == 0 for pv in report["per_vertex"].values())

    def test_directed_triangle_cycles_stay_pc(self):
        G = signature(directed_cycle(3))
        H, D, _ = construct_orientation(G, 2, 3)
        for cyc in directed_cycles_of(OrientedGraph(D.n, [(t, h) for t, h, _ in D.arcs])):
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
                inc = {c for _, h, c in D.arcs if h == v}
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
                res = saturation_extract(dual, s, t)
                right_colors = {v: color_set(res.H, G.n + v) for v in range(G.n)}
                descending = []
                for u in reversed(range(G.n)):
                    descending.extend(
                        (u, b - G.n, c)
                        for a, b, c in res.H.edges
                        if a == u and c not in right_colors[u]
                    )
                H, D, report = construct_orientation(G, s, t)
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
            res = saturation_extract(dual_graph(G), s, t)
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
                inc = {c for _, h, c in D.arcs if h == v}
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
                a = saturation_extract(G, s, t)
                b = saturation_extract(swapped, s, t)
                arcs = []
                for res, other, tails in ((a, b, side1), (b, a, side2)):
                    for u, v, c in res.H.edges:
                        tail, head = (u, v) if u in tails else (v, u)
                        if c not in color_set(other.H, tail):
                            arcs.append((tail, head, c))
                _, D, report = construct_orientation_bipartite(G, s, t)
                assert sorted(arcs) == list(D.arcs)
                assert report["l"] == [a.state.l, b.state.l]
                assert report["x"] == [a.state.x, b.state.x]

    def test_report_per_side_diagnostics(self):
        G = random_bipartite_edge_colored(5, 7, 0.5, 3, 2)
        _, _, report = construct_orientation_bipartite(G, 2, 2)
        assert len(report["l"]) == 2 and len(report["x"]) == 2


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    construction=st.sampled_from(("general", "bipartite", "bipartite-general")),
    st_pair=st.sampled_from(((2, 2), (2, 3), (3, 3))),
)
def test_report_degrees_match_graph_and_orientation(seed, construction, st_pair):
    """The report reads dc and dplus off the greedy; they must equal the
    color degree in G and the out-degree in D at every vertex."""
    s, t = st_pair
    if construction == "general":
        rng = random.Random(seed)
        G = random_edge_colored_graph(
            rng.randint(0, 16), rng.choice([0.3, 0.6, 0.9]), rng.randint(1, 6), seed
        )
        _, D, report = construct_orientation(G, s, t)
    else:
        G = bipartite_instance(seed, n_max=10)
        build = construct_orientation_bipartite if construction == "bipartite" else construct_orientation
        _, D, report = build(G, s, t)
    assert set(report["per_vertex"]) == set(range(G.n))
    for v, row in report["per_vertex"].items():
        assert row["dc"] == color_degree(G, v)
        assert row["dplus"] == D.out_degree(v)
        assert row["margin"] == row["dplus"] - row["bound"]


def assert_matches_adjacency_reference(G, s, t):
    """The one-edge-per-color maps, each greedy's state, the arcs and the
    report equal those of the construction as it ran on G.adj, for the
    general construction and, on a bipartite G, the bipartite one and
    saturation_extract."""
    firsts = _color_firsts(G)
    assert [[(v, c) for c, v in first.items()] for first in firsts] == list(
        adjacency_firsts(G, range(G.n)).values()
    )
    runs = [(construct_orientation, [(range(G.n), range(G.n))])]
    if G.bipartition is not None:
        side1, side2 = G.bipartition
        runs.append((construct_orientation_bipartite, [(side1, side2), (side2, side1)]))
        kept, state, dc = adjacency_greedy(G, side1, side2, s, default_x(s, t, len(side2)))
        res = saturation_extract(G, s, t)
        assert res.state == state
        assert res.H == EdgeColoredGraph(G.n, kept, G.bipartition)
        assert res.deltas == {u: dc[u] - color_degree(res.H, u) for u in sorted(side1)}
    for build, parts in runs:
        arcs, states, report = adjacency_orient(G, s, t, parts)
        for (side1, side2), state in zip(parts, states):
            assert _saturation_extract_on_parts(firsts, side1, side2, s, state.x) == state
        _, D, got = build(G, s, t)
        assert D.arcs == arcs
        assert json.dumps(got) == json.dumps(report)


class TestAdjacencyReference:
    @pytest.mark.parametrize("G", [
        EdgeColoredGraph(0),
        EdgeColoredGraph(0, (), ((), ())),
        EdgeColoredGraph(5, [(1, 3, 0)]),
        EdgeColoredGraph(6, [(0, 4, 2), (1, 4, 0), (1, 3, 2)], (range(3), range(3, 6))),
        EdgeColoredGraph(4, [(2, 3, 1), (0, 3, 1)], (range(3), range(3, 4))),
    ], ids=["empty", "empty-bipartite", "isolated", "isolated-bipartite", "one-sided"])
    def test_small(self, G):
        for s, t in ((2, 2), (2, 3), (3, 3)):
            assert_matches_adjacency_reference(G, s, t)

    def test_seeded(self):
        for seed in range(40):
            rng = random.Random(seed)
            general = random_edge_colored_graph(
                rng.randint(0, 18), rng.choice([0.1, 0.4, 0.8]), rng.randint(1, 6), seed
            )
            for G in (general, bipartite_instance(seed, n_max=12)):
                for s, t in ((2, 2), (2, 3), (3, 3), (3, 4)):
                    assert_matches_adjacency_reference(G, s, t)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bipartite=st.booleans(),
        st_pair=st.sampled_from(((2, 2), (2, 3), (3, 3), (3, 4))),
    )
    def test_hypothesis(self, seed, bipartite, st_pair):
        rng = random.Random(seed)
        if bipartite:
            G = bipartite_instance(seed, n_max=10)
        else:
            G = random_edge_colored_graph(
                rng.randint(0, 14), rng.choice([0.1, 0.5, 0.9]), rng.randint(1, 6), seed
            )
        assert_matches_adjacency_reference(G, *st_pair)


# sha256 of render_corg(D) plus the report as sorted JSON, recorded before the
# orientation stopped building the dual graph.
GOLDEN = {
    "circulant-60-s2": "7b759c690cce070bdf89f6243da37713cd3267a90f556574a3f96526a688e91f",
    "random-s2": "d1f5eccc56ee55c1440ac5a8213d0692349038c4f6801b04df0a9742199da5b9",
    "random-s3": "1aa8c5c9bffd6a80abec989cb2c17bf1c21fc9ab39b8ef19b813c54b5377c348",
    "bipartite": "e685f853d831ce111d70a9cd58b7df0692f1d5a44a8e6b63e18342bf7a010819",
    "bipartite-general": "65d82c9a015ba4bdf462d257dcf1d8586252798bc8db8a63a99cb69f514073d2",
}


def golden_args(name):
    """(construction, G, s, t) of a golden case."""
    G = random_edge_colored_graph(30, 0.8, 30, 11)
    B = random_bipartite_edge_colored(16, 18, 0.9, 40, 5)
    return {
        "circulant-60-s2": (construct_orientation, signature(circulant_tournament(60)), 2, 2),
        "random-s2": (construct_orientation, G, 2, 2),
        "random-s3": (construct_orientation, G, 3, 3),
        "bipartite": (construct_orientation_bipartite, B, 2, 2),
        "bipartite-general": (construct_orientation, B, 2, 2),
    }[name]


def golden_case(name):
    build, G, s, t = golden_args(name)
    return build(G, s, t)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_orientation_golden_digest(name):
    _, D, report = golden_case(name)
    assert D.m > 0
    text = render_corg(D) + json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_h_is_the_support_d_was_checked_through(name):
    """The arcs' support is built once, in D's constructor, and returned as
    H; the orientation never builds G's pair-to-color map or adjacency."""
    build, G, s, t = golden_args(name)
    H, D, _ = build(G, s, t)
    assert H is D.support
    assert H == EdgeColoredGraph(G.n, D.arcs, G.bipartition)
    assert "pair_colors" not in vars(G)
    assert "adj" not in vars(G)


def orient_cli_texts(build, G, s, t):
    """(.corg text, report text) that `chroma orient` writes for build(G,
    s, t), run in-process on a saved copy of G."""
    with tempfile.TemporaryDirectory() as d:
        ecg, corg, rep = (os.path.join(d, f) for f in ("g.ecg", "d.corg", "r.json"))
        save(G, ecg)
        argv = ["orient", "-i", ecg, "--s", str(s), "--t", str(t), "-o", corg, "--report", rep]
        if build is construct_orientation and G.bipartition is not None:
            argv.append("--general")
        assert cli.main(argv) == 0
        with open(corg, encoding="utf-8") as f, open(rep, encoding="utf-8") as g:
            return f.read(), g.read()


def assert_cli_bytes(build, G, s, t):
    """The CLI's .corg is render_corg(D) and its report is the stdlib's
    indent=2 JSON of the construction's report."""
    _, D, report = build(G, s, t)
    corg, text = orient_cli_texts(build, G, s, t)
    assert corg == render_corg(D)
    assert text == json.dumps({"schema": SCHEMA_VERSION, **report}, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_orient_report_is_indent2_json(name):
    # The cases include bipartite reports (l and x are lists).
    assert_cli_bytes(*golden_args(name))


def test_orient_report_is_indent2_json_empty_graph():
    # per_vertex is the empty object `{}`
    assert_cli_bytes(construct_orientation, EdgeColoredGraph(0), 2, 2)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    bipartite=st.booleans(),
    general=st.booleans(),
    st_pair=st.sampled_from(((2, 2), (2, 3), (3, 3))),
)
def test_orient_report_is_indent2_json_hypothesis(seed, bipartite, general, st_pair):
    rng = random.Random(seed)
    if bipartite:
        G = bipartite_instance(seed, n_max=8)
    else:
        G = random_edge_colored_graph(rng.randint(0, 12), rng.choice([0.3, 0.7]), rng.randint(1, 5), seed)
    build = construct_orientation if general or not bipartite else construct_orientation_bipartite
    assert_cli_bytes(build, G, *st_pair)
