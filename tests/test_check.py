"""The search-free checks in chroma.check: verify_orientation against the
orientation construction and its mutations, the module's import boundary,
and verify_witness on witnesses read back from the JSON the detectors
print. verify_witness is tested further with the detectors that produce
the witnesses, in test_detectors.py."""
import ast
import copy
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chroma.check
from chroma import cli
from chroma import detectors as D
from chroma.check import verify_orientation, verify_witness
from chroma.core import ColoredOrientation, EdgeColoredGraph, Witness
from chroma.constructions import (
    blowup_cycle_signature,
    circulant_tournament,
    random_bipartite_edge_colored,
    random_edge_colored_graph,
)
from chroma.extraction import construct_orientation, construct_orientation_bipartite
from chroma.formats import load, save
from chroma.transforms import signature

ST_PAIRS = ((2, 2), (2, 3), (3, 3))

HOST = "every arc matches a host edge and color"
DISJOINT = "per-vertex in-arc and out-arc color sets are disjoint"
IN_COLORS = "per-vertex in-arc color set has size at most s-1"
REPORT = "the report's n and per-vertex dplus match the orientation"


def orientation_of(seed, st_pair, bipartite):
    """(G, D, report) from the construction on a seeded graph. Only graphs
    with many colors keep arcs at s = 3, so the palette is sometimes large."""
    rng = random.Random(seed)
    s, t = st_pair
    p, colors = rng.choice([0.2, 0.5, 0.9]), rng.choice([1, 3, 6, 60])
    if bipartite:
        n1, n2 = rng.randint(1, 12), rng.randint(1, 12)
        G = random_bipartite_edge_colored(n1, n2, p, colors, seed)
        _, D, report = construct_orientation_bipartite(G, s, t)
    else:
        G = random_edge_colored_graph(rng.randint(0, 20), p, colors, seed)
        _, D, report = construct_orientation(G, s, t)
    return G, D, report


def with_arcs(n, arcs):
    """A colored orientation whose host is its own arc support, as a .corg
    file is read: the arcs need not match any other graph."""
    return ColoredOrientation(EdgeColoredGraph(n, arcs), arcs)


def report_of(n, arcs):
    dplus = [0] * n
    for t, _, _ in arcs:
        dplus[t] += 1
    return {"n": n, "per_vertex": {v: {"dplus": d} for v, d in enumerate(dplus)}}


class TestAcceptsTheConstruction:
    @pytest.mark.parametrize("st_pair", ST_PAIRS)
    @pytest.mark.parametrize("bipartite", [False, True])
    def test_seeded(self, st_pair, bipartite):
        arcs = 0
        for seed in range(25):
            G, D, report = orientation_of(seed, st_pair, bipartite)
            assert verify_orientation(G, D, st_pair[0], report) is None
            arcs += D.m
        assert arcs > 0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        st_pair=st.sampled_from(ST_PAIRS),
        bipartite=st.booleans(),
    )
    def test_hypothesis(self, seed, st_pair, bipartite):
        G, D, report = orientation_of(seed, st_pair, bipartite)
        assert verify_orientation(G, D, st_pair[0], report) is None

    def test_files_chroma_orient_writes(self, tmp_path):
        # json.load reads the per-vertex rows back with string keys.
        ecg, corg, rep = tmp_path / "b.ecg", tmp_path / "d.corg", tmp_path / "r.json"
        save(blowup_cycle_signature(6, 3), ecg)
        argv = ["orient", "-i", str(ecg), "--s", "2", "--t", "2", "-o", str(corg), "--report", str(rep)]
        assert cli.main(argv) == 0
        G, D, report = load(ecg), load(corg), json.loads(rep.read_text())
        assert isinstance(report["l"], list) and D.m > 0
        assert verify_orientation(G, D, 2, report) is None
        report["per_vertex"][str(D.arcs[0][0])]["dplus"] += 1
        assert verify_orientation(G, D, 2, report) == REPORT


class TestRejectsMutations:
    @pytest.fixture
    def built(self):
        """An orientation with arcs of a graph with several colors and a
        non-edge."""
        G = random_edge_colored_graph(12, 0.5, 4, 3)
        _, D, report = construct_orientation(G, 2, 2)
        assert D.m > 0 and G.m < 12 * 11 // 2
        return G, D, report

    def test_recolored_arc(self, built):
        G, D, report = built
        (t, h, c), *rest = D.arcs
        other = next(x for _, _, x in G.edges if x != c)
        mutated = with_arcs(G.n, [(t, h, other), *rest])
        assert verify_orientation(G, mutated, 2, report) == HOST

    def test_arc_off_the_host(self, built):
        G, D, report = built
        u, v = next(
            (u, v) for u in range(G.n) for v in range(u + 1, G.n) if not G.has_edge(u, v)
        )
        arcs = [*D.arcs, (u, v, 0)]
        assert verify_orientation(G, with_arcs(G.n, arcs), 2, report_of(G.n, arcs)) == HOST

    def test_reversed_arc_meets_colors(self):
        G = EdgeColoredGraph(3, [(0, 1, 5), (1, 2, 5)])
        arcs = [(1, 0, 5), (1, 2, 5)]
        assert verify_orientation(G, with_arcs(3, arcs), 2, report_of(3, arcs)) is None
        # 0 -> 1 enters vertex 1 in color 5, which also leaves it.
        arcs = [(0, 1, 5), (1, 2, 5)]
        assert verify_orientation(G, with_arcs(3, arcs), 2, report_of(3, arcs)) == DISJOINT

    def test_second_in_color(self):
        G = EdgeColoredGraph(3, [(0, 1, 1), (0, 2, 2)])
        arcs = [(1, 0, 1), (2, 0, 2)]
        D, report = with_arcs(3, arcs), report_of(3, arcs)
        assert verify_orientation(G, D, 3, report) is None
        assert verify_orientation(G, D, 2, report) == IN_COLORS

    def test_wrong_dplus(self, built):
        G, D, report = built
        t = D.arcs[0][0]
        report = copy.deepcopy(report)
        report["per_vertex"][t]["dplus"] += 1
        assert verify_orientation(G, D, 2, report) == REPORT

    def test_wrong_n(self, built):
        G, D, report = built
        assert verify_orientation(G, D, 2, {**report, "n": G.n + 1}) == REPORT

    @pytest.mark.parametrize(
        "malformed",
        [
            lambda r: {**r, "per_vertex": list(r["per_vertex"].values())},
            lambda r: {**r, "per_vertex": None},
            lambda r: {**r, "per_vertex": {"0": [1]}},
            lambda r: [r],
        ],
        ids=["per-vertex-list", "per-vertex-null", "row-list", "report-list"],
    )
    def test_report_of_the_wrong_shape(self, built, malformed):
        # Valid JSON that is not a report: named as a mismatch, not raised.
        G, D, report = built
        report = json.loads(json.dumps(malformed(report)))
        assert verify_orientation(G, D, 2, report) == REPORT

    def test_first_failing_invariant_is_named(self, built):
        G, D, report = built
        (t, h, c), *rest = D.arcs
        other = next(x for _, _, x in G.edges if x != c)
        mutated = with_arcs(G.n, [(t, h, other), *rest])
        assert verify_orientation(G, mutated, 2, {**report, "n": -1}) == HOST


def test_check_imports_only_core_and_the_standard_library():
    # Importing chroma.check runs the package __init__, which loads every
    # module, so the boundary is read off the source instead.
    tree = ast.parse(Path(chroma.check.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        if isinstance(node, ast.ImportFrom) and node.level:
            assert (node.level, node.module) == (1, "core")
        else:
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert all(name.split(".")[0] in sys.stdlib_module_names for name in names)


def c4_graph(*colors):
    return EdgeColoredGraph(4, [(0, 1, colors[0]), (1, 2, colors[1]), (2, 3, colors[2]), (0, 3, colors[3])])


def digraph_file(tmp_path, name):
    """A circulant tournament on 7 vertices as a .org file, or a colored
    orientation of its signature as a .corg file, loaded back."""
    D7 = circulant_tournament(7)
    if name.endswith(".corg"):
        D7 = construct_orientation(signature(D7), 2, 2)[1]
    save(D7, tmp_path / name)
    return load(tmp_path / name)


ROUND_TRIP_CASES = {
    "pc-kst": lambda _: (c4_graph(1, 2, 1, 2), lambda G: D.find_pc_kst(G, 2, 2)),
    "rainbow-kst": lambda _: (c4_graph(1, 2, 3, 4), lambda G: D.find_rainbow_kst(G, 2, 2)),
    "pc-cycle": lambda _: (blowup_cycle_signature(5, 2), lambda G: D.find_pc_cycle_upto(G, 5)),
    "pc-cycle-pipeline": lambda _: (
        c4_graph(1, 2, 1, 2), lambda G: D.pc_short_cycle_pipeline(G, 4)
    ),
    "rainbow-cycle": lambda _: (c4_graph(1, 2, 3, 4), D.find_rainbow_c4),
    "directed-cycle-org": lambda tmp: (digraph_file(tmp, "c7.org"), D.shortest_directed_cycle),
    "directed-cycle-corg": lambda tmp: (digraph_file(tmp, "c7.corg"), D.shortest_directed_cycle),
    "disjoint-cycles": lambda _: (
        signature(circulant_tournament(21)), lambda G: D.disjoint_pc_cycles(G, 3)
    ),
}


@pytest.mark.parametrize("case", ROUND_TRIP_CASES)
def test_witness_survives_its_json(case, tmp_path):
    # What a caller of chroma find gets is JSON; the witness rebuilt from it
    # is the detector's and passes the checker on the same host.
    host, detect = ROUND_TRIP_CASES[case](tmp_path)
    out = detect(host)
    assert out.status == D.FOUND and case.startswith(out.witness.kind)
    w = Witness(**json.loads(json.dumps(out.to_dict()))["witness"])
    assert w == out.witness
    assert verify_witness(host, w)
