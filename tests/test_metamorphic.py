"""Metamorphic relations: answers that must not depend on labels.

A detector's status is a property of the graph up to isomorphism and
injective color renaming; where it is not, some search claimed
exhausted-none without covering its space. Renaming the colors alone keeps
more: the searches compare colors only for equality, and vertex ids decide
every order they take, so the node count and the witness vertices stay the
same too.

Parts that lie on no cycle change no status either: an acyclic signature
beside G, or a pendant vertex, holds no properly colored cycle and no
K_{s,t} (s, t >= 2), whose vertices all have degree two or more. And a
blow-up keeps the shortest cycle: the signature of blow_up(D, k) has a
shortest properly colored cycle of the length of D's shortest directed
cycle.

Nor may an answer depend on the graph object's history: a search that
drops no edge keeps the hub pass's layout with the graph, so a search of a
graph searched before must end as on a fresh copy, node for node.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.check import verify_witness
from chroma.constructions import (
    blowup_cycle_signature,
    circulant_tournament,
    random_edge_colored_graph,
    random_oriented_graph,
    transitive_tournament,
)
from chroma.core import EdgeColoredGraph, Witness
from chroma.detectors import disjoint_pc_cycles, find_pc_cycle_upto, shortest_directed_cycle
from chroma.suites import _LABEL_FREE_SEARCHES, _color_renaming
from chroma.transforms import blow_up, relabel, signature

from oracles import claimed_edges

# Every detector on an edge-colored graph but disjoint_pc_cycles, whose
# status is not yet label-free (ROADMAP item 1): those of the invariance
# suite.
DETECTORS = _LABEL_FREE_SEARCHES
DISJOINT = {
    "disjoint-2": lambda G: disjoint_pc_cycles(G, 2),
    "disjoint-3": lambda G: disjoint_pc_cycles(G, 3),
}


def instance(seed):
    """A random graph on 5 to 16 vertices with 2 to 6 colors, or the
    signature of a random oriented graph, whose colors are head ids."""
    rng = random.Random(seed)
    n = rng.randint(5, 16)
    if seed % 4 == 0:
        return signature(random_oriented_graph(n, rng.choice((0.3, 0.6)), seed))
    return random_edge_colored_graph(n, rng.choice((0.3, 0.5, 0.8)), rng.randint(2, 6), seed)


def relabelled(G, rng):
    """(H, perm): G with its vertex v moved to perm[v], a random
    permutation, and its colors renamed injectively."""
    perm = list(range(G.n))
    rng.shuffle(perm)
    return relabel(G, perm, _color_renaming(G, rng)), perm


def mapped_back(G, w, perm):
    """The witness w, found on G relabelled by perm, moved back onto G."""
    inv = {p: v for v, p in enumerate(perm)}
    groups = tuple(tuple(inv[v] for v in g) for g in w.vertices)
    return Witness(w.kind, groups, claimed_edges(G, w.kind, groups))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_color_renaming_keeps_status_nodes_and_witness(seed):
    G = instance(seed)
    H = relabel(G, range(G.n), _color_renaming(G, random.Random(seed)))
    for name, detect in {**DETECTORS, **DISJOINT}.items():
        a, b = detect(G), detect(H)
        assert (a.status, a.nodes) == (b.status, b.nodes), name
        assert (a.witness and a.witness.vertices) == (b.witness and b.witness.vertices), name


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_relabelling_keeps_status_and_a_witness_on_g(seed):
    G = instance(seed)
    H, perm = relabelled(G, random.Random(seed))
    for name, detect in DETECTORS.items():
        a, b = detect(G), detect(H)
        assert a.status == b.status, name
        if b.witness is not None:
            assert verify_witness(G, mapped_back(G, b.witness, perm)), name


def assert_same_status(G, H):
    for name, detect in DETECTORS.items():
        assert detect(G).status == detect(H).status, name


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_an_acyclic_signature_beside_g_keeps_the_status(seed, a):
    G = instance(seed)
    T = signature(transitive_tournament(a))
    n = G.n
    H = EdgeColoredGraph(n + a, [*G.edges, *((u + n, v + n, c) for u, v, c in T.edges)])
    assert_same_status(G, H)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_pendant_vertex_keeps_the_status(seed):
    # The new edge's color is one of G's or a new one.
    G = instance(seed)
    rng = random.Random(seed)
    colors = {c for _, _, c in G.edges}
    edge = (rng.randrange(G.n), G.n, rng.randint(0, max(colors, default=0) + 1))
    assert_same_status(G, EdgeColoredGraph(G.n + 1, [*G.edges, edge]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.integers(1, 3))
def test_a_blow_up_keeps_the_shortest_cycle_length(seed, n, k):
    D = random_oriented_graph(n, random.Random(seed).choice((0.3, 0.6, 0.9)), seed)
    cycle = find_pc_cycle_upto(signature(blow_up(D, k)), n).witness
    directed = shortest_directed_cycle(D).witness
    assert (cycle and len(cycle.vertices[0])) == (directed and len(directed.vertices[0]))


@pytest.mark.xfail(strict=True, reason="disjoint_pc_cycles is a greedy, no exact packing (ROADMAP item 1)")
def test_relabelling_keeps_the_disjoint_status():
    # Fixed seeds rather than hypothesis: a strict xfail must fail on every
    # run, and only some relabellings move the greedy's status.
    for seed in range(300):
        G = instance(seed)
        H, perm = relabelled(G, random.Random(seed))
        for name, detect in DISJOINT.items():
            a, b = detect(G), detect(H)
            assert a.status == b.status, (name, seed)
            if b.witness is not None:
                assert verify_witness(G, mapped_back(G, b.witness, perm)), name


def layout_instance(seed):
    """A relabelled C_r blow-up (r = 3..7, k = 2..4), a circulant signature
    (n = 5..25) or the graph of instance(seed), by seed."""
    rng = random.Random(seed)
    if seed % 3 == 0:
        return relabelled(blowup_cycle_signature(rng.randint(3, 7), rng.randint(2, 4)), rng)[0]
    if seed % 3 == 1:
        return signature(circulant_tournament(rng.randint(5, 25)))
    return instance(seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_searching_a_graph_again_keeps_every_answer(seed):
    # G is searched by every detector in turn, so once one of them has run
    # the hub pass on all of G, every later search finds the layout kept.
    G = layout_instance(seed)
    for name, detect in {**DETECTORS, **DISJOINT}.items():
        copy = EdgeColoredGraph(G.n, G.edges)
        runs = (detect(layout_instance(seed)), detect(G), detect(G), detect(copy))
        fresh, *others = [(out.status, out.nodes, out.witness, out.details) for out in runs]
        assert others == [fresh] * 3, name
