"""Seeded query lists for the three benchmark workloads, with their answers.

Every query carries the answer fixed by how its instance was built, so the
benchmark can tell a right answer from a wrong one without trusting the code
under test:

- signatures of transitive tournaments are acyclic, so they hold no PC cycle
  and no PC or rainbow K_{2,2};
- signatures never hold a PC K_{s,t} with t >= 3;
- blow-ups of a directed C_r have PC cycles only of lengths that are
  multiples of r, so the r=6 family has no PC C4 and the r=5 family no
  rainbow C4;
- circulant signatures with n >= 9 hold a PC C4;
- random graphs above the total colour degree threshold hold a PC K_{2,2}.

The seed picks vertex relabellings and the random instances; chroma sees
only the generated graphs. Instance sizes are fixed, so the work in one pass
over the list barely moves from seed to seed.

Each full list holds N = 5 (mod 10) queries. With every query sampled once
per pass, the median and p90 positions then fall near the middle of one
query's block of samples instead of on the edge between two queries whose
costs differ by a large factor, which would make those percentiles jump
from run to run.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import chroma.cli
import chroma.constructions as C
import chroma.detectors as D
import chroma.formats
import chroma.transforms as T
from chroma.core import EdgeColoredGraph

FOUND, EXHAUSTED, BUDGET = D.FOUND, D.EXHAUSTED, D.BUDGET_EXCEEDED


@dataclass(frozen=True)
class Answer:
    """What must repeat exactly between passes over the same query."""

    status: str
    nodes: int
    steps: int
    digest: str


def _digest(*parts: Any) -> str:
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _relabel(G: EdgeColoredGraph, rng: random.Random) -> EdgeColoredGraph:
    """Isomorphic copy under a seeded vertex permutation.

    Vertices move only inside their own side of a bipartition, so the sides
    stay the same vertex sets and a prefix side 1 stays a prefix.
    """
    groups = [sorted(side) for side in G.bipartition] if G.bipartition else [range(G.n)]
    perm = [0] * G.n
    for group in groups:
        group = list(group)
        shuffled = group[:]
        rng.shuffle(shuffled)
        for old, new in zip(group, shuffled):
            perm[old] = new
    edges = [(perm[u], perm[v], c) for u, v, c in G.edges]
    return EdgeColoredGraph(G.n, edges, G.bipartition)


def _warm(G: EdgeColoredGraph) -> EdgeColoredGraph:
    """Fill the graph's cached adjacency so queries do not pay for it."""
    G.adj, G.neighbor_sets, G.pair_colors
    return G


def _colour_map(G: EdgeColoredGraph) -> dict[tuple[int, int], int]:
    """Edge colours read straight from G.edges, independent of G's caches."""
    return {(u, v): c for u, v, c in G.edges}


def _colour(col, a: int, b: int) -> Optional[int]:
    return col.get((a, b) if a < b else (b, a))


def _cycle_problem(col, cycle, rainbow=False) -> Optional[str]:
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        return f"not a simple cycle: {cycle}"
    cs = [_colour(col, cycle[i], cycle[(i + 1) % k]) for i in range(k)]
    if None in cs:
        return f"cycle {cycle} uses a non-edge"
    if any(cs[i] == cs[(i + 1) % k] for i in range(k)):
        return f"cycle {cycle} is not properly coloured: {cs}"
    if rainbow and len(set(cs)) != k:
        return f"cycle {cycle} is not rainbow: {cs}"
    return None


def _kst_problem(col, S, Tside, s, t, rainbow) -> Optional[str]:
    if len(set(S)) != s or len(set(Tside)) != t or set(S) & set(Tside):
        return f"sides {S} / {Tside} do not form a K_{{{s},{t}}}"
    colours = {(u, w): _colour(col, u, w) for u in S for w in Tside}
    if None in colours.values():
        return "K_{s,t} uses a non-edge"
    for u in S:
        if len({colours[(u, w)] for w in Tside}) != t:
            return f"colours repeat at {u}"
    for w in Tside:
        if len({colours[(u, w)] for u in S}) != s:
            return f"colours repeat at {w}"
    if rainbow and len(set(colours.values())) != s * t:
        return "K_{s,t} is not rainbow"
    return None


class DetectorQuery:
    """One call of a public detector on a prepared graph.

    expected is the status fixed by construction, or None where only the
    witness can be checked. A budgeted query may also end budget-exceeded.
    """

    def __init__(self, qid, G, fn, args=(), expected=None, budget=None,
                 lengths=None, k=None):
        self.qid = qid
        self.G = _warm(G)
        self.fn = fn
        self.args = args
        self.expected = expected
        self.budget = budget
        self.lengths = lengths  # allowed cycle lengths of a found PC cycle
        self.k = k  # requested cycle count of a disjoint-cycles query
        self.col = _colour_map(G)

    def call(self):
        # Looked up on the module at call time, so traced runs see the wrapper.
        fn = getattr(D, self.fn)
        if self.budget is None:
            return fn(self.G, *self.args)
        return fn(self.G, *self.args, D.SearchBudget(max_nodes=self.budget))

    def answer(self, out) -> Answer:
        witness = out.witness.to_dict() if out.witness else None
        return Answer(out.status, out.nodes, 0, _digest(out.status, witness))

    def check(self, out) -> Optional[str]:
        if out.status == BUDGET:
            return None if self.budget is not None else "budget-exceeded without a budget"
        if self.expected is not None and out.status != self.expected:
            return f"status {out.status}, expected {self.expected}"
        if out.status == EXHAUSTED:
            if self.fn == "disjoint_pc_cycles":
                cycles = out.details.get("cycles", [])
                if len(cycles) >= self.k:
                    return f"exhausted with {len(cycles)} of {self.k} cycles"
                return self._partial_problem(cycles)
            return None
        if out.status != FOUND or out.witness is None:
            return f"status {out.status} without a witness"
        w = out.witness
        if not D.verify_witness(self.G, w):
            return "witness fails verify_witness"
        if w.kind in ("pc-kst", "rainbow-kst"):
            s, t = self.args
            return _kst_problem(self.col, *w.vertices, s, t, w.kind == "rainbow-kst")
        if w.kind == "disjoint-cycles":
            if len(w.vertices) != self.k:
                return f"{len(w.vertices)} cycles, {self.k} requested"
            return self._partial_problem(w.vertices)
        (cycle,) = w.vertices
        problem = _cycle_problem(self.col, cycle, rainbow=w.kind == "rainbow-cycle")
        if problem is None and self.lengths is not None and len(cycle) not in self.lengths:
            problem = f"cycle length {len(cycle)} not in {sorted(self.lengths)}"
        return problem

    def _partial_problem(self, cycles) -> Optional[str]:
        seen: set[int] = set()
        for cycle in cycles:
            problem = _cycle_problem(self.col, cycle)
            if problem:
                return problem
            if seen & set(cycle):
                return "cycles are not vertex-disjoint"
            seen |= set(cycle)
        return None


class OrientQuery:
    """One `chroma orient` call on an .ecg file written during set-up."""

    def __init__(self, qid, G, workdir, s, t, general=False):
        self.qid = qid
        self.G = G
        self.s, self.t = s, t
        stem = os.path.join(workdir, qid.replace("/", "_"))
        self.ecg, self.corg, self.report = stem + ".ecg", stem + ".corg", stem + ".json"
        chroma.formats.save(G, self.ecg)
        self.argv = ["orient", "-i", self.ecg, "--s", str(s), "--t", str(t),
                     "-o", self.corg, "--report", self.report]
        if general:
            self.argv.append("--general")
        self.col = _colour_map(G)

    def call(self):
        return chroma.cli.main(self.argv)

    def _read(self):
        with open(self.corg, encoding="utf-8") as f:
            corg = f.read()
        with open(self.report, encoding="utf-8") as f:
            report = f.read()
        return corg, report

    def answer(self, code) -> Answer:
        corg, report = self._read()
        l = json.loads(report)["l"]
        steps = sum(l) if isinstance(l, list) else l
        return Answer("ok" if code == 0 else f"exit-{code}", 0, steps, _digest(corg, report))

    def check(self, code) -> Optional[str]:
        if code != 0:
            return f"chroma orient exited with {code}"
        corg, report_text = self._read()
        lines = corg.split("\n")
        head = lines[0].split()
        if head[:2] != ["corg", str(self.G.n)] or len(head) != 3:
            return f"bad .corg header {lines[0]!r}"
        arcs = [tuple(map(int, ln.split())) for ln in lines[1:] if ln.strip()]
        if len(arcs) != int(head[2]):
            return "arc count does not match the header"
        n = self.G.n
        out_cols = [set() for _ in range(n)]
        in_cols = [set() for _ in range(n)]
        out_deg = [0] * n
        pairs = set()
        for a, b, c in arcs:
            if _colour(self.col, a, b) != c:
                return f"arc ({a},{b},{c}) is not a host edge of that colour"
            if (b, a) in pairs or (a, b) in pairs:
                return f"anti-parallel or repeated arc at ({a},{b})"
            pairs.add((a, b))
            out_cols[a].add(c)
            in_cols[b].add(c)
            out_deg[a] += 1
        for v in range(n):
            if out_cols[v] & in_cols[v]:
                return f"in- and out-arc colours meet at {v}"
            if len(in_cols[v]) > self.s - 1:
                return f"{len(in_cols[v])} in-colours at {v}, s={self.s}"
        report = json.loads(report_text)
        if (report["n"], report["s"], report["t"]) != (n, self.s, self.t):
            return "report header does not match the query"
        per_vertex = report["per_vertex"]
        if len(per_vertex) != n:
            return "report does not cover every vertex"
        for v in range(n):
            if per_vertex[str(v)]["dplus"] != out_deg[v]:
                return f"report dplus at {v} does not match the .corg"
        return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _signature(tournament, n, rng):
    return _relabel(T.signature(tournament(n)), rng)


def kst_exhaust(rng: random.Random, workdir: str, quick: bool = False):
    """Exhaustive K_{s,t} and rainbow-C4 decisions plus quick found ones."""
    trans = (30,) if quick else (30, 45, 60)
    ext6 = (2, 4) if quick else range(2, 9)
    small = (15,) if quick else range(15, 21)
    ext5 = (4,) if quick else range(4, 11)
    circ = (21,) if quick else range(21, 102, 8)
    randoms = 1 if quick else 5
    qs = []
    # In the natural labelling, as the ROADMAP measured them; these dominate
    # the pass time, so they stay the same for every seed.
    for n in trans:
        G = T.signature(C.transitive_tournament(n))
        qs.append(DetectorQuery(f"pc-k22/transitive-{n}", G, "find_pc_kst", (2, 2), EXHAUSTED))
    for k in ext6:
        G = _relabel(C.extremal_no_pc_c4(k), rng)
        qs.append(DetectorQuery(f"pc-k22/c6-blowup-{k}", G, "find_pc_kst", (2, 2), EXHAUSTED))
    for n in small:
        G = _signature(C.transitive_tournament, n, rng)
        qs.append(DetectorQuery(f"pc-k23/transitive-{n}", G, "find_pc_kst", (2, 3), EXHAUSTED))
        qs.append(DetectorQuery(f"rainbow-k22/transitive-{n}", G, "find_rainbow_kst", (2, 2), EXHAUSTED))
    for k in ext5:
        G = _relabel(C.extremal_no_rainbow_c4_trianglefree(k), rng)
        qs.append(DetectorQuery(f"rainbow-c4/c5-blowup-{k}", G, "find_rainbow_c4", (), EXHAUSTED))
    for n in circ:
        G = _signature(C.circulant_tournament, n, rng)
        qs.append(DetectorQuery(f"pc-k22/circulant-{n}", G, "find_pc_kst", (2, 2), FOUND))
    for i in range(randoms):
        G = C.random_edge_colored_graph(100, 0.85, 5000, rng.randrange(2**31))
        # The threshold check is the independent reference for these answers.
        forced, _margin = D.check_total_degree_threshold(G, 2, 2)
        qs.append(DetectorQuery(f"pc-k22/random-c8-{i}", G, "find_pc_kst", (2, 2),
                                FOUND if forced else None))
    return qs


_ORIENT_RANDOM = ((200, 0.25, 8), (250, 0.15, 20), (300, 0.12, 50), (200, 0.3, 50),
                  (250, 0.2, 8), (300, 0.1, 20), (220, 0.2, 30), (280, 0.15, 12))


def orient_cli(rng: random.Random, workdir: str, quick: bool = False):
    """`chroma orient` on circulant, random and bipartite .ecg files."""
    # n=120 rather than 100 keeps the p90 query's cost clear of the random
    # instances just below it.
    circ = (60,) if quick else (120, 200, 300)
    specs = _ORIENT_RANDOM[:1] if quick else _ORIENT_RANDOM
    bipartite = 1 if quick else 3
    qs = []
    for n in circ:
        G = _signature(C.circulant_tournament, n, rng)
        qs.append(OrientQuery(f"orient/circulant-{n}", G, workdir, 2, 2))
    for i, (n, p, colours) in enumerate(specs):
        G = C.random_edge_colored_graph(n, p, colours, rng.randrange(2**31))
        for s in (2, 3):
            qs.append(OrientQuery(f"orient/random-{i}-s{s}", G, workdir, s, s))
    for i in range(bipartite):
        G = _relabel(C.random_bipartite_edge_colored(150, 150, 0.2, 20, rng.randrange(2**31)), rng)
        qs.append(OrientQuery(f"orient/bipartite-{i}", G, workdir, 2, 2))
        qs.append(OrientQuery(f"orient/bipartite-{i}-general", G, workdir, 2, 2, general=True))
    return qs


def _greedy_c4_count(G: EdgeColoredGraph) -> int:
    """Vertex-disjoint PC C4s found by removing one find_pc_kst witness at a time.

    disjoint_pc_cycles starts every round with the same K_{2,2} search, so it
    finds at least this many cycles.
    """
    dead: set[int] = set()
    R = G
    count = 0
    while True:
        out = D.find_pc_kst(R, 2, 2)
        if out.status != FOUND:
            return count
        count += 1
        dead.update(v for side in out.witness.vertices for v in side)
        R = EdgeColoredGraph(G.n, [e for e in G.edges if e[0] not in dead and e[1] not in dead])


def short_cycle(rng: random.Random, workdir: str, quick: bool = False):
    """Short-PC-cycle queries decided by every pipeline stage."""
    circ = (9,) if quick else (9, 21, 41, 61, 81, 101, 141, 181, 201)
    blow = (8,) if quick else (8, 12, 16)
    ext6 = (1, 2) if quick else range(1, 7)
    trans = (10,) if quick else range(10, 15)
    qs = []
    for n in circ:
        G = _signature(C.circulant_tournament, n, rng)
        qs.append(DetectorQuery(f"pipeline/circulant-{n}-r4", G, "pc_short_cycle_pipeline",
                                (4,), FOUND, lengths={4}))
    for r0 in (3, 5):
        for k in blow:
            G = _relabel(C.blowup_cycle_signature(r0, k), rng)
            qs.append(DetectorQuery(f"pipeline/c{r0}-blowup-{k}-r6", G, "pc_short_cycle_pipeline",
                                    (6,), FOUND, lengths={L for L in (3, 4, 5, 6) if L % r0 == 0}))
    for k in ext6:
        G = _relabel(C.extremal_no_pc_c4(k), rng)
        qs.append(DetectorQuery(f"pipeline/c6-blowup-{k}-r4", G, "pc_short_cycle_pipeline",
                                (4,), EXHAUSTED))
        qs.append(DetectorQuery(f"pipeline/c6-blowup-{k}-r6", G, "pc_short_cycle_pipeline",
                                (6,), FOUND, lengths={6}))
    if not quick:
        G = _relabel(C.blowup_cycle_signature(7, 8), rng)
        qs.append(DetectorQuery("pipeline/c7-blowup-8-r6", G, "pc_short_cycle_pipeline",
                                (6,), EXHAUSTED))
    # Not relabelled: the DFS cost depends on how the labels sit against the
    # acyclic order, and would swing several-fold from seed to seed.
    for n in trans:
        G = T.signature(C.transitive_tournament(n))
        qs.append(DetectorQuery(f"pc-cycle/transitive-{n}", G, "find_pc_cycle_upto", (n,), EXHAUSTED))

    # Disjoint cycles. In the C6 blow-up every PC cycle has length 6k, so at
    # most kb cycles fit; kb exist (one per copy index) and removing one
    # leaves the blow-up with kb-1 copies.
    for kb in ((3,) if quick else (3, 4)):
        G = _relabel(C.extremal_no_pc_c4(kb), rng)
        for k in ((3, 4) if quick else (3, 4, 6, 10)):
            qs.append(DetectorQuery(f"disjoint/c6-blowup-{kb}-k{k}", G, "disjoint_pc_cycles",
                                    (k,), FOUND if k <= kb else EXHAUSTED, k=k))
    for i in range(1 if quick else 2):
        G = C.random_edge_colored_graph(40, 0.5, 6, rng.randrange(2**31))
        greedy = _greedy_c4_count(G)
        for k in ((3, 14) if quick else (3, 6, 10, 14)):
            # k cycles need at least 3k vertices.
            expected = FOUND if k <= greedy else EXHAUSTED if 3 * k > G.n else None
            qs.append(DetectorQuery(f"disjoint/random-{i}-k{k}", G, "disjoint_pc_cycles",
                                    (k,), expected, k=k))

    # Node-budgeted pipeline queries, on unrelabelled instances so that each
    # budget runs out at the same point for every seed. The C6 blow-up with
    # k=3 at r=6 and 514 nodes is the known defect: the budget runs out
    # outside the stage-2 try block and the private _BudgetStop escapes.
    G = C.extremal_no_pc_c4(3)
    for budget in ((514,) if quick else (100, 514, 533, 2000)):
        qs.append(DetectorQuery(f"pipeline/c6-blowup-3-r6-budget-{budget}", G,
                                "pc_short_cycle_pipeline", (6,), FOUND, budget=budget,
                                lengths={6}))
    if not quick:
        G = T.signature(C.circulant_tournament(201))
        qs.append(DetectorQuery("pipeline/circulant-201-r4-budget-1000", G,
                                "pc_short_cycle_pipeline", (4,), FOUND, budget=1000, lengths={4}))
        G = C.blowup_cycle_signature(5, 8)
        qs.append(DetectorQuery("pipeline/c5-blowup-8-r6-budget-10000", G,
                                "pc_short_cycle_pipeline", (6,), FOUND, budget=10000, lengths={5}))
    return qs


BUILDERS: dict[str, Callable] = {
    "kst-exhaust": kst_exhaust,
    "orient-cli": orient_cli,
    "short-cycle": short_cycle,
}
