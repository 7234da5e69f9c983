"""Seeded verification suites and instance analysis.

Each suite executes one family of checks over seeded instances; the
per-trial seed is derived as seed XOR trial index, so trials are
order-independent and any failure replays from its recorded seed. A suite
passes exactly when it records zero failures.
"""
from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field

from .constructions import (
    RecolorParams,
    circulant_tournament,
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
from .core import (
    EdgeColoredGraph,
    color_degree,
    color_set,
    is_rainbow,
    min_color_degree,
    mono_degree_max,
    total_color_degree,
)
from .detectors import (
    EXHAUSTED,
    FOUND,
    _total_degree_requirement,
    all_simple_cycles,
    extract_rainbow_kst,
    find_pc_cycle_upto,
    find_pc_kst,
    find_rainbow_c4,
    find_rainbow_kst,
    pc_short_cycle_pipeline,
    verify_witness,
)
from .extraction import (
    ExtractionParams,
    construct_orientation,
    construct_orientation_bipartite,
    saturation_extract,
    sigma,
)
from .formats import render_ecg, strip_bipartition
from .transforms import signature

_EPS = 1e-9
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SuiteFailure:
    seed: int
    digest: str
    assertion: str


@dataclass
class SuiteReport:
    suite: str
    trials: int
    failures: list[SuiteFailure] = field(default_factory=list)
    elapsed_s: float = 0.0
    config: dict = field(default_factory=dict)

    @property
    def failure_count(self) -> int:
        return len(self.failures)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "trials": self.trials,
            "failures": self.failure_count,
            "failure_examples": [
                {"seed": f.seed, "digest": f.digest, "assertion": f.assertion}
                for f in self.failures
            ],
            "elapsed_s": self.elapsed_s,
            "config": self.config,
        }


def instance_digest(G) -> str:
    """64-bit hash of the canonical rendering, for compact failure logs."""
    if isinstance(G, EdgeColoredGraph):
        try:
            text = render_ecg(G)
        except ValueError:
            sides = sorted(tuple(sorted(s)) for s in G.bipartition)
            text = render_ecg(strip_bipartition(G)) + repr(sides)
    else:
        text = repr((type(G).__name__, getattr(G, "n", None), getattr(G, "arcs", None)))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


class _Recorder:
    def __init__(self):
        self.failures: list[SuiteFailure] = []

    def check(self, ok: bool, seed: int, instance, assertion: str) -> bool:
        if not ok:
            self.failures.append(SuiteFailure(seed, instance_digest(instance), assertion))
        return ok


def _trial_seed(seed: int, index: int) -> int:
    return seed ^ index


# ---------------------------------------------------------------------------
# Suite bodies
# ---------------------------------------------------------------------------

def _suite_signature_laws(trials, seed, budget, rec, config):
    for i in range(trials):
        tseed = _trial_seed(seed, i)
        rng = random.Random(tseed)
        n = rng.randint(1, 12)
        D = random_oriented_graph(n, 0.5, rng.getrandbits(32))
        sig = signature(D)
        law1 = all(
            color_degree(sig, v)
            == D.out_degree(v) + (1 if D.in_degree(v) > 0 else 0)
            for v in range(n)
        )
        rec.check(law1, tseed, sig, "color degree equals out-degree plus in-flag")
        out = find_pc_kst(sig, 2, 3, budget)
        rec.check(
            out.status == EXHAUSTED, tseed, sig, "signature admits no pc K_{2,3}"
        )
        if n <= 8:
            arcset = set(D.arcs)
            directed = set()
            pc = set()
            for cyc in all_simple_cycles(n, [(u, v) for u, v, _ in sig.edges]):
                k = len(cyc)
                fwd = all((cyc[j], cyc[(j + 1) % k]) in arcset for j in range(k))
                bwd = all((cyc[(j + 1) % k], cyc[j]) in arcset for j in range(k))
                if fwd or bwd:
                    directed.add(cyc)
                cols = [sig.color_of(cyc[j], cyc[(j + 1) % k]) for j in range(k)]
                if all(cols[j] != cols[(j + 1) % k] for j in range(k)):
                    pc.add(cyc)
            rec.check(
                directed == pc, tseed, sig, "directed cycles equal pc cycles"
            )


def _suite_duality(trials, seed, budget, rec, config):
    from .transforms import dual_graph

    for i in range(trials):
        tseed = _trial_seed(seed, i)
        rng = random.Random(tseed)
        n = rng.randint(1, 8)
        colors = rng.randint(1, 5)
        p = rng.choice([0.3, 0.6])
        G = random_edge_colored_graph(n, p, colors, rng.getrandbits(32))
        dual = dual_graph(G)
        for s, t in ((2, 2), (2, 3)):
            for name, finder in (("pc", find_pc_kst), ("rainbow", find_rainbow_kst)):
                a = finder(G, s, t, budget)
                b = finder(dual, s, t, budget)
                ok = (
                    a.status in (FOUND, EXHAUSTED)
                    and b.status in (FOUND, EXHAUSTED)
                    and a.status == b.status
                )
                rec.check(
                    ok, tseed, G,
                    f"{name} K_{{{s},{t}}} existence agrees with the dual graph",
                )


def _suite_lemma1(trials, seed, budget, rec, config):
    certified = {2: 0, 3: 0}
    for i in range(trials):
        tseed = _trial_seed(seed, i)
        rng = random.Random(tseed)
        n1 = rng.randint(1, 30)
        n2 = rng.randint(1, 30)
        colors = rng.randint(1, 8)
        p = rng.choice([0.2, 0.5, 0.8])
        G = random_bipartite_edge_colored(n1, n2, p, colors, rng.getrandbits(32))
        side2 = sorted(G.bipartition[1])
        for s in (2, 3):
            res = saturation_extract(G, ExtractionParams(s, s))
            H, state = res.H, res.state
            cap_ok = all(color_degree(H, v) <= s - 1 for v in side2)
            rec.check(cap_ok, tseed, G, f"s={s}: side-2 color degree capped at s-1")
            # saturated side-2 vertices are exactly those with s-1 kept colors
            sat_ok = all(
                color_degree(H, v) == s - 1
                for v in side2
                if len(state.kept_colors[v]) == s - 1
            )
            rec.check(sat_ok, tseed, G, f"s={s}: saturated vertices keep exactly s-1 colors")
            if s == 2:
                pseudo = all(len(color_set(H, v)) <= 1 for v in side2)
                rec.check(pseudo, tseed, G, "s=2: H is pseudo side-2 canonical")
            if state.x > 0:
                rec.check(
                    state.l <= (s - 1) * n2 / state.x + _EPS,
                    tseed, G, f"s={s}: growth length within (s-1)n2/x",
                )
            if n2 <= 20:
                det = find_pc_kst(G, s, s, budget)
                if det.status == EXHAUSTED:
                    certified[s] += 1
                    bound = sigma(s, s) * n2 ** (1.0 - 1.0 / s)
                    ok = all(d <= bound + _EPS for d in res.deltas.values())
                    rec.check(
                        ok, tseed, G,
                        f"s={s}: certified instance keeps side-1 color degree within bound",
                    )
    config["certified"] = certified


def _check_orientation_invariants(rec, tseed, G, D, H, s):
    in_colors = [set() for _ in range(G.n)]
    out_colors = [set() for _ in range(G.n)]
    pairs = set()
    host_ok = True
    for t_, h, c in D.arcs:
        pairs.add((t_, h))
        in_colors[h].add(c)
        out_colors[t_].add(c)
        if not G.has_edge(t_, h) or G.color_of(t_, h) != c:
            host_ok = False
    rec.check(
        not any((h, t_) in pairs for t_, h in pairs), tseed, G,
        "orientation has no anti-parallel arcs",
    )
    rec.check(host_ok, tseed, G, "every arc matches a host edge and color")
    rec.check(
        all(not (in_colors[v] & out_colors[v]) for v in range(G.n)),
        tseed, G, "per-vertex in-arc and out-arc color sets are disjoint",
    )
    rec.check(
        all(len(in_colors[v]) <= s - 1 for v in range(G.n)),
        tseed, G, "per-vertex in-arc color set has size at most s-1",
    )
    rec.check(
        {(u, v) for u, v, _ in H.edges}
        == {(min(t_, h), max(t_, h)) for t_, h, _ in D.arcs},
        tseed, G, "H equals the arc support",
    )


def _suite_orientation(trials, seed, budget, rec, config):
    st_cycle = ((2, 2), (2, 3), (3, 3))
    t0 = time.monotonic()
    for i in range(trials):
        tseed = _trial_seed(seed, i)
        rng = random.Random(tseed)
        n = rng.randint(1, 40)
        s, t = st_cycle[i % 3]
        colors = rng.choice([1, 2, 4, 8, 16])
        p = rng.choice([0.1, 0.3, 0.6])
        bipartite = rng.random() < 0.25
        if bipartite and n >= 2:
            n1 = rng.randint(1, n - 1)
            G = random_bipartite_edge_colored(n1, n - n1, p, colors, rng.getrandbits(32))
            H, D, _rep = construct_orientation_bipartite(G, s, t)
        else:
            G = random_edge_colored_graph(n, p, colors, rng.getrandbits(32))
            H, D, _rep = construct_orientation(G, s, t)
        _check_orientation_invariants(rec, tseed, G, D, H, s)
    config["elapsed_unconditional"] = time.monotonic() - t0

    t0 = time.monotonic()
    certified = 0
    for i in range(trials):
        tseed = _trial_seed(seed, trials + i)
        rng = random.Random(tseed)
        n = rng.randint(3, 20)
        style = rng.choice(["few-colors", "sparse", "signature", "mono", "transitive"])
        if style == "transitive":
            # acyclic signature: certified pc-K_{2,2}-free with source color
            # degree n-1, so the bound is non-vacuous
            G = signature(transitive_tournament(n))
        elif style == "signature":
            G = signature(random_oriented_graph(n, rng.choice([0.3, 0.5]), rng.getrandbits(32)))
        elif style == "mono":
            G = random_edge_colored_graph(n, rng.choice([0.4, 0.8]), 1, rng.getrandbits(32))
        elif style == "few-colors":
            G = random_edge_colored_graph(n, rng.choice([0.3, 0.6]), rng.randint(2, 3), rng.getrandbits(32))
        else:
            G = random_edge_colored_graph(n, 0.15, rng.randint(2, 8), rng.getrandbits(32))
        det = find_pc_kst(G, 2, 2, budget)
        if det.status != EXHAUSTED:
            continue
        certified += 1
        _, D, _rep = construct_orientation(G, 2, 2)
        bound_ok = all(
            D.out_degree(v) > color_degree(G, v) - 2 * math.sqrt(n) - 2 - _EPS
            for v in range(n)
        )
        rec.check(
            bound_ok, tseed, G,
            "certified pc-K_{2,2}-free instance meets the out-degree bound",
        )
    config["degree_bound_certified"] = certified
    config["elapsed_degree_bound"] = time.monotonic() - t0


def _suite_pipeline(trials, seed, budget, rec, config):
    family = [("circulant", n) for n in range(9, 61)] + [
        ("extremal", k) for k in (1, 2, 3, 4)
    ]
    for kind, arg in family[:trials]:
        tseed = _trial_seed(seed, arg)
        if kind == "circulant":
            G = signature(circulant_tournament(arg))
            out = pc_short_cycle_pipeline(G, 4, budget)
            ok = (
                out.status == FOUND
                and len(out.witness.vertices[0]) <= 4
                and verify_witness(G, out.witness)
            )
            rec.check(ok, tseed, G, f"circulant signature n={arg} yields a pc cycle of length <= 4")
        else:
            G = extremal_no_pc_c4(arg)
            out4 = pc_short_cycle_pipeline(G, 4, budget)
            rec.check(
                out4.status == EXHAUSTED, tseed, G,
                f"extremal k={arg} has no pc cycle of length <= 4",
            )
            out6 = pc_short_cycle_pipeline(G, 6, budget)
            ok = (
                out6.status == FOUND
                and len(out6.witness.vertices[0]) == 6
                and verify_witness(G, out6.witness)
            )
            rec.check(ok, tseed, G, f"extremal k={arg} yields a pc cycle of length 6")


def _suite_proposition12(trials, seed, budget, rec, config):
    shapes = ((2, 4, 2), (3, 15, 3))
    for i in range(trials):
        tseed = _trial_seed(seed, i)
        s, T, t = shapes[i % 2]
        G = random_proper_complete_bipartite(s, T, tseed)
        S = tuple(range(s))
        B = tuple(range(s, s + T))
        w = extract_rainbow_kst(G, S, B, t)
        ok = (
            w.kind == "rainbow-kst"
            and len(w.vertices[1]) == t
            and verify_witness(G, w)
            and is_rainbow(G, w.edges)
        )
        rec.check(ok, tseed, G, f"proper K_{{{s},{T}}} yields a rainbow K_{{{s},{t}}}")


def _suite_thresholds(trials, seed, budget, rec, config):
    n = 100
    threshold = _total_degree_requirement(2, 2, n)
    totals = []
    for i in range(trials):
        tseed = _trial_seed(seed, i)
        G = None
        for bump in range(10):
            cand = random_edge_colored_graph(n, 0.85, 5000, tseed + 7919 * bump)
            if total_color_degree(cand) > threshold:
                G = cand
                break
        if rec.check(G is not None, tseed, EdgeColoredGraph(0), "generated a high total color degree instance"):
            totals.append(total_color_degree(G))
            out = find_pc_kst(G, 2, 2, budget)
            rec.check(
                out.status == FOUND, tseed, G,
                "total color degree above threshold forces a pc K_{2,2}",
            )
    if totals:
        config["min_total"] = min(totals)
        config["threshold"] = threshold


def _suite_extremal(trials, seed, budget, rec, config):
    family = [("pc", k) for k in (1, 2, 3)] + [("rainbow", k) for k in (1, 2, 3)]
    for kind, k in family[:trials]:
        tseed = _trial_seed(seed, k)
        if kind == "pc":
            G = extremal_no_pc_c4(k)
            rec.check(
                min_color_degree(G) == k + 1, tseed, G,
                f"no-pc-C4 family k={k} has minimum color degree k+1",
            )
            rec.check(
                find_pc_kst(G, 2, 2, budget).status == EXHAUSTED, tseed, G,
                f"no-pc-C4 family k={k} admits no pc K_{{2,2}}",
            )
            rec.check(
                find_pc_cycle_upto(G, 4, budget).status == EXHAUSTED, tseed, G,
                f"no-pc-C4 family k={k} admits no pc cycle of length <= 4",
            )
        else:
            G = extremal_no_rainbow_c4_trianglefree(k)
            triangle_free = True
            for u, v, _c in G.edges:
                if G.neighbor_sets[u] & G.neighbor_sets[v]:
                    triangle_free = False
                    break
            rec.check(triangle_free, tseed, G, f"no-rainbow-C4 family k={k} is triangle-free")
            rec.check(
                min_color_degree(G) == k + 1, tseed, G,
                f"no-rainbow-C4 family k={k} has minimum color degree k+1",
            )
            rec.check(
                find_rainbow_c4(G, budget).status == EXHAUSTED, tseed, G,
                f"no-rainbow-C4 family k={k} admits no rainbow C4",
            )


RECOLOR_DEFAULTS = {"n": 20, "s": 3, "t": 7, "gamma": 0.1, "max_tries": 50_000}


def _suite_recolor(trials, seed, budget, rec, config):
    cfg = dict(RECOLOR_DEFAULTS)
    cfg.update(config.get("recolor", {}))
    attempts_log = []
    for i in range(trials):
        tseed = _trial_seed(seed, i)
        params = RecolorParams(
            n=cfg["n"], s=cfg["s"], t=cfg["t"], gamma=cfg["gamma"],
            seed=tseed, max_tries=cfg["max_tries"],
        )
        G, attempts = recolored_tournament(params)
        attempts_log.append(attempts)
        rec.check(
            verify_recolored(params, G), tseed, G,
            "accepted output passes both rejection predicates on re-check",
        )
        rec.check(
            find_pc_kst(G, params.s, params.t, budget).status == EXHAUSTED,
            tseed, G, "recolored tournament admits no pc K_{s,t}",
        )
        rec.check(
            min_color_degree(G) >= math.ceil(params.n / 2), tseed, G,
            "recolored tournament keeps minimum color degree at least n/2",
        )
    config.update(cfg)
    if attempts_log:
        config["attempts_max"] = max(attempts_log)
        config["attempts_mean"] = sum(attempts_log) / len(attempts_log)


_SUITES = {
    "signature-laws": _suite_signature_laws,
    "duality": _suite_duality,
    "lemma1": _suite_lemma1,
    "orientation": _suite_orientation,
    "pipeline": _suite_pipeline,
    "proposition12": _suite_proposition12,
    "thresholds": _suite_thresholds,
    "extremal": _suite_extremal,
    "recolor": _suite_recolor,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, trials: int, seed: int, budget=None, config=None) -> SuiteReport:
    """Run a named verification suite deterministically under a seed.

    trials bounds the number of instances (the whole fixed family for the
    pipeline and extremal suites when large enough); trials = 0 yields an
    empty passing report.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
    if not isinstance(trials, int) or trials < 0:
        raise ValueError(f"trials must be a nonnegative integer, got {trials!r}")
    rec = _Recorder()
    cfg = dict(config or {})
    cfg.setdefault("seed", seed)
    cfg.setdefault("trials", trials)
    start = time.monotonic()
    if trials > 0:
        _SUITES[name](trials, seed, budget, rec, cfg)
    elapsed = time.monotonic() - start
    return SuiteReport(name, trials, rec.failures, elapsed, cfg)


# ---------------------------------------------------------------------------
# Instance analysis
# ---------------------------------------------------------------------------

def _as_number(x):
    if isinstance(x, float) and x.is_integer():
        return int(x)
    return x


def analyze(G: EdgeColoredGraph, r: int = 4) -> dict:
    """Metric and threshold report for one edge-colored graph.

    Thresholds cover the short properly colored cycle condition (with the
    conjectured ceil(n/r) base), the properly colored and rainbow C4
    minimum-color-degree conditions, and the total color degree condition
    for a properly colored K_{2,2} (bipartite form when applicable). Each
    entry reports the requirement, the measured value, and the margin
    value - requirement.
    """
    n = G.n
    report: dict = {"schema": SCHEMA_VERSION, "n": n, "m": G.m}
    if n == 0:
        return report
    dc = min_color_degree(G)
    total = total_color_degree(G)
    report["min_color_degree"] = dc
    report["max_mono_degree"] = mono_degree_max(G)
    report["total_color_degree"] = total
    report["bipartite"] = G.bipartition is not None

    def entry(requirement, value, implies):
        return {
            "requirement": _as_number(requirement),
            "value": _as_number(value),
            "margin": _as_number(value - requirement),
            "implies": implies,
        }

    thresholds = {
        "short_pc_cycle_conjectural": entry(
            math.ceil(n / r) + 2 * math.sqrt(n) + 1, dc, f"pc cycle of length <= {r}"
        ),
        "pc_c4_min_color_degree": entry(
            n / 3 + 2 * math.sqrt(n) + 1, dc, "pc C4"
        ),
        "rainbow_c4_min_color_degree": entry(
            n / 3 + 24 * math.sqrt(n), dc, "rainbow C4"
        ),
    }
    if G.bipartition is not None:
        parts = tuple(len(side) for side in G.bipartition)
        thresholds["pc_k22_total_color_degree_bipartite"] = entry(
            _total_degree_requirement(2, 2, n, parts), total, "pc K_{2,2}"
        )
    thresholds["pc_k22_total_color_degree"] = entry(
        _total_degree_requirement(2, 2, n), total, "pc K_{2,2}"
    )
    report["thresholds"] = thresholds
    return report
