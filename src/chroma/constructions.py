"""Deterministic and seeded instance generators.

Covers the tournament families, blown-up directed cycles and their
signatures (the extremal families for short properly colored and rainbow
cycles), seeded random ensembles for the property suites, and the
rejection-sampled recoloring that lifts the minimum color degree of a
tournament signature without creating a properly colored K_{s,t}.
"""
from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from functools import lru_cache

from .core import EdgeColoredGraph, OrientedGraph, _require_int, _require_real
from .transforms import _signature_rows, blow_up, signature

# Subset-density screening is exhaustive up to this order; beyond it a
# seeded sample of SAMPLED_SUBSET_CHECKS subsets is tested instead, which
# makes the generator a heuristic there rather than a certificate.
EXHAUSTIVE_SUBSET_MAX_N = 25
SAMPLED_SUBSET_CHECKS = 50_000


def transitive_tournament(n: int) -> OrientedGraph:
    """Tournament with arcs i -> j for all i < j (acyclic)."""
    _require_int("n", n, 1)
    return OrientedGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def circulant_tournament(n: int) -> OrientedGraph:
    """Rotational tournament with min(out-degree, in-degree) = floor((n-1)/2).

    Odd n: arcs i -> i+j (mod n) for j = 1..(n-1)/2. Even n: the same for
    j = 1..n/2-1 plus one arc i -> i+n/2 for each i < n/2.
    """
    _require_int("n", n, 3)
    half = n // 2
    # j runs to half for every i when n is odd; for even n only i < half
    # takes j = half, the one arc of the pair {i, i + half}.
    return OrientedGraph(n, [(i, (i + j) % n) for i in range(n)
                             for j in range(1, half + (n % 2 or i < half))])


def directed_cycle(r: int) -> OrientedGraph:
    """Directed cycle 0 -> 1 -> ... -> r-1 -> 0 (r >= 3: r = 2 would be an
    anti-parallel pair)."""
    _require_int("r", r, 3)
    return OrientedGraph(r, [(i, (i + 1) % r) for i in range(r)])


def blowup_cycle_signature(r: int, k: int) -> EdgeColoredGraph:
    """Signature of the k-blow-up of a directed r-cycle.

    Block b is {b*k, ..., b*k + k - 1}. Odd r blows up directed_cycle(r).
    Even r blows up the r-cycle 0 -> h -> 1 -> h+1 -> ... -> h-1 -> r-1 -> 0
    (h = r/2): position p of the cycle is block p // 2 + (p % 2) * h, so the
    attached bipartition has side 1 = {0, ..., h*k - 1}, a vertex prefix.
    Even r builds the graph once, with its bipartition, from signature's
    ascending rows, so one constructor checks each edge, and its crossing,
    once.
    Every vertex has out-degree and in-degree k in the blow-up, so the
    minimum color degree is k + 1.
    """
    _require_int("r", r, 3)
    if r % 2:
        return signature(blow_up(directed_cycle(r), k))
    h = r // 2
    at = [p // 2 + (p % 2) * h for p in range(r)]
    D = blow_up(OrientedGraph(r, [(at[p - 1], at[p]) for p in range(r)]), k)
    return EdgeColoredGraph(D.n, _signature_rows(D.arcs),
                            bipartition=(range(h * k), range(h * k, r * k)))


def extremal_no_pc_c4(k: int) -> EdgeColoredGraph:
    """Signature of the k-blow-up of a directed 6-cycle, with its natural
    alternate-block bipartition; minimum color degree k+1 and no properly
    colored cycle shorter than 6."""
    _require_int("k", k, 1)
    return blowup_cycle_signature(6, k)


def extremal_no_rainbow_c4_trianglefree(k: int) -> EdgeColoredGraph:
    """Signature of the k-blow-up of a directed 5-cycle: triangle-free,
    minimum color degree k+1, and no rainbow 4-cycle."""
    _require_int("k", k, 1)
    return blowup_cycle_signature(5, k)


# ---------------------------------------------------------------------------
# Seeded random ensembles
# ---------------------------------------------------------------------------

def random_oriented_graph(n: int, p, seed: int) -> OrientedGraph:
    """Each unordered pair becomes an arc with probability p, direction uniform."""
    _require_int("n", n, 0)
    p = _require_real("p", p, 0, 1)
    rng = random.Random(seed)
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph(n, arcs)


def random_edge_colored_graph(n: int, p, colors: int, seed: int) -> EdgeColoredGraph:
    """Each pair becomes an edge with probability p, color uniform in range."""
    _require_int("n", n, 0)
    _require_int("colors", colors, 1)
    p = _require_real("p", p, 0, 1)
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, rng.randrange(colors)))
    return EdgeColoredGraph(n, edges)


def random_bipartite_edge_colored(
    n1: int, n2: int, p, colors: int, seed: int
) -> EdgeColoredGraph:
    """Bipartite ensemble on parts {0..n1-1} and {n1..n1+n2-1}."""
    _require_int("n1", n1, 0)
    _require_int("n2", n2, 0)
    _require_int("colors", colors, 1)
    p = _require_real("p", p, 0, 1)
    rng = random.Random(seed)
    edges = []
    for u in range(n1):
        for v in range(n1, n1 + n2):
            if rng.random() < p:
                edges.append((u, v, rng.randrange(colors)))
    return EdgeColoredGraph(
        n1 + n2, edges, bipartition=(range(n1), range(n1, n1 + n2))
    )


def random_proper_complete_bipartite(s: int, t: int, seed: int) -> EdgeColoredGraph:
    """Properly colored complete bipartite K_{s,t} with randomized color names.

    Base coloring c(i, j) = (i + j) mod max(s, t) is a round-robin proper
    coloring; a seeded shuffle then renames the colors injectively. Side 1
    is {0..s-1}, side 2 is {s..s+t-1}.
    """
    _require_int("s", s, 1)
    _require_int("t", t, 1)
    m = max(s, t)
    perm = list(range(m))
    random.Random(seed).shuffle(perm)
    edges = [
        (i, s + j, perm[(i + j) % m]) for i in range(s) for j in range(t)
    ]
    return EdgeColoredGraph(s + t, edges, bipartition=(range(s), range(s, s + t)))


# ---------------------------------------------------------------------------
# Recolored tournament (rejection sampling)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecolorParams:
    """Parameters of the recoloring construction.

    The (s+t)/(st-s-t) exponent requires st - s - t > 0; the asymptotic
    guarantee additionally assumes st > 2(s+t), which is not enforced.
    """

    n: int
    s: int
    t: int
    gamma: float
    seed: int
    max_tries: int = 100_000

    def __post_init__(self):
        _require_int("n", self.n, 3)
        _require_int("s", self.s, 2)
        _require_int("t", self.t, 2)
        if self.s * self.t - self.s - self.t <= 0:
            raise ValueError("parameters must satisfy s*t - s - t > 0")
        object.__setattr__(self, "gamma", _require_real("gamma", self.gamma, 0, math.inf))
        _require_int("max_tries", self.max_tries, 1)
        if self.p > 1.0:
            raise ValueError(
                f"edge probability p={self.p:.4f} exceeds 1; decrease gamma"
            )

    @property
    def exponent(self) -> float:
        return (self.s + self.t) / (self.s * self.t - self.s - self.t)

    @property
    def p(self) -> float:
        return 8.0 * self.gamma * self.n ** (-self.exponent)

    @property
    def density_cap(self) -> int:
        return self.s * self.t - self.s - self.t

    @property
    def degree_floor(self) -> float:
        return self.gamma * self.n ** (1.0 - self.exponent)


class RecolorError(RuntimeError):
    """Rejection sampling exhausted max_tries; carries rejection statistics."""

    def __init__(self, message: str, stats: dict):
        super().__init__(message)
        self.stats = stats


@lru_cache(maxsize=8)
def _subset_members(n: int, size: int) -> tuple[int, ...]:
    """One int per vertex v: bit i is set when the i-th `size`-subset of
    range(n), in combinations order, contains v.

    Built from the last vertex down. The k-subsets of range(lo, n) are the
    block of those that start with lo, C(n-lo-1, k-1) of them, followed by
    the k-subsets of range(lo+1, n); so each row at lo is two rows at lo+1
    joined by one shift.
    """
    # rows[k][j]: the membership of vertex lo + j in the k-subsets of range(lo, n)
    rows: dict[int, list[int]] = {0: []}
    for lo in range(n - 1, -1, -1):
        nxt = {0: [0] * (n - lo)}
        for k in range(max(1, size - lo), min(size, n - lo) + 1):
            block = math.comb(n - lo - 1, k - 1)
            # range(lo+1, n) has no k-subset when k = n - lo
            rest = rows.get(k, [0] * (n - lo - 1))
            nxt[k] = [(1 << block) - 1, *(a | b << block for a, b in zip(rows[k - 1], rest))]
        rows = nxt
    return tuple(rows[size])


def _subset_density_ok(pairs, n: int, size: int, cap: int, rng: random.Random) -> bool:
    """True when every `size`-vertex subset spans fewer than `cap` pairs.

    Exhaustive for n <= EXHAUSTIVE_SUBSET_MAX_N, otherwise a seeded sample
    of SAMPLED_SUBSET_CHECKS subsets. A degree prefilter (the `size` largest
    degrees cannot reach cap) accepts first.

    The exhaustive check counts all C(n, size) subsets at once with
    Python-int bitsets: _subset_members gives each vertex one int of C(n,
    size) bits, the subsets that hold it, and M[u] & M[v] flags the subsets
    that span the pair uv. Those flags are added into a bit-sliced counter
    of cap.bit_length() planes, one bit per subset in each plane, that
    starts every subset at 2**planes - cap; a subset spans cap or more
    pairs exactly when its count carries out of the top plane. The cached
    membership takes n x C(n, size) bits (16 MB at n = 25, size = 12) and
    the counter cap.bit_length() x C(n, size) more.
    """
    if len(pairs) < cap:
        return True
    if size >= n:
        return len(pairs) < cap
    degrees = [0] * n
    for u, v in pairs:
        degrees[u] += 1
        degrees[v] += 1
    if sum(sorted(degrees)[-size:]) // 2 < cap:
        return True
    if n <= EXHAUSTIVE_SUBSET_MAX_N:
        member = _subset_members(n, size)
        planes = cap.bit_length()
        full = (1 << math.comb(n, size)) - 1
        bias = (1 << planes) - cap
        counter = [full if bias >> j & 1 else 0 for j in range(planes)]
        for u, v in pairs:
            carry = member[u] & member[v]
            for j in range(planes):
                counter[j], carry = counter[j] ^ carry, counter[j] & carry
                if not carry:
                    break
            else:
                return False
        return True
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(SAMPLED_SUBSET_CHECKS):
        subset = rng.sample(range(n), size)
        inside = set(subset)
        count = sum(len(adj[v] & inside) for v in subset) // 2
        if count >= cap:
            return False
    return True


@lru_cache(maxsize=64)
def _binomial_cdf(d: int, p: float) -> tuple[float, ...]:
    cdf = []
    acc = 0.0
    for k in range(d + 1):
        acc += math.comb(d, k) * p**k * (1.0 - p) ** (d - k)
        cdf.append(min(acc, 1.0))
    cdf[-1] = 1.0
    return tuple(cdf)


def _sample_count(rng: random.Random, d: int, p: float) -> int:
    return bisect.bisect_left(_binomial_cdf(d, p), rng.random())


def recolored_tournament(params: RecolorParams) -> tuple[EdgeColoredGraph, int]:
    """Lift the minimum color degree of a tournament signature by recoloring.

    The base graph is the signature of the circulant tournament on n
    vertices. A random pair set is sampled with probability p per pair and
    accepted only if (a) every (s+t)-vertex subset spans fewer than
    st - s - t sampled pairs, and (b) every vertex has at least
    floor(gamma * n^(1 - (s+t)/(st-s-t))) sampled neighbors inside its
    tournament in-neighborhood. Accepted pairs are recolored with fresh
    unique colors (max existing color + 1-based rank of the pair).

    The coverage demand (b) uses the integer floor of the real-valued gain
    target: a sub-unit target asks for no edges and is vacuous, so gamma -> 0
    degenerates to the plain signature accepted on the first attempt. (The
    real-valued strict form would ask every vertex for a sampled in-edge,
    which together with the density cap has vanishing acceptance probability
    at desk-scale n; the asymptotic color-degree gain is not a desk-scale
    claim.)

    Returns (graph, attempts); raises RecolorError with rejection
    statistics when max_tries is exhausted.
    """
    T = circulant_tournament(params.n)
    base = signature(T)
    n = params.n
    p = params.p
    need = math.floor(params.degree_floor)
    cap = params.density_cap
    size = params.s + params.t

    if p == 0.0:
        return base, 1

    # The tournament in-pair sets partition the unordered pairs, so sampling
    # vertex by vertex (count first, then which pairs) is an exact G(n, p)
    # sample and lets an attempt abort on the first under-covered vertex.
    in_pairs = [tuple(T.in_adj[v]) for v in range(n)]
    rng = random.Random(params.seed)
    rejected_coverage = 0
    rejected_density = 0

    for attempt in range(1, params.max_tries + 1):
        sample: list[tuple[int, int]] = []
        ok = True
        for v in range(n):
            d = len(in_pairs[v])
            count = _sample_count(rng, d, p) if d else 0
            if count < need:
                ok = False
                break
            chosen = sorted(rng.sample(range(d), count))
            sample.extend(
                (min(in_pairs[v][i], v), max(in_pairs[v][i], v)) for i in chosen
            )
        if not ok:
            rejected_coverage += 1
            continue
        if not _subset_density_ok(sample, n, size, cap, rng):
            rejected_density += 1
            continue
        colors = dict(((u, v), c) for u, v, c in base.edges)
        max_color = max(colors.values())
        for rank, pair in enumerate(sorted(sample), start=1):
            colors[pair] = max_color + rank
        edges = [(u, v, c) for (u, v), c in colors.items()]
        return EdgeColoredGraph(n, edges), attempt

    raise RecolorError(
        f"no acceptable sample within {params.max_tries} attempts",
        stats={
            "attempts": params.max_tries,
            "rejected_coverage": rejected_coverage,
            "rejected_density": rejected_density,
            "p": p,
            "degree_floor": params.degree_floor,
            "density_cap": cap,
        },
    )


def verify_recolored(params: RecolorParams, G: EdgeColoredGraph) -> bool:
    """Re-check an accepted recoloring against both rejection predicates.

    Recovers the sampled pair set as the edges whose color differs from the
    base signature, then re-evaluates the subset-density cap, the in-
    neighborhood coverage floor, and freshness/uniqueness of the new colors.
    """
    T = circulant_tournament(params.n)
    base = signature(T)
    if G.n != base.n or {(u, v) for u, v, _ in G.edges} != {
        (u, v) for u, v, _ in base.edges
    }:
        return False
    base_colors = {(u, v): c for u, v, c in base.edges}
    max_base = max(base_colors.values())
    sampled = []
    fresh = []
    for u, v, c in G.edges:
        if c != base_colors[(u, v)]:
            sampled.append((u, v))
            fresh.append(c)
    if any(c <= max_base for c in fresh) or len(set(fresh)) != len(fresh):
        return False
    if params.p == 0.0:
        return not sampled
    rng = random.Random(params.seed)
    if not _subset_density_ok(sampled, params.n, params.s + params.t,
                              params.density_cap, rng):
        return False
    need = math.floor(params.degree_floor)
    sampled_set = set(sampled)
    for v in range(params.n):
        count = sum(
            1
            for u in T.in_adj[v]
            if (min(u, v), max(u, v)) in sampled_set
        )
        if count < need:
            return False
    return True
