"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion runs the corresponding seeded verification suite at its full
trial count and asserts zero failures within the stated wall-clock budget.
Seeds are fixed so failures replay exactly.
"""
import pytest

from chroma.suites import run_suite

SEED = 0x5EED


def _report(cid, label, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {cid} {label}: {status} ({elapsed:.1f}s / limit {limit}s){extra}")


def _run(cid, label, name, trials, limit, seed=SEED):
    rep = run_suite(name, trials, seed)
    ok = rep.passed and rep.elapsed_s < limit
    _report(cid, label, ok, rep.elapsed_s, limit, f"trials={rep.trials}")
    assert rep.passed, [f"seed={f.seed} {f.assertion}" for f in rep.failures][:5]
    assert rep.elapsed_s < limit
    return rep


def test_c01_signature_laws():
    # 500 seeded orientations (n <= 12, p = 0.5): color-degree law exact,
    # no pc K_{2,3} in any signature, and for n <= 8 the directed cycles
    # coincide with the properly colored cycles by full enumeration.
    _run("C1", "signature laws", "signature-laws", 500, 30)


def test_c02_duality():
    # 300 seeded colored graphs (n <= 8, <= 5 colors, p in {0.3, 0.6}):
    # pc and rainbow K_{2,2}/K_{2,3} existence agrees with the dual graph.
    _run("C2", "bipartite double preserves K_{s,t}", "duality", 300, 60)


def test_c03_extraction():
    # 300 seeded bipartite instances (sides <= 30): side-2 color degrees
    # capped at s-1 for s in {2, 3}, pseudo-canonical for s=2, growth-length
    # diagnostic on every run, and the side-1 loss bound on instances the
    # detector certifies pc-K_{s,s}-free (n2 <= 20).
    rep = _run("C3", "saturation extraction", "lemma1", 300, 60)
    assert rep.config["certified"][2] > 0
    assert rep.config["certified"][3] > 0


@pytest.fixture(scope="module")
def orientation_report():
    return run_suite("orientation", 500, SEED)


def test_c04_orientation_unconditional(orientation_report):
    rep = orientation_report
    failures = [f for f in rep.failures if "out-degree bound" not in f.assertion]
    elapsed = rep.config["elapsed_unconditional"]
    # The in-colour bound s - 1 is exercised at s = 3 only where arcs are kept.
    arcs_at_s3 = rep.config["arcs_at_s3"]
    ok = not failures and elapsed < 30 and arcs_at_s3 > 0
    _report("C4", "orientation invariants", ok, elapsed, 30, f"trials=500 arcs_at_s3={arcs_at_s3}")
    assert not failures, [f.assertion for f in failures][:5]
    assert arcs_at_s3 > 0
    assert elapsed < 30


def test_c05_orientation_degree_bound(orientation_report):
    rep = orientation_report
    failures = [f for f in rep.failures if "out-degree bound" in f.assertion]
    elapsed = rep.config["elapsed_degree_bound"]
    certified = rep.config["degree_bound_certified"]
    ok = not failures and elapsed < 60 and certified > 0
    _report("C5", "orientation degree bound", ok, elapsed, 60, f"certified={certified}")
    assert not failures, [f.assertion for f in failures][:5]
    assert certified > 0
    assert elapsed < 60


def test_c06_pipeline():
    # circulant signatures n = 9..60 at r = 4 all yield a re-verified pc
    # cycle of length <= 4; the blown-up 6-cycle signatures (k <= 4) yield
    # exhausted-none at r = 4 and a length-6 cycle at r = 6.
    _run("C6", "short-cycle pipeline", "pipeline", 56, 60)


def test_c07_rainbow_extraction():
    # 200 seeded properly colored K_{2,4} and K_{3,15} instances (100 each):
    # the greedy extracts a verified rainbow K_{2,2} / K_{3,3}.
    _run("C7", "rainbow extraction", "proposition12", 200, 10)


def test_c08_threshold_soundness():
    # 100 seeded graphs on n = 100 with measured total color degree above
    # n^2/2 + 2n^1.5 + 2n = 7200: the pc K_{2,2} detector must find one in
    # every single instance.
    _run("C8", "total color degree threshold", "thresholds", 100, 120)


def test_c09_extremal_constructions():
    # blown-up 6-cycle signatures: min color degree k+1 and no pc C4
    # (exhaustive); blown-up 5-cycle signatures: triangle-free, min color
    # degree k+1, no rainbow C4 (exhaustive); k in {1, 2, 3}.
    _run("C9", "extremal constructions", "extremal", 6, 30)


def test_c10_recolored_construction():
    # 20 seeded rejection-sampling runs (n=20, s=3, t=7, small gamma):
    # accepted outputs re-pass both rejection predicates, admit no pc
    # K_{3,7} (exhaustive), and keep minimum color degree >= ceil(n/2).
    rep = _run("C10", "recolored tournament", "recolor", 20, 120)
    assert rep.config["attempts_max"] >= 1
