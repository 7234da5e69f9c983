import json
import subprocess
import sys

import pytest

from chroma.constructions import (
    extremal_no_pc_c4,
    random_bipartite_edge_colored,
    random_edge_colored_graph,
    transitive_tournament,
)
from chroma.core import EdgeColoredGraph
from chroma.detectors import find_pc_kst
from chroma.formats import save, strip_bipartition
from chroma.suites import SUITE_NAMES, analyze, instance_digest, run_suite
from chroma.transforms import signature


def rainbow_k4():
    edges = []
    c = 0
    for u in range(4):
        for v in range(u + 1, 4):
            edges.append((u, v, c))
            c += 1
    return EdgeColoredGraph(4, edges)


class TestRunSuite:
    def test_zero_trials_pass(self):
        for name in SUITE_NAMES:
            rep = run_suite(name, 0, 1)
            assert rep.passed and rep.trials == 0

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope", 1, 1)

    def test_repeatable(self):
        a = run_suite("signature-laws", 15, 77)
        b = run_suite("signature-laws", 15, 77)
        da, db = a.to_dict(), b.to_dict()
        da.pop("elapsed_s"), db.pop("elapsed_s")
        da["config"].pop("elapsed_unconditional", None)
        assert da == db

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_small_runs_pass(self, name):
        trials = {"pipeline": 8, "extremal": 6, "recolor": 2, "thresholds": 4}.get(name, 12)
        rep = run_suite(name, trials, 2024)
        assert rep.passed, [f.assertion for f in rep.failures][:3]
        assert rep.to_dict()["schema"] == 1

    def test_digest_stable(self):
        G = rainbow_k4()
        assert instance_digest(G) == instance_digest(rainbow_k4())
        assert instance_digest(G) != instance_digest(extremal_no_pc_c4(1))
        # non-prefix bipartitions hash without error
        assert instance_digest(extremal_no_pc_c4(2))

    def test_budget_starved_suite_records_failures_and_replays(self):
        from chroma.detectors import SearchBudget

        tiny = SearchBudget(time_limit_s=1e-9)
        a = run_suite("duality", 5, 31, budget=tiny)
        b = run_suite("duality", 5, 31, budget=tiny)
        assert not a.passed  # budget-exceeded is never trusted as exhausted
        assert [(f.seed, f.assertion) for f in a.failures] == [
            (f.seed, f.assertion) for f in b.failures
        ]


class TestAnalyze:
    def test_rainbow_k4(self):
        rep = analyze(rainbow_k4())
        assert rep["min_color_degree"] == 3
        assert rep["max_mono_degree"] == 1
        assert rep["total_color_degree"] == 12

    def test_extremal_margins_negative(self):
        rep = analyze(extremal_no_pc_c4(3))
        assert rep["n"] == 18
        assert rep["min_color_degree"] == 4
        assert rep["thresholds"]["pc_c4_min_color_degree"]["margin"] < 0

    def test_transitive_signature_total(self):
        rep = analyze(signature(transitive_tournament(4)))
        assert rep["total_color_degree"] == 9

    def test_empty_graph(self):
        rep = analyze(EdgeColoredGraph(0))
        assert rep["n"] == 0 and "thresholds" not in rep

    def test_bipartite_threshold_included(self):
        G = EdgeColoredGraph(4, [(0, 2, 1), (1, 3, 2)], bipartition=([0, 1], [2, 3]))
        rep = analyze(G)
        assert "pc_k22_total_color_degree_bipartite" in rep["thresholds"]


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "chroma", *args],
        capture_output=True,
        text=True,
        env=env,
    )


    def test_pinned_reports(self):
        B = random_bipartite_edge_colored(7, 9, 0.6, 5, 3)
        assert analyze(B, r=5) == {
            "schema": 1, "n": 16, "m": 39, "min_color_degree": 3, "max_mono_degree": 5,
            "total_color_degree": 56, "bipartite": True,
            "thresholds": {
                "short_pc_cycle_conjectural": {
                    "requirement": 13, "value": 3, "margin": -10,
                    "implies": "pc cycle of length <= 5",
                },
                "pc_c4_min_color_degree": {
                    "requirement": 14.333333333333332, "value": 3,
                    "margin": -11.333333333333332, "implies": "pc C4",
                },
                "rainbow_c4_min_color_degree": {
                    "requirement": 101.33333333333333, "value": 3,
                    "margin": -98.33333333333333, "implies": "rainbow C4",
                },
                "pc_k22_total_color_degree_bipartite": {
                    "requirement": 184.62352359916264, "value": 56,
                    "margin": -128.62352359916264, "implies": "pc K_{2,2}",
                },
                "pc_k22_total_color_degree": {
                    "requirement": 288, "value": 56, "margin": -232, "implies": "pc K_{2,2}",
                },
            },
        }
        G = random_edge_colored_graph(12, 0.5, 4, 8)
        assert analyze(G) == {
            "schema": 1, "n": 12, "m": 38, "min_color_degree": 2, "max_mono_degree": 4,
            "total_color_degree": 40, "bipartite": False,
            "thresholds": {
                "short_pc_cycle_conjectural": {
                    "requirement": 10.928203230275509, "value": 2,
                    "margin": -8.928203230275509, "implies": "pc cycle of length <= 4",
                },
                "pc_c4_min_color_degree": {
                    "requirement": 11.928203230275509, "value": 2,
                    "margin": -9.928203230275509, "implies": "pc C4",
                },
                "rainbow_c4_min_color_degree": {
                    "requirement": 87.13843876330611, "value": 2,
                    "margin": -85.13843876330611, "implies": "rainbow C4",
                },
                "pc_k22_total_color_degree": {
                    "requirement": 179.1384387633061, "value": 40,
                    "margin": -139.1384387633061, "implies": "pc K_{2,2}",
                },
            },
        }


class TestCli:
    def test_gen_and_analyze(self, tmp_path):
        org = tmp_path / "t.org"
        res = run_cli("gen", "circulant", "--n", "9", "-o", str(org))
        assert res.returncode == 0
        ecg = tmp_path / "t.ecg"
        res = run_cli("gen", "signature", "-i", str(org), "-o", str(ecg))
        assert res.returncode == 0
        res = run_cli("analyze", "-i", str(ecg), "--json")
        assert res.returncode == 0
        rep = json.loads(res.stdout)
        assert rep["n"] == 9 and rep["min_color_degree"] == 5

    def test_orient_with_report(self, tmp_path):
        ecg = tmp_path / "g.ecg"
        save(signature(transitive_tournament(8)), ecg)
        corg = tmp_path / "d.corg"
        repj = tmp_path / "r.json"
        res = run_cli(
            "orient", "-i", str(ecg), "--s", "2", "--t", "2",
            "-o", str(corg), "--report", str(repj),
        )
        assert res.returncode == 0
        rep = json.loads(repj.read_text())
        assert {"l", "x", "sigma", "per_vertex"} <= set(rep)
        assert corg.read_text().startswith("corg 8 ")

        res = run_cli(
            "orient", "-i", str(ecg), "--s", "2", "--t", "2",
            "--x", "1.5", "--report", str(repj),
        )
        assert res.returncode == 0
        assert json.loads(repj.read_text())["x"] == 1.5

    def test_find_exit_codes(self, tmp_path):
        found = tmp_path / "found.ecg"
        save(signature(transitive_tournament(6)), found)
        res = run_cli("find", "pc-kst", "--s", "2", "--t", "2", "-i", str(found))
        assert res.returncode == 1  # acyclic signature: no pc K_{2,2}
        out = json.loads(res.stdout)
        assert out["status"] == "exhausted-none"

        none = tmp_path / "ext.ecg"
        save(strip_bipartition(extremal_no_pc_c4(2)), none)
        res = run_cli("find", "pipeline", "--max-len", "6", "-i", str(none))
        assert res.returncode == 0
        assert json.loads(res.stdout)["witness"]["kind"] == "pc-cycle"

        res = run_cli(
            "find", "pc-cycle", "--max-len", "6", "-i", str(none),
            "--budget-nodes", "2",
        )
        assert res.returncode == 2

        bad = tmp_path / "bad.ecg"
        bad.write_text("ecg 2 1\n0 0 1\n")
        res = run_cli("find", "pc-kst", "-i", str(bad))
        assert res.returncode == 3
        assert "line 2" in res.stderr

    def test_find_pipeline_budget_out_in_stage2(self, tmp_path):
        # A node budget that runs out after stage 1 exits 2, not a traceback.
        G = strip_bipartition(extremal_no_pc_c4(3))
        ecg = tmp_path / "ext.ecg"
        save(G, ecg)
        budget = find_pc_kst(G, 2, 2).nodes
        res = run_cli(
            "find", "pipeline", "--max-len", "6", "-i", str(ecg),
            "--budget-nodes", str(budget),
        )
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert json.loads(res.stdout)["status"] == "budget-exceeded"

    def test_verify_suite(self, tmp_path):
        out = tmp_path / "rep.json"
        res = run_cli(
            "verify", "extremal", "--trials", "6", "--seed", "5", "--json", str(out)
        )
        assert res.returncode == 0
        rep = json.loads(out.read_text())
        assert rep["failures"] == 0 and rep["suite"] == "extremal"
        assert "PASS" in res.stdout

    def test_verify_starved_budget_exits_nonzero(self):
        res = run_cli(
            "verify", "duality", "--trials", "3", "--seed", "2",
            "--budget-ms", "0.000001",
        )
        assert res.returncode == 1
        assert "FAIL" in res.stdout

    def test_env_seed_default(self, tmp_path):
        import os

        env = dict(os.environ, CHROMA_SEED="123")
        a = run_cli("gen", "random", "--n", "8", "--p", "0.5", "--colors", "3", env=env)
        b = run_cli("gen", "random", "--n", "8", "--p", "0.5", "--colors", "3", env=env)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_gen_nonprefix_bipartition_note(self, tmp_path):
        res = run_cli("gen", "blowup-sig", "--r", "6", "--k", "2")
        assert res.returncode == 0
        assert "bipartition" in res.stderr
        assert res.stdout.startswith("ecg 12 24\n")
        out = tmp_path / "b.ecg"
        res_file = run_cli("gen", "blowup-sig", "--r", "6", "--k", "2", "-o", str(out))
        assert res_file.returncode == 0 and res_file.stdout == ""
        assert res_file.stderr == res.stderr
        assert out.read_text() == res.stdout

    def test_gen_recolored(self, tmp_path):
        res = run_cli(
            "gen", "recolored", "--n", "20", "--s", "3", "--t", "7",
            "--gamma", "0.1", "--seed", "4",
        )
        assert res.returncode == 0
        assert "accepted after" in res.stderr

    def test_gen_transform_chain(self, tmp_path):
        cyc = tmp_path / "c6.org"
        assert run_cli("gen", "cycle", "--r", "6", "-o", str(cyc)).returncode == 0
        blown = tmp_path / "b.org"
        assert (
            run_cli("gen", "blowup", "-i", str(cyc), "--k", "2", "-o", str(blown)).returncode
            == 0
        )
        assert blown.read_text().startswith("org 12 24\n")
        sig = tmp_path / "s.ecg"
        assert run_cli("gen", "signature", "-i", str(blown), "-o", str(sig)).returncode == 0
        dual = tmp_path / "d.ecg"
        assert run_cli("gen", "dual", "-i", str(sig), "-o", str(dual)).returncode == 0
        assert "bipartite 12" in dual.read_text().splitlines()[0]

        res = run_cli("find", "directed-cycle", "-i", str(blown))
        assert res.returncode == 0
        assert len(json.loads(res.stdout)["witness"]["vertices"][0]) == 6

    def test_find_disjoint_and_rainbow(self, tmp_path):
        kst = tmp_path / "kst.ecg"
        assert (
            run_cli("gen", "proper-kst", "--s", "2", "--t", "4", "--seed", "3",
                    "-o", str(kst)).returncode
            == 0
        )
        res = run_cli("find", "rainbow-kst", "--s", "2", "--t", "2", "-i", str(kst))
        assert res.returncode == 0

        tri = tmp_path / "tri.ecg"
        run_cli("gen", "cycle", "--r", "3", "-o", str(tmp_path / "c3.org"))
        run_cli("gen", "signature", "-i", str(tmp_path / "c3.org"), "-o", str(tri))
        res = run_cli("find", "disjoint", "--k", "1", "-i", str(tri))
        assert res.returncode == 0
        res = run_cli("find", "disjoint", "--k", "2", "-i", str(tri))
        assert res.returncode == 1  # only one cycle available

    def test_orient_bipartite_default(self, tmp_path):
        ecg = tmp_path / "b.ecg"
        from chroma.constructions import random_bipartite_edge_colored

        save(random_bipartite_edge_colored(5, 6, 0.6, 3, 9), ecg)
        repj = tmp_path / "rep.json"
        res = run_cli(
            "orient", "-i", str(ecg), "--s", "2", "--t", "2", "--report", str(repj)
        )
        assert res.returncode == 0
        rep = json.loads(repj.read_text())
        assert isinstance(rep["l"], list) and len(rep["l"]) == 2
        res = run_cli(
            "orient", "-i", str(ecg), "--s", "2", "--t", "2",
            "--report", str(repj), "--general",
        )
        assert res.returncode == 0
        assert isinstance(json.loads(repj.read_text())["l"], int)
