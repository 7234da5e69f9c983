import gc
import hashlib
import json
import subprocess
import sys

import pytest

from chroma.constructions import (
    blowup_cycle_signature,
    circulant_tournament,
    extremal_no_pc_c4,
    random_bipartite_edge_colored,
    random_edge_colored_graph,
    transitive_tournament,
)
from chroma import cli, extraction, suites
from chroma.check import verify_orientation, verify_witness
from chroma.cli import EXIT_INPUT_ERROR
from chroma.core import EdgeColoredGraph, Witness
from chroma.detectors import (
    EXHAUSTED, FOUND, SearchOutcome, find_pc_kst, find_rainbow_c4, pc_short_cycle_pipeline,
)
from chroma.extraction import default_x
from chroma.formats import load, save
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


def with_triangles(monkeypatch):
    """Swap the blown-up C3's signature in for the triangle-free extremal
    family: it has the family's minimum color degree and no rainbow C4, but
    it has triangles, so only the triangle check of that suite fails."""
    monkeypatch.setattr(
        suites, "extremal_no_rainbow_c4_trianglefree", lambda k: blowup_cycle_signature(3, k)
    )


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

    def test_invariance_catches_a_label_dependent_search(self, monkeypatch):
        # A search whose status follows the parity of n and whose node count
        # is the largest color: a pendant vertex flips its status, and
        # renaming the colors moves its node count.
        def search(G):
            status = FOUND if G.n % 2 else EXHAUSTED
            return SearchOutcome(status, None, max((c for *_, c in G.edges), default=0), 0.0)

        monkeypatch.setattr(suites, "_LABEL_FREE_SEARCHES", {"parity": search})
        rep = run_suite("invariance", 12, 3)
        failed = {f.assertion for f in rep.failures}
        assert "parity: a pendant vertex keeps the status" in failed
        assert "parity: renaming colors keeps status, nodes and witness vertices" in failed
        assert "parity: relabelling keeps the status and a witness on G" not in failed

    def test_extremal_catches_a_triangle(self, monkeypatch):
        with_triangles(monkeypatch)
        rep = run_suite("extremal", 6, 1)
        assert [f.assertion for f in rep.failures] == [
            f"no-rainbow-C4 family k={k} is triangle-free" for k in (1, 2, 3)
        ]

    def test_digest_stable(self):
        G = rainbow_k4()
        assert instance_digest(G) == instance_digest(rainbow_k4())
        assert instance_digest(G) != instance_digest(extremal_no_pc_c4(1))
        # the bipartition is part of the digest
        G = extremal_no_pc_c4(2)
        assert instance_digest(G) != instance_digest(EdgeColoredGraph(G.n, G.edges))


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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "chroma", *args],
        capture_output=True,
        text=True,
    )


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

    def test_gen_blowup_sig_keeps_its_sides(self, tmp_path):
        ecg = tmp_path / "b.ecg"
        res = run_cli("gen", "blowup-sig", "--r", "6", "--k", "2", "-o", str(ecg))
        assert res.returncode == 0 and res.stdout == res.stderr == ""
        assert ecg.read_text().startswith("ecg 12 24 bipartite 6\n")
        assert load(ecg) == blowup_cycle_signature(6, 2)

    def test_gen_blowup_sig_stdout_matches_file(self, tmp_path):
        res = run_cli("gen", "blowup-sig", "--r", "6", "--k", "2")
        assert res.returncode == 0 and res.stderr == ""
        assert res.stdout.startswith("ecg 12 24 bipartite 6\n")
        out = tmp_path / "b.ecg"
        res_file = run_cli("gen", "blowup-sig", "--r", "6", "--k", "2", "-o", str(out))
        assert res_file.returncode == 0 and res_file.stdout == res_file.stderr == ""
        assert out.read_text() == res.stdout

    @pytest.mark.parametrize("what", ["signature", "dual", "blowup"])
    def test_gen_transform_without_input(self, what):
        res = run_cli("gen", what, "--k", "2")
        assert res.returncode == EXIT_INPUT_ERROR
        assert res.stderr == f"error: gen {what} needs -i/--input\n"

    # Each generator with just the options it needs.
    GEN_OPTIONS = {
        "blowup": "--k 2",
        "transitive": "--n 5",
        "circulant": "--n 5",
        "cycle": "--r 5",
        "blowup-sig": "--r 5 --k 2",
        "random": "--n 5 --p 0.5",
        "proper-kst": "--s 2 --t 3",
        "recolored": "--n 20 --s 3 --t 7 --gamma 0.1",
    }

    @pytest.mark.parametrize("what", list(GEN_OPTIONS))
    def test_gen_names_each_missing_option(self, what, tmp_path, capsys):
        # Without one of its options, a generator names that option, not the
        # library's parameter it feeds.
        org = tmp_path / "c.org"
        assert cli.main(["gen", "cycle", "--r", "3", "-o", str(org)]) == 0
        given = self.GEN_OPTIONS[what].split()
        options = dict(zip(given[::2], given[1::2]))
        assert tuple(o[2:] for o in options) == cli._GENERATORS[what][0]
        tail = ["-i", str(org), "-o", str(tmp_path / "out")]
        assert cli.main(["gen", what, *given, *tail]) == 0
        capsys.readouterr()
        for option in options:
            rest = [x for o, v in options.items() if o != option for x in (o, v)]
            assert cli.main(["gen", what, *rest, *tail]) == EXIT_INPUT_ERROR
            assert capsys.readouterr().err == f"error: gen {what} needs {option}\n"

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
        assert rep["x"] == default_x(2, 2, 8)
        assert corg.read_text().startswith("corg 8 ")

    def test_find_exit_codes(self, tmp_path):
        found = tmp_path / "found.ecg"
        save(signature(transitive_tournament(6)), found)
        res = run_cli("find", "pc-kst", "--s", "2", "--t", "2", "-i", str(found))
        assert res.returncode == 1  # acyclic signature: no pc K_{2,2}
        out = json.loads(res.stdout)
        assert out["status"] == "exhausted-none"
        # The peel emptied the graph before the scan: no closed pc walk.
        assert out["details"] == {"walk_periods": []}
        # K_{s,t} searches take t >= s >= 2 only.
        res = run_cli("find", "pc-kst", "--s", "1", "--t", "2", "-i", str(found))
        assert res.returncode == 3
        assert res.stderr == "error: s must be an integer >= 2, got 1\n"

        none = tmp_path / "ext.ecg"
        save(extremal_no_pc_c4(2), none)
        res = run_cli("find", "pipeline", "--max-len", "6", "-i", str(none))
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["witness"]["kind"] == "pc-cycle"
        assert out["details"]["walk_periods"] == [6] and len(out["witness"]["vertices"][0]) == 6

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

    def test_find_pipeline_budget_out_in_the_dfs(self, tmp_path):
        # A node budget that runs out in the DFS, after the K_{2,2} scan,
        # exits 2, not a traceback.
        G = extremal_no_pc_c4(3)
        ecg = tmp_path / "ext.ecg"
        save(G, ecg)
        budget = find_pc_kst(G, 2, 2).nodes + 3
        assert pc_short_cycle_pipeline(G, 6).nodes > budget
        res = run_cli(
            "find", "pipeline", "--max-len", "6", "-i", str(ecg),
            "--budget-nodes", str(budget),
        )
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert json.loads(res.stdout)["status"] == "budget-exceeded"

    def test_find_directed_cycle_takes_the_budget(self, tmp_path):
        # A budget that runs out exits 2 with no traceback, and the details
        # name the limit that fired; without one, or with room for the
        # whole search, the answer is the same.
        org = tmp_path / "c.org"
        assert run_cli("gen", "circulant", "--n", "101", "-o", str(org)).returncode == 0
        res = run_cli("find", "directed-cycle", "-i", str(org))
        assert res.returncode == 0
        full = json.loads(res.stdout)
        assert full["status"] == "found" and len(full["witness"]["vertices"][0]) == 3
        for args, limit in (
            (("--budget-nodes", "1"), "nodes"), (("--budget-ms", "0.000001"), "time"),
        ):
            res = run_cli("find", "directed-cycle", "-i", str(org), *args)
            assert res.returncode == 2 and "Traceback" not in res.stderr
            out = json.loads(res.stdout)
            assert out["status"] == "budget-exceeded" and out["witness"] is None
            assert out["details"] == {"stopped_by": limit}
        res = run_cli("find", "directed-cycle", "-i", str(org), "--budget-nodes", str(full["nodes"]))
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert (out["witness"], out["nodes"]) == (full["witness"], full["nodes"])

    @pytest.mark.parametrize("ms", ["nan", "inf", "-inf", "0", "-5"])
    def test_bad_time_budget_is_an_input_error(self, tmp_path, ms):
        # NaN or infinity would silently mean no limit; refuse it up front.
        ecg = tmp_path / "t.ecg"
        save(signature(transitive_tournament(6)), ecg)
        res = run_cli("find", "pc-kst", "-i", str(ecg), f"--budget-ms={ms}")
        assert res.returncode == 3
        assert "time_limit_s" in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("args,message", [
        (("find", "pc-kst"), "the following arguments are required: -i/--input"),
        (("find", "pc-kst", "-i", "g.ecg", "--budget-nodes", "abc"),
         "argument --budget-nodes: invalid int value: 'abc'"),
        (("verify", "duality", "--budget-ms", "1"), "unrecognized arguments: --budget-ms 1"),
    ])
    def test_usage_error_is_an_input_error(self, args, message):
        # argparse's own exit code 2 would read as budget-exceeded.
        res = run_cli(*args)
        assert res.returncode == EXIT_INPUT_ERROR
        assert message in res.stderr and "Traceback" not in res.stderr
        assert res.stdout == ""

    def test_help_still_exits_0(self):
        res = run_cli("find", "--help")
        assert res.returncode == 0 and "--budget-nodes" in res.stdout

    def test_gen_random_bipartite_zero_colors_is_an_input_error(self):
        res = run_cli("gen", "random", "--n", "4", "--n2", "3", "--p", "0.9", "--colors", "0")
        assert res.returncode == EXIT_INPUT_ERROR
        assert "colors must be an integer >= 1, got 0" in res.stderr
        assert res.stdout == ""

    def test_gen_random_bipartite_defaults_to_one_color(self, tmp_path):
        ecg = tmp_path / "b.ecg"
        res = run_cli("gen", "random", "--n", "4", "--n2", "3", "--p", "0.9", "-o", str(ecg))
        assert res.returncode == 0
        assert {c for _u, _v, c in load(ecg).edges} == {0}

    def test_gen_seed_defaults_to_0(self):
        args = ("gen", "random", "--n", "8", "--p", "0.5", "--colors", "3")
        a, b = run_cli(*args), run_cli(*args, "--seed", "0")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout != ""

    def test_find_pc_cycle_1200_deep(self, tmp_path):
        # The DFS goes straight to length 1200, deeper than Python's
        # recursion limit; the walk periods ride in the JSON details.
        n = 1200
        ecg = tmp_path / "c1200.ecg"
        save(EdgeColoredGraph(n, [(i, (i + 1) % n, i % 2) for i in range(n)]), ecg)
        res = run_cli("find", "pc-cycle", "--max-len", str(n), "-i", str(ecg))
        assert res.returncode == 0
        assert "Traceback" not in res.stderr
        out = json.loads(res.stdout)
        assert out["status"] == "found" and out["details"] == {"walk_periods": [n]}
        assert len(out["witness"]["vertices"][0]) == n

    def test_verify_suite(self, tmp_path):
        out = tmp_path / "rep.json"
        res = run_cli(
            "verify", "extremal", "--trials", "6", "--seed", "5", "--json", str(out)
        )
        assert res.returncode == 0
        rep = json.loads(out.read_text())
        assert rep["failures"] == 0 and rep["suite"] == "extremal"
        assert "PASS" in res.stdout

    def test_gen_recolored(self, tmp_path):
        res = run_cli(
            "gen", "recolored", "--n", "20", "--s", "3", "--t", "7",
            "--gamma", "0.1", "--seed", "4",
        )
        assert res.returncode == 0
        assert "accepted after" in res.stderr

    def test_gen_recolored_refuses_n_above_the_exhaustive_screen(self, capsys):
        argv = ["gen", "recolored", "--n", "26", "--s", "3", "--t", "7", "--gamma", "0.1"]
        assert cli.main(argv) == EXIT_INPUT_ERROR
        assert "n must be at most 25, got 26" in capsys.readouterr().err

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


class TestVerifyAndAnalyzeInProcess:
    def test_verify_passing_suite_writes_its_report(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert cli.main(["verify", "extremal", "--trials", "6", "--json", str(out)]) == 0
        assert capsys.readouterr().out.startswith("suite extremal: PASS (6 trials, 0 failures, ")
        rep, again = json.loads(out.read_text()), run_suite("extremal", 6, 0).to_dict()
        rep.pop("elapsed_s"), again.pop("elapsed_s")
        assert rep == again and rep["failures"] == 0

    def test_verify_failing_suite_names_seed_and_digest(self, monkeypatch, capsys):
        with_triangles(monkeypatch)
        assert cli.main(["verify", "extremal", "--trials", "4"]) == 1
        head, *rows = capsys.readouterr().out.splitlines()
        assert head.startswith("suite extremal: FAIL (4 trials, 1 failures, ")
        G = blowup_cycle_signature(3, 1)
        # seed 0 (the default) gives trial k = 1 the seed 0 ^ 1
        assert rows == [
            f"  seed=1 digest={instance_digest(G)} no-rainbow-C4 family k=1 is triangle-free"
        ]

    @pytest.fixture
    def ecg(self, tmp_path):
        path = tmp_path / "g.ecg"
        save(extremal_no_pc_c4(2), path)
        return path

    def test_analyze_text(self, ecg, capsys):
        assert cli.main(["analyze", "-i", str(ecg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        rep = analyze(extremal_no_pc_c4(2))
        assert lines[:2] == [
            "n=12 m=24",
            "min color degree=3 max mono degree=2 total color degree=36",
        ]
        assert [line.split(":")[0].strip() for line in lines[2:]] == list(rep["thresholds"])

    def test_analyze_json(self, ecg, capsys):
        assert cli.main(["analyze", "-i", str(ecg), "--r", "5", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep == analyze(extremal_no_pc_c4(2), r=5)
        assert list(rep["thresholds"]) == [
            "short_pc_cycle_conjectural", "pc_c4_min_color_degree",
            "rainbow_c4_min_color_degree", "pc_k22_total_color_degree_bipartite",
            "pc_k22_total_color_degree",
        ]

    def test_analyze_refuses_an_oriented_graph(self, tmp_path, capsys):
        org = tmp_path / "c.org"
        save(transitive_tournament(4), org)
        assert cli.main(["analyze", "-i", str(org)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "error: analyze expects an .ecg input\n"


# Four families, each written by chroma gen: the signatures of the transitive
# tournament on 60 vertices and of the circulant one on 21, and those of the
# directed C5 blown up 8 times and of the directed C6 blown up 3 times.
FAMILIES = {
    "t60": ["gen transitive --n 60 -o {org}", "gen signature -i {org} -o {ecg}"],
    "c21": ["gen circulant --n 21 -o {org}", "gen signature -i {org} -o {ecg}"],
    "b58": ["gen blowup-sig --r 5 --k 8 -o {ecg}"],
    "b63": ["gen blowup-sig --r 6 --k 3 -o {ecg}"],
}


def argv(command, paths):
    """The command's words with the {name}s in them filled from paths."""
    return [word.format(**paths) for word in command.split()]


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    """Each family's .org, if it has one, and .ecg, written by chroma gen
    in-process."""
    tmp = tmp_path_factory.mktemp("families")
    files = {}
    for name, steps in FAMILIES.items():
        files[name] = {"org": tmp / f"{name}.org", "ecg": tmp / f"{name}.ecg"}
        for step in steps:
            assert cli.main(argv(step, files[name])) == 0
    return files


@pytest.mark.parametrize("family,command,code,pins", [
    # The one-color peel empties the acyclic signature before any scan:
    # exhausted-none with no walk period, one node per edge.
    ("t60", "find pc-kst -i {ecg}", 1, {"nodes": 1770, "walk_periods": []}),
    ("t60", "find pc-cycle --max-len 60 -i {ecg}", 1, {"nodes": 1770, "walk_periods": []}),
    ("t60", "find pipeline --max-len 6 -i {ecg}", 1, {"nodes": 1770, "walk_periods": []}),
    # default_x(2, 2, 60) = 2 sqrt(15)
    ("t60", "orient --s 2 --t 2 -i {ecg} -o {corg} --report {report}", 0,
     {"x": 7.745966692414834}),
    # No pc K_{2,2} and no rainbow C4: the scan's rent of 321 and 663 nodes
    # of the hub pass, which finds period 5.
    ("b58", "find pc-kst -i {ecg}", 1, {"nodes": 984, "walk_periods": [5]}),
    ("b58", "find rainbow-c4 -i {ecg}", 1, {"nodes": 984, "walk_periods": [5]}),
    # With no pc C4, the pipeline answers with the cycle DFS's witness.
    ("b58", "find pipeline --max-len 6 -i {ecg}", 0, {"witness": [[0, 8, 16, 24, 32]]}),
    ("b58", "find pc-cycle --max-len 6 -i {ecg}", 0, {"witness": [[0, 8, 16, 24, 32]]}),
    ("b58", "find disjoint --k 3 -i {ecg}", 0, {"nodes": 999, "cycles": 3}),
    # After the first C5, 35 vertices cannot hold 8 more cycles of 5.
    ("b58", "find disjoint --k 9 -i {ecg}", 1,
     {"nodes": 989, "cycles": 1, "bound": {"left": 8, "least": 5, "room": 35}}),
    ("c21", "gen signature -i {org}", 0, {
        "sha256": "c86991e6e6c99e5d90cccff7e144930b4560963724d603e5bb39d49243cb07e5",
    }),
    ("c21", "find pc-kst --s 2 --t 3 -i {ecg}", 1, {"nodes": 5803, "walk_periods": [1]}),
    ("c21", "find pc-kst --s 3 --t 3 -i {ecg}", 1, {"walk_periods": [1]}),
    # A pc C4 is a pc K_{2,2}: sides (a, b), (u, v) read as (a, u, b, v).
    ("c21", "find pipeline --max-len 4 -i {ecg}", 0, {"nodes": 25, "witness": [[0, 1, 2, 11]]}),
    ("c21", "find pc-kst -i {ecg}", 0, {"nodes": 25, "witness": [[0, 2], [1, 11]]}),
    # The triangle at the first start, within the rent: no hub pass.
    ("c21", "find pc-cycle --max-len 4 -i {ecg}", 0,
     {"nodes": 21, "witness": [[0, 1, 11]], "walk_periods": None}),
    # Side 1 is the vertex prefix, so the sides ride in the header.
    ("b63", "gen blowup-sig --r 6 --k 3", 0, {
        "sha256": "2a5fef8fc6af5fe93d10b5cdeb4f16337fccfc17e1c05b2b170f7c4f716d8c14",
        "head": "ecg 18 54 bipartite 9", "stderr": "",
    }),
    # The bipartite construction, x = default_x(2, 2, 9) per side; the
    # general one at default_x(2, 2, 18) = 6, above every color degree (4),
    # picks nothing.
    ("b63", "orient --s 2 --t 2 -i {ecg} -o {corg} --report {report}", 0,
     {"x": [3.0, 3.0], "arcs": 36}),
    ("b63", "orient --s 2 --t 2 --general -i {ecg} -o {corg} --report {report}", 0,
     {"arcs": 0}),
])
def test_cli_pins(family_files, tmp_path, capsys, family, command, code, pins):
    # Node counts do not depend on the machine. Every found witness and
    # every orientation passes the package's checker.
    paths = {**family_files[family], "corg": tmp_path / "d.corg", "report": tmp_path / "r.json"}
    assert cli.main(argv(command, paths)) == code
    stdout, stderr = capsys.readouterr()
    host = load(paths["ecg"])
    values = {"stderr": stderr}
    if command.startswith("find"):
        out = json.loads(stdout)
        witness = out["witness"]
        assert (out["status"] == FOUND) == (witness is not None)
        assert witness is None or verify_witness(host, Witness(**witness))
        values.update(
            nodes=out["nodes"], witness=witness and witness["vertices"],
            walk_periods=out["details"].get("walk_periods"),
            cycles=len(out["details"].get("cycles", [])), bound=out["details"].get("bound"),
        )
    elif command.startswith("orient"):
        D, report = load(paths["corg"]), json.loads(paths["report"].read_text())
        assert verify_orientation(host, D, 2, report) is None
        values.update(x=report["x"], arcs=D.m)
    else:
        values.update(
            sha256=hashlib.sha256(stdout.encode()).hexdigest(), head=stdout.split("\n", 1)[0]
        )
    assert {k: values[k] for k in pins} == pins


def test_b58_searched_twice_on_one_graph(family_files):
    # A search of b58 drops no edge, so the search view keeps the hub pass's
    # layout with the graph, and every later search reuses it.
    G = load(family_files["b58"]["ecg"])
    outs = [search(G) for search in (lambda G: find_pc_kst(G, 2, 2), find_rainbow_c4)
            for _ in range(2)]
    assert [(o.status, o.nodes, o.details["walk_periods"]) for o in outs] == [
        (EXHAUSTED, 984, [5])
    ] * 4


class TestOrientPausesTheCollector:
    """chroma orient builds nothing that forms a reference cycle, so it runs
    with the cyclic collector paused and leaves it as it found it."""

    @pytest.fixture
    def argv(self, tmp_path):
        ecg, bad = tmp_path / "g.ecg", tmp_path / "bad.ecg"
        save(signature(circulant_tournament(9)), ecg)
        bad.write_text("ecg 2 1\n0 0 1\n")
        orient = ["orient", "--s", "2", "--t", "2", "-o", str(tmp_path / "d.corg")]
        return [*orient, "-i", str(ecg)], [*orient, "-i", str(bad)]

    def test_paused_while_the_orientation_is_built(self, argv, monkeypatch):
        good, _ = argv
        assert load(good[-1]).bipartition is None  # the general construction runs
        seen = []
        build = extraction.construct_orientation

        def spy(*args):
            seen.append(gc.isenabled())
            return build(*args)

        monkeypatch.setattr(extraction, "construct_orientation", spy)
        assert gc.isenabled()
        assert cli.main(good) == 0
        assert seen == [False]

    def test_enabled_again_after_the_command(self, argv, capsys):
        good, bad = argv
        assert gc.isenabled()
        assert cli.main(good) == 0
        assert gc.isenabled()
        assert cli.main(bad) == EXIT_INPUT_ERROR
        assert gc.isenabled()
        assert "line 2" in capsys.readouterr().err

    def test_left_disabled_when_the_caller_disabled_it(self, argv, capsys):
        good, bad = argv
        gc.disable()
        try:
            assert cli.main(good) == 0
            assert not gc.isenabled()
            assert cli.main(bad) == EXIT_INPUT_ERROR
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestNoReferenceCycles:
    """The report text and the whole orient command are freed by reference
    counting alone: with the collector off, it finds nothing to collect."""

    @staticmethod
    def collected_after(call):
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            call()
            return gc.collect()
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("bipartite", [False, True])
    def test_report_text(self, bipartite):
        G = random_bipartite_edge_colored(5, 6, 0.6, 3, 9)
        build = (extraction.construct_orientation_bipartite if bipartite
                 else extraction.construct_orientation)
        _, _, report = build(G, 2, 2)
        assert isinstance(report["l"], list) == bipartite  # both shapes of the head
        assert self.collected_after(lambda: cli._report_text(report)) == 0

    @pytest.mark.parametrize("general", [False, True])
    def test_orient_command(self, tmp_path, general):
        ecg = tmp_path / "b.ecg"
        save(blowup_cycle_signature(6, 3), ecg)
        argv = ["orient", "-i", str(ecg), "--s", "2", "--t", "2",
                "-o", str(tmp_path / "d.corg"), "--report", str(tmp_path / "r.json")]
        if general:
            argv.append("--general")
        assert cli.main(argv) == 0  # builds the argument parser, which the module keeps
        assert self.collected_after(lambda: cli.main(argv)) == 0


def test_repeated_main_calls_match_separate_processes(tmp_path, capsys):
    # One process reuses its argument parser across calls; no call may see
    # another's options, outputs or errors.
    bip, cyc, bad = tmp_path / "b.ecg", tmp_path / "c.ecg", tmp_path / "bad.ecg"
    save(random_bipartite_edge_colored(5, 6, 0.6, 3, 9), bip)
    save(extremal_no_pc_c4(2), cyc)
    bad.write_text("ecg 2 1\n0 0 1\n")
    corg, rep = tmp_path / "d.corg", tmp_path / "r.json"
    orient = ["orient", "--s", "2", "--t", "2", "-o", str(corg), "--report", str(rep)]
    calls = [
        [*orient, "-i", str(bip)],
        [*orient, "-i", str(bip), "--general"],
        ["find", "pc-cycle", "--max-len", "6", "-i", str(cyc), "--budget-nodes", "2"],
        ["find", "pc-cycle", "--max-len", "6", "-i", str(cyc)],
        [*orient, "-i", str(bad)],
    ]

    def record(code, out, err):
        texts = []
        for path in (corg, rep):
            texts.append(path.read_text() if path.exists() else None)
            path.unlink(missing_ok=True)
        if out:
            out = json.loads(out)
            out.pop("elapsed_s")
        return code, out, err, *texts

    in_process = []
    for argv in calls:
        code = cli.main(argv)
        in_process.append(record(code, *capsys.readouterr()))
    separate = [record(res.returncode, res.stdout, res.stderr)
                for res in (run_cli(*argv) for argv in calls)]
    assert [r[0] for r in in_process] == [0, 0, 2, 0, EXIT_INPUT_ERROR]
    assert in_process == separate


def test_runs_without_numpy(tmp_path):
    # A None entry in sys.modules makes `import numpy` fail, so chroma runs
    # on the standard library alone. gamma 0.15 with seed 8 takes its
    # subset-density check through the exhaustive count twice.
    ecg, guarded, plain = tmp_path / "c.ecg", tmp_path / "guarded.ecg", tmp_path / "plain.ecg"
    save(signature(circulant_tournament(20)), ecg)
    recolored = ["gen", "recolored", "--n", "20", "--s", "3", "--t", "7",
                 "--gamma", "0.15", "--seed", "8", "-o"]
    script = f"""
import sys
sys.modules["numpy"] = None
import chroma
from chroma import cli
assert cli.main(["find", "pc-kst", "-i", {str(ecg)!r}]) == 0
assert cli.main({recolored + [str(guarded)]!r}) == 0
"""
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["status"] == "found"
    assert res.stderr == "accepted after 3 attempts\n"
    assert run_cli(*recolored, str(plain)).returncode == 0
    assert guarded.read_bytes() == plain.read_bytes()
