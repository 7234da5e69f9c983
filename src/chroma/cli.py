"""Command-line interface.

Subcommands: gen (instance generators and transforms), orient (orientation
construction), find (search oracles), verify (seeded suites), analyze
(metric report). find exits 0 on found, 1 on exhausted-none, 2 on budget
exceeded, 3 on input errors; verify exits 0 exactly when the suite records
no failures. CHROMA_SEED provides the default seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import constructions, detectors, extraction, formats, suites, transforms
from .core import ColoredOrientation, EdgeColoredGraph, OrientedGraph

EXIT_FOUND = 0
EXIT_EXHAUSTED = 1
EXIT_BUDGET = 2
EXIT_INPUT_ERROR = 3

_STATUS_EXIT = {
    detectors.FOUND: EXIT_FOUND,
    detectors.EXHAUSTED: EXIT_EXHAUSTED,
    detectors.BUDGET_EXCEEDED: EXIT_BUDGET,
}


def _default_seed() -> int:
    return int(os.environ.get("CHROMA_SEED", "0"))


def _budget(args) -> detectors.SearchBudget | None:
    nodes = getattr(args, "budget_nodes", None)
    ms = getattr(args, "budget_ms", None)
    if nodes is None and ms is None:
        return None
    return detectors.SearchBudget(
        max_nodes=nodes, time_limit_s=ms / 1000.0 if ms is not None else None
    )


def _write_output(obj, path) -> None:
    """Render obj and write it to path, or to stdout for None or "-"."""
    if isinstance(obj, EdgeColoredGraph):
        try:
            text = formats.render_ecg(obj)
        except ValueError:
            sys.stderr.write(
                "note: bipartition is not prefix-representable; writing without it\n"
            )
            text = formats.render_ecg(formats.strip_bipartition(obj))
    elif isinstance(obj, ColoredOrientation):
        text = formats.render_corg(obj)
    else:
        text = formats.render_org(obj)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    what = args.what
    seed = args.seed if args.seed is not None else _default_seed()
    if what == "signature":
        D = formats.load(args.input)
        if not isinstance(D, OrientedGraph):
            raise ValueError("gen signature expects an .org input")
        out = transforms.signature(D)
    elif what == "dual":
        G = formats.load(args.input)
        if not isinstance(G, EdgeColoredGraph):
            raise ValueError("gen dual expects an .ecg input")
        out = transforms.dual_graph(G)
    elif what == "blowup":
        D = formats.load(args.input)
        if not isinstance(D, OrientedGraph):
            raise ValueError("gen blowup expects an .org input")
        out = transforms.blow_up(D, args.k)
    elif what == "transitive":
        out = constructions.transitive_tournament(args.n)
    elif what == "circulant":
        out = constructions.circulant_tournament(args.n)
    elif what == "cycle":
        out = constructions.directed_cycle(args.r)
    elif what == "blowup-sig":
        out = constructions.blowup_cycle_signature(args.r, args.k)
    elif what == "random":
        if args.n2 is not None:
            out = constructions.random_bipartite_edge_colored(
                args.n, args.n2, args.p, args.colors or 1, seed
            )
        elif args.colors is not None:
            out = constructions.random_edge_colored_graph(args.n, args.p, args.colors, seed)
        else:
            out = constructions.random_oriented_graph(args.n, args.p, seed)
    elif what == "proper-kst":
        out = constructions.random_proper_complete_bipartite(args.s, args.t, seed)
    elif what == "recolored":
        params = constructions.RecolorParams(
            n=args.n, s=args.s, t=args.t, gamma=args.gamma,
            seed=seed, max_tries=args.max_tries,
        )
        out, attempts = constructions.recolored_tournament(params)
        sys.stderr.write(f"accepted after {attempts} attempts\n")
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown generator {what!r}")
    _write_output(out, args.output)
    return 0


# ---------------------------------------------------------------------------
# orient
# ---------------------------------------------------------------------------

def _cmd_orient(args) -> int:
    G = formats.load(args.input)
    if not isinstance(G, EdgeColoredGraph):
        raise ValueError("orient expects an .ecg input")
    if G.bipartition is not None and not args.general:
        H, D, report = extraction.construct_orientation_bipartite(G, args.s, args.t, args.x)
    else:
        H, D, report = extraction.construct_orientation(G, args.s, args.t, args.x)
    _write_output(D, args.output)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump({"schema": suites.SCHEMA_VERSION, **report}, f, indent=2)
            f.write("\n")
    return 0


# ---------------------------------------------------------------------------
# find
# ---------------------------------------------------------------------------

def _cmd_find(args) -> int:
    obj = formats.load(args.input)
    budget = _budget(args)
    what = args.what
    if what == "directed-cycle":
        if isinstance(obj, EdgeColoredGraph):
            raise ValueError("find directed-cycle expects an .org or .corg input")
        out = detectors.shortest_directed_cycle(obj)
    else:
        if not isinstance(obj, EdgeColoredGraph):
            raise ValueError(f"find {what} expects an .ecg input")
        if what == "pc-kst":
            out = detectors.find_pc_kst(obj, args.s, args.t, budget)
        elif what == "rainbow-kst":
            out = detectors.find_rainbow_kst(obj, args.s, args.t, budget)
        elif what == "pc-cycle":
            out = detectors.find_pc_cycle_upto(obj, args.max_len, budget)
        elif what == "rainbow-c4":
            out = detectors.find_rainbow_c4(obj, budget)
        elif what == "pipeline":
            out = detectors.pc_short_cycle_pipeline(obj, args.max_len, budget)
        elif what == "disjoint":
            out = detectors.disjoint_pc_cycles(obj, args.k, budget)
        else:  # pragma: no cover
            raise ValueError(f"unknown detector {what!r}")
    json.dump(out.to_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return _STATUS_EXIT[out.status]


# ---------------------------------------------------------------------------
# verify / analyze
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    budget = _budget(args)
    report = suites.run_suite(args.suite, args.trials, seed, budget)
    payload = report.to_dict()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    status = "PASS" if report.passed else "FAIL"
    print(
        f"suite {report.suite}: {status} "
        f"({report.trials} trials, {report.failure_count} failures, "
        f"{report.elapsed_s:.2f}s)"
    )
    for f_ in report.failures[:10]:
        print(f"  seed={f_.seed} digest={f_.digest} {f_.assertion}")
    return 0 if report.passed else 1


def _cmd_analyze(args) -> int:
    G = formats.load(args.input)
    if not isinstance(G, EdgeColoredGraph):
        raise ValueError("analyze expects an .ecg input")
    report = suites.analyze(G, r=args.r)
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    print(f"n={report['n']} m={report['m']}")
    if report["n"]:
        print(
            f"min color degree={report['min_color_degree']} "
            f"max mono degree={report['max_mono_degree']} "
            f"total color degree={report['total_color_degree']}"
        )
        for name, t in report["thresholds"].items():
            met = "met" if t["margin"] > 0 else "not met"
            print(
                f"  {name}: requirement {t['requirement']:.2f} "
                f"value {t['value']} margin {t['margin']:.2f} ({met}) -> {t['implies']}"
            )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chroma",
        description="Properly colored subgraph toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate or transform instances")
    gen.add_argument(
        "what",
        choices=[
            "signature", "dual", "blowup",
            "transitive", "circulant", "cycle", "blowup-sig",
            "random", "proper-kst", "recolored",
        ],
    )
    gen.add_argument("-i", "--input", help="input graph file for transforms")
    gen.add_argument("-o", "--output", help="output file (default stdout)")
    gen.add_argument("--n", type=int)
    gen.add_argument("--n2", type=int, help="second part size (bipartite random)")
    gen.add_argument("--k", type=int, help="blow-up factor")
    gen.add_argument("--r", type=int, help="cycle length")
    gen.add_argument("--s", type=int)
    gen.add_argument("--t", type=int)
    gen.add_argument("--gamma", type=float)
    gen.add_argument("--p", type=float, help="edge probability")
    gen.add_argument("--colors", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--max-tries", type=int, default=100_000)
    gen.set_defaults(func=_cmd_gen)

    orient = sub.add_parser("orient", help="construct a path-proper orientation")
    orient.add_argument("-i", "--input", required=True)
    orient.add_argument("--s", type=int, required=True)
    orient.add_argument("--t", type=int, required=True)
    orient.add_argument("--x", type=float, help="override the growth threshold")
    orient.add_argument("-o", "--output", help="output .corg file (default stdout)")
    orient.add_argument("--report", help="write the per-vertex JSON report here")
    orient.add_argument(
        "--general", action="store_true",
        help="ignore a bipartition and use the general construction",
    )
    orient.set_defaults(func=_cmd_orient)

    find = sub.add_parser("find", help="run a search oracle")
    find.add_argument(
        "what",
        choices=[
            "pc-kst", "rainbow-kst", "pc-cycle", "rainbow-c4",
            "directed-cycle", "pipeline", "disjoint",
        ],
    )
    find.add_argument("-i", "--input", required=True)
    find.add_argument("--s", type=int, default=2)
    find.add_argument("--t", type=int, default=2)
    find.add_argument("--max-len", type=int, default=4, help="cycle length bound")
    find.add_argument("--k", type=int, default=1, help="number of disjoint cycles")
    find.add_argument("--budget-nodes", type=int)
    find.add_argument("--budget-ms", type=float)
    find.set_defaults(func=_cmd_find)

    verify = sub.add_parser("verify", help="run a seeded verification suite")
    verify.add_argument("suite", choices=list(suites.SUITE_NAMES))
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--budget-ms", type=float)
    verify.add_argument("--json", help="write the JSON report here")
    verify.set_defaults(func=_cmd_verify)

    analyze = sub.add_parser("analyze", help="metric and threshold report")
    analyze.add_argument("-i", "--input", required=True)
    analyze.add_argument("--r", type=int, default=4, help="cycle length for the threshold")
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(func=_cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, constructions.RecolorError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
