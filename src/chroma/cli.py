"""Command-line interface.

Subcommands: gen (instance generators and transforms), orient (orientation
construction), find (search oracles), verify (seeded suites), analyze
(metric report). find exits 0 on found, 1 on exhausted-none, 2 on budget
exceeded; verify exits 0 exactly when the suite records no failures. Every
command exits 3 on an input or usage error.
"""
from __future__ import annotations

import argparse
import gc
import json
import sys

from . import constructions, detectors, extraction, formats, suites, transforms
from .core import EdgeColoredGraph, OrientedGraph

EXIT_FOUND = 0
EXIT_EXHAUSTED = 1
EXIT_BUDGET = 2
EXIT_INPUT_ERROR = 3

_STATUS_EXIT = {
    detectors.FOUND: EXIT_FOUND,
    detectors.EXHAUSTED: EXIT_EXHAUSTED,
    detectors.BUDGET_EXCEEDED: EXIT_BUDGET,
}


def _budget(args) -> detectors.SearchBudget | None:
    """The budget that find's --budget-nodes and --budget-ms give."""
    nodes, ms = args.budget_nodes, args.budget_ms
    if nodes is None and ms is None:
        return None
    return detectors.SearchBudget(
        max_nodes=nodes, time_limit_s=ms / 1000.0 if ms is not None else None
    )


def _write_output(obj, path) -> None:
    """Render obj to stdout for None or "-", else save it to path."""
    if path is None or path == "-":
        sys.stdout.write(formats.render(obj))
    else:
        formats.save(obj, path)


_SUFFIX = {OrientedGraph: ".org", EdgeColoredGraph: ".ecg"}


def _load(path, cls, what):
    """Load the graph file at path; the command `what` needs a cls there."""
    if path is None:
        raise ValueError(f"{what} needs -i/--input")
    obj = formats.load(path)
    if not isinstance(obj, cls):
        raise ValueError(f"{what} expects an {_SUFFIX[cls]} input")
    return obj


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _gen_random(args):
    if args.n2 is not None:
        return constructions.random_bipartite_edge_colored(
            args.n, args.n2, args.p, 1 if args.colors is None else args.colors, args.seed
        )
    if args.colors is not None:
        return constructions.random_edge_colored_graph(args.n, args.p, args.colors, args.seed)
    return constructions.random_oriented_graph(args.n, args.p, args.seed)


def _gen_recolored(args):
    out, attempts = constructions.recolored_tournament(constructions.RecolorParams(
        n=args.n, s=args.s, t=args.t, gamma=args.gamma, seed=args.seed, max_tries=args.max_tries,
    ))
    sys.stderr.write(f"accepted after {attempts} attempts\n")
    return out


# Each generator maps the parsed arguments to the object gen writes. Every entry
# looks its function up on its module as it runs, so a wrapper put there sees it.
_GENERATORS = {
    "signature": lambda a: transforms.signature(_load(a.input, OrientedGraph, "gen signature")),
    "dual": lambda a: transforms.dual_graph(_load(a.input, EdgeColoredGraph, "gen dual")),
    "blowup": lambda a: transforms.blow_up(_load(a.input, OrientedGraph, "gen blowup"), a.k),
    "transitive": lambda a: constructions.transitive_tournament(a.n),
    "circulant": lambda a: constructions.circulant_tournament(a.n),
    "cycle": lambda a: constructions.directed_cycle(a.r),
    "blowup-sig": lambda a: constructions.blowup_cycle_signature(a.r, a.k),
    "random": _gen_random,
    "proper-kst": lambda a: constructions.random_proper_complete_bipartite(a.s, a.t, a.seed),
    "recolored": _gen_recolored,
}


def _cmd_gen(args) -> int:
    _write_output(_GENERATORS[args.what](args), args.output)
    return 0


# ---------------------------------------------------------------------------
# orient
# ---------------------------------------------------------------------------

def _cmd_orient(args) -> int:
    """Build the orientation of the input graph and write it and its report.

    Nothing the command builds forms a reference cycle, so reference
    counting frees all of it. The cyclic collector is paused for the whole
    command, so it does not traverse the graphs while they are built, and
    left as it was found, also when the input is rejected.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        G = _load(args.input, EdgeColoredGraph, "orient")
        if G.bipartition is not None and not args.general:
            _, D, report = extraction.construct_orientation_bipartite(G, args.s, args.t)
        else:
            _, D, report = extraction.construct_orientation(G, args.s, args.t)
        _write_output(D, args.output)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as f:
                f.write(_report_text(report))
        return 0
    finally:
        if enabled:
            gc.enable()


# The report as json.dumps(..., indent=2) lays it out, and one per_vertex
# entry at depth 2. %r is float.__repr__ (and int.__repr__), which is what
# the json encoder writes for finite numbers.
_REPORT = (
    '{\n  "schema": %d,\n  "n": %d,\n  "per_vertex": %s,\n  "s": %d,\n  "t": %d,\n'
    '  "l": %s,\n  "x": %s,\n  "sigma": %r\n}\n'
)
_VERTEX_ROW = (
    '    "%d": {\n      "dplus": %r,\n      "dc": %r,\n'
    '      "bound": %r,\n      "margin": %r\n    }'
)


def _number_text(value) -> str:
    """A number, or a list of numbers, as json.dumps(..., indent=2) writes it
    at depth 1."""
    if not isinstance(value, list):
        return repr(value)
    return "[\n    " + ",\n    ".join(map(repr, value)) + "\n  ]" if value else "[]"


def _report_text(report: dict) -> str:
    """The orientation report with its schema version, exactly as
    json.dumps({"schema": ..., **report}, indent=2) + "\\n" writes it.

    The text is formatted directly: json.dumps with indent runs the
    pure-Python encoder, which is slow and leaves reference cycles behind.
    """
    rows = report["per_vertex"]
    per_vertex = "{\n" + ",\n".join([
        _VERTEX_ROW % (v, r["dplus"], r["dc"], r["bound"], r["margin"]) for v, r in rows.items()
    ]) + "\n  }" if rows else "{}"
    return _REPORT % (
        suites.SCHEMA_VERSION, report["n"], per_vertex, report["s"], report["t"],
        _number_text(report["l"]), _number_text(report["x"]), report["sigma"],
    )


# ---------------------------------------------------------------------------
# find
# ---------------------------------------------------------------------------

# Each search maps the loaded graph, the parsed arguments and the budget to
# its outcome, looking its function up on chroma.detectors as it runs.
_SEARCHES = {
    "pc-kst": lambda G, a, budget: detectors.find_pc_kst(G, a.s, a.t, budget),
    "rainbow-kst": lambda G, a, budget: detectors.find_rainbow_kst(G, a.s, a.t, budget),
    "pc-cycle": lambda G, a, budget: detectors.find_pc_cycle_upto(G, a.max_len, budget),
    "rainbow-c4": lambda G, a, budget: detectors.find_rainbow_c4(G, budget),
    "directed-cycle": lambda D, a, budget: detectors.shortest_directed_cycle(D, budget),
    "pipeline": lambda G, a, budget: detectors.pc_short_cycle_pipeline(G, a.max_len, budget),
    "disjoint": lambda G, a, budget: detectors.disjoint_pc_cycles(G, a.k, budget),
}


def _cmd_find(args) -> int:
    obj = formats.load(args.input)
    budget = _budget(args)
    if (args.what == "directed-cycle") == isinstance(obj, EdgeColoredGraph):
        wants = ".org or .corg" if args.what == "directed-cycle" else ".ecg"
        raise ValueError(f"find {args.what} expects an {wants} input")
    out = _SEARCHES[args.what](obj, args, budget)
    json.dump(out.to_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return _STATUS_EXIT[out.status]


# ---------------------------------------------------------------------------
# verify / analyze
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    report = suites.run_suite(args.suite, args.trials, args.seed)
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
    G = _load(args.input, EdgeColoredGraph, "analyze")
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
    gen.add_argument("what", choices=list(_GENERATORS))
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
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-tries", type=int, default=constructions.RecolorParams.max_tries)
    gen.set_defaults(func=_cmd_gen)

    orient = sub.add_parser("orient", help="construct a path-proper orientation")
    orient.add_argument("-i", "--input", required=True)
    orient.add_argument("--s", type=int, required=True)
    orient.add_argument("--t", type=int, required=True)
    orient.add_argument("-o", "--output", help="output .corg file (default stdout)")
    orient.add_argument("--report", help="write the per-vertex JSON report here")
    orient.add_argument(
        "--general", action="store_true",
        help="ignore a bipartition and use the general construction",
    )
    orient.set_defaults(func=_cmd_orient)

    find = sub.add_parser("find", help="run a search oracle")
    find.add_argument("what", choices=list(_SEARCHES))
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
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--json", help="write the JSON report here")
    verify.set_defaults(func=_cmd_verify)

    analyze = sub.add_parser("analyze", help="metric and threshold report")
    analyze.add_argument("-i", "--input", required=True)
    analyze.add_argument("--r", type=int, default=4, help="cycle length for the threshold")
    analyze.add_argument("--json", action="store_true")
    analyze.set_defaults(func=_cmd_analyze)

    return parser


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:  # built once per process; parse_args leaves it unchanged
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which is find's budget code.
        if exc.code == 2:
            return EXIT_INPUT_ERROR
        raise
    try:
        return args.func(args)
    except (ValueError, OSError, constructions.RecolorError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
