"""Closed-loop benchmark of chroma: time to exact, checked answers.

    python3 bench/run.py --workload kst-exhaust --seed 1 --seconds 30 --trace 0

One client in one process sends the next query only after the last answer
is back. Set-up imports chroma, builds the seeded instances of the workload
(bench/workloads.py), writes the input files and warms each graph's cached
adjacency; it is repeated and its median reported. The run then makes full
passes over the query list until --seconds have gone by and at least 100
answers are in. The first pass checks every answer against the answer fixed
by construction; every later pass must repeat each query's status, search
nodes, greedy steps and witness digest exactly.

Times are reported at reference speed. The machines this runs on are shared,
and their speed drifts by a third or more within seconds to minutes, which
no amount of repetition inside one run evens out. So right after every
query, outside the timed region, the benchmark times slices of fixed
pure-Python work that never touches chroma (more slices after longer
queries). A query's time is scaled by REF_SLICE_S over the mean of two
medians: of the slices right before it (after the previous query) and of
those right after it. Set-up is scaled by slices run right after it. Raw
wall-clock figures are printed alongside.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes and prints the per-layer metrics of the traced passes, plus
the tracing overhead (traced minus untraced pass time). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFAULT_SEED = 1
SETUP_REPS = 5
MIN_ANSWERS = 100
FINGERPRINTS = BENCH / "fingerprints.json"
# About the median time of one reference slice on the machine the baseline
# was recorded on (bench/baseline.json), so reported times stay close to
# wall time there.
REF_SLICE_S = 0.003
SETUP_REF_SLICES = 20
# After each query: three slices, plus one per REF_EVERY_S the query ran.
REF_EVERY_S = 0.05

E2E_UNITS = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "answer_p50_ms": "ms",
    "answer_p90_ms": "ms",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

_REF_KEYS = [(i, (i * 7) % 9001) for i in range(9000)]
_REF_TABLE = {k: k[0] % 11 for k in _REF_KEYS}


def reference_slice() -> float:
    """Time one slice of fixed work: tuple keys and dict lookups, as in
    chroma's searches. It allocates nothing that outlives an iteration, so
    the garbage collector never runs inside it."""
    start = time.perf_counter()
    table = _REF_TABLE
    total = 0
    for a, b in _REF_KEYS:
        c = table.get((b, a) if a > b else (a, b), -1)
        if c != 3 and (a, b) in table:
            total += a ^ b
        else:
            total -= c
    return time.perf_counter() - start


def slowdown(slices: int) -> float:
    """Current machine slowness: median slice time over REF_SLICE_S."""
    return statistics.median(reference_slice() for _ in range(slices)) / REF_SLICE_S


def _import_chroma() -> float:
    """Import chroma from this checkout's src/ and return the time it took."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import chroma

    elapsed = time.perf_counter() - start
    if not Path(chroma.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"chroma was imported from {chroma.__file__}, not from this checkout")
    return elapsed


def percentile(values, q):
    """Linear-interpolated quantile; failed queries enter as +inf."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    if lo == pos:
        return v[lo]
    return v[lo] + (v[lo + 1] - v[lo]) * (pos - lo)


class Pass:
    def __init__(self, traced, latencies, slow):
        self.traced = traced
        self.latencies = latencies  # raw seconds per query, +inf where it raised
        self.slow = slow  # per query: slowdown() around it

    def scaled(self) -> list[float]:
        return [t / s for t, s in zip(self.latencies, self.slow)]

    def seconds(self, scaled=True) -> float:
        return sum(t for t in (self.scaled() if scaled else self.latencies) if t != math.inf)


class Run:
    def __init__(self, workload, seed, quick=False):
        import workloads

        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.build = workloads.BUILDERS[workload]
        self.workdir = BENCH / "out" / f"{workload}-seed{seed}"
        self.first: dict = {}  # qid -> Answer of the first pass
        self.problems: list[str] = []
        self.passes: list[Pass] = []
        self.setup_slow: list[float] = []
        self.attempted = 0
        self.failed = 0

    def setup(self) -> float:
        """Build the queries once; returns the time taken at reference speed."""
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.queries = None  # free the previous set-up before timing the next
        start = time.perf_counter()
        self.queries = self.build(random.Random(self.seed), str(self.workdir), self.quick)
        self.qids = [q.qid for q in self.queries]
        elapsed = time.perf_counter() - start
        self.setup_slow.append(slowdown(SETUP_REF_SLICES))
        return elapsed / self.setup_slow[-1]

    def one_pass(self, tracer=None):
        from workloads import Answer

        outs = []
        after = []
        if tracer:
            tracer.install()
        try:
            for q in self.queries:
                if tracer:
                    tracer.query = q.qid
                start = time.perf_counter()
                try:
                    out, error = q.call(), None
                except Exception as exc:  # a raising query is a failed operation
                    out, error = None, type(exc).__name__
                elapsed = time.perf_counter() - start
                outs.append((q, out, error, elapsed))
                after.append(slowdown(3 + int(elapsed / REF_EVERY_S)))
        finally:
            if tracer:
                tracer.query = None
                tracer.uninstall()
        slow = [(b + a) / 2 for b, a in zip(after[:1] + after[:-1], after)]
        self.passes.append(Pass(tracer is not None,
                                [math.inf if e else t for _q, _o, e, t in outs], slow))

        for q, out, error, _elapsed in outs:
            self.attempted += 1
            if error:
                self.failed += 1
                answer = Answer(f"raised:{error}", 0, 0, "")
            else:
                answer = q.answer(out)
            if q.qid not in self.first:
                self.first[q.qid] = answer
                problem = None if error else q.check(out)
                if problem:
                    self.problems.append(f"{q.qid}: {problem}")
            elif self.first[q.qid] != answer:
                self.problems.append(
                    f"{q.qid}: answer differs between passes: {self.first[q.qid]} then {answer}"
                )

    def loop(self, seconds, tracer=None):
        """Full passes until the time is up and enough answers are in."""
        start = time.perf_counter()
        n = 0
        while True:
            traced = tracer is not None and n % 2 == 1
            if traced:
                tracer.phase = f"pass-{n}"
            self.one_pass(tracer if traced else None)
            n += 1
            if self.quick:
                done = n >= (2 if tracer else 1)
            else:
                done = (time.perf_counter() - start >= seconds
                        and self.attempted - self.failed >= MIN_ANSWERS
                        and (tracer is None or n >= 2))
            if done:
                return

    def fingerprints(self) -> dict[str, str]:
        return {qid: f"{a.status}:{a.digest}" for qid, a in self.first.items()}


def end_to_end(run: Run, setup_s: float, scaled=True) -> dict:
    """End-to-end metrics; scaled=False gives raw wall-clock times."""
    answered = run.attempted - run.failed
    latencies = [t for p in run.passes for t in (p.scaled() if scaled else p.latencies)]
    timed = sum(p.seconds(scaled) for p in run.passes)
    return {
        "setup_s": setup_s,
        "answers_per_s": answered / timed,
        "answer_p50_ms": percentile(latencies, 0.5) * 1000,
        "answer_p90_ms": percentile(latencies, 0.9) * 1000,
        "success_rate": answered / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(run: Run, tracer) -> dict:
    from tracing import LAYER_UNITS

    traced = [(f"pass-{i}", p) for i, p in enumerate(run.passes) if p.traced]
    counts = [tracer.pass_counts(phase) for phase, _p in traced]
    if any(c != counts[0] for c in counts[1:]):
        run.problems.append(f"per-layer counts differ between traced passes: {counts}")
    times = [tracer.layer_times(phase, dict(zip(run.qids, p.slow))) for phase, p in traced]
    metrics = {name: 0 for name in LAYER_UNITS}
    metrics.update(counts[0])
    for name in {k for t in times for k in t}:
        metrics[name] = statistics.median(t.get(name, 0.0) for t in times)
    for name, value in tracer.layer_times("setup").items():
        metrics[name] = value / len(run.setup_slow) / statistics.mean(run.setup_slow)
    search_s = metrics["detectors.kst_s"] + metrics["detectors.rainbow_c4_s"]
    search_nodes = metrics["detectors.kst_nodes"] + metrics["detectors.rainbow_c4_nodes"]
    metrics["detectors.nodes_per_s"] = search_nodes / search_s if search_s else 0
    metrics["trace.overhead_s"] = statistics.median(
        p.seconds() for p in run.passes if p.traced
    ) - statistics.median(p.seconds() for p in run.passes if not p.traced)
    reference = {}
    if FINGERPRINTS.exists():
        stored = json.loads(FINGERPRINTS.read_text())
        if stored["seed"] == run.seed:
            reference = stored["workloads"].get(run.workload, {})
    current = run.fingerprints()
    compared = [qid for qid in reference if qid in current]
    metrics["detectors.witness_compared"] = len(compared)
    metrics["detectors.witness_changed"] = sum(reference[q] != current[q] for q in compared)
    return {name: metrics[name] for name in LAYER_UNITS}


def run_workload(workload, seed, seconds, trace, quick=False):
    """Set up and run one workload; returns (result dict, Run, raw metrics)."""
    import_s = _import_chroma() / slowdown(SETUP_REF_SLICES)
    sys.path.insert(0, str(BENCH))
    from tracing import LAYER_UNITS, Tracer

    run = Run(workload, seed, quick)
    tracer = Tracer() if trace else None
    reps = 1 if quick else SETUP_REPS
    setup_times = []
    for _ in range(reps):
        if tracer:
            tracer.install()
        try:
            setup_times.append(run.setup())
        finally:
            if tracer:
                tracer.uninstall()
    setup_s = import_s + statistics.median(setup_times)
    # Set-up objects live for the whole run; keep the collector from
    # rescanning them during timed queries.
    gc.collect()
    gc.freeze()
    try:
        run.loop(seconds, tracer)
    finally:
        gc.unfreeze()
    raw = end_to_end(run, setup_s, scaled=False)
    if tracer:
        metrics = per_layer(run, tracer)
        units = LAYER_UNITS
        tracer.write(run.workdir / "spans.jsonl")
    else:
        metrics = end_to_end(run, setup_s)
        units = E2E_UNITS
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, run, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("kst-exhaust", "orient-cli", "short-cycle"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fingerprints", action="store_true",
                        help=f"store this run's witness digests as the seed-{DEFAULT_SEED} reference")
    args = parser.parse_args(argv)

    result, run, raw = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for problem in run.problems:
        print(f"WRONG {problem}", file=sys.stderr)
    answered = run.attempted - run.failed
    slow = [s for p in run.passes for s in p.slow]
    print(f"{args.workload} seed={args.seed}: {len(run.queries)} queries per pass, "
          f"{len(run.passes)} passes, {run.attempted} attempted, {run.failed} failed, "
          f"error_rate {run.failed / run.attempted:.6f} (base {run.attempted}), "
          f"{answered} answers; percentiles over {run.attempted} samples; "
          f"slowdown median {statistics.median(slow):.3f} ({min(slow):.3f}..{max(slow):.3f})")
    print("  raw wall-clock: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()
                                          if k in ("answers_per_s", "answer_p50_ms", "answer_p90_ms")))
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")

    if args.write_fingerprints:
        if args.seed != DEFAULT_SEED or not result["correct"]:
            raise SystemExit("fingerprints are stored only from a correct default-seed run")
        stored = {"seed": DEFAULT_SEED, "workloads": {}}
        if FINGERPRINTS.exists():
            stored = json.loads(FINGERPRINTS.read_text())
        stored["workloads"][args.workload] = run.fingerprints()
        FINGERPRINTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")

    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
