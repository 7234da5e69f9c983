"""Spans and counts around calls into chroma's public functions.

Tracer.install() replaces each traced function at the module attribute its
callers look up (for example chroma.detectors.construct_orientation, which
the pipeline calls, and chroma.extraction.construct_orientation, which the
CLI calls), and the validating __post_init__ of the two graph classes.
Private helpers are not wrapped, so their time lands in the caller's self
time. Spans stay in memory; layer_times() and pass_counts() turn them into
per-pass layer metrics, and write() saves them at the end of a run.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import chroma.core
import chroma.detectors as D

# (module, attribute, span name). One span name may cover several entry points.
SPANNED = (
    ("chroma.cli", "main", "cli.main"),
    ("chroma.formats", "parse_auto", "formats.parse"),
    ("chroma.formats", "render_corg", "formats.render"),
    ("chroma.extraction", "dual_graph", "transforms.dual"),
    ("chroma.transforms", "signature", "transforms.signature"),
    ("chroma.extraction", "construct_orientation", "extraction.orient"),
    ("chroma.extraction", "construct_orientation_bipartite", "extraction.orient"),
    ("chroma.detectors", "construct_orientation", "extraction.orient"),
    ("chroma.extraction", "saturation_extract", "extraction.saturate"),
    ("chroma.detectors", "find_pc_kst", "detectors.kst"),
    ("chroma.detectors", "find_rainbow_kst", "detectors.kst"),
    ("chroma.detectors", "find_rainbow_c4", "detectors.rainbow_c4"),
    ("chroma.detectors", "pc_short_cycle_pipeline", "detectors.pipeline"),
    ("chroma.detectors", "shortest_directed_cycle", "detectors.sdc"),
    ("chroma.detectors", "find_pc_cycle_upto", "detectors.cycle_dfs"),
    ("chroma.detectors", "disjoint_pc_cycles", "detectors.disjoint"),
    ("chroma.detectors", "verify_witness", "detectors.verify"),
    ("chroma.constructions", "transitive_tournament", "constructions.gen"),
    ("chroma.constructions", "circulant_tournament", "constructions.gen"),
    ("chroma.constructions", "blowup_cycle_signature", "constructions.gen"),
    ("chroma.constructions", "extremal_no_pc_c4", "constructions.gen"),
    ("chroma.constructions", "extremal_no_rainbow_c4_trianglefree", "constructions.gen"),
    ("chroma.constructions", "random_edge_colored_graph", "constructions.gen"),
    ("chroma.constructions", "random_bipartite_edge_colored", "constructions.gen"),
)
# Counted but not spanned: a span per call would cost more than the call.
COUNTED = (
    ("chroma.core", "color_degree"),
    ("chroma.extraction", "color_degree"),
    ("chroma.detectors", "color_degree"),
)
BUILT = (chroma.core.EdgeColoredGraph, chroma.core.ColoredOrientation)

# Per-layer metrics: name -> unit. Times are seconds per pass over the query
# list (set-up metrics: per set-up); counts are per pass and repeat exactly.
LAYER_UNITS = {
    "core.build_s": "s",
    "core.builds": "count",
    "core.edges_validated": "count",
    "core.color_degree_calls": "count",
    "core.setup_build_s": "s",
    "formats.parse_s": "s",
    "formats.render_s": "s",
    "formats.bytes_in": "bytes",
    "formats.bytes_out": "bytes",
    "cli.self_s": "s",
    "transforms.dual_s": "s",
    "transforms.dual_edges": "count",
    "transforms.signature_s": "s",
    "extraction.orient_s": "s",
    "extraction.orient_self_s": "s",
    "extraction.saturate_s": "s",
    "extraction.orient_calls": "count",
    "extraction.greedy_steps": "count",
    "detectors.kst_s": "s",
    "detectors.kst_nodes": "count",
    "detectors.rainbow_c4_s": "s",
    "detectors.rainbow_c4_nodes": "count",
    "detectors.nodes_per_s": "1/s",
    "detectors.pipeline_s": "s",
    "detectors.pipeline_search_s": "s",
    "detectors.pipeline_nodes": "count",
    "detectors.pipeline_stage1_answers": "count",
    "detectors.pipeline_stage2_answers": "count",
    "detectors.pipeline_stage3_answers": "count",
    "detectors.sdc_s": "s",
    "detectors.sdc_nodes": "count",
    "detectors.cycle_dfs_s": "s",
    "detectors.cycle_dfs_nodes": "count",
    "detectors.disjoint_s": "s",
    "detectors.disjoint_nodes": "count",
    "detectors.budget_exceeded": "count",
    "detectors.verify_s": "s",
    "detectors.witness_changed": "count",
    "detectors.witness_compared": "count",
    "constructions.gen_s": "s",
    "trace.overhead_s": "s",
}

# Span name -> metric of its self time.
_SELF = {
    "core.build": "core.build_s",
    "formats.parse": "formats.parse_s",
    "formats.render": "formats.render_s",
    "cli.main": "cli.self_s",
    "transforms.dual": "transforms.dual_s",
    "extraction.orient": "extraction.orient_self_s",
    "extraction.saturate": "extraction.saturate_s",
    "detectors.kst": "detectors.kst_s",
    "detectors.rainbow_c4": "detectors.rainbow_c4_s",
    "detectors.pipeline": "detectors.pipeline_search_s",
    "detectors.sdc": "detectors.sdc_s",
    "detectors.cycle_dfs": "detectors.cycle_dfs_s",
    "detectors.disjoint": "detectors.disjoint_s",
    "detectors.verify": "detectors.verify_s",
}
# Span name -> metric of its whole duration.
_TOTAL = {
    "extraction.orient": "extraction.orient_s",
    "detectors.pipeline": "detectors.pipeline_s",
}
_SETUP_SELF = {
    "constructions.gen": "constructions.gen_s",
    "transforms.signature": "transforms.signature_s",
    "core.build": "core.setup_build_s",
}
_NODES = {
    "detectors.kst": "detectors.kst_nodes",
    "detectors.rainbow_c4": "detectors.rainbow_c4_nodes",
    "detectors.pipeline": "detectors.pipeline_nodes",
    "detectors.sdc": "detectors.sdc_nodes",
    "detectors.cycle_dfs": "detectors.cycle_dfs_nodes",
    "detectors.disjoint": "detectors.disjoint_nodes",
}


class Tracer:
    def __init__(self):
        # (name, start, end, parent index or -1, phase, query id)
        self.spans: list[tuple] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.phase = "setup"
        self.query = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.phase, self.query)

    def _count(self, result, name, args):
        c = self.counts[self.phase]
        if name == "core.build":
            c["core.builds"] += 1
            obj = args[0]
            validated = obj.edges if isinstance(obj, chroma.core.EdgeColoredGraph) else obj.arcs
            c["core.edges_validated"] += len(validated)
        elif name == "formats.parse":
            c["formats.bytes_in"] += len(args[0])
        elif name == "formats.render":
            c["formats.bytes_out"] += len(result)
        elif name == "transforms.dual":
            c["transforms.dual_edges"] += result.m
        elif name == "extraction.orient":
            c["extraction.orient_calls"] += 1
            l = result[2]["l"]
            c["extraction.greedy_steps"] += sum(l) if isinstance(l, list) else l
        elif name in _NODES:
            c[_NODES[name]] += result.nodes
            if result.status == D.BUDGET_EXCEEDED:
                c["detectors.budget_exceeded"] += 1
            if name == "detectors.pipeline" and result.status != D.BUDGET_EXCEEDED:
                # An exhausted answer was decided by the stage-3 search.
                stage = result.details.get("stage", 3)
                c[f"detectors.pipeline_stage{stage}_answers"] += 1

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            self._count(result, name, args)
            return result
        return traced

    def _counter(self, fn):
        def counted(*args, **kwargs):
            self.counts[self.phase]["core.color_degree_calls"] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        for module, attr, name in SPANNED:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self._wrap(name, getattr(mod, attr)))
        for module, attr in COUNTED:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self._counter(getattr(mod, attr)))
        for cls in BUILT:
            self._patch(cls, "__post_init__", self._wrap("core.build", cls.__post_init__))

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def layer_times(self, phase, slow=None) -> dict[str, float]:
        """Self and total span times of one phase, by metric name.

        slow maps a query id to the slowdown measured around it; each span's
        time is divided by its query's slowdown.
        """
        child = defaultdict(float)
        for _name, start, end, parent, _phase, _query in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        selfs = _SETUP_SELF if phase == "setup" else _SELF
        totals = {} if phase == "setup" else _TOTAL
        for i, (name, start, end, _parent, ph, query) in enumerate(self.spans):
            if ph != phase:
                continue
            scale = slow[query] if slow else 1.0
            if name in selfs:
                out[selfs[name]] += (end - start - child[i]) / scale
            if name in totals:
                out[totals[name]] += (end - start) / scale
        return out

    def pass_counts(self, phase) -> dict[str, int]:
        return dict(self.counts[phase])

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, phase, query in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "phase": phase, "query": query}))
                f.write("\n")
