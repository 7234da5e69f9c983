"""Self-test of the benchmark on a reduced query list per workload.

    python3 bench/selftest.py      (or: python3 -m pytest bench/selftest.py)

For every workload in BENCHMARK.json it makes one untraced and one traced
run of the reduced list and checks that the answers are correct and that
each run emits exactly the metrics BENCHMARK.json names, with their units.
It also checks the length rule of the full query lists (see workloads.py).
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def test_every_named_metric_is_emitted():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, r, _raw = run.run_workload(workload, run.DEFAULT_SEED, 0, trace, quick=True)
            where = f"{workload} trace={trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"], f"{where}: {r.problems}"
            assert result["attempted"] >= 1, where
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{where}: {sorted(set(got) ^ set(want))}"
            for name, m in result["metrics"].items():
                assert math.isfinite(m["value"]), f"{where}: {name} = {m['value']}"
            json.loads(json.dumps(result))


def test_full_lists_keep_percentiles_inside_one_query():
    import random

    import workloads

    workdir = run.BENCH / "out" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    for name, build in workloads.BUILDERS.items():
        queries = build(random.Random(run.DEFAULT_SEED), str(workdir))
        assert len(queries) % 10 == 5, f"{name}: {len(queries)} queries per pass"
        assert len({q.qid for q in queries}) == len(queries), f"{name}: repeated query ids"


if __name__ == "__main__":
    test_every_named_metric_is_emitted()
    test_full_lists_keep_percentiles_inside_one_query()
    print("bench self-test passed")
