"""Smoke test of the benchmark harness on tiny inputs (seconds, not minutes).

Checks the plumbing, not the figures: every workload completes its
minimum operations with all checks passing, the result line carries
exactly the metrics BENCHMARK.json lists, tracing leaves the package as it
found it, and the command fails cleanly outside a source checkout.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_per_layer_spec_matches_tracing():
    assert SPEC["per_layer"] == tracing.per_layer_spec()
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.RUNNERS)


@pytest.mark.parametrize("workload", list(harness.RUNNERS))
def test_tiny_traced_run(workload):
    # a traced run alternates traced and untraced operations, so it
    # exercises both paths and compares their outputs
    record = harness.run(workload, seed=0, seconds=0.0, trace=True, sizes=harness.TINY)
    assert record["failed"] == 0, record["errors"]
    assert record["correct"] and record["attempted"] >= 2
    assert record["repeats_checked"] >= 1
    for trace, entries in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        line = bench_run.result_line(record, SPEC, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {e["name"] for e in entries}
        assert all(math.isfinite(m["value"]) for m in line["metrics"].values())
        json.loads(json.dumps(line, allow_nan=False))
    assert all(record["end_to_end"][e["name"]] > 0 for e in SPEC["end_to_end"])
    assert record["per_layer"]["trace.span_coverage"] > 0.5

    from indoorseg import overseg, pipeline
    from scipy.spatial import cKDTree
    assert pipeline.compute_normals is overseg.compute_normals
    assert not hasattr(pipeline.compute_normals, "__wrapped__")
    assert overseg.cKDTree is cKDTree


def test_fails_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frame", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
