"""Self-tests of the benchmark, on its quick (tiny) inputs.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

WORKLOADS = [name for name, _why in catalog.WORKLOADS]

#: The workload's own figures each workload must print.
FIGURES = {
    "window_collection": ("materialize_s", "analytics_s", "job_s"),
    "perturbation_collection": ("materialize_s", "analytics_s", "job_s"),
    "stream_churn": ("ingest_p50_ms", "ingest_p90_ms", "updates_per_s",
                     "snapshot_p50_ms"),
    "serve_mixed": ("run_p50_ms", "run_p90_ms", "mutate_p50_ms",
                    "requests_per_s"),
}

#: Per-layer metrics that must be non-zero on a workload's traced run.
OWNED = {
    "window_collection": (
        "gvdl.parse_s", "ebm.build_s", "diff_stream.compute_s",
        "splitting.decide_s", "splitting.splits", "executor.diff_view_s",
        "executor.scratch_view_s", "differential.step_s",
        "differential.schedule_s", "differential.accumulate_s",
        "differential.reduce_flush_s", "differential.join_s",
        "differential.iterate_self_s", "differential.analytics_share",
        "meter.work", "meter.parallel_time", "meter.record_s",
        "tracing.job_s"),
    "perturbation_collection": (
        "gvdl.parse_s", "ebm.build_s", "ebm.cells", "ordering.order_s",
        "ordering.diffs", "ordering.diff_ratio", "diff_stream.compute_s",
        "ebm_ordering.materialize_share", "differential.step_s",
        "meter.work"),
    "stream_churn": (
        "stream.advance_s", "stream.ingest_self_s",
        "stream.resident_records", "differential.compact_s",
        "differential.trace_records", "differential.step_s", "meter.work"),
    "serve_mixed": (
        "serve.compute_s", "serve.mutate_s", "serve.rematerialize_s",
        "serve.cache_hit_ratio", "ebm.build_s", "differential.step_s",
        "differential.trace_records"),
}


def run(workload, trace=0, seed=1, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def record_of(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["attempted"] >= 1 and record["failed"] == 0
    return record, lines[:-1]


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(catalog.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves
        in catalog.PER_LAYER]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_figures(workload):
    record, lines = record_of(run(workload))
    assert {name: m["unit"] for name, m in record["metrics"].items()} == \
        catalog.end_to_end_units()
    assert all(m["value"] > 0 for m in record["metrics"].values())
    printed = {line.split()[1] for line in lines
               if line.startswith(workload + " ")}
    assert set(FIGURES[workload]) <= printed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    record, _lines = record_of(run(workload, trace=1))
    metrics = record["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == \
        catalog.per_layer_units()
    zero = [name for name in OWNED[workload] if not metrics[name]["value"]]
    assert not zero, f"{workload}: layers not measured: {zero}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat_for_one_seed(workload):
    def counters(seed):
        _record, lines = record_of(run(workload, seed=seed))
        return [line for line in lines if "exact counters" in line]

    first = counters(3)
    assert first and first == counters(3)
    assert counters(4) != first  # another seed is another input


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = run("window_collection", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
