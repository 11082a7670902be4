#!/usr/bin/env python3
"""Graphsurge end-to-end benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --quick      # tiny inputs

Workloads: ``window_collection``, ``perturbation_collection``,
``stream_churn``, ``serve_mixed`` (see ``perfbench/README.md``). Inputs
are generated from ``--seed``; the program only ever sees the generated
graph, GVDL text, batches and request scripts.

With ``--trace 0`` the last line of standard output is one JSON record
holding every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric, timed by wrappers installed from this directory around
each layer's public functions (see ``tracing.py``). Lines before it show
the workload's own figures (``materialize_s``, ``ingest_p90_ms``,
``run_p90_ms`` ...). Outputs are checked against the oracles of
``repro.verify`` outside the timed region, and the exact counters must
repeat on every job of one input; a failed check prints
``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
from common import (  # noqa: E402
    REFERENCE_PROBE_S,
    CheckFailed,
    check_counters_repeat,
    emit,
    instance_seed,
    layer_medians,
    peak_rss_mb,
    per_job,
    percentile,
    pooled,
    repeat_jobs,
)

WORK_DIR = ROOT / ".perfbench_work"
INSTANCE_POOL = 8


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[name for name, _why in catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and a short run, for self-tests")
    return parser.parse_args(argv)


def measure(workload: str, seeds, seconds: float, trace: bool,
            quick: bool):
    """Run the workload; returns (checked jobs, timed jobs, traced jobs).

    ``--trace 1`` rotates over the instances twice, untraced then traced,
    so the same inputs give both the per-layer spans and the overhead.
    """
    if workload == "serve_mixed":
        import serve_wl

        instances = serve_wl.instances_for(seeds, quick)
        work = WORK_DIR / f"serve-{os.getpid()}"

        def run_job(index, traced=False):
            spans = work / f"spans-{index}.json" if traced else None
            return serve_wl.run_job(instances[index], index,
                                    work / str(index), spans)

        # Every job of this workload checks every answer it gets.
        checked = []
    else:
        from tracing import SpanRecorder

        if workload == "stream_churn":
            import stream_wl as module
        else:
            import collections_wl as module
        instances = module.instances_for(workload, seeds, quick)

        def run_job(index, traced=False, verify=False):
            return module.run_job(
                instances[index], index, verify=verify,
                recorder=SpanRecorder() if traced else None)

        checked = [run_job(index, verify=True)
                   for index in range(len(instances))]
    count = len(instances)
    try:
        if not trace:
            return checked, repeat_jobs(run_job, count, seconds), []
        jobs = repeat_jobs(
            lambda k: run_job(k % count, traced=k >= count),
            2 * count, seconds)
        return (checked,
                [job for k, job in enumerate(jobs) if k % (2 * count) < count],
                [job for k, job in enumerate(jobs)
                 if k % (2 * count) >= count])
    finally:
        if workload == "serve_mixed":
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK_DIR.rmdir()


def end_to_end(workload: str, jobs) -> dict:
    op_ms = pooled(jobs, "op_ms")
    return {
        "setup_s": per_job(jobs, "setup_s"),
        "job_s": per_job(jobs, "job_s"),
        "op_p50_ms": percentile(op_ms, 50),
        "op_p90_ms": percentile(op_ms, 90),
        "peak_rss_mb": peak_rss_mb(children=workload == "serve_mixed"),
    }


def workload_figures(workload: str, jobs) -> dict:
    """The workload's own figures, by the names users know them by."""
    figures = {"jobs": (len(jobs), "count")}
    if workload.endswith("_collection"):
        for name in ("materialize_s", "analytics_s", "job_s"):
            figures[name] = (per_job(jobs, name), "s")
        figures["views"] = (len(pooled(jobs, "op_ms")), "count")
    elif workload == "stream_churn":
        ingest = pooled(jobs, "op_ms")
        figures["ingest_p50_ms"] = (percentile(ingest, 50), "ms")
        figures["ingest_p90_ms"] = (percentile(ingest, 90), "ms")
        figures["ingest_samples"] = (len(ingest), "count")
        figures["updates_per_s"] = (per_job(jobs, "updates", scaled=False)
                                    / per_job(jobs, "ingest_s"), "1/s")
        figures["snapshot_p50_ms"] = (
            percentile(pooled(jobs, "snapshot_ms"), 50), "ms")
    else:
        runs = pooled(jobs, "run_ms")
        mutates = pooled(jobs, "mutate_ms")
        figures["run_p50_ms"] = (percentile(runs, 50), "ms")
        figures["run_p90_ms"] = (percentile(runs, 90), "ms")
        figures["run_samples"] = (len(runs), "count")
        figures["hit_p50_ms"] = (percentile(pooled(jobs, "hit_ms"), 50), "ms")
        figures["mutate_p50_ms"] = (percentile(mutates, 50), "ms")
        figures["mutate_samples"] = (len(mutates), "count")
        figures["requests_per_s"] = (per_job(jobs, "requests", scaled=False)
                                     / per_job(jobs, "job_s"), "1/s")
    figures["job_s_wall_clock"] = (per_job(jobs, "job_s", scaled=False), "s")
    figures["speed_probe_ms"] = (statistics.median(
        1000.0 * REFERENCE_PROBE_S / job.scale for job in jobs), "ms")
    return figures


def per_layer(timed, traced) -> dict:
    """Per-layer figures: spans from traced jobs, results from untraced."""
    units = catalog.per_layer_units()
    times = {name for name, unit in units.items()
             if unit in ("s", "ms", "us")}
    layers = layer_medians(traced, times)
    layers.update(layer_medians(timed, times))
    layers["tracing.job_s"] = per_job(traced, "job_s")
    layers["tracing.overhead_s"] = (layers["tracing.job_s"]
                                    - per_job(timed, "job_s"))
    # A layer the workload never enters ran zero times.
    return {name: layers.get(name, 0.0) for name in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout's {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.quick:
        args.seconds = min(args.seconds, 1.0)
    # One core for this process and the daemon it starts: the speed probe
    # then samples the core the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    seeds = [instance_seed(args.seed, i) for i in range(INSTANCE_POOL)]
    try:
        checked, timed, traced = measure(args.workload, seeds, args.seconds,
                                         bool(args.trace), args.quick)
        check_counters_repeat(checked + timed + traced)
    except CheckFailed as failure:
        print(f"perfbench: {args.workload} seed {args.seed}: check failed: "
              f"{failure}", file=sys.stderr)
        emit(False, 1, 1, {})
        return 1
    everything = checked + timed + traced
    attempted = sum(job.attempted for job in everything)
    failed = sum(job.failed for job in everything)
    for name, (value, unit) in workload_figures(args.workload,
                                                timed).items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    counters = sorted({(job.instance, job.counters[:2]) for job in everything
                       if job.counters is not None})
    print(f"{args.workload} exact counters (instance, work, parallel_time): "
          f"{json.dumps(counters)}")
    if args.trace:
        units = catalog.per_layer_units()
        values = per_layer(timed, traced)
    else:
        units = catalog.end_to_end_units()
        values = end_to_end(args.workload, timed)
    emit(True, attempted, failed,
         {name: (values[name], units[name]) for name in units})
    return 0


if __name__ == "__main__":
    sys.exit(main())
