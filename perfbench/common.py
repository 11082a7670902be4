"""Shared machinery: the repetition loop, statistics and the result record.

A run measures ``instances`` seeded inputs (each its own graph, GVDL text,
batches or request script) and repeats jobs on them in rotation until its
time is up. A per-job figure is reported as the mean, over the instances,
of the median over that instance's jobs: the median resists machine
noise, the mean over instances averages out the structure of any single
generated graph. Latencies are pooled over every job of the run.

Every job starts from a collected heap, so garbage left by the previous
job is not charged to it.

Times are reported in *reference seconds*. On a shared host the speed of
the CPU drifts by up to 2x over tens of seconds, more than a run can
average out. So while a job runs, a timer signal runs a tiny fixed
pure-Python probe kernel every 50 ms in this process, and the job's times
are scaled by ``REFERENCE_PROBE_S / median probe time``: a job that took
2.0 s while the probe took 0.6 ms reads 1.67 s, as it would have with the
probe at 0.5 ms. Over three minutes of one perturbation_collection input
on a 2-core shared VM, this took the job time's quartile spread from 32%
of its median (raw) to 9% (scaled). The probe costs about 1% of a job.
The raw wall-clock job time is printed beside the scaled one.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Optional, Sequence
REFERENCE_PROBE_S = 0.0005
PROBE_INTERVAL_S = 0.05


class CheckFailed(AssertionError):
    """An output or counter check failed; the run is not correct."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def instance_seed(seed: int, index: int) -> int:
    """The seed of the ``index``-th input instance of a run."""
    return seed * 1009 + index * 7919 + 17


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in KB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _probe_kernel() -> float:
    started = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(3000):
        table[i % 100] = table.get(i % 100, 0) + i
    return time.perf_counter() - started


class SpeedProbe:
    """Samples the host's speed while a job runs (see the module docstring)."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        self.samples.append(_probe_kernel())

    def __enter__(self) -> "SpeedProbe":
        self.samples.append(_probe_kernel())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(_probe_kernel())

    @property
    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.samples)


@dataclass
class Job:
    """What one job reported: per-job scalars and per-op samples.

    Scalars and samples are raw wall-clock figures; ``scale`` converts
    their times to reference seconds (see the module docstring).
    """

    instance: int
    scale: float = 1.0
    scalars: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    counters: Optional[tuple] = None
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


def repeat_jobs(run_job: Callable[[int], Job], instances: int,
                seconds: float) -> List[Job]:
    """Run jobs on instances 0, 1, ... in rotation for ``seconds``.

    Every instance runs at least once, so a short run still covers all
    of its inputs. Each job runs under a :class:`SpeedProbe`, which sets
    its ``scale``.
    """
    jobs: List[Job] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < instances or time.perf_counter() < deadline:
        gc.collect()
        with SpeedProbe() as probe:
            job = run_job(index % instances)
        job.scale = probe.scale
        jobs.append(job)
        index += 1
    return jobs


def per_job(jobs: Sequence[Job], name: str, scaled: bool = True) -> float:
    """Mean over instances of the median over that instance's jobs."""
    by_instance: Dict[int, List[float]] = {}
    for job in jobs:
        if name in job.scalars:
            by_instance.setdefault(job.instance, []).append(
                job.scalars[name] * (job.scale if scaled else 1.0))
    if not by_instance:
        raise ValueError(f"no job reported {name!r}")
    return statistics.fmean(statistics.median(values)
                            for values in by_instance.values())


def pooled(jobs: Sequence[Job], name: str) -> List[float]:
    """Every job's ``name`` samples, in reference milliseconds."""
    return [value * job.scale for job in jobs
            for value in job.samples.get(name, ())]


def layer_medians(jobs: Sequence[Job],
                  times: Collection[str] = ()) -> Dict[str, float]:
    """Median of every per-layer figure over the jobs that report it.

    Figures named in ``times`` are converted to reference units first.
    """
    names = sorted({name for job in jobs for name in job.layers})
    return {name: statistics.median(
                job.layers[name] * (job.scale if name in times else 1.0)
                for job in jobs if name in job.layers)
            for name in names}


def check_counters_repeat(jobs: Sequence[Job]) -> None:
    """Exact counters must repeat on every job of one instance."""
    first: Dict[int, tuple] = {}
    for job in jobs:
        if job.counters is None:
            continue
        seen = first.setdefault(job.instance, job.counters)
        check(seen == job.counters,
              f"instance {job.instance}: exact counters changed between "
              f"jobs: {seen} != {job.counters}")


def emit(correct: bool, attempted: int, failed: int,
         metrics: Dict[str, tuple]) -> None:
    """Print the result record as the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
