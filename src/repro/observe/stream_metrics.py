"""Per-epoch metering for the streaming engine.

The batch profiler (:mod:`repro.observe.profile`) answers "where did this
collection's work go"; a stream needs the time axis instead: per epoch,
how big was the batch, how much model work did absorbing it cost, how
large was the emitted result delta, and how long did the step take on
the wall clock. The work figures come off the deterministic
:class:`~repro.timely.meter.WorkMeter` and are byte-reproducible across
runs; wall-clock latency is real time and is reported but
never part of any equality invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List


@dataclass(frozen=True)
class EpochMetric:
    """Metering for one (epoch, query) ingestion step."""

    epoch: int
    query: str
    batch_size: int
    delta_records: int
    output_delta_size: int
    work: int
    parallel_time: int
    latency_s: float

    def to_payload(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "query": self.query,
            "batch_size": self.batch_size,
            "delta_records": self.delta_records,
            "output_delta_size": self.output_delta_size,
            "work": self.work,
            "parallel_time": self.parallel_time,
            "latency_s": round(self.latency_s, 6),
        }


class StreamMeter:
    """Accumulates :class:`EpochMetric` rows for one stream session."""

    def __init__(self) -> None:
        self.epochs: List[EpochMetric] = []

    def record(self, metric: EpochMetric) -> None:
        self.epochs.append(metric)

    def total_work(self) -> int:
        return sum(metric.work for metric in self.epochs)

    def per_query_work(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for metric in self.epochs:
            out[metric.query] = out.get(metric.query, 0) + metric.work
        return out

    def summary(self) -> Dict[str, Any]:
        """Roll-up the serving layer and CLI report for a stream."""
        if not self.epochs:
            return {"epochs": 0, "total_work": 0, "total_latency_s": 0.0,
                    "max_epoch_work": 0, "queries": {}}
        per_epoch_work: Dict[int, int] = {}
        for metric in self.epochs:
            per_epoch_work[metric.epoch] = (
                per_epoch_work.get(metric.epoch, 0) + metric.work)
        return {
            "epochs": len(per_epoch_work),
            "total_work": self.total_work(),
            "total_latency_s": round(
                sum(m.latency_s for m in self.epochs), 6),
            "max_epoch_work": max(per_epoch_work.values()),
            "queries": self.per_query_work(),
        }

    def rows(self) -> List[Dict[str, Any]]:
        return [metric.to_payload() for metric in self.epochs]
