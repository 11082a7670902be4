"""Timely-dataflow substrate: worker sharding and work metering.

The original Graphsurge runs on Timely Dataflow, which scales operators
across workers by partitioning records on a key. This package provides the
execution-model pieces the differential engine builds on:

* :func:`repro.timely.worker.shard_for` — deterministic record→worker
  assignment (hash partitioning, as TD's ``exchange`` does).
* :class:`repro.timely.meter.WorkMeter` — per-worker, per-superstep work
  accounting used to compute *simulated parallel time*, the deterministic
  cost metric reported by the benchmark harness (see DESIGN.md §2.3/§2.4).

Workers are simulated: every shard runs in this process and parallel time
is modelled, not measured (``docs/engine.md``, "Workers", explains why
there is no multi-process backend). There is no separate timely dataflow
graph: every dataflow is a :mod:`repro.differential` dataflow, and the
acyclic view-collection steps (EBM, ordering, difference stream) are
direct code.
"""

from repro.timely.meter import WorkMeter
from repro.timely.worker import shard_for, stable_hash

__all__ = ["WorkMeter", "shard_for", "stable_hash"]
